#include "base/net.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "base/strings.h"

namespace tgdkit {

namespace {

Status Errno(const char* what) {
  return Status::Internal(Cat(what, ": ", strerror(errno)));
}

Result<int> NewSocket(int domain) {
  int fd = socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  return fd;
}

}  // namespace

Result<int> ListenUnix(const std::string& path, int backlog) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        Cat("socket path too long (", path.size(), " bytes): ", path));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  Result<int> fd = NewSocket(AF_UNIX);
  if (!fd.ok()) return fd;
  unlink(path.c_str());
  if (bind(*fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    close(*fd);
    errno = saved;
    return Errno("bind");
  }
  if (listen(*fd, backlog) != 0) {
    int saved = errno;
    close(*fd);
    errno = saved;
    return Errno("listen");
  }
  return fd;
}

Result<int> ListenTcpLocal(uint16_t port, int backlog,
                           uint16_t* bound_port) {
  Result<int> fd = NewSocket(AF_INET);
  if (!fd.ok()) return fd;
  int one = 1;
  setsockopt(*fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(*fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    close(*fd);
    errno = saved;
    return Errno("bind");
  }
  if (listen(*fd, backlog) != 0) {
    int saved = errno;
    close(*fd);
    errno = saved;
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(*fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    int saved = errno;
    close(*fd);
    errno = saved;
    return Errno("getsockname");
  }
  if (bound_port != nullptr) *bound_port = ntohs(addr.sin_port);
  return fd;
}

Result<int> AcceptConnection(int listen_fd) {
  for (;;) {
    int fd = accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED) {
      return Status::ResourceExhausted("accept would block");
    }
    return Errno("accept");
  }
}

Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        Cat("socket path too long (", path.size(), " bytes): ", path));
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  Result<int> fd = NewSocket(AF_UNIX);
  if (!fd.ok()) return fd;
  if (connect(*fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    close(*fd);
    errno = saved;
    return Errno("connect");
  }
  return fd;
}

Result<int> ConnectTcpLocal(uint16_t port) {
  Result<int> fd = NewSocket(AF_INET);
  if (!fd.ok()) return fd;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(*fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    close(*fd);
    errno = saved;
    return Errno("connect");
  }
  return fd;
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  int updated = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(fd, F_SETFL, updated) < 0) return Errno("fcntl(F_SETFL)");
  return Status::Ok();
}

Status WriteAll(int fd, const std::string& data) {
  size_t written = 0;
  while (written < data.size()) {
    // MSG_NOSIGNAL: a peer that went away must surface as EPIPE, never
    // as a process-killing SIGPIPE — callers (tests, in-process
    // servers) cannot be assumed to ignore the signal globally.
    ssize_t n = send(fd, data.data() + written, data.size() - written,
                     MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace tgdkit
