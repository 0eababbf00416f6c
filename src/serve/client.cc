#include "serve/client.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "base/net.h"
#include "base/strings.h"

namespace tgdkit {

namespace {
// A response frame holds whole engine outputs; allow plenty before
// concluding the server went insane.
constexpr size_t kMaxResponseBytes = 256u << 20;
}  // namespace

Result<ServeClient> ServeClient::ConnectUnixSocket(const std::string& path) {
  Result<int> fd = ConnectUnix(path);
  if (!fd.ok()) return fd.status();
  return ServeClient(*fd);
}

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)) {}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

ServeClient::~ServeClient() { Close(); }

void ServeClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Status ServeClient::Send(const ServeRequest& request) {
  return SendRaw(RenderServeRequest(request) + "\n");
}

Status ServeClient::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return Status::Internal("client closed");
  return WriteAll(fd_, bytes);
}

Result<std::string> ServeClient::ReadFrame() {
  if (fd_ < 0) return Status::Internal("client closed");
  for (;;) {
    size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      std::string line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      return line;
    }
    if (buffer_.size() > kMaxResponseBytes) {
      return Status::ResourceExhausted("response frame too large");
    }
    char chunk[4096];
    ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Cat("read: ", strerror(errno)));
    }
    if (n == 0) return Status::NotFound("server closed the connection");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<ServeResponse> ServeClient::ReadResponse() {
  Result<std::string> frame = ReadFrame();
  if (!frame.ok()) return frame.status();
  ServeResponse response;
  TGDKIT_RETURN_IF_ERROR(ParseServeResponse(*frame, &response));
  return response;
}

Result<ServeResponse> ServeClient::Call(const ServeRequest& request) {
  TGDKIT_RETURN_IF_ERROR(Send(request));
  return ReadResponse();
}

}  // namespace tgdkit
