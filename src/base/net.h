// Minimal stream-socket helpers for the serve daemon and its clients.
//
// Everything returns a Result<int> owning file descriptor (CLOEXEC set)
// or a Status carrying errno text; no buffering, no framing — the serve
// protocol layer owns that. Only local transports are offered: a Unix
// domain socket path or a TCP port bound to 127.0.0.1 (the daemon is an
// admission-controlled service, not an internet-facing one).
#pragma once

#include <cstdint>
#include <string>

#include "base/status.h"

namespace tgdkit {

/// Creates, binds and listens on a Unix domain socket. An existing
/// socket file at `path` is unlinked first (a daemon restarting over a
/// stale socket must not need manual cleanup); a live daemon on the
/// same path will lose its listener, so callers own path hygiene.
Result<int> ListenUnix(const std::string& path, int backlog);

/// Creates, binds and listens on 127.0.0.1:`port`. port == 0 picks an
/// ephemeral port; *bound_port receives the actual port either way.
Result<int> ListenTcpLocal(uint16_t port, int backlog,
                           uint16_t* bound_port);

/// Accepts one pending connection (the listener must be readable).
/// Returns the connected fd, or kUnavailable-style ResourceExhausted
/// when the accept would block (EAGAIN — poll raced a reset).
Result<int> AcceptConnection(int listen_fd);

Result<int> ConnectUnix(const std::string& path);

/// O_NONBLOCK on/off.
Status SetNonBlocking(int fd, bool nonblocking);

/// Writes all of `data`, retrying short writes and EINTR. For blocking
/// sockets (clients). EPIPE and other errors surface as Internal.
Status WriteAll(int fd, const std::string& data);

}  // namespace tgdkit
