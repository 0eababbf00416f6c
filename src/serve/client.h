// A minimal blocking client for the serve protocol, shared by tests,
// the stress/chaos suites and bench_serve. One connection, buffered
// line reads, and a raw-bytes escape hatch so chaos tests can send
// malformed and truncated frames.
#pragma once

#include <cstdint>
#include <string>

#include "base/status.h"
#include "serve/protocol.h"

namespace tgdkit {

class ServeClient {
 public:
  static Result<ServeClient> ConnectUnixSocket(const std::string& path);
  static Result<ServeClient> ConnectTcp(uint16_t port);

  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ~ServeClient();

  /// Sends one request frame (newline appended).
  Status Send(const ServeRequest& request);

  /// Sends arbitrary bytes verbatim — the chaos tests' malformed,
  /// truncated and oversized frames go through here.
  Status SendRaw(const std::string& bytes);

  /// Blocks for the next response frame. NotFound on a clean EOF
  /// (server closed the connection).
  Result<ServeResponse> ReadResponse();

  /// Send + ReadResponse. Responses arrive in completion order, so only
  /// use this with one request outstanding (or match ids yourself via
  /// Send/ReadResponse).
  Result<ServeResponse> Call(const ServeRequest& request);

  void Close();

  int fd() const { return fd_; }

 private:
  explicit ServeClient(int fd) : fd_(fd) {}

  Result<std::string> ReadFrame();

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace tgdkit
