// The serve wire protocol: line-delimited flat JSON frames.
//
// One request per line, one response per line, over a Unix or TCP
// stream socket. Frames reuse the supervise/jsonl flat-object grammar
// (strings, numbers, booleans, arrays of strings — never nested
// objects), so the same audited parser handles the wire and the
// ledgers, and `grep` works on captures. docs/SERVE.md is the contract.
//
// Request:
//   {"id":"r1","command":"classify","args":["deps.tgd"],
//    "file_names":["deps.tgd"],"file_contents":["r(X) -> s(X) ."],
//    "deadline_ms":5000,"memory_mb":256}
//
// `args` is the exact argv tail the CLI would take after the command
// word; paths listed in file_names resolve to the paired file_contents
// entry instead of the daemon's filesystem. Responses echo the id:
//
//   {"id":"r1","status":"ok","exit":0,"duration_ms":12,
//    "stdout":"...","stderr":""}
//
// `status` is "ok" whenever the command ran (exit carries the normal
// CLI exit code, stdout/stderr the byte-identical streams); every other
// status is a typed refusal: "bad_request" (unparseable/invalid frame),
// "overloaded" (admission shed, retry_after_ms hints when),
// "quarantined" (this ruleset hash keeps wrecking workers),
// "timeout" (the request ignored cancellation past its deadline and was
// abandoned), "draining" (the daemon is shutting down).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace tgdkit {

struct ServeRequest {
  std::string id;
  std::string command;
  std::vector<std::string> args;
  std::vector<std::string> file_names;
  std::vector<std::string> file_contents;
  /// 0 = absent; the server applies its default deadline at admission.
  uint64_t deadline_ms = 0;
  /// 0 = absent; the server assumes its default memory commitment.
  uint64_t memory_mb = 0;
};

/// Typed response statuses. Everything except kOk is a refusal that
/// carries `error` instead of exit/stdout/stderr.
enum class ServeStatus : uint8_t {
  kOk = 0,
  kBadRequest,
  kOverloaded,
  kQuarantined,
  kTimeout,
  kDraining,
};

const char* ToString(ServeStatus status);
bool ParseServeStatus(std::string_view text, ServeStatus* out);

struct ServeResponse {
  std::string id;
  ServeStatus status = ServeStatus::kOk;
  int exit_code = 0;
  uint64_t duration_ms = 0;
  std::string out;
  std::string err;
  /// Refusal detail for non-kOk statuses.
  std::string error;
  /// Backoff hint for kOverloaded (0 = none).
  uint64_t retry_after_ms = 0;
};

/// Parses one request frame (no trailing newline). InvalidArgument on
/// malformed JSON, a missing/empty id or command, or mismatched
/// file_names/file_contents lengths. When the frame is valid JSON, the
/// id (if any) is copied into *out even on error, so refusals can still
/// be correlated by the client.
Status ParseServeRequest(std::string_view line, ServeRequest* out);

/// Renders a request as one frame (no trailing newline).
std::string RenderServeRequest(const ServeRequest& request);

/// Parses one response frame. InvalidArgument on malformed JSON or an
/// unknown status.
Status ParseServeResponse(std::string_view line, ServeResponse* out);

/// Renders a response as one frame (no trailing newline).
std::string RenderServeResponse(const ServeResponse& response);

/// Convenience constructor for typed refusals.
ServeResponse MakeRefusal(std::string id, ServeStatus status,
                          std::string error);

}  // namespace tgdkit
