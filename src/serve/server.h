// `tgdkit serve` — the fault-contained resident reasoning service.
//
// One process, one poll loop, a fixed worker pool. Requests arrive as
// line-delimited JSON frames (serve/protocol.h) over a Unix or local
// TCP socket, and every admitted request runs through the request-scoped
// library API (api/api.h) exactly as the one-shot CLI runs it, so a
// served answer is byte-identical to the CLI's for the same inputs.
// Nothing is remembered between requests except the quarantine strikes.
// The robustness spine:
//
//   * admission control — every request carries (or is assigned) a
//     deadline and memory commitment; when the aggregate of admitted
//     commitments would exceed configured capacity the request is shed
//     immediately with a typed `overloaded` response, never queued
//     unboundedly;
//   * per-request cancellation — each request gets its own token,
//     cancelled on client disconnect and by the server-side deadline
//     watchdog; cooperative engines stop with their usual exit-4
//     partial output;
//   * hard-overrun abandonment — a request that ignores cancellation
//     past deadline + grace gets a typed `timeout` response and is
//     abandoned (its eventual output is discarded); its worker lane
//     stays occupied, which is exactly what admission should see;
//   * quarantine — repeated in-flight failures (exit 5, hard overruns)
//     for the same ruleset hash trip a breaker and further requests for
//     that hash are refused without burning a worker;
//   * graceful drain — on SIGTERM the daemon stops accepting, lets
//     in-flight requests finish for --drain-ms, then cancels them,
//     then abandons the truly hostile, and flushes a durable JSONL
//     serve ledger (supervise/jsonl discipline) whose last record is
//     the drain summary.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/status.h"

namespace tgdkit {

struct ServeOptions {
  /// Exactly one transport: a Unix socket path, or a local TCP port
  /// (0 = ephemeral; the readiness callback reports the real one).
  std::string socket_path;
  int tcp_port = -1;

  /// Worker lanes executing requests (the poll loop is separate).
  uint32_t threads = 4;
  /// Admission caps: concurrent requests (0 = same as threads), and the
  /// aggregate deadline / memory commitments of admitted requests.
  uint32_t max_inflight = 0;
  uint64_t max_commit_deadline_ms = 60000;
  uint64_t max_commit_memory_mb = 4096;
  /// Commitments assumed for requests that do not declare their own.
  uint64_t default_deadline_ms = 10000;
  uint64_t default_memory_mb = 256;
  /// How long past its deadline a request may ignore cancellation
  /// before it is abandoned with a `timeout` response.
  uint64_t hard_grace_ms = 2000;

  uint64_t max_frame_bytes = 1u << 20;
  uint32_t quarantine_after = 3;
  /// Durable request/response/drain ledger (empty = no ledger).
  std::string ledger_path;
  /// Worker binary injected into `batch` requests lacking --worker
  /// (in-process forks are rejected inside the daemon).
  std::string worker_binary;
  /// Drain patience before in-flight requests are cancelled.
  uint64_t drain_ms = 5000;
  /// Drain automatically after this many responses (0 = never); a test
  /// and bench hook.
  uint64_t max_requests = 0;

  /// Cancelling this token starts the graceful drain (the CLI wires it
  /// to the SIGTERM-driven global token).
  CancellationToken shutdown;
  /// Called once listening, with the bound TCP port (0 for Unix
  /// sockets). Tests use this instead of scraping stdout.
  std::function<void(uint16_t port)> on_ready;
};

struct ServeSummary {
  uint64_t admitted = 0;
  uint64_t ok = 0;          // responses with status "ok"
  uint64_t shed = 0;        // overloaded refusals
  uint64_t quarantined = 0; // quarantined refusals
  uint64_t bad_frames = 0;
  uint64_t timeouts = 0;    // hard-overrun abandonments
  uint64_t draining_refusals = 0;
  /// Workers still wedged in abandoned requests at exit. The caller
  /// must not join them (RunServeCommand hard-exits instead).
  bool stuck_workers = false;
};

/// Runs the daemon until drain completes. `out` carries the readiness
/// line and the drain summary (both `# serve:`-prefixed machine lines);
/// `err` carries diagnostics.
Result<ServeSummary> RunServer(const ServeOptions& options,
                               std::ostream& out, std::ostream& err);

/// `tgdkit serve` entry point: parses flags, binds the drain trigger to
/// the global (SIGTERM-driven) cancellation token, runs the server.
int RunServeCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err);

}  // namespace tgdkit
