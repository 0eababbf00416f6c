// Unified resource governance for the semi-decision engines.
//
// Every engine in this library — the chase (Theorems 5.1/5.2: a
// semi-decision procedure that may legitimately run forever), the
// second-order model-checking search (NP/NEXPTIME/PSPACE, Section 6),
// the homomorphism/core machinery (NP-hard) and the brute-force oracles —
// can exhaust time or memory on perfectly valid input. This header
// provides the one shared mechanism they all poll:
//
//  * ExecutionBudget — a declarative budget: wall-clock deadline, byte
//    budget, step/branch cap, and a cooperative CancellationToken.
//  * ResourceGovernor — the cheap poll-based guard an engine drives. The
//    fast path is a counter increment; deadline/memory/cancellation are
//    re-checked every kCheckInterval steps.
//  * StopReason — the structured verdict. It subsumes the chase's old
//    StopReason enum and the model checker's budget_exceeded flag, so a
//    partial result is always tagged with *why* it is partial.
//
// Engines never throw or abort on exhaustion: they stop cleanly, keep the
// partial result computed so far, and report the StopReason (surfaced as
// Status::ResourceExhausted at API boundaries).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"

namespace tgdkit {

/// Why an engine run ended. `kFixpoint` is the natural completion of the
/// engine's work (chase fixpoint, exhaustive search finished); everything
/// else is a resource stop and the produced result is partial.
enum class StopReason : uint8_t {
  kFixpoint = 0,  // natural completion; the result is total
  kRoundLimit,    // chase round cap
  kFactLimit,     // chase fact cap
  kDepthLimit,    // Skolem-term nesting cap
  kStepLimit,     // generic step/branch/trigger cap
  kDeadline,      // wall-clock deadline passed
  kMemoryLimit,   // byte budget exceeded
  kCancelled,     // cooperative cancellation requested
};

/// Renders a stop reason for logs and experiment output, e.g. "deadline".
const char* ToString(StopReason stop);

/// True for every reason except kFixpoint.
bool IsResourceStop(StopReason stop);

/// Machine-readable Status for an engine outcome: Ok for kFixpoint,
/// Status::ResourceExhausted("<what> stopped by <reason>") otherwise.
Status StopReasonToStatus(StopReason stop, const std::string& what);

/// Cooperative cancellation flag, shared by copy. Cancel() is a relaxed
/// atomic store: safe to call from another thread or from a signal
/// handler (no allocation, no locks).
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  void Reset() { flag_->store(false, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Declarative resource budget. Zero means "unlimited" for every numeric
/// field; the cancellation token is always live.
struct ExecutionBudget {
  /// Steps are engine-defined units of work: chase triggers, matcher row
  /// probes, search branches, oracle configurations.
  uint64_t max_steps = 0;
  /// Wall-clock deadline in milliseconds, measured from governor start.
  uint64_t deadline_ms = 0;
  /// Byte budget over the governor's registered memory sources plus any
  /// directly charged bytes.
  uint64_t max_memory_bytes = 0;
  CancellationToken cancel;
};

/// Poll-based guard enforcing an ExecutionBudget.
///
/// Usage: construct from a budget, register the memory-bearing structures
/// (TermArena, Instance, search tables) as byte sources, then call Poll()
/// once per unit of work. Poll() returns false exactly once the budget is
/// exhausted; after that the governor stays exhausted and the engine
/// should unwind, keeping its partial result.
///
/// Engines may also record their own domain-specific stops (round/fact/
/// depth caps) via MarkExhausted so one StopReason covers both worlds.
class ResourceGovernor {
 public:
  /// An unlimited governor: Poll() only ever counts steps.
  ResourceGovernor() : ResourceGovernor(ExecutionBudget{}) {}

  explicit ResourceGovernor(const ExecutionBudget& budget);

  /// Registers a byte source, sampled on the slow path. The callable must
  /// outlive the governor.
  void AddMemorySource(std::function<uint64_t()> bytes);

  /// Direct byte accounting for allocations with no samplable owner.
  void ChargeBytes(uint64_t bytes) { charged_bytes_ += bytes; }

  /// Counts one step. Returns true while the budget holds. O(1) except
  /// every kCheckInterval-th call, which samples the clock and memory.
  bool Poll() {
    if (exhausted_) return false;
    ++steps_;
    if (steps_ < next_check_) return true;
    return SlowPathCheck();
  }

  /// Counts `n` steps at once (batch work such as a flushed trigger).
  bool PollN(uint64_t n) {
    if (exhausted_) return false;
    steps_ += n;
    if (steps_ < next_check_) return true;
    return SlowPathCheck();
  }

  /// Forces an immediate deadline/memory/cancellation check.
  bool CheckNow() { return !exhausted_ && SlowPathCheck(); }

  /// Records an engine-specific stop (round/fact/depth limit). The first
  /// recorded reason wins; later calls are ignored.
  void MarkExhausted(StopReason reason);

  /// Checkpoint/resume support: seeds the governor with the consumption a
  /// restored snapshot already paid for. Prior steps/bytes appear in
  /// total_steps()/total_charged_bytes() (telemetry) but are NOT charged
  /// against this governor's max_steps/max_memory budget — a resumed run
  /// gets the full budget it was launched with, not the remainder of a
  /// budget from a previous process.
  void RestorePriorConsumption(uint64_t steps, uint64_t charged_bytes) {
    prior_steps_ = steps;
    prior_charged_bytes_ = charged_bytes;
  }

  /// Registers a periodic checkpoint hook, invoked from the slow path
  /// (every kCheckInterval steps) once at least `every_steps` steps or
  /// `every_ms` milliseconds have passed since the previous invocation.
  /// Zero means "no constraint" for either field; with both zero the hook
  /// fires on every slow-path check. The hook must not re-enter Poll().
  void SetCheckpointHook(uint64_t every_steps, uint64_t every_ms,
                         std::function<void()> hook);

  /// Registers a memory-pressure hook: when a slow-path sample finds the
  /// byte budget exceeded, the handler runs first (an out-of-core store
  /// spills and evicts segments here), the sources are resampled, and the
  /// run only stops with kMemoryLimit if it is STILL over budget — graceful
  /// degradation before ResourceExhausted. The handler is called from the
  /// polling thread at a serial point and must not re-enter Poll().
  void SetPressureHandler(std::function<void(uint64_t target_bytes)> handler) {
    pressure_handler_ = std::move(handler);
  }

  bool exhausted() const { return exhausted_; }

  /// kFixpoint while running / completed; the stop reason once exhausted.
  StopReason reason() const { return reason_; }

  /// Steps consumed by THIS governor (excludes restored prior steps —
  /// budget limits apply to this count).
  uint64_t steps() const { return steps_; }
  /// Lifetime steps across resumes: restored prior consumption plus this
  /// governor's own. This is the number engines should report.
  uint64_t total_steps() const { return prior_steps_ + steps_; }
  /// Bytes at the last slow-path sample (sources + charged).
  uint64_t memory_bytes() const { return observed_bytes_; }
  /// Directly charged bytes (ChargeBytes), excluding prior consumption.
  uint64_t charged_bytes() const { return charged_bytes_; }
  /// Lifetime charged bytes across resumes.
  uint64_t total_charged_bytes() const {
    return prior_charged_bytes_ + charged_bytes_;
  }
  /// Milliseconds since the governor was constructed.
  double elapsed_ms() const;

  /// Status form of the current verdict: Ok unless exhausted.
  Status ToStatus(const std::string& what) const {
    return StopReasonToStatus(reason_, what);
  }

  /// How many Poll() calls run on the fast path between full checks.
  /// Small enough that a 200 ms deadline stops within a few ms on the
  /// workloads in this repo; large enough to keep Poll() out of profiles.
  static constexpr uint64_t kCheckInterval = 1024;

 private:
  bool SlowPathCheck();

  ExecutionBudget budget_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::function<uint64_t()>> memory_sources_;
  uint64_t charged_bytes_ = 0;
  uint64_t observed_bytes_ = 0;
  uint64_t steps_ = 0;
  uint64_t next_check_ = kCheckInterval;
  bool exhausted_ = false;
  StopReason reason_ = StopReason::kFixpoint;
  // Consumption restored from a snapshot: reported, never re-charged.
  uint64_t prior_steps_ = 0;
  uint64_t prior_charged_bytes_ = 0;
  // Memory-pressure relief hook (slow-path driven; see SetPressureHandler).
  std::function<void(uint64_t)> pressure_handler_;
  // Periodic checkpoint hook (slow-path driven).
  std::function<void()> checkpoint_hook_;
  uint64_t checkpoint_every_steps_ = 0;
  uint64_t checkpoint_every_ms_ = 0;
  uint64_t last_checkpoint_steps_ = 0;
  double last_checkpoint_ms_ = 0;
};

}  // namespace tgdkit
