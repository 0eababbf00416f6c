// The batch supervisor: fans manifest tasks out to a bounded pool of
// fault-isolated worker subprocesses, records every attempt in the
// durable run ledger, and drives the retry / degradation / quarantine
// policy (docs/BATCH.md):
//
//  * exit 0 / exit 3 (verdict)  -> task completed (3 is still recorded
//    as a negative verdict and fails the batch exit code)
//  * exit 1 / exit 2            -> deterministic config/input error:
//    quarantined immediately, retries would change nothing
//  * exit 4 (resource)          -> retried ONCE with budgets scaled by
//    escalate-factor; exhausted again -> quarantined (or accepted as a
//    completed partial result under accept-resource=true)
//  * crash (signal), supervisor timeout, exit 5 -> retried with capped
//    exponential backoff; a crashed parallel chase retries with
//    --threads 1; retries exhausted -> quarantined with a crash-triage
//    report
//
// Chase tasks are checkpointed to a per-task snapshot path derived from
// the task id; every retry (and every rerun of the whole batch) resumes
// from the newest surviving checkpoint instead of restarting.
//
// Rerunning the supervisor over an existing ledger is idempotent:
// terminal tasks are skipped, interrupted tasks continue with their
// attempt history (supervisor-shutdown attempts do not burn retry
// budget), and the run converges to a terminal state for every task.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>

#include "api/flags.h"
#include "base/budget.h"
#include "base/status.h"
#include "supervise/manifest.h"

namespace tgdkit {

/// Effective run options: built-in defaults, overridden by the manifest's
/// `batch` settings, overridden by `tgdkit batch` command-line flags.
/// BatchFlags() sets them.
struct SupervisorOptions {
  std::string manifest_path;
  /// Artifact directory: per-task stdout/stderr/triage files plus the
  /// `ck/` checkpoint directory. Default: `<manifest>.runs`.
  std::string run_dir;
  /// Ledger path. Default: `<run_dir>/ledger.jsonl`.
  std::string ledger_path;
  /// Non-empty: fork+exec this tgdkit binary for workers instead of the
  /// in-process fork.
  std::string worker_binary;
  uint64_t max_parallel = 2;
  /// Retries after the first attempt (max charged attempts = retries+1).
  uint64_t retries = 2;
  uint64_t backoff_ms = 200;
  uint64_t backoff_cap_ms = 5000;
  uint64_t grace_ms = 2000;
  /// Per-task wall-clock deadline enforced by the supervisor; 0 = none.
  uint64_t task_deadline_ms = 0;
  /// Budget multiplier for the one-shot ResourceExhausted retry;
  /// 0 or 1 disables escalation (a resource stop quarantines directly).
  uint64_t escalate_factor = 2;
  /// Checkpoint cadence injected into chase tasks (0 = leave unset).
  uint64_t checkpoint_every_steps = 0;
  uint64_t checkpoint_every_ms = 200;
  /// Record resource-stopped attempts as completed partial results
  /// instead of escalating/quarantining.
  bool accept_resource = false;
  /// Supervisor-level cooperative cancellation (SIGINT/SIGTERM): stops
  /// launching, SIGTERMs running workers, leaves the run resumable.
  CancellationToken cancel;
};

/// The flags of `tgdkit batch`. A manifest's `batch` settings are its
/// number and switch rows (ParseManifest).
const FlagTable<SupervisorOptions>& BatchFlags();

struct SupervisorReport {
  uint64_t total = 0;
  /// Tasks already terminal in the loaded ledger (no work this run).
  uint64_t skipped = 0;
  uint64_t completed = 0;
  uint64_t quarantined = 0;
  /// Completed tasks whose final exit was 3 (negative verdict).
  uint64_t verdicts = 0;
  /// Attempts that ran in this invocation.
  uint64_t attempts = 0;
  /// The run was interrupted (cancellation); some tasks are not terminal.
  bool interrupted = false;

  /// Batch exit code: 4 interrupted, 3 any quarantine/negative verdict,
  /// 0 otherwise (ledger failures surface as a Status -> exit 5).
  int ExitCode() const;
};

/// Runs the batch. Progress and the final summary go to `out` as
/// '#'-prefixed machine-readable lines; diagnostics go to `err`. Returns
/// a Status error (Internal/InvalidArgument/DataLoss) only for
/// supervisor-level failures — unreadable manifest/ledger, ledger append
/// failure — never for task failures, which are the report's job.
Result<SupervisorReport> RunBatch(const Manifest& manifest,
                                  const SupervisorOptions& options,
                                  std::ostream& out, std::ostream& err);

}  // namespace tgdkit
