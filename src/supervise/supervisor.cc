#include "supervise/supervisor.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "api/api.h"
#include "base/fileio.h"
#include "base/strings.h"
#include "cli/cli.h"
#include "snapshot/snapshot.h"
#include "supervise/ledger.h"
#include "supervise/worker.h"

namespace tgdkit {

namespace {

const char* SignalName(int signum) {
  switch (signum) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    default: return "signal";
  }
}

/// Scheduling state of one manifest task.
struct TaskState {
  const ManifestTask* task = nullptr;
  /// Attempt numbering (includes cancelled attempts, for unique ids).
  uint64_t attempts = 0;
  /// Attempts charged against the retry budget (excludes supervisor-
  /// shutdown cancellations).
  uint64_t charged = 0;
  bool terminal = false;
  bool completed = false;
  int final_exit = -1;
  bool skipped = false;
  /// One-shot degradations, sticky across attempts and reruns.
  bool degraded = false;
  bool escalated = false;
  /// Backoff gate: earliest supervisor time this task may start.
  double ready_at_ms = 0;
  bool is_chase = false;
  std::string checkpoint_path;
  /// Live attempt.
  std::unique_ptr<WorkerProcess> worker;
  AttemptRecord running_attempt;
  /// Last finished attempt (triage source for quarantine decisions).
  AttemptRecord last_attempt;
  bool have_last_attempt = false;
};

class Supervisor {
 public:
  Supervisor(const Manifest& manifest, const SupervisorOptions& options,
             std::ostream& out, std::ostream& err)
      : manifest_(manifest),
        options_(options),
        out_(out),
        err_(err),
        start_(std::chrono::steady_clock::now()) {}

  Result<SupervisorReport> Run();

 private:
  double NowMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

  uint64_t MaxAttempts(const TaskState& state) const {
    uint64_t retries =
        state.task->retries.value_or(options_.retries);
    return retries + 1;
  }

  uint64_t DeadlineMs(const TaskState& state) const {
    uint64_t deadline =
        state.task->deadline_ms.value_or(options_.task_deadline_ms);
    if (state.escalated && options_.escalate_factor > 1 && deadline != 0) {
      deadline *= options_.escalate_factor;
    }
    return deadline;
  }

  double BackoffMs(uint64_t charged) const {
    double backoff = static_cast<double>(options_.backoff_ms);
    for (uint64_t i = 1; i < charged && backoff < 1e12; ++i) backoff *= 2;
    return std::min(backoff, static_cast<double>(options_.backoff_cap_ms));
  }

  Status Append(LedgerRecord record) {
    // The supervisor's own footprint is accounted like an engine's:
    // every ledger line is charged to the governor, and a memory source
    // (installed in Run) covers the live capture buffers. The governor
    // carries no cap — the numbers are telemetry for the end-of-run
    // diagnostic line, and they surface a supervisor whose retained
    // buffers (not its workers) are what is actually growing.
    governor_.ChargeBytes(RenderLedgerRecord(record).size());
    Status status = AppendLedgerRecord(options_.ledger_path, record);
    if (!status.ok()) {
      err_ << "tgdkit: batch: ledger append failed: " << status.ToString()
           << "\n";
    }
    return status;
  }

  Status ReplayExistingLedger(bool* found);
  Status StartAttempt(TaskState* state);
  Status RunInProcess(TaskState* state, std::vector<std::string> args);
  Status HandleFinished(TaskState* state, const WorkerOutcome& outcome);
  Status Finalize(TaskState* state, bool completed, int exit_code,
                  const std::string& triage);
  std::string TriageReport(const TaskState& state) const;
  void WriteArtifacts(const TaskState& state, const WorkerOutcome& outcome,
                      const std::string& triage) const;

  const Manifest& manifest_;
  const SupervisorOptions& options_;
  std::ostream& out_;
  std::ostream& err_;
  std::chrono::steady_clock::time_point start_;
  std::vector<TaskState> tasks_;
  SupervisorReport report_;
  /// Accounting-only governor (no budget): ledger bytes are charged
  /// through Append, capture/attempt buffers through a memory source.
  ResourceGovernor governor_;
  bool shutdown_ = false;
};

Status Supervisor::ReplayExistingLedger(bool* found) {
  *found = false;
  Result<std::vector<LedgerRecord>> loaded =
      LoadLedger(options_.ledger_path);
  if (!loaded.ok()) {
    if (loaded.status().code() == Status::Code::kNotFound) {
      return Status::Ok();
    }
    return loaded.status();
  }
  *found = true;
  // Budget-charged attempts: count non-cancelled attempt records so a
  // supervisor kill mid-run never burns a task's retry budget.
  std::map<std::string, uint64_t> charged;
  for (const LedgerRecord& record : *loaded) {
    if (record.kind == LedgerRecord::Kind::kAttempt &&
        record.attempt.outcome != AttemptOutcome::kCancelled) {
      ++charged[record.attempt.task];
    }
  }
  std::map<std::string, TaskReplay> replay = ReplayLedger(*loaded);
  for (TaskState& state : tasks_) {
    auto it = replay.find(state.task->id);
    if (it == replay.end()) continue;
    const TaskReplay& past = it->second;
    state.attempts = past.attempts;
    state.charged = charged[state.task->id];
    state.degraded = past.degraded;
    state.escalated = past.escalated;
    if (past.terminal) {
      state.terminal = true;
      state.completed = past.completed;
      state.final_exit = past.final_exit;
      state.skipped = true;
    }
  }
  return Status::Ok();
}

Status Supervisor::StartAttempt(TaskState* state) {
  std::vector<std::string> args = state->task->args;
  AttemptRecord attempt;
  attempt.task = state->task->id;
  attempt.attempt = state->attempts + 1;
  attempt.degraded = state->degraded;
  attempt.escalated = state->escalated;
  bool user_managed_checkpoints = false;
  for (const std::string& arg : args) {
    if (arg == "--checkpoint" || arg == "--resume") {
      user_managed_checkpoints = true;
    }
  }
  if (state->is_chase && !user_managed_checkpoints) {
    std::ifstream snapshot_probe(state->checkpoint_path);
    if (snapshot_probe.good()) {
      args = RewriteChaseForResume(args, state->checkpoint_path);
      attempt.resumed = true;
    } else {
      args.push_back("--checkpoint");
      args.push_back(state->checkpoint_path);
    }
    if (options_.checkpoint_every_steps != 0) {
      args = WithForcedOption(std::move(args), "--checkpoint-every-steps",
                              std::to_string(options_.checkpoint_every_steps));
    }
    if (options_.checkpoint_every_ms != 0) {
      args = WithForcedOption(std::move(args), "--checkpoint-every-ms",
                              std::to_string(options_.checkpoint_every_ms));
    }
  }
  if (state->degraded) {
    args = WithForcedOption(std::move(args), "--threads", "1");
  }
  if (state->escalated && options_.escalate_factor > 1) {
    args = WithScaledBudgets(std::move(args), options_.escalate_factor);
  }
  std::vector<std::string> repro;
  repro.push_back("tgdkit");
  repro.insert(repro.end(), args.begin(), args.end());
  attempt.cmd = ShellQuote(repro);

  if (state->task->in_process) {
    state->running_attempt = std::move(attempt);
    return RunInProcess(state, std::move(args));
  }

  WorkerOptions worker_options;
  worker_options.args = std::move(args);
  worker_options.env = state->task->env;
  worker_options.exec_binary = options_.worker_binary;
  worker_options.deadline_ms = DeadlineMs(*state);
  worker_options.grace_ms = options_.grace_ms;
  auto worker = std::make_unique<WorkerProcess>(std::move(worker_options));
  Status started = worker->Start();
  ++state->attempts;
  ++report_.attempts;
  state->running_attempt = std::move(attempt);
  if (!started.ok()) {
    // The fork/pipe machinery failed; record a finished spawn-error
    // attempt and let the normal retry policy decide.
    ++state->charged;
    state->running_attempt.outcome = AttemptOutcome::kSpawnError;
    state->running_attempt.stderr_tail = started.ToString();
    state->last_attempt = state->running_attempt;
    state->have_last_attempt = true;
    if (state->charged >= MaxAttempts(*state)) {
      state->last_attempt.next = "quarantine";
      TGDKIT_RETURN_IF_ERROR(
          Append(LedgerRecord::Attempt(state->last_attempt)));
      return Finalize(state, /*completed=*/false, -1, TriageReport(*state));
    }
    state->ready_at_ms = NowMs() + BackoffMs(state->charged);
    state->last_attempt.next = "retry";
    return Append(LedgerRecord::Attempt(state->last_attempt));
  }
  state->worker = std::move(worker);
  return Status::Ok();
}

std::string Supervisor::TriageReport(const TaskState& state) const {
  std::string report =
      Cat("task ", state.task->id, " quarantined after ", state.charged,
          " attempt(s)\n");
  if (!state.have_last_attempt) {
    report += "no attempt record available (exhausted in a previous run; "
              "see earlier ledger attempt records)\n";
    return report;
  }
  const AttemptRecord& last = state.last_attempt;
  report += "last attempt: ";
  switch (last.outcome) {
    case AttemptOutcome::kCrash:
      report += Cat("killed by signal ", last.signal, " (",
                    SignalName(last.signal), ")");
      break;
    case AttemptOutcome::kTimeout:
      report += Cat("killed by the supervisor at the ",
                    DeadlineMs(state), " ms task deadline");
      break;
    case AttemptOutcome::kSpawnError:
      report += "worker could not be spawned";
      break;
    default:
      report += Cat("exit ", last.exit_code, " (", ToString(last.outcome),
                    ")");
  }
  report += Cat(" after ", static_cast<uint64_t>(last.duration_ms),
                " ms\n");
  if (last.peak_rss_kb > 0) {
    report += Cat("peak rss: ", last.peak_rss_kb, " KiB");
    if (last.spill_bytes > 0) {
      report += Cat(" (spilled ", last.spill_bytes, " bytes)");
    }
    report += "\n";
  }
  if (last.outcome == AttemptOutcome::kCrash && last.signal == SIGKILL &&
      last.peak_rss_kb > 0) {
    // An external SIGKILL with a large resident set is the kernel OOM
    // killer's signature: the supervisor never sends a bare SIGKILL
    // outside the timeout/shutdown escalations, which record their own
    // outcomes. Suggest the degradation path instead of a blind retry.
    report += Cat("hint: SIGKILL at ", last.peak_rss_kb,
                  " KiB resident looks like an OOM kill; rerun with "
                  "--spill-dir (out-of-core chase, see docs/STORAGE.md) "
                  "or a lower --max-memory-mb\n");
  }
  report += Cat("last status: ",
                last.status_line.empty() ? "(none)" : last.status_line,
                "\n");
  if (!last.stderr_tail.empty()) {
    report += "stderr tail:\n";
    std::string_view tail = last.stderr_tail;
    while (!tail.empty()) {
      size_t eol = tail.find('\n');
      if (eol == std::string_view::npos) eol = tail.size();
      report += Cat("  ", tail.substr(0, eol), "\n");
      tail.remove_prefix(std::min(eol + 1, tail.size()));
    }
  }
  report += Cat("reproduce: ", last.cmd, "\n");
  return report;
}

void Supervisor::WriteArtifacts(const TaskState& state,
                                const WorkerOutcome& outcome,
                                const std::string& triage) const {
  const std::string base = Cat(options_.run_dir, "/", state.task->id);
  // Best effort: artifact failures must not fail the batch (the ledger
  // is the durable record).
  AtomicWriteFile(base + ".out", outcome.stdout_data);
  AtomicWriteFile(base + ".err", outcome.stderr_tail);
  if (!triage.empty()) AtomicWriteFile(base + ".triage.txt", triage);
}

Status Supervisor::Finalize(TaskState* state, bool completed, int exit_code,
                            const std::string& triage) {
  state->terminal = true;
  state->completed = completed;
  state->final_exit = exit_code;
  DoneRecord done;
  done.task = state->task->id;
  done.completed = completed;
  done.exit_code = exit_code;
  done.attempts = state->charged;
  done.triage = triage;
  TGDKIT_RETURN_IF_ERROR(Append(LedgerRecord::Done(std::move(done))));
  if (completed) {
    ++report_.completed;
    if (exit_code == kExitVerdict) ++report_.verdicts;
    out_ << "# task " << state->task->id << ": completed exit="
         << exit_code << " attempts=" << state->charged << "\n";
  } else {
    ++report_.quarantined;
    out_ << "# task " << state->task->id << ": quarantined after "
         << state->charged << " attempt(s)\n";
    std::string_view rest = triage;
    while (!rest.empty()) {
      size_t eol = rest.find('\n');
      if (eol == std::string_view::npos) eol = rest.size();
      out_ << "# triage: " << rest.substr(0, eol) << "\n";
      rest.remove_prefix(std::min(eol + 1, rest.size()));
    }
  }
  return Status::Ok();
}

/// The isolation=none fast path: the task runs right here, through the
/// request-scoped library API, and its result is folded into the exact
/// same attempt/retry/ledger machinery as a forked worker's. Supervisor
/// shutdown cancels it cooperatively via the shared token; there is no
/// per-task deadline (the manifest parser restricts the path to cheap
/// commands).
Status Supervisor::RunInProcess(TaskState* state,
                                std::vector<std::string> args) {
  ++state->attempts;
  ++report_.attempts;
  WorkerOutcome outcome;
  std::ostringstream task_out, task_err;
  ApiOptions api;
  api.cancel = options_.cancel;
  api.forbid_fork_workers = true;
  auto begun = std::chrono::steady_clock::now();
  outcome.exit_code = RunCommand(args, task_out, task_err, api);
  outcome.duration_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - begun)
                            .count();
  outcome.exited = true;
  outcome.stdout_data = task_out.str();
  outcome.stderr_tail = task_err.str();
  const size_t kTailLimit = 4096;
  if (outcome.stderr_tail.size() > kTailLimit) {
    outcome.stderr_tail.erase(0, outcome.stderr_tail.size() - kTailLimit);
  }
  // A cancellation that raced the run is the supervisor's doing, not the
  // task's: record it like a stopped worker so no retry budget burns.
  outcome.stop_requested = options_.cancel.cancelled();
  return HandleFinished(state, outcome);
}

Status Supervisor::HandleFinished(TaskState* state,
                                  const WorkerOutcome& outcome) {
  AttemptRecord attempt = std::move(state->running_attempt);
  attempt.duration_ms = outcome.duration_ms;
  attempt.status_line = ExtractStatusLine(outcome.stdout_data);
  attempt.stop = ExtractStopToken(attempt.status_line);
  attempt.stderr_tail = outcome.stderr_tail;
  attempt.peak_rss_kb = outcome.peak_rss_kb;
  attempt.spill_bytes = ExtractStatusU64(attempt.status_line, "spill_bytes=");
  if (outcome.exited) attempt.exit_code = outcome.exit_code;
  if (outcome.signaled) attempt.signal = outcome.signal;

  if (outcome.stop_requested) {
    attempt.outcome = AttemptOutcome::kCancelled;
  } else if (outcome.timed_out) {
    attempt.outcome = AttemptOutcome::kTimeout;
  } else if (outcome.signaled) {
    attempt.outcome = AttemptOutcome::kCrash;
  } else {
    switch (outcome.exit_code) {
      case kExitOk: attempt.outcome = AttemptOutcome::kOk; break;
      case kExitUsage: attempt.outcome = AttemptOutcome::kUsageError; break;
      case kExitInput: attempt.outcome = AttemptOutcome::kInputError; break;
      case kExitVerdict: attempt.outcome = AttemptOutcome::kVerdict; break;
      case kExitResource: attempt.outcome = AttemptOutcome::kResource; break;
      default: attempt.outcome = AttemptOutcome::kInternal; break;
    }
  }
  if (attempt.outcome != AttemptOutcome::kCancelled) ++state->charged;
  state->last_attempt = attempt;
  state->have_last_attempt = true;

  // Decide the next step.
  enum class Next { kDone, kQuarantine, kRetry, kInterrupted };
  Next next = Next::kRetry;
  bool degrade_now = false;
  bool escalate_now = false;
  switch (attempt.outcome) {
    case AttemptOutcome::kOk:
    case AttemptOutcome::kVerdict:
      next = Next::kDone;
      break;
    case AttemptOutcome::kUsageError:
    case AttemptOutcome::kInputError:
      // Deterministic: the input or the manifest is wrong.
      next = Next::kQuarantine;
      break;
    case AttemptOutcome::kResource:
      if (options_.accept_resource) {
        next = Next::kDone;
      } else if (!state->escalated && options_.escalate_factor > 1 &&
                 state->charged < MaxAttempts(*state)) {
        next = Next::kRetry;
        escalate_now = true;
      } else {
        next = Next::kQuarantine;
      }
      break;
    case AttemptOutcome::kCancelled:
      next = Next::kInterrupted;
      break;
    case AttemptOutcome::kCrash:
    case AttemptOutcome::kTimeout:
    case AttemptOutcome::kInternal:
    case AttemptOutcome::kSpawnError:
      if (state->charged >= MaxAttempts(*state)) {
        next = Next::kQuarantine;
      } else {
        next = Next::kRetry;
        if (!state->degraded &&
            (attempt.outcome == AttemptOutcome::kCrash ||
             attempt.outcome == AttemptOutcome::kTimeout)) {
          // Graceful degradation: a crashed/hung parallel chase retries
          // single-threaded.
          for (size_t i = 1; i + 1 < state->task->args.size(); ++i) {
            if (state->task->args[i] == "--threads" &&
                state->task->args[i + 1] != "1") {
              degrade_now = true;
            }
          }
        }
      }
      break;
  }

  switch (next) {
    case Next::kDone: attempt.next = "done"; break;
    case Next::kQuarantine: attempt.next = "quarantine"; break;
    case Next::kRetry: attempt.next = "retry"; break;
    case Next::kInterrupted: attempt.next = "interrupted"; break;
  }
  TGDKIT_RETURN_IF_ERROR(Append(LedgerRecord::Attempt(attempt)));

  std::string verdict =
      outcome.signaled
          ? Cat("signal=", outcome.signal, " (", SignalName(outcome.signal),
                ")")
          : Cat("exit=", outcome.exit_code);
  switch (next) {
    case Next::kDone: {
      WriteArtifacts(*state, outcome, /*triage=*/"");
      return Finalize(state, /*completed=*/true, outcome.exit_code,
                      /*triage=*/"");
    }
    case Next::kQuarantine: {
      std::string triage = TriageReport(*state);
      WriteArtifacts(*state, outcome, triage);
      return Finalize(state, /*completed=*/false, attempt.exit_code,
                      triage);
    }
    case Next::kRetry: {
      state->degraded |= degrade_now;
      state->escalated |= escalate_now;
      double backoff = BackoffMs(state->charged);
      state->ready_at_ms = NowMs() + backoff;
      out_ << "# task " << state->task->id << ": attempt "
           << attempt.attempt << " " << ToString(attempt.outcome) << " "
           << verdict << " -> retry in "
           << static_cast<uint64_t>(backoff) << " ms"
           << (degrade_now ? " (degraded: --threads 1)" : "")
           << (escalate_now ? " (escalated budgets)" : "") << "\n";
      return Status::Ok();
    }
    case Next::kInterrupted: {
      out_ << "# task " << state->task->id
           << ": attempt interrupted by shutdown\n";
      return Status::Ok();
    }
  }
  return Status::Ok();
}

Result<SupervisorReport> Supervisor::Run() {
  TGDKIT_RETURN_IF_ERROR(MakeDirectories(options_.run_dir));
  TGDKIT_RETURN_IF_ERROR(MakeDirectories(options_.run_dir + "/ck"));
  tasks_.reserve(manifest_.tasks.size());
  for (const ManifestTask& task : manifest_.tasks) {
    TaskState state;
    state.task = &task;
    state.is_chase = task.args[0] == "chase";
    state.checkpoint_path =
        TaskCheckpointPath(options_.run_dir + "/ck", task.id);
    tasks_.push_back(std::move(state));
  }
  report_.total = tasks_.size();
  bool resuming = false;
  TGDKIT_RETURN_IF_ERROR(ReplayExistingLedger(&resuming));
  // A supervisor killed mid-append leaves a torn trailing line; drop it
  // now so our own appends start on a fresh line instead of merging with
  // the fragment into unparseable interior garbage.
  TGDKIT_RETURN_IF_ERROR(TruncateTornLedgerTail(options_.ledger_path));
  // Everything the supervisor retains per task — live worker capture
  // pipes and the last attempt's triage material — is visible to the
  // accounting governor, alongside the ledger bytes charged in Append.
  governor_.AddMemorySource([this] {
    uint64_t bytes = 0;
    for (const TaskState& state : tasks_) {
      if (state.worker != nullptr) {
        const WorkerOutcome& o = state.worker->outcome();
        bytes += o.stdout_data.size() + o.stderr_tail.size();
      }
      bytes += state.last_attempt.status_line.size() +
               state.last_attempt.stderr_tail.size() +
               state.last_attempt.cmd.size();
    }
    return bytes;
  });
  RunRecord run;
  run.manifest = options_.manifest_path;
  run.tasks = tasks_.size();
  TGDKIT_RETURN_IF_ERROR(Append(LedgerRecord::Run(std::move(run))));
  for (TaskState& state : tasks_) {
    if (state.skipped) {
      ++report_.skipped;
      if (state.completed) {
        ++report_.completed;
        if (state.final_exit == kExitVerdict) ++report_.verdicts;
      } else {
        ++report_.quarantined;
      }
      out_ << "# task " << state.task->id << ": already "
           << (state.completed ? "completed" : "quarantined")
           << " (skipped)\n";
      continue;
    }
    if (state.charged >= MaxAttempts(state)) {
      // Retry budget exhausted by a previous run that died before the
      // quarantine decision was recorded.
      TGDKIT_RETURN_IF_ERROR(Finalize(
          &state, /*completed=*/false,
          state.have_last_attempt ? state.last_attempt.exit_code : -1,
          TriageReport(state)));
    }
  }

  while (true) {
    // Shutdown: on the supervisor's own cancellation, stop launching and
    // ask every running worker to stop (SIGTERM -> grace -> SIGKILL,
    // driven by their Tick()).
    if (!shutdown_ && options_.cancel.cancelled()) {
      shutdown_ = true;
      report_.interrupted = true;
      err_ << "tgdkit: batch: interrupted; stopping workers\n";
      for (TaskState& state : tasks_) {
        if (state.worker != nullptr) state.worker->RequestStop();
      }
    }
    // Launch phase.
    size_t running = 0;
    for (TaskState& state : tasks_) {
      if (state.worker != nullptr) ++running;
    }
    if (!shutdown_) {
      double now = NowMs();
      for (TaskState& state : tasks_) {
        if (running >= options_.max_parallel) break;
        if (state.terminal || state.worker != nullptr) continue;
        if (state.ready_at_ms > now) continue;
        TGDKIT_RETURN_IF_ERROR(StartAttempt(&state));
        if (state.worker != nullptr) ++running;
        if (state.terminal) continue;  // spawn-error quarantine
      }
    }
    // Are we done?
    bool all_settled = true;
    double next_ready = -1;
    for (TaskState& state : tasks_) {
      if (state.worker != nullptr) {
        all_settled = false;
      } else if (!state.terminal) {
        if (shutdown_) continue;  // left for the rerun
        all_settled = false;
        if (next_ready < 0 || state.ready_at_ms < next_ready) {
          next_ready = state.ready_at_ms;
        }
      }
    }
    if (all_settled) break;

    // Wait phase: poll worker pipes (bounded), with the timeout capped so
    // deadline ticks and backoff wakeups stay responsive.
    std::vector<struct pollfd> fds;
    for (TaskState& state : tasks_) {
      if (state.worker == nullptr) continue;
      for (int fd :
           {state.worker->stdout_fd(), state.worker->stderr_fd()}) {
        if (fd >= 0) fds.push_back({fd, POLLIN, 0});
      }
    }
    int timeout_ms = 50;
    if (fds.empty() && next_ready >= 0) {
      double delta = next_ready - NowMs();
      timeout_ms = std::max(1, std::min(200, static_cast<int>(delta) + 1));
    }
    poll(fds.empty() ? nullptr : fds.data(),
         static_cast<nfds_t>(fds.size()), timeout_ms);
    for (TaskState& state : tasks_) {
      if (state.worker == nullptr) continue;
      state.worker->Pump();
      state.worker->Tick();
      if (state.worker->TryReap()) {
        std::unique_ptr<WorkerProcess> worker = std::move(state.worker);
        TGDKIT_RETURN_IF_ERROR(HandleFinished(&state, worker->outcome()));
      }
    }
  }

  // Supervisor self-accounting, as a stderr diagnostic (the stdout
  // summary stays byte-stable for pipelines): total ledger bytes charged
  // plus the retained buffer footprint at the end of the run.
  governor_.CheckNow();
  err_ << "# supervisor: ledger_bytes=" << governor_.charged_bytes()
       << " buffer_bytes="
       << (governor_.memory_bytes() - governor_.charged_bytes()) << "\n";
  out_ << "# batch: tasks=" << report_.total << " completed="
       << report_.completed << " quarantined=" << report_.quarantined
       << " skipped=" << report_.skipped << " attempts="
       << report_.attempts
       << (report_.interrupted ? " interrupted=1" : "") << "\n";
  if (report_.interrupted) {
    out_ << "# status: "
         << StopReasonToStatus(StopReason::kCancelled, "batch").ToString()
         << "\n";
  } else {
    out_ << "# status: OK\n";
  }
  return report_;
}

}  // namespace

const FlagTable<SupervisorOptions>& BatchFlags() {
  using O = SupervisorOptions;
  static const FlagTable<O> table{"batch: unknown option ", {
      {"--run-dir", [](O* o, const std::string& v) { o->run_dir = v; }},
      {"--ledger", [](O* o, const std::string& v) { o->ledger_path = v; }},
      {"--worker", [](O* o, const std::string& v) { o->worker_binary = v; }},
      {"--max-parallel", [](O* o, uint64_t v) { o->max_parallel = v; }, 1,
       256},
      {"--retries", [](O* o, uint64_t v) { o->retries = v; }},
      {"--backoff-ms", [](O* o, uint64_t v) { o->backoff_ms = v; }},
      {"--backoff-cap-ms", [](O* o, uint64_t v) { o->backoff_cap_ms = v; }},
      {"--grace-ms", [](O* o, uint64_t v) { o->grace_ms = v; }},
      {"--task-deadline-ms",
       [](O* o, uint64_t v) { o->task_deadline_ms = v; }},
      {"--escalate-factor", [](O* o, uint64_t v) { o->escalate_factor = v; }},
      {"--checkpoint-every-steps",
       [](O* o, uint64_t v) { o->checkpoint_every_steps = v; }},
      {"--checkpoint-every-ms",
       [](O* o, uint64_t v) { o->checkpoint_every_ms = v; }},
      {"--accept-resource", [](O* o, bool on) { o->accept_resource = on; }},
  }};
  return table;
}

int SupervisorReport::ExitCode() const {
  if (interrupted) return kExitResource;
  if (quarantined > 0 || verdicts > 0) return kExitVerdict;
  return kExitOk;
}

Result<SupervisorReport> RunBatch(const Manifest& manifest,
                                  const SupervisorOptions& options,
                                  std::ostream& out, std::ostream& err) {
  Supervisor supervisor(manifest, options, out, err);
  return supervisor.Run();
}

}  // namespace tgdkit
