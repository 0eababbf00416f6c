// Chaos test for the batch supervisor's crash-safety story. The
// TGDKIT_CRASH_AT hook (src/base/fileio.cc) SIGKILLs a process at its
// n-th durable write, at a chosen phase of that write. Arming it inside
// a forked supervisor kills the supervisor mid-ledger-append (begin /
// mid / commit), and — because the armed environment is inherited — may
// also kill the chase workers it forks at their checkpoint writes. For
// every kill point the invariants must hold:
//
//   * the ledger left behind is always loadable (at most a torn trailing
//     line, never interior garbage),
//   * an unarmed rerun converges: every task reaches exactly one
//     terminal `done` record — no task is double-reported, none is lost,
//   * a third run is a no-op (attempts=0, everything skipped).
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/fileio.h"
#include "cli/cli.h"
#include "supervise/ledger.h"

namespace tgdkit {
namespace {

class BatchCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = testing::TempDir() + "/tgdkit_chaos_" + std::to_string(getpid()) +
           "_" + std::to_string(counter++);
    // Start empty: a directory left behind by an earlier test process
    // that had the same pid would hand this test its ledgers.
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(MakeDirectories(dir_).ok());
    WriteFile("deps.tgd", "t: E(x, y) & E(y, z) -> E(x, z) .\n");
    std::string seed;
    for (int i = 0; i + 1 < 6; ++i) {
      seed += "E(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
              ") .\n";
    }
    WriteFile("seed.inst", seed);
    // A mixed workload: two clean tasks, one deterministic crasher, one
    // checkpointing chase (its workers do durable writes, so inherited
    // arming can kill them too).
    manifest_ = WriteFile(
        "chaos.manifest",
        "batch max-parallel=2 retries=3 backoff-ms=1 grace-ms=2000\n"
        "task ok : selftest --stdout-lines 1\n"
        "task verdict : selftest --die-exit 3\n"
        "task flaky : selftest --die-signal 9\n"
        "task tc : chase " + dir_ + "/deps.tgd " + dir_ + "/seed.inst "
        "--checkpoint-every-steps 1\n");
    ledger_ = manifest_ + ".runs/ledger.jsonl";
  }

  std::string WriteFile(const std::string& name,
                        const std::string& content) {
    std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    out << content;
    return path;
  }

  /// Runs `tgdkit batch` in a forked child. With crash_at > 0 the child
  /// arms the fault hook first, so it (and the workers it forks) will
  /// SIGKILL themselves at the chosen durable write. Returns the raw
  /// wait status.
  int RunSupervisor(int crash_at, const char* phase) {
    pid_t pid = fork();
    if (pid == 0) {
      if (crash_at > 0) {
        setenv("TGDKIT_CRASH_AT", std::to_string(crash_at).c_str(), 1);
        setenv("TGDKIT_CRASH_PHASE", phase, 1);
      } else {
        unsetenv("TGDKIT_CRASH_AT");
        unsetenv("TGDKIT_CRASH_PHASE");
      }
      std::ostringstream out, err;
      int code = RunCli({"batch", manifest_}, out, err);
      _exit(code);
    }
    EXPECT_GT(pid, 0);
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    return status;
  }

  /// The ledger must load at every stage; returns the records.
  std::vector<LedgerRecord> MustLoad() {
    Result<std::vector<LedgerRecord>> loaded = LoadLedger(ledger_);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? *loaded : std::vector<LedgerRecord>{};
  }

  std::string dir_;
  std::string manifest_;
  std::string ledger_;
};

TEST_F(BatchCrashTest, SupervisorKilledAtEveryWritePointStaysConsistent) {
  // One scenario per (write ordinal, phase): enough points to cover the
  // run header, attempt records, and done records of the first tasks.
  // Deterministic by construction — the fault hook counts durable
  // writes, not wall-clock.
  const char* phases[] = {"begin", "mid", "commit"};
  int scenario = 0;
  for (int crash_at : {1, 2, 3, 5, 7}) {
    const char* phase = phases[scenario++ % 3];
    SCOPED_TRACE(std::string("crash_at=") + std::to_string(crash_at) +
                 " phase=" + phase);
    // Fresh run directory per scenario.
    std::string runs = manifest_ + ".runs";
    std::string wipe = "rm -rf '" + runs + "'";
    ASSERT_EQ(std::system(wipe.c_str()), 0);

    int status = RunSupervisor(crash_at, phase);
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL);
    }
    // Invariant 1: whatever the kill point, the ledger loads. (It may be
    // missing entirely if the kill predated the first append.)
    Result<std::vector<LedgerRecord>> after_kill = LoadLedger(ledger_);
    if (!after_kill.ok()) {
      EXPECT_EQ(after_kill.status().code(), Status::Code::kNotFound)
          << after_kill.status().ToString();
    }

    // Invariant 2: the unarmed rerun converges. Workers may have been
    // killed mid-task in the armed run; their checkpoints and attempt
    // history carry over.
    int rerun = RunSupervisor(0, "");
    ASSERT_TRUE(WIFEXITED(rerun));
    // flaky always quarantines, so the converged batch exit is 3.
    EXPECT_EQ(WEXITSTATUS(rerun), kExitVerdict);

    std::vector<LedgerRecord> records = MustLoad();
    std::map<std::string, int> done_count;
    std::map<std::string, uint64_t> last_attempt;
    for (const LedgerRecord& record : records) {
      if (record.kind == LedgerRecord::Kind::kDone) {
        ++done_count[record.done.task];
      } else if (record.kind == LedgerRecord::Kind::kAttempt) {
        // Attempt numbering never goes backwards for a task: the rerun
        // replays history instead of restarting it.
        EXPECT_GE(record.attempt.attempt,
                  last_attempt[record.attempt.task])
            << record.attempt.task;
        last_attempt[record.attempt.task] = record.attempt.attempt;
      }
    }
    // Invariant 3: exactly one terminal record per task — nothing
    // double-reported, nothing lost.
    for (const char* task : {"ok", "verdict", "flaky", "tc"}) {
      EXPECT_EQ(done_count[task], 1) << task;
    }
    for (const LedgerRecord& record : records) {
      if (record.kind != LedgerRecord::Kind::kDone) continue;
      if (record.done.task == "ok" || record.done.task == "verdict" ||
          record.done.task == "tc") {
        EXPECT_TRUE(record.done.completed) << record.done.task;
      }
      if (record.done.task == "flaky") {
        EXPECT_FALSE(record.done.completed);
      }
    }

    // Invariant 4: a third run is a pure no-op.
    int third = RunSupervisor(0, "");
    ASSERT_TRUE(WIFEXITED(third));
    EXPECT_EQ(WEXITSTATUS(third), kExitVerdict);
    std::vector<LedgerRecord> final_records = MustLoad();
    std::map<std::string, int> final_done;
    size_t new_attempts = 0;
    for (size_t i = records.size(); i < final_records.size(); ++i) {
      if (final_records[i].kind == LedgerRecord::Kind::kAttempt) {
        ++new_attempts;
      }
    }
    EXPECT_EQ(new_attempts, 0u) << "third run re-ran a terminal task";
  }
}

TEST_F(BatchCrashTest, WorkerKillsAloneConvergeWithoutSupervisorDeath) {
  // Arm the crash hook per-task (manifest env) instead of globally: only
  // the chase workers die, the supervisor survives and drives the task
  // through its retry budget in a single invocation.
  std::string manifest = WriteFile(
      "workers.manifest",
      "batch retries=3 backoff-ms=1\n"
      "task ok : selftest\n"
      "task tc env TGDKIT_CRASH_AT=1 env TGDKIT_CRASH_PHASE=begin : "
      "chase " + dir_ + "/deps.tgd " + dir_ + "/seed.inst "
      "--checkpoint-every-steps 1\n");
  std::ostringstream out, err;
  int code = RunCli({"batch", manifest}, out, err);
  // Every tc attempt dies at its first checkpoint write's begin phase —
  // before committing anything — so the task cannot make progress and
  // quarantines; ok completes; the supervisor itself never crashes.
  EXPECT_EQ(code, kExitVerdict) << out.str();
  Result<std::vector<LedgerRecord>> records =
      LoadLedger(manifest + ".runs/ledger.jsonl");
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  std::map<std::string, int> done_count;
  int tc_crashes = 0;
  for (const LedgerRecord& record : *records) {
    if (record.kind == LedgerRecord::Kind::kDone) {
      ++done_count[record.done.task];
    }
    if (record.kind == LedgerRecord::Kind::kAttempt &&
        record.attempt.task == "tc") {
      EXPECT_EQ(record.attempt.outcome, AttemptOutcome::kCrash);
      EXPECT_EQ(record.attempt.signal, SIGKILL);
      ++tc_crashes;
    }
  }
  EXPECT_EQ(done_count["ok"], 1);
  EXPECT_EQ(done_count["tc"], 1);
  EXPECT_EQ(tc_crashes, 4);  // retries=3 -> 4 charged attempts
}

}  // namespace
}  // namespace tgdkit
