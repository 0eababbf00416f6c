// Tests for the fault-isolated batch supervisor (src/supervise): manifest
// parsing, ledger round-trips and replay, argv-rewriting policy helpers,
// and end-to-end supervision of forked workers — retries with backoff,
// crash quarantine with triage, deadline kills with SIGTERM -> SIGKILL
// escalation, checkpointed chase resume, idempotent reruns, and the
// stdout/stderr hygiene contract.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/fileio.h"
#include "cli/cli.h"
#include "snapshot/snapshot.h"
#include "supervise/ledger.h"
#include "supervise/manifest.h"
#include "supervise/supervisor.h"

namespace tgdkit {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = testing::TempDir() + "/tgdkit_batch_" + std::to_string(getpid()) +
           "_" + std::to_string(counter++);
    // Start empty: a directory left behind by an earlier test process
    // that had the same pid would hand this test its ledgers.
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(MakeDirectories(dir_).ok());
  }

  std::string Write(const std::string& name, const std::string& content) {
    std::string path = dir_ + "/" + name;
    std::ofstream out(path);
    out << content;
    return path;
  }

  struct BatchRun {
    int code;
    std::string out;
    std::string err;
  };

  BatchRun RunBatchCli(std::vector<std::string> extra_args,
                       const std::string& manifest_path) {
    std::vector<std::string> args = {"batch", manifest_path};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::ostringstream out, err;
    int code = RunCli(args, out, err);
    return {code, out.str(), err.str()};
  }

  std::vector<LedgerRecord> MustLoadLedger(const std::string& manifest_path) {
    Result<std::vector<LedgerRecord>> loaded =
        LoadLedger(manifest_path + ".runs/ledger.jsonl");
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? *loaded : std::vector<LedgerRecord>{};
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// Manifest parsing

TEST_F(BatchTest, ManifestParsesDirectivesAttributesAndEnv) {
  SupervisorOptions settings;
  Result<Manifest> parsed = ParseManifest(
      "# header comment\n"
      "batch max-parallel=4 retries=3 backoff-ms=50 accept-resource=true\n"
      "\n"
      "task quick : selftest --stdout-lines 1\n"
      "task slow deadline-ms=250 retries=0 env A=1 env B=x=y : \\\n"
      "  chase deps.tgd seed.inst --seed 7  // trailing comment\n"
      "task quoted : lint \"a file.tgd\" --fail-on=note\n",
      &settings);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(settings.max_parallel, 4u);
  EXPECT_EQ(settings.retries, 3u);
  EXPECT_EQ(settings.backoff_ms, 50u);
  EXPECT_EQ(settings.accept_resource, true);
  ASSERT_EQ(parsed->tasks.size(), 3u);
  const ManifestTask& slow = parsed->tasks[1];
  EXPECT_EQ(slow.id, "slow");
  EXPECT_EQ(slow.deadline_ms, 250u);
  EXPECT_EQ(slow.retries, 0u);
  ASSERT_EQ(slow.env.size(), 2u);
  EXPECT_EQ(slow.env[0].first, "A");
  EXPECT_EQ(slow.env[0].second, "1");
  EXPECT_EQ(slow.env[1].second, "x=y");
  // Line continuation joined the argv; the comment was stripped.
  EXPECT_EQ(slow.args,
            (std::vector<std::string>{"chase", "deps.tgd", "seed.inst",
                                      "--seed", "7"}));
  EXPECT_EQ(parsed->tasks[2].args[1], "a file.tgd");
}

TEST_F(BatchTest, ManifestRejectsMalformedInput) {
  auto expect_bad = [](const std::string& text, const std::string& needle) {
    SupervisorOptions settings;
    Result<Manifest> parsed = ParseManifest(text, &settings);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_NE(parsed.status().ToString().find(needle), std::string::npos)
        << parsed.status().ToString();
  };
  expect_bad("task a : lint x\ntask a : lint y\n", "duplicate task id");
  expect_bad("task -bad : lint x\n", "invalid task id");
  expect_bad("task a/b : lint x\n", "invalid task id");
  expect_bad("task a lint x\n", "unexpected token");
  expect_bad("task a :\n", "empty command");
  expect_bad("task a : batch m\n", "cannot itself be 'batch'");
  expect_bad("launch a : lint x\n", "unknown directive");
  expect_bad("batch max-parallel=zero\ntask a : lint x\n", "invalid value");
  expect_bad("batch max-parallel=0\ntask a : lint x\n", "between 1 and 256");
  expect_bad("", "no tasks");
}

// ---------------------------------------------------------------------------
// Argv-rewriting policy helpers

TEST_F(BatchTest, WithForcedOptionReplacesOrAppends) {
  EXPECT_EQ(WithForcedOption({"chase", "a", "--threads", "8"}, "--threads",
                             "1"),
            (std::vector<std::string>{"chase", "a", "--threads", "1"}));
  EXPECT_EQ(WithForcedOption({"chase", "a"}, "--threads", "1"),
            (std::vector<std::string>{"chase", "a", "--threads", "1"}));
}

TEST_F(BatchTest, WithScaledBudgetsScalesOnlyBudgetOptionsAndSaturates) {
  std::vector<std::string> scaled = WithScaledBudgets(
      {"chase", "a", "--max-steps", "100", "--seed", "9", "--deadline-ms",
       "50", "--max-rounds", "3"},
      2);
  EXPECT_EQ(scaled,
            (std::vector<std::string>{"chase", "a", "--max-steps", "200",
                                      "--seed", "9", "--deadline-ms", "100",
                                      "--max-rounds", "3"}));
  std::vector<std::string> saturated = WithScaledBudgets(
      {"chase", "--max-steps", "18446744073709551615"}, 2);
  EXPECT_EQ(saturated[2], "18446744073709551615");
}

TEST_F(BatchTest, RewriteChaseForResumeDropsPositionalsKeepsOptions) {
  std::vector<std::string> rewritten = RewriteChaseForResume(
      {"chase", "deps.tgd", "seed.inst", "--seed", "7", "--checkpoint",
       "old.snap", "--max-rounds", "9"},
      "ck/t.snap");
  EXPECT_EQ(rewritten,
            (std::vector<std::string>{"chase", "--resume", "ck/t.snap",
                                      "--seed", "7", "--max-rounds", "9",
                                      "--checkpoint", "ck/t.snap"}));
  // Every option keeps its value, the spill options' included.
  EXPECT_EQ(RewriteChaseForResume({"chase", "deps.tgd", "--spill-dir", "DIR",
                                   "seed.inst", "--spill-segment-kb", "4"},
                                  "ck/t.snap"),
            (std::vector<std::string>{"chase", "--resume", "ck/t.snap",
                                      "--spill-dir", "DIR",
                                      "--spill-segment-kb", "4",
                                      "--checkpoint", "ck/t.snap"}));
}

TEST_F(BatchTest, TaskCheckpointPathSanitizesTheId) {
  EXPECT_EQ(TaskCheckpointPath("d", "ok-task.1"), "d/ok-task.1.snap");
  // IsValidTaskId already forbids these, but the path derivation must be
  // safe on its own (defense in depth).
  EXPECT_EQ(TaskCheckpointPath("d", "../evil"), "d/_.._evil.snap");
  EXPECT_EQ(TaskCheckpointPath("d", "a/b"), "d/a_b.snap");
}

// ---------------------------------------------------------------------------
// Ledger

TEST_F(BatchTest, LedgerRecordsRoundTrip) {
  AttemptRecord attempt;
  attempt.task = "t1";
  attempt.attempt = 2;
  attempt.outcome = AttemptOutcome::kCrash;
  attempt.exit_code = -1;
  attempt.signal = 11;
  attempt.stop = "deadline";
  attempt.status_line = "# status: weird \"quotes\" and \\ slash";
  attempt.duration_ms = 12.5;
  attempt.cmd = "tgdkit chase 'a b'";
  attempt.stderr_tail = "line1\nline2\ttabbed";
  attempt.degraded = true;
  attempt.next = "retry";
  for (const LedgerRecord& record :
       {LedgerRecord::Run({"m.manifest", 3}),
        LedgerRecord::Attempt(attempt),
        LedgerRecord::Done({"t1", false, -1, 3, "triage\ntext"})}) {
    std::string line = RenderLedgerRecord(record);
    EXPECT_EQ(line.find('\n'), std::string::npos) << line;
    Result<LedgerRecord> parsed = ParseLedgerRecord(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
    EXPECT_EQ(RenderLedgerRecord(*parsed), line);
  }
}

TEST_F(BatchTest, LedgerSkipsTornTrailingLineButRejectsInteriorGarbage) {
  std::string path = dir_ + "/ledger.jsonl";
  ASSERT_TRUE(
      AppendLedgerRecord(path, LedgerRecord::Run({"m", 1})).ok());
  ASSERT_TRUE(
      AppendLedgerRecord(
          path, LedgerRecord::Done({"t", true, 0, 1, ""}))
          .ok());
  // Simulate a crash mid-append: a torn final line without a newline.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"type\":\"attempt\",\"task\":\"t";
  }
  Result<std::vector<LedgerRecord>> loaded = LoadLedger(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);

  // Healing truncates the fragment so a later append cannot merge with
  // it; the two committed records survive untouched.
  ASSERT_TRUE(TruncateTornLedgerTail(path).ok());
  ASSERT_TRUE(
      AppendLedgerRecord(path, LedgerRecord::Run({"m", 1})).ok());
  loaded = LoadLedger(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_TRUE(TruncateTornLedgerTail(dir_ + "/missing.jsonl").ok());

  // Interior garbage is a hard error: earlier durable records must never
  // be silently dropped.
  std::string bad = dir_ + "/bad.jsonl";
  {
    std::ofstream out(bad);
    out << "not json\n"
        << RenderLedgerRecord(LedgerRecord::Run({"m", 1})) << "\n";
  }
  EXPECT_FALSE(LoadLedger(bad).ok());
  EXPECT_FALSE(LoadLedger(dir_ + "/missing.jsonl").ok());
}

TEST_F(BatchTest, ReplayFoldsAttemptsIntoTerminalState) {
  std::vector<LedgerRecord> records;
  AttemptRecord a1;
  a1.task = "t";
  a1.attempt = 1;
  a1.outcome = AttemptOutcome::kCrash;
  a1.next = "retry";
  AttemptRecord a2 = a1;
  a2.attempt = 2;
  a2.degraded = true;
  a2.outcome = AttemptOutcome::kOk;
  a2.exit_code = 0;
  a2.next = "done";
  records.push_back(LedgerRecord::Run({"m", 2}));
  records.push_back(LedgerRecord::Attempt(a1));
  records.push_back(LedgerRecord::Attempt(a2));
  records.push_back(LedgerRecord::Done({"t", true, 0, 2, ""}));
  AttemptRecord other;
  other.task = "u";
  other.attempt = 1;
  other.outcome = AttemptOutcome::kCancelled;
  other.next = "interrupted";
  records.push_back(LedgerRecord::Attempt(other));

  std::map<std::string, TaskReplay> replay = ReplayLedger(records);
  EXPECT_TRUE(replay["t"].terminal);
  EXPECT_TRUE(replay["t"].completed);
  EXPECT_EQ(replay["t"].attempts, 2u);
  EXPECT_TRUE(replay["t"].degraded);
  EXPECT_FALSE(replay["u"].terminal);
  EXPECT_EQ(replay["u"].attempts, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end supervision

TEST_F(BatchTest, SupervisesMixedOutcomesAndQuarantinesWithTriage) {
  std::string manifest = Write(
      "m.manifest",
      "batch max-parallel=2 retries=1 backoff-ms=1 grace-ms=200\n"
      "task good : selftest --stdout-lines 1\n"
      "task verdict : selftest --die-exit 3\n"
      "task usage : selftest --bogus-flag\n"
      "task crashy : selftest --die-signal 9\n");
  BatchRun run = RunBatchCli({}, manifest);
  // Quarantines and the negative verdict make the batch exit 3.
  EXPECT_EQ(run.code, kExitVerdict) << run.out << run.err;
  EXPECT_NE(run.out.find("# batch: tasks=4 completed=2 quarantined=2"),
            std::string::npos)
      << run.out;

  std::vector<LedgerRecord> records = MustLoadLedger(manifest);
  int crash_attempts = 0;
  bool saw_usage_quarantine = false, saw_crash_triage = false;
  for (const LedgerRecord& record : records) {
    if (record.kind == LedgerRecord::Kind::kAttempt &&
        record.attempt.task == "crashy") {
      ++crash_attempts;
      EXPECT_EQ(record.attempt.outcome, AttemptOutcome::kCrash);
      EXPECT_EQ(record.attempt.signal, 9);
    }
    if (record.kind != LedgerRecord::Kind::kDone) continue;
    if (record.done.task == "usage") {
      // Deterministic usage errors quarantine on the FIRST attempt.
      saw_usage_quarantine = true;
      EXPECT_FALSE(record.done.completed);
      EXPECT_EQ(record.done.attempts, 1u);
    }
    if (record.done.task == "crashy") {
      saw_crash_triage = true;
      EXPECT_NE(record.done.triage.find("killed by signal 9"),
                std::string::npos)
          << record.done.triage;
      EXPECT_NE(record.done.triage.find("reproduce: tgdkit selftest"),
                std::string::npos)
          << record.done.triage;
    }
  }
  // retries=1 means two charged attempts before quarantine.
  EXPECT_EQ(crash_attempts, 2);
  EXPECT_TRUE(saw_usage_quarantine);
  EXPECT_TRUE(saw_crash_triage);

  // Artifacts: captured stdout per task, triage for the quarantined one.
  std::ifstream good_out(manifest + ".runs/good.out");
  std::string line;
  ASSERT_TRUE(std::getline(good_out, line));
  EXPECT_EQ(line, "selftest stdout line 0");
  EXPECT_TRUE(std::ifstream(manifest + ".runs/crashy.triage.txt").good());
}

TEST_F(BatchTest, RerunSkipsTerminalTasksAndStaysIdempotent) {
  std::string manifest = Write(
      "m.manifest",
      "batch retries=0 backoff-ms=1\n"
      "task good : selftest\n"
      "task crashy : selftest --die-signal 9\n");
  BatchRun first = RunBatchCli({}, manifest);
  EXPECT_EQ(first.code, kExitVerdict);
  BatchRun second = RunBatchCli({}, manifest);
  EXPECT_EQ(second.code, kExitVerdict);
  EXPECT_NE(second.out.find("skipped=2"), std::string::npos) << second.out;
  EXPECT_NE(second.out.find("attempts=0"), std::string::npos) << second.out;

  // Exactly one done record per task across both runs.
  std::map<std::string, int> done_count;
  for (const LedgerRecord& record : MustLoadLedger(manifest)) {
    if (record.kind == LedgerRecord::Kind::kDone) {
      ++done_count[record.done.task];
    }
  }
  EXPECT_EQ(done_count["good"], 1);
  EXPECT_EQ(done_count["crashy"], 1);
}

TEST_F(BatchTest, DeadlineKillsTheWorkerEvenWhenItIgnoresSigterm) {
  std::string manifest = Write(
      "m.manifest",
      "batch retries=0 backoff-ms=1 grace-ms=50\n"
      "task hung deadline-ms=150 : selftest --spin-ms 60000 --ignore-term\n");
  BatchRun run = RunBatchCli({}, manifest);
  EXPECT_EQ(run.code, kExitVerdict) << run.out;
  bool saw_timeout = false;
  for (const LedgerRecord& record : MustLoadLedger(manifest)) {
    if (record.kind == LedgerRecord::Kind::kAttempt) {
      EXPECT_EQ(record.attempt.outcome, AttemptOutcome::kTimeout);
      // SIGTERM was ignored; the kill escalation had to SIGKILL it.
      EXPECT_EQ(record.attempt.signal, SIGKILL);
      saw_timeout = true;
    }
  }
  EXPECT_TRUE(saw_timeout);
}

TEST_F(BatchTest, DeadlinedWorkerStopsCooperativelyWithinGrace) {
  // Without --ignore-term the worker reacts to the supervisor's SIGTERM
  // by cancelling cooperatively: it exits on its own, within the grace
  // window, reporting the cancellation on stdout.
  std::string manifest = Write(
      "m.manifest",
      "batch retries=0 backoff-ms=1 grace-ms=5000\n"
      "task polite deadline-ms=150 : selftest --spin-ms 60000\n");
  BatchRun run = RunBatchCli({}, manifest);
  EXPECT_EQ(run.code, kExitVerdict) << run.out;
  for (const LedgerRecord& record : MustLoadLedger(manifest)) {
    if (record.kind != LedgerRecord::Kind::kAttempt) continue;
    EXPECT_EQ(record.attempt.outcome, AttemptOutcome::kTimeout);
    EXPECT_EQ(record.attempt.signal, 0) << "worker should exit, not die";
    EXPECT_EQ(record.attempt.exit_code, kExitResource);
    EXPECT_NE(record.attempt.status_line.find("cancelled"),
              std::string::npos)
        << record.attempt.status_line;
  }
}

TEST_F(BatchTest, ResourceStopEscalatesOnceThenResumesFromCheckpoint) {
  Write("deps.tgd", "t: E(x, y) & E(y, z) -> E(x, z) .\n");
  std::string inst;
  for (int i = 0; i + 1 < 12; ++i) {
    inst += "E(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ") .\n";
  }
  Write("seed.inst", inst);
  // --max-steps 1 cannot finish; the escalated retry gets a huge factor
  // and completes, resuming from the checkpoint the first leg wrote.
  std::string manifest = Write(
      "m.manifest",
      "batch retries=2 backoff-ms=1 escalate-factor=100000\n"
      "task tc : chase " + dir_ + "/deps.tgd " + dir_ + "/seed.inst "
      "--max-steps 1 --checkpoint-every-steps 1\n");
  BatchRun run = RunBatchCli({}, manifest);
  EXPECT_EQ(run.code, kExitOk) << run.out << run.err;

  bool saw_escalated_resume = false;
  for (const LedgerRecord& record : MustLoadLedger(manifest)) {
    if (record.kind == LedgerRecord::Kind::kAttempt &&
        record.attempt.attempt == 2) {
      EXPECT_TRUE(record.attempt.escalated);
      EXPECT_TRUE(record.attempt.resumed);
      EXPECT_EQ(record.attempt.next, "done");
      saw_escalated_resume = true;
    }
    if (record.kind == LedgerRecord::Kind::kDone) {
      EXPECT_TRUE(record.done.completed);
      EXPECT_EQ(record.done.exit_code, kExitOk);
    }
  }
  EXPECT_TRUE(saw_escalated_resume);
  // The per-task checkpoint lives under the run directory and parses.
  std::string snap = TaskCheckpointPath(manifest + ".runs/ck", "tc");
  EXPECT_TRUE(LoadChaseSnapshot(snap).ok());
}

TEST_F(BatchTest, SpilledStepStopEscalatesAndResumesWithItsSpillFlags) {
  // tools/gen_spill_workload.py's input at 1,000 rows: column c of row r
  // is digit c of r in base 128.
  Write("spill.tgd",
        "Big(x1, x2, x3, x4, x5, x6, x7, x8, x9) -> Want(x1) .\n");
  std::string inst;
  for (int row = 0; row < 1000; ++row) {
    inst += "Big(";
    for (int col = 0, x = row; col < 9; ++col, x /= 128) {
      inst += (col == 0 ? "v" : ", v") + std::to_string(x % 128);
    }
    inst += ") .\n";
  }
  Write("spill.inst", inst);
  ASSERT_TRUE(MakeDirectories(dir_ + "/segs").ok());
  ASSERT_TRUE(MakeDirectories(dir_ + "/oneshot-segs").ok());
  std::string manifest = Write(
      "m.manifest",
      "batch retries=2 backoff-ms=1 escalate-factor=4\n"
      "task sp : chase " + dir_ + "/spill.tgd " + dir_ + "/spill.inst "
      "--seed 7 --spill-dir " + dir_ + "/segs --max-memory-mb 2 "
      "--spill-segment-kb 4 --max-steps 1000\n");
  BatchRun run = RunBatchCli({}, manifest);
  EXPECT_EQ(run.code, kExitOk) << run.out << run.err;

  // The escalated retry resumes the spilled checkpoint with every option
  // and its value: --spill-dir and --spill-segment-kb keep theirs.
  bool saw_escalated_resume = false;
  for (const LedgerRecord& record : MustLoadLedger(manifest)) {
    if (record.kind != LedgerRecord::Kind::kAttempt) continue;
    if (record.attempt.attempt == 1) {
      EXPECT_EQ(record.attempt.outcome, AttemptOutcome::kResource);
      EXPECT_NE(record.attempt.status_line.find("step-limit"),
                std::string::npos)
          << record.attempt.status_line;
      EXPECT_NE(record.attempt.status_line.find("spill_segments="),
                std::string::npos);
    } else {
      saw_escalated_resume = true;
      EXPECT_TRUE(record.attempt.escalated);
      EXPECT_TRUE(record.attempt.resumed);
      EXPECT_EQ(record.attempt.outcome, AttemptOutcome::kOk);
      EXPECT_NE(record.attempt.cmd.find(
                    "--spill-dir " + dir_ + "/segs --max-memory-mb 8 "
                    "--spill-segment-kb 4 --max-steps 4000"),
                std::string::npos)
          << record.attempt.cmd;
    }
  }
  EXPECT_TRUE(saw_escalated_resume);

  // The resumed task prints what one uninterrupted run prints.
  std::vector<std::string> oneshot = {
      "chase", dir_ + "/spill.tgd", dir_ + "/spill.inst", "--seed", "7",
      "--spill-dir", dir_ + "/oneshot-segs", "--max-memory-mb", "2",
      "--spill-segment-kb", "4"};
  std::ostringstream golden, golden_err;
  ASSERT_EQ(RunCli(oneshot, golden, golden_err), kExitOk)
      << golden_err.str();
  std::ifstream task_out(manifest + ".runs/sp.out");
  std::string task_stdout((std::istreambuf_iterator<char>(task_out)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(task_stdout, golden.str());
}

TEST_F(BatchTest, AcceptResourceTreatsBudgetStopsAsCompleted) {
  Write("inf.tgd", "succ: N(x) -> exists y . N(y) & E(x, y) .\n");
  Write("seed.inst", "N(a) .\n");
  std::string manifest = Write(
      "m.manifest",
      "batch retries=0 backoff-ms=1 accept-resource=true\n"
      "task partial : chase " + dir_ + "/inf.tgd " + dir_ + "/seed.inst "
      "--max-rounds 2 --max-depth 100000000\n");
  BatchRun run = RunBatchCli({}, manifest);
  EXPECT_EQ(run.code, kExitOk) << run.out;
  EXPECT_NE(run.out.find("completed=1"), std::string::npos);
  for (const LedgerRecord& record : MustLoadLedger(manifest)) {
    if (record.kind == LedgerRecord::Kind::kAttempt) {
      EXPECT_EQ(record.attempt.outcome, AttemptOutcome::kResource);
      EXPECT_EQ(record.attempt.stop, "round-limit");
    }
  }
}

TEST_F(BatchTest, CrashedParallelChaseDegradesResumesAndQuarantines) {
  Write("deps.tgd", "t: E(x, y) & E(y, z) -> E(x, z) .\n");
  Write("seed.inst", "E(a, b) .\nE(b, c) .\nE(c, d) .\n");
  // The per-task env arms fault injection in EVERY worker attempt: each
  // one dies (SIGKILL) at its second durable checkpoint write. The policy
  // under test: a crashed parallel chase retries with --threads forced to
  // 1, later attempts resume from the checkpoints their dead predecessors
  // committed, and a persistent crasher ends up quarantined with a
  // SIGKILL triage — never an infinite retry loop.
  std::string manifest = Write(
      "m.manifest",
      "batch retries=2 backoff-ms=1\n"
      "task par env TGDKIT_CRASH_AT=2 env TGDKIT_CRASH_PHASE=commit : "
      "chase " + dir_ + "/deps.tgd " + dir_ + "/seed.inst "
      "--threads 4 --checkpoint-every-steps 1\n");
  BatchRun run = RunBatchCli({}, manifest);
  EXPECT_EQ(run.code, kExitVerdict) << run.out << run.err;

  std::vector<LedgerRecord> records = MustLoadLedger(manifest);
  ASSERT_FALSE(records.empty());
  bool saw_degraded_resume = false, saw_quarantine = false;
  for (const LedgerRecord& record : records) {
    if (record.kind == LedgerRecord::Kind::kAttempt) {
      EXPECT_EQ(record.attempt.outcome, AttemptOutcome::kCrash);
      EXPECT_EQ(record.attempt.signal, SIGKILL);
      if (record.attempt.attempt > 1) {
        saw_degraded_resume = true;
        EXPECT_TRUE(record.attempt.degraded);
        EXPECT_TRUE(record.attempt.resumed);
        // The degraded argv forces --threads 1 and resumes the snapshot.
        EXPECT_NE(record.attempt.cmd.find("--threads 1"), std::string::npos)
            << record.attempt.cmd;
        EXPECT_NE(record.attempt.cmd.find("--resume"), std::string::npos)
            << record.attempt.cmd;
      }
    }
    if (record.kind == LedgerRecord::Kind::kDone) {
      saw_quarantine = true;
      EXPECT_FALSE(record.done.completed);
      EXPECT_EQ(record.done.attempts, 3u);  // retries=2 -> 3 attempts
      EXPECT_NE(record.done.triage.find("SIGKILL"), std::string::npos)
          << record.done.triage;
    }
  }
  EXPECT_TRUE(saw_degraded_resume);
  EXPECT_TRUE(saw_quarantine);
  // The checkpoint the dead workers committed survives and is loadable —
  // the quarantined task can be resumed by hand from the triage repro.
  std::string snap = TaskCheckpointPath(manifest + ".runs/ck", "par");
  EXPECT_TRUE(LoadChaseSnapshot(snap).ok());
}

TEST_F(BatchTest, CliFlagsOverrideManifestDefaults) {
  std::string manifest = Write(
      "m.manifest",
      "batch retries=7 backoff-ms=1 accept-resource=true\n"
      "task res : selftest --die-exit 4\n"
      "task crash : selftest --die-exit 5\n");
  BatchRun run = RunBatchCli({"--retries", "0"}, manifest);
  EXPECT_EQ(run.code, kExitVerdict) << run.out << run.err;
  // The manifest fills what the command line leaves unset: the budget
  // stop is accepted as a completed partial result.
  EXPECT_NE(run.out.find("# task res: completed exit=4 attempts=1"),
            std::string::npos)
      << run.out;
  // The command line's --retries 0 beats the manifest's retries=7.
  EXPECT_NE(run.out.find("# task crash: quarantined after 1 attempt(s)"),
            std::string::npos)
      << run.out;
}

TEST_F(BatchTest, StreamHygieneStdoutIsMachineReadableDiagnosticsOnStderr) {
  Write("deps.tgd", "t: E(x, y) & E(y, z) -> E(x, z) .\n");
  Write("seed.inst", "E(a, b) .\nE(b, c) .\n");
  std::string manifest = Write(
      "m.manifest",
      "batch retries=0 backoff-ms=1\n"
      "task chase-ok : chase " + dir_ + "/deps.tgd " + dir_ + "/seed.inst\n"
      "task chase-missing : chase /nonexistent.tgd " + dir_ + "/seed.inst\n"
      "task lint-missing : lint /nonexistent.tgd\n"
      "task noisy : selftest --stdout-lines 3 --stderr-lines 3\n");
  BatchRun run = RunBatchCli({}, manifest);
  EXPECT_EQ(run.code, kExitVerdict) << run.out;

  // Property over the whole batch: every supervisor stdout line is
  // '#'-prefixed (machine-readable). Triage lines may quote worker
  // stderr, but they are still '#'-framed.
  std::istringstream lines(run.out);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line[0], '#') << "unexpected stdout line: " << line;
  }

  // Worker-level property, checked through the captured artifacts: no
  // task's stdout contains a "tgdkit:" diagnostic; failing tasks put
  // their diagnostic in the recorded stderr tail instead.
  for (const LedgerRecord& record : MustLoadLedger(manifest)) {
    if (record.kind != LedgerRecord::Kind::kAttempt) continue;
    std::ifstream task_out(manifest + ".runs/" + record.attempt.task +
                           ".out");
    std::string task_stdout((std::istreambuf_iterator<char>(task_out)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(task_stdout.find("tgdkit:"), std::string::npos)
        << record.attempt.task << " stdout: " << task_stdout;
    if (record.attempt.outcome == AttemptOutcome::kInputError) {
      EXPECT_NE(record.attempt.stderr_tail.find("tgdkit:"),
                std::string::npos)
          << record.attempt.task;
    }
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation (SIGTERM satellite)

TEST_F(BatchTest, SigtermedChaseWritesAFinalCheckpoint) {
  std::string deps = Write("inf.tgd",
                           "succ: N(x) -> exists y . N(y) & E(x, y) .\n");
  std::string inst = Write("seed.inst", "N(a) .\n");
  std::string snap = dir_ + "/term.snap";
  pid_t pid = fork();
  if (pid == 0) {
    // The child is a faithful model of both the standalone binary and a
    // batch worker: handlers installed, then an unbounded chase.
    GlobalCancellationToken().Reset();
    InstallCancellationSignalHandlers();
    std::ostringstream out, err;
    int code = RunCli({"chase", deps, inst, "--max-rounds", "100000000",
                       "--max-depth", "100000000", "--max-facts",
                       "100000000", "--checkpoint", snap,
                       "--checkpoint-every-ms", "86400000"},
                      out, err);
    _exit(code);
  }
  ASSERT_GT(pid, 0);
  // Let the chase get going, then ask it to stop.
  usleep(200 * 1000);
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "chase did not exit cleanly";
  // Cooperative cancellation is a resource stop.
  EXPECT_EQ(WEXITSTATUS(status), kExitResource);
  // The final checkpoint was written on the way out (the periodic cadence
  // above is a day — only the final save can have produced it) and it is
  // a complete, loadable snapshot.
  Result<ChaseSnapshot> loaded = LoadChaseSnapshot(snap);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(BatchTest, SupervisorShutdownCancelsWorkersAndStaysResumable) {
  std::string manifest = Write(
      "m.manifest",
      "batch retries=1 backoff-ms=1 max-parallel=1 grace-ms=5000\n"
      "task spin : selftest --spin-ms 60000\n"
      "task after : selftest\n");
  SupervisorOptions options;
  options.manifest_path = manifest;
  options.run_dir = manifest + ".runs";
  options.ledger_path = options.run_dir + "/ledger.jsonl";
  options.backoff_ms = 1;
  options.retries = 1;
  options.max_parallel = 1;
  // Cancel the supervisor shortly after it starts; the running worker is
  // SIGTERMed, stops cooperatively, and its attempt is recorded as
  // cancelled — burning no retry budget.
  std::thread canceller([&options] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    options.cancel.Cancel();
  });
  SupervisorOptions manifest_settings;
  Result<Manifest> manifest_data = LoadManifest(manifest, &manifest_settings);
  ASSERT_TRUE(manifest_data.ok());
  std::ostringstream out, err;
  Result<SupervisorReport> report =
      RunBatch(*manifest_data, options, out, err);
  canceller.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->interrupted);
  EXPECT_EQ(report->ExitCode(), kExitResource);

  Result<std::vector<LedgerRecord>> records =
      LoadLedger(options.ledger_path);
  ASSERT_TRUE(records.ok());
  bool saw_cancelled = false;
  for (const LedgerRecord& record : *records) {
    if (record.kind == LedgerRecord::Kind::kAttempt &&
        record.attempt.outcome == AttemptOutcome::kCancelled) {
      saw_cancelled = true;
    }
  }
  EXPECT_TRUE(saw_cancelled);

  // The rerun finishes the interrupted work; cancelled attempts did not
  // count, so the spin task still has its full retry budget... but spin
  // would hang again — give the rerun a deadline to bound it.
  options.cancel.Reset();
  options.task_deadline_ms = 200;
  options.grace_ms = 3000;
  options.retries = 0;
  std::ostringstream out2, err2;
  Result<SupervisorReport> rerun =
      RunBatch(*manifest_data, options, out2, err2);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_FALSE(rerun->interrupted);
  EXPECT_EQ(rerun->completed + rerun->quarantined, 2u);
}

// ---------------------------------------------------------------------------
// isolation=none: the in-process fast path

TEST_F(BatchTest, ManifestParsesAndRestrictsIsolationAttribute) {
  SupervisorOptions settings;
  Result<Manifest> parsed = ParseManifest(
      "task fast isolation=none : lint rules.tgd\n"
      "task slow isolation=fork : chase rules.tgd seed.inst\n",
      &settings);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->tasks[0].in_process);
  EXPECT_FALSE(parsed->tasks[1].in_process);

  // Only cheap, read-only commands may opt out of fault isolation.
  Result<Manifest> chase = ParseManifest(
      "task t isolation=none : chase d.tgd s.inst\n", &settings);
  ASSERT_FALSE(chase.ok());
  EXPECT_NE(chase.status().ToString().find("isolation=none"),
            std::string::npos);
  // env needs a worker process to scope the variables to.
  Result<Manifest> env = ParseManifest(
      "task t isolation=none env A=1 : lint d.tgd\n", &settings);
  ASSERT_FALSE(env.ok());
  EXPECT_NE(env.status().ToString().find("env"), std::string::npos);
  // And the value set is closed.
  EXPECT_FALSE(
      ParseManifest("task t isolation=maybe : lint d.tgd\n", &settings)
          .ok());
}

TEST_F(BatchTest, InProcessTasksRunWhileForkedCrashStaysContained) {
  std::string rules = Write("ok.tgd", "p(X) -> q(X) .\n");
  std::string manifest = Write(
      "mixed.manifest",
      "task fast-classify isolation=none : classify " + rules + "\n" +
          "task fast-lint isolation=none : lint " + rules + "\n" +
          // A forked worker that dies by SIGSEGV next to the in-process
          // tasks: the crash must be contained and quarantined without
          // taking the supervisor (and with it the fast tasks) down.
          "task boom retries=0 : selftest --die-signal 11\n");
  BatchRun run = RunBatchCli({"--max-parallel", "3"}, manifest);
  EXPECT_EQ(run.code, kExitVerdict) << run.out << run.err;
  EXPECT_NE(run.out.find("# task fast-classify: completed exit=0"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("# task fast-lint: completed exit=0"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("# task boom: quarantined"), std::string::npos)
      << run.out;

  // The ledger records the in-process attempts like any other.
  std::vector<LedgerRecord> records = MustLoadLedger(manifest);
  int in_process_ok = 0;
  for (const LedgerRecord& record : records) {
    if (record.kind == LedgerRecord::Kind::kAttempt &&
        record.attempt.outcome == AttemptOutcome::kOk &&
        record.attempt.task.rfind("fast-", 0) == 0) {
      ++in_process_ok;
    }
  }
  EXPECT_EQ(in_process_ok, 2);
}

}  // namespace
}  // namespace tgdkit
