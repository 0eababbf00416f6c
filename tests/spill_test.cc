// Out-of-core spill backend, end to end through the CLI:
//  * byte-identical output: a --spill-dir run prints exactly the facts of
//    the in-core run (the status line additionally carries the
//    content-derived spill telemetry), at any --threads N;
//  * graceful degradation: a chase whose instance dwarfs --max-memory-mb
//    stops with the resource exit in-core and completes with --spill-dir;
//  * kill-and-resume: SIGKILL inside any durable write (snapshot or
//    segment — they share the atomic-write crash points) leaves a state
//    that resumes to the bit-identical golden output;
//  * disk-full: an injected ENOSPC fails the run cleanly with the
//    resource exit and leaves the last good checkpoint resumable.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "cli/cli.h"
#include "snapshot/snapshot.h"

namespace tgdkit {
namespace {

constexpr char kRules[] =
    "t: E(x, y) & E(y, z) -> E(x, z) .\n"
    "m: E(x, y) -> exists w . M(x, w) .\n";

std::string PathInstanceText(int nodes) {
  std::string out;
  for (int i = 0; i + 1 < nodes; ++i) {
    out += "E(n" + std::to_string(i) + ", n" + std::to_string(i + 1) + ") .\n";
  }
  return out;
}

/// Drops the ` spill_segments=... spill_bytes=...` suffix from the
/// `# status:` line so spilled stdout can be compared against in-core
/// stdout, which has no spill telemetry.
std::string StripSpillFields(std::string text) {
  size_t status = text.find("# status: ");
  if (status == std::string::npos) return text;
  size_t eol = text.find('\n', status);
  size_t spill = text.find(" spill_segments=", status);
  if (spill == std::string::npos || spill > eol) return text;
  text.erase(spill, eol - spill);
  return text;
}

/// Drops the deliberate ` threads=N` lane-count echo from the status
/// line — the one permitted difference between runs at different
/// --threads (the same normalization CI's determinism smoke test does).
std::string StripThreadsField(std::string text) {
  size_t pos = text.find(" threads=");
  if (pos == std::string::npos) return text;
  size_t end = pos + 9;
  while (end < text.size() && text[end] >= '0' && text[end] <= '9') ++end;
  text.erase(pos, end - pos);
  return text;
}

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/tgdkit_spill_" + std::to_string(getpid());
    ASSERT_EQ(::system(("rm -rf " + dir_ + " && mkdir -p " + dir_).c_str()),
              0);
    spill_dir_ = dir_ + "/segments";
    rules_path_ = dir_ + "/rules.tgd";
    inst_path_ = dir_ + "/input.inst";
    snap_path_ = dir_ + "/ckpt.snap";
    std::ofstream(rules_path_) << kRules;
    std::ofstream(inst_path_) << PathInstanceText(24);
  }

  void ClearSpillDir() {
    ASSERT_EQ(::system(("rm -rf " + spill_dir_).c_str()), 0);
  }

  /// Runs the CLI in-process, returning (exit code, stdout).
  std::pair<int, std::string> Run(const std::vector<std::string>& args) {
    std::ostringstream out, err;
    int code = RunCli(args, out, err);
    last_err_ = err.str();
    return {code, out.str()};
  }

  std::string dir_, spill_dir_, rules_path_, inst_path_, snap_path_;
  std::string last_err_;
};

TEST_F(SpillTest, SpilledOutputMatchesInCoreByteForByte) {
  auto [gold_code, golden] =
      Run({"chase", rules_path_, inst_path_, "--seed", "5"});
  ASSERT_EQ(gold_code, 0) << last_err_;

  auto [code, spilled] =
      Run({"chase", rules_path_, inst_path_, "--seed", "5", "--spill-dir",
           spill_dir_, "--spill-segment-kb", "1"});
  ASSERT_EQ(code, 0) << last_err_;
  EXPECT_NE(spilled.find(" spill_segments="), std::string::npos)
      << "spill telemetry missing from the status line";
  EXPECT_EQ(StripSpillFields(spilled), golden);
}

TEST_F(SpillTest, SpilledOutputIsThreadCountInvariant) {
  auto [code1, one] =
      Run({"chase", rules_path_, inst_path_, "--seed", "5", "--threads", "1",
           "--spill-dir", spill_dir_, "--spill-segment-kb", "1"});
  ASSERT_EQ(code1, 0) << last_err_;
  ClearSpillDir();
  auto [code4, four] =
      Run({"chase", rules_path_, inst_path_, "--seed", "5", "--threads", "4",
           "--spill-dir", spill_dir_, "--spill-segment-kb", "1"});
  ASSERT_EQ(code4, 0) << last_err_;
  EXPECT_EQ(StripThreadsField(one), StripThreadsField(four));
}

/// Writes one projection rule over a wide relation `Big` and `rows` facts
/// of it. Column c holds digit c of the row number base 64: rows are
/// pairwise distinct over a 64-constant vocabulary, so the payload, not
/// the symbol table, carries the bytes.
void WriteWideProgram(const std::string& rules_path,
                      const std::string& inst_path, int rows) {
  std::ofstream(rules_path)
      << "Big(x1, x2, x3, x4, x5, x6, x7, x8) -> Want(x1) .\n";
  std::ofstream inst(inst_path);
  for (int row = 0; row < rows; ++row) {
    inst << "Big(";
    int x = row;
    for (int col = 0; col < 8; ++col) {
      inst << (col ? ", " : "") << "v" << (x % 64);
      x /= 64;
    }
    inst << ") .\n";
  }
}

TEST_F(SpillTest, OversizedInstanceNeedsSpillToComplete) {
  // ~20000 wide rows: far past a 1 MiB budget in-core (rows + per-position
  // postings + dedup index), but the spill backend's resident summaries
  // (~9 bytes/sealed row) fit comfortably. One projection rule keeps the
  // chase busy over the big relation without growing it.
  std::string big_rules = dir_ + "/big.tgd";
  std::string big_inst = dir_ + "/big.inst";
  WriteWideProgram(big_rules, big_inst, 20000);

  auto [incore_code, incore_out] =
      Run({"chase", big_rules, big_inst, "--max-memory-mb", "1"});
  EXPECT_EQ(incore_code, kExitResource)
      << "in-core run under a 1 MiB budget should stop on memory";

  // 64 KiB segments keep the mutable in-core tail (< one segment of rows,
  // with its dedup + posting indexes) well inside the 1 MiB budget.
  auto [spill_code, spill_out] = Run({"chase", big_rules, big_inst,
                                      "--max-memory-mb", "1", "--spill-dir",
                                      spill_dir_, "--spill-segment-kb", "64"});
  ASSERT_EQ(spill_code, 0)
      << "spilled run should complete under the same budget: " << last_err_;

  // And the completed spilled result matches the unconstrained run.
  auto [free_code, free_out] = Run({"chase", big_rules, big_inst});
  ASSERT_EQ(free_code, 0) << last_err_;
  EXPECT_EQ(StripSpillFields(spill_out), free_out);
}

TEST_F(SpillTest, SpilledRoundMayStageMoreThanTheBudget) {
  // The first round matches all 60000 rows: 1.9 MB of staged rows, then
  // 1.2 MB of pending head values and trigger records, each alone past
  // the 1 MiB budget. An in-core engine stops that round with
  // memory-limit; a spilled one must still finish it.
  std::string big_rules = dir_ + "/big.tgd";
  std::string big_inst = dir_ + "/big.inst";
  WriteWideProgram(big_rules, big_inst, 60000);

  auto [incore_code, incore_out] =
      Run({"chase", big_rules, big_inst, "--max-memory-mb", "1"});
  EXPECT_EQ(incore_code, kExitResource);
  EXPECT_NE(incore_out.find("stopped by memory-limit"), std::string::npos);

  auto [spill_code, spill_out] = Run({"chase", big_rules, big_inst,
                                      "--max-memory-mb", "1", "--spill-dir",
                                      spill_dir_, "--spill-segment-kb", "64"});
  ASSERT_EQ(spill_code, 0) << last_err_;
  auto [free_code, free_out] = Run({"chase", big_rules, big_inst});
  ASSERT_EQ(free_code, 0) << last_err_;
  EXPECT_EQ(StripSpillFields(spill_out), free_out);
}

TEST_F(SpillTest, ResumingSpilledSnapshotRequiresSpillDir) {
  auto [code, out] =
      Run({"chase", rules_path_, inst_path_, "--seed", "5", "--spill-dir",
           spill_dir_, "--spill-segment-kb", "1", "--checkpoint", snap_path_});
  ASSERT_EQ(code, 0) << last_err_;
  auto [resume_code, resume_out] = Run({"chase", "--resume", snap_path_});
  EXPECT_EQ(resume_code, kExitInput);
  EXPECT_NE(last_err_.find("spill"), std::string::npos) << last_err_;
}

TEST_F(SpillTest, StepBudgetedSpillMatchesInCore) {
  // Perfbench's closure rules over a fixed 36-node digraph with 72
  // distinct edges (self-loops kept), drawn from an LCG. The matcher
  // charges every probe as a step, so a spilled search that probed more
  // rows than the in-core one would stop elsewhere under --max-steps.
  std::string rules = dir_ + "/closure.tgd";
  std::string graph = dir_ + "/graph.inst";
  std::ofstream(rules)
      << "tc: E(x, y) & E(y, z) -> E(x, z) .\n"
         "j3: E(x0, x1) & E(x1, x2) & E(x2, x3) -> J(x0, x3) .\n"
         "mk: J(x, y) & E(y, z) -> exists w . P(x, w) .\n";
  {
    std::ofstream out(graph);
    std::set<std::pair<uint32_t, uint32_t>> edges;
    uint32_t state = 12345;
    auto draw = [&state] {
      state = state * 1103515245u + 12345u;
      return (state >> 16) % 36;
    };
    while (edges.size() < 72) {
      uint32_t from = draw();
      uint32_t to = draw();
      if (edges.emplace(from, to).second) {
        out << "E(n" << from << ", n" << to << ") .\n";
      }
    }
  }
  // Two budgets where spilled runs used to stop early while in-core runs
  // reach the fixpoint, one early budget, and none.
  for (const char* budget : {"20000", "1500000", "1600000", ""}) {
    std::vector<std::string> args{"chase", rules, graph};
    if (*budget != '\0') {
      args.push_back("--max-steps");
      args.push_back(budget);
    }
    auto [code, in_core] = Run(args);
    // 4 KiB segments seal often; 1 GiB segments never seal.
    for (const char* segment_kb : {"4", "1048576"}) {
      ClearSpillDir();
      std::vector<std::string> spilled_args = args;
      spilled_args.insert(spilled_args.end(), {"--spill-dir", spill_dir_,
                                               "--spill-segment-kb",
                                               segment_kb});
      auto [spilled_code, spilled] = Run(spilled_args);
      EXPECT_EQ(spilled_code, code)
          << "budget " << budget << ", segments " << segment_kb << " KiB";
      EXPECT_EQ(StripSpillFields(spilled), in_core)
          << "budget " << budget << ", segments " << segment_kb << " KiB";
    }
  }
}

TEST_F(SpillTest, SpillFlagsAreValidated) {
  auto [kb_code, kb_out] = Run({"chase", rules_path_, inst_path_,
                                "--spill-dir", spill_dir_,
                                "--spill-segment-kb", "0"});
  EXPECT_EQ(kb_code, kExitUsage);
  auto [cmd_code, cmd_out] =
      Run({"classify", rules_path_, "--spill-dir", spill_dir_});
  EXPECT_EQ(cmd_code, kExitUsage);
  // A spill directory that cannot be created, or that names an existing
  // regular file, is an input error naming the path, not a silent
  // in-core run or a run whose segment writes all fail.
  for (const std::string& unusable : {inst_path_ + "/segments", inst_path_}) {
    for (const char* command : {"chase", "certain", "explain"}) {
      std::vector<std::string> args{command, rules_path_, inst_path_};
      if (std::string(command) == "certain") {
        args.push_back("q(x) :- M(x, w).");
      }
      args.insert(args.end(), {"--spill-dir", unusable});
      auto [code, out] = Run(args);
      EXPECT_EQ(code, kExitInput) << command << " --spill-dir " << unusable;
      EXPECT_NE(last_err_.find(unusable), std::string::npos) << last_err_;
    }
  }
}

// ---------------------------------------------------------------------------
// Chaos: kill and resume across segment + snapshot writes.

class SpillCrashTest : public SpillTest {
 protected:
  void SetUp() override {
    SpillTest::SetUp();
    std::ostringstream out, err;
    int code = RunCli({"chase", rules_path_, inst_path_, "--seed", "5",
                       "--spill-dir", spill_dir_, "--spill-segment-kb", "1"},
                      out, err);
    ASSERT_EQ(code, 0) << err.str();
    golden_ = out.str();
    ASSERT_NE(golden_.find(" spill_segments="), std::string::npos);
    ClearSpillDir();
  }

  /// Forks a child that runs the checkpointing spilled chase with the
  /// crash hook armed to die at durable write `crash_at` in `phase`
  /// (segment files and snapshots share the AtomicWriteFile crash
  /// points). Returns true if the child was SIGKILLed.
  bool RunChildToDeath(uint64_t crash_at, const char* phase) {
    std::remove(snap_path_.c_str());
    std::remove((snap_path_ + ".tmp").c_str());
    ClearSpillDir();
    pid_t pid = fork();
    if (pid == 0) {
      setenv("TGDKIT_CRASH_AT", std::to_string(crash_at).c_str(), 1);
      setenv("TGDKIT_CRASH_PHASE", phase, 1);
      std::ostringstream out, err;
      RunCli({"chase", rules_path_, inst_path_, "--seed", "5", "--spill-dir",
              spill_dir_, "--spill-segment-kb", "1", "--checkpoint",
              snap_path_, "--checkpoint-every-steps", "1"},
             out, err);
      _exit(0);
    }
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    if (WIFSIGNALED(status)) {
      EXPECT_EQ(WTERMSIG(status), SIGKILL);
      return true;
    }
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    return false;
  }

  bool SnapshotExists() const {
    std::ifstream in(snap_path_, std::ios::binary);
    return in.good();
  }

  /// Resumes from the surviving snapshot (+ segment files) and requires
  /// output bit-identical to the uninterrupted spilled run — including
  /// the content-derived spill telemetry.
  void ResumeAndCompare(const std::string& label) {
    std::ostringstream out, err;
    int code = RunCli({"chase", "--resume", snap_path_, "--spill-dir",
                       spill_dir_},
                      out, err);
    ASSERT_EQ(code, 0) << label << ": " << err.str();
    EXPECT_EQ(out.str(), golden_) << label;
  }

  std::string golden_;
};

TEST_F(SpillCrashTest, RandomizedKillPointsAllResumeBitIdentical) {
  // Randomized (seeded: failures reproduce) kill points across all three
  // crash phases. With --spill-segment-kb 1 the run makes many segment
  // writes interleaved with snapshot writes, so the counter lands inside
  // segment flushes too. Every kill that leaves a snapshot must resume
  // to the golden output.
  Rng rng(0x5B111);
  const char* phases[] = {"begin", "mid", "commit"};
  int resumed = 0, no_snapshot = 0, completed = 0;
  for (int trial = 0; trial < 24; ++trial) {
    uint64_t crash_at = 1 + rng.Below(12);
    const char* phase = phases[rng.Below(3)];
    std::string label = "trial " + std::to_string(trial) + ": crash_at=" +
                        std::to_string(crash_at) + " phase=" + phase;
    bool killed = RunChildToDeath(crash_at, phase);
    if (!killed) {
      ++completed;
      ASSERT_TRUE(SnapshotExists()) << label;
      ResumeAndCompare(label + " (completed)");
      continue;
    }
    if (!SnapshotExists()) {
      // Killed before the first snapshot commit: nothing to resume, and
      // nothing durable claims otherwise. A fresh run still converges.
      ++no_snapshot;
      continue;
    }
    ++resumed;
    ResumeAndCompare(label);
  }
  EXPECT_GE(resumed, 8) << "resumed=" << resumed
                        << " no_snapshot=" << no_snapshot
                        << " completed=" << completed;
}

TEST_F(SpillCrashTest, ChainedKillsConvergeToGolden) {
  ASSERT_TRUE(RunChildToDeath(4, "mid"));
  ASSERT_TRUE(SnapshotExists());

  std::remove((snap_path_ + ".tmp").c_str());
  pid_t pid = fork();
  if (pid == 0) {
    setenv("TGDKIT_CRASH_AT", "3", 1);
    setenv("TGDKIT_CRASH_PHASE", "commit", 1);
    std::ostringstream out, err;
    RunCli({"chase", "--resume", snap_path_, "--spill-dir", spill_dir_,
            "--checkpoint", snap_path_, "--checkpoint-every-steps", "1"},
           out, err);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "second leg was expected to die at a durable write";
  ASSERT_TRUE(SnapshotExists());
  ResumeAndCompare("after two chained kills");
}

TEST_F(SpillCrashTest, InjectedDiskFullFailsCleanlyAndKeepsLastCheckpoint) {
  // Leg 1: run to completion with checkpointing — leaves a good snapshot
  // and its segment files.
  {
    std::ostringstream out, err;
    int code = RunCli({"chase", rules_path_, inst_path_, "--seed", "5",
                       "--spill-dir", spill_dir_, "--spill-segment-kb", "1",
                       "--checkpoint", snap_path_},
                      out, err);
    ASSERT_EQ(code, 0) << err.str();
  }
  std::string good_snapshot;
  {
    std::ifstream in(snap_path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    good_snapshot = buffer.str();
  }

  // Leg 2: rerun with the first durable write failing as ENOSPC. The run
  // must fail with the resource exit (not crash, not exit 5's internal),
  // and must not have disturbed the good snapshot.
  pid_t pid = fork();
  if (pid == 0) {
    setenv("TGDKIT_FAIL_WRITE_AT", "1", 1);
    std::ostringstream out, err;
    int code = RunCli({"chase", rules_path_, inst_path_, "--seed", "5",
                       "--spill-dir", spill_dir_, "--spill-segment-kb", "1",
                       "--checkpoint", snap_path_, "--checkpoint-every-steps",
                       "1"},
                      out, err);
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "disk-full run must exit, not crash";
  EXPECT_EQ(WEXITSTATUS(status), kExitResource);

  std::ifstream in(snap_path_, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), good_snapshot)
      << "failed leg must leave the previous snapshot byte-identical";
  ResumeAndCompare("after injected disk-full");
}

}  // namespace
}  // namespace tgdkit
