// The parallelism determinism contract (docs/PARALLELISM.md): any
// ChaseLimits::threads value produces byte-identical results — final
// instance text, rounds/facts/step telemetry, stop reason, and every
// serialized snapshot — because round staging uses fixed slice geometry
// and a deterministic merge order independent of the lane count.
//
// These are property tests over that contract at three levels: the
// engines directly, the CLI (stdout + final snapshot file), and a forked
// kill-and-resume cycle that crosses thread counts between legs.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <utility>
#include <sstream>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "cli/cli.h"
#include "data/instance.h"
#include "dep/skolem.h"
#include "snapshot/snapshot.h"
#include "test_util.h"

namespace tgdkit {
namespace {

// Transitive closure over a path (multi-round, hundreds of triggers per
// round — enough rows to span many 64-row slices) plus an existential
// rule so null numbering is exercised too.
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

/// Builds the same program as kRules directly against a workspace.
std::vector<Tgd> BuildTgds(TestWorkspace* ws) {
  Tgd trans;
  trans.body = {ws->A("E", {ws->V("x"), ws->V("y")}),
                ws->A("E", {ws->V("y"), ws->V("z")})};
  trans.head = {ws->A("E", {ws->V("x"), ws->V("z")})};
  Tgd mgr;
  mgr.body = {ws->A("E", {ws->V("x"), ws->V("y")})};
  mgr.head = {ws->A("M", {ws->V("x"), ws->V("w")})};
  mgr.exist_vars = {ws->Vid("w")};
  return {trans, mgr};
}

Instance PathInstance(TestWorkspace* ws, int nodes) {
  Instance input(&ws->vocab);
  for (int i = 0; i + 1 < nodes; ++i) {
    input.AddFact(ws->Fc("E", {"n" + std::to_string(i),
                               "n" + std::to_string(i + 1)}));
  }
  return input;
}

/// Everything an observer could compare between two chase runs.
struct RunOutcome {
  std::string exact_text;
  uint64_t rounds = 0;
  uint64_t facts = 0;
  uint64_t steps = 0;
  StopReason stop = StopReason::kFixpoint;
  std::string final_snapshot;
  /// Periodic checkpoint stream: serialized bytes of every hook firing.
  std::vector<std::string> checkpoints;
};

RunOutcome RunSkolem(uint32_t threads, int nodes, uint64_t max_steps,
                     uint64_t checkpoint_every_steps) {
  TestWorkspace ws;
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, BuildTgds(&ws));
  Instance input = PathInstance(&ws, nodes);
  ChaseLimits limits;
  limits.threads = threads;
  limits.budget.max_steps = max_steps;
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
  RunOutcome outcome;
  if (checkpoint_every_steps != 0) {
    engine.SetCheckpointHook(
        checkpoint_every_steps, 0, [&](const ChaseEngine& live) {
          outcome.checkpoints.push_back(SerializeChaseSnapshot(
              ws.vocab, ws.arena, so, live.CaptureState(), 7, 7));
        });
  }
  engine.Run();
  outcome.exact_text = engine.instance().ToExactText();
  outcome.rounds = engine.rounds();
  outcome.facts = engine.facts_created();
  outcome.steps = engine.governor().total_steps();
  outcome.stop = engine.stop_reason();
  outcome.final_snapshot = SerializeChaseSnapshot(ws.vocab, ws.arena, so,
                                                  engine.CaptureState(), 7, 7);
  return outcome;
}

void ExpectSameOutcome(const RunOutcome& a, const RunOutcome& b,
                       const std::string& label) {
  EXPECT_EQ(a.exact_text, b.exact_text) << label;
  EXPECT_EQ(a.rounds, b.rounds) << label;
  EXPECT_EQ(a.facts, b.facts) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.stop, b.stop) << label;
  EXPECT_EQ(a.final_snapshot, b.final_snapshot) << label;
  ASSERT_EQ(a.checkpoints.size(), b.checkpoints.size()) << label;
  for (size_t i = 0; i < a.checkpoints.size(); ++i) {
    EXPECT_EQ(a.checkpoints[i], b.checkpoints[i])
        << label << ": checkpoint " << i;
  }
}

TEST(ParallelDeterminismTest, SkolemFixpointIdenticalAcrossThreadCounts) {
  RunOutcome serial = RunSkolem(1, 40, 0, 0);
  ASSERT_EQ(serial.stop, StopReason::kFixpoint);
  ASSERT_GT(serial.facts, 700u);  // big enough to span many slices
  for (uint32_t threads : {2u, 3u, 4u, 8u}) {
    RunOutcome parallel = RunSkolem(threads, 40, 0, 0);
    ExpectSameOutcome(serial, parallel,
                      "threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, CheckpointStreamIdenticalAcrossThreadCounts) {
  // The strongest form of the contract: the governor's slow-path checks
  // (and so the checkpoint hook's firing steps) land at the same step
  // numbers for every lane count, and each captured state serializes to
  // the same bytes.
  RunOutcome serial = RunSkolem(1, 32, 0, 512);
  ASSERT_GE(serial.checkpoints.size(), 3u)
      << "workload too small to exercise periodic checkpoints";
  RunOutcome parallel = RunSkolem(4, 32, 0, 512);
  ExpectSameOutcome(serial, parallel, "checkpoint stream threads=4");
}

TEST(ParallelDeterminismTest, StepLimitStopsAtIdenticalState) {
  // A deterministic budget (max_steps) must trip at the same trigger for
  // every lane count: budgets are only charged at the serial merge.
  RunOutcome serial = RunSkolem(1, 40, 900, 0);
  ASSERT_EQ(serial.stop, StopReason::kStepLimit);
  for (uint32_t threads : {2u, 4u}) {
    RunOutcome parallel = RunSkolem(threads, 40, 900, 0);
    ExpectSameOutcome(serial, parallel,
                      "step-limited threads=" + std::to_string(threads));
  }
}

TEST(ParallelDeterminismTest, ParallelStateResumesUnderAnyThreadCount) {
  // Snapshot written by a 4-lane engine, resumed by a 1-lane engine (and
  // vice versa): both must land on the uninterrupted serial result.
  RunOutcome golden = RunSkolem(1, 24, 0, 0);
  const std::vector<std::pair<uint32_t, uint32_t>> legs = {{4, 1}, {1, 4}};
  for (auto [capture_threads, resume_threads] : legs) {
    RunOutcome partial = RunSkolem(capture_threads, 24, 300, 0);
    ASSERT_EQ(partial.stop, StopReason::kStepLimit);
    Result<ChaseSnapshot> loaded = ParseChaseSnapshot(partial.final_snapshot);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ChaseSnapshot snap = std::move(*loaded);
    ChaseLimits limits;
    limits.threads = resume_threads;
    ChaseEngine engine(snap.arena.get(), snap.vocab.get(), snap.rules,
                       std::move(*snap.state), limits);
    engine.Run();
    std::string label = "capture=" + std::to_string(capture_threads) +
                        " resume=" + std::to_string(resume_threads);
    EXPECT_EQ(engine.stop_reason(), StopReason::kFixpoint) << label;
    EXPECT_EQ(engine.instance().ToExactText(), golden.exact_text) << label;
    EXPECT_EQ(engine.rounds(), golden.rounds) << label;
    EXPECT_EQ(engine.facts_created(), golden.facts) << label;
  }
}

// ---------------------------------------------------------------------------
// CLI level: stdout and snapshot files.

/// Drops every " threads=<digits>" token: the status line intentionally
/// echoes the effective lane count, which is the one legitimate
/// difference between runs at different --threads settings.
std::string StripThreadsEcho(std::string text) {
  const std::string needle = " threads=";
  size_t at = 0;
  while ((at = text.find(needle, at)) != std::string::npos) {
    size_t end = at + needle.size();
    while (end < text.size() && std::isdigit(static_cast<unsigned char>(
                                    text[end]))) {
      ++end;
    }
    text.erase(at, end - at);
  }
  return text;
}

class ParallelCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/tgdkit_par_" + std::to_string(getpid());
    ASSERT_EQ(::system(("mkdir -p " + dir_).c_str()), 0);
    rules_path_ = dir_ + "/rules.tgd";
    inst_path_ = dir_ + "/input.inst";
    snap_path_ = dir_ + "/ckpt.snap";
    std::ofstream(rules_path_) << kRules;
    std::ofstream(inst_path_) << PathInstanceText(16);
  }

  std::string ReadFileBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string dir_, rules_path_, inst_path_, snap_path_;
};

TEST_F(ParallelCliTest, StdoutAndSnapshotFileByteIdentical) {
  std::ostringstream out1, err1;
  ASSERT_EQ(RunCli({"chase", rules_path_, inst_path_, "--seed", "5",
                    "--threads", "1", "--checkpoint", snap_path_},
                   out1, err1),
            0)
      << err1.str();
  ASSERT_NE(out1.str().find(" threads=1\n"), std::string::npos) << out1.str();
  std::string snap1 = ReadFileBytes(snap_path_);

  std::remove(snap_path_.c_str());
  std::ostringstream out4, err4;
  ASSERT_EQ(RunCli({"chase", rules_path_, inst_path_, "--seed", "5",
                    "--threads", "4", "--checkpoint", snap_path_},
                   out4, err4),
            0)
      << err4.str();
  ASSERT_NE(out4.str().find(" threads=4\n"), std::string::npos) << out4.str();
  std::string snap4 = ReadFileBytes(snap_path_);

  EXPECT_EQ(StripThreadsEcho(out1.str()), StripThreadsEcho(out4.str()));
  EXPECT_EQ(snap1, snap4) << "final snapshot files differ across --threads";
}

TEST_F(ParallelCliTest, KilledParallelRunResumesToSerialGolden) {
  // Golden: uninterrupted serial run. Child: 4-lane run with periodic
  // checkpointing, SIGKILLed mid-snapshot-write. Resume legs then run at
  // a *different* lane count than the killed leg and must reproduce the
  // golden output byte-for-byte (modulo the threads echo).
  std::ostringstream gold_out, gold_err;
  ASSERT_EQ(RunCli({"chase", rules_path_, inst_path_, "--seed", "5"},
                   gold_out, gold_err),
            0)
      << gold_err.str();
  std::string golden = StripThreadsEcho(gold_out.str());

  bool any_killed = false;
  for (uint64_t crash_at : {2u, 3u}) {
    std::remove(snap_path_.c_str());
    std::remove((snap_path_ + ".tmp").c_str());
    pid_t pid = fork();
    if (pid == 0) {
      setenv("TGDKIT_CRASH_AT", std::to_string(crash_at).c_str(), 1);
      setenv("TGDKIT_CRASH_PHASE", "mid", 1);
      std::ostringstream out, err;
      RunCli({"chase", rules_path_, inst_path_, "--seed", "5", "--threads",
              "4", "--checkpoint", snap_path_, "--checkpoint-every-steps",
              "1"},
             out, err);
      _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    if (!WIFSIGNALED(status)) continue;  // finished before the kill point
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    any_killed = true;
    std::ifstream snap(snap_path_, std::ios::binary);
    ASSERT_TRUE(snap.good()) << "kill at write " << crash_at
                             << " left no snapshot";
    for (const char* resume_threads : {"1", "4"}) {
      std::ostringstream out, err;
      ASSERT_EQ(RunCli({"chase", "--resume", snap_path_, "--threads",
                        resume_threads},
                       out, err),
                0)
          << err.str();
      EXPECT_EQ(StripThreadsEcho(out.str()), golden)
          << "crash_at=" << crash_at
          << " resume_threads=" << resume_threads;
    }
  }
  ASSERT_TRUE(any_killed)
      << "no child was killed; raise checkpoint frequency or workload";
}

}  // namespace
}  // namespace tgdkit
