// Tests for the crash-consistent snapshot layer (src/snapshot): payload
// round-trips, envelope rejection, bit-identical checkpoint/resume for
// the Skolem chase, and the governor's no-recharge contract on resume.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "base/strings.h"
#include "chase/chase.h"
#include "cli/cli.h"
#include "data/instance.h"
#include "dep/dependency.h"
#include "gen/generators.h"
#include "snapshot/snapshot.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

/// Transitive closure over a path graph plus an existential rule: rounds
/// grow geometrically and every round allocates nulls, so mid-round
/// checkpoints exercise the replay machinery for real.
SoTgd TransitiveClosureRules(TestWorkspace* ws) {
  SoTgd so;
  FunctionId fm = ws->vocab.InternFunction("fm", 2);
  so.functions = {fm};
  SoPart trans;
  trans.body = {ws->A("E", {ws->V("x"), ws->V("y")}),
                ws->A("E", {ws->V("y"), ws->V("z")})};
  trans.head = {ws->A("E", {ws->V("x"), ws->V("z")})};
  SoPart mgr;
  mgr.body = {ws->A("E", {ws->V("x"), ws->V("y")})};
  mgr.head = {ws->A("M", {ws->V("x"), ws->F("fm", {ws->V("x"), ws->V("y")})})};
  so.parts = {trans, mgr};
  return so;
}

Instance PathInstance(TestWorkspace* ws, int nodes) {
  Instance input(&ws->vocab);
  for (int i = 0; i + 1 < nodes; ++i) {
    input.AddFact(ws->Fc("E", {"n" + std::to_string(i),
                               "n" + std::to_string(i + 1)}));
  }
  return input;
}

/// Runs the chase to fixpoint with no budget and reports the canonical
/// rendering plus counters, the oracle all resumed runs must match.
struct GoldenRun {
  std::string text;
  uint64_t rounds;
  uint64_t facts_created;
};

GoldenRun GoldenChase(int nodes) {
  TestWorkspace ws;
  SoTgd so = TransitiveClosureRules(&ws);
  Instance input = PathInstance(&ws, nodes);
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input);
  engine.Run();
  EXPECT_EQ(engine.stop_reason(), StopReason::kFixpoint);
  return {engine.instance().ToString(), engine.rounds(),
          engine.facts_created()};
}

TEST(SnapshotTest, ChaseSerializeParseRoundTrip) {
  TestWorkspace ws;
  SoTgd so = TransitiveClosureRules(&ws);
  Instance input = PathInstance(&ws, 8);
  ChaseLimits limits;
  limits.budget.max_steps = 40;
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
  engine.Run();
  ASSERT_NE(engine.stop_reason(), StopReason::kFixpoint);

  ChaseEngineState state = engine.CaptureState();
  std::string bytes = SerializeChaseSnapshot(ws.vocab, ws.arena, so, state,
                                             /*seed=*/42, /*rng_state=*/99);
  auto parsed = ParseChaseSnapshot(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seed, 42u);
  EXPECT_EQ(parsed->rng_state, 99u);
  EXPECT_EQ(parsed->state->rounds, state.rounds);
  EXPECT_EQ(parsed->state->facts_created, state.facts_created);
  EXPECT_EQ(parsed->state->stop_reason, state.stop_reason);
  EXPECT_EQ(parsed->state->governor_steps, state.governor_steps);
  EXPECT_EQ(parsed->state->term_to_value, state.term_to_value);
  EXPECT_EQ(parsed->state->rows_before_current_round,
            state.rows_before_current_round);
  // A step stop lands in staging, before the round commits anything, so
  // the snapshot keeps the live instance whole.
  EXPECT_TRUE(state.keep_rows.empty());
  EXPECT_EQ(parsed->state->instance.ToExactText(),
            engine.instance().ToExactText());
  EXPECT_EQ(parsed->arena->size(), ws.arena.size());
  // Serializing the parsed snapshot reproduces the file byte for byte.
  EXPECT_EQ(SerializeChaseSnapshot(*parsed->vocab, *parsed->arena,
                                   parsed->rules, *parsed->state, 42, 99),
            bytes);
}

TEST(SnapshotTest, ChaseResumeAfterBudgetStopIsBitIdentical) {
  GoldenRun golden = GoldenChase(12);

  // A step stop lands in staging, before the round commits anything. A
  // fact stop lands inside the round's flush, with part of the round
  // committed: the capture is torn and keeps only the round-start rows.
  ChaseLimits by_steps;
  by_steps.budget.max_steps = 200;
  ChaseLimits by_facts;
  by_facts.max_facts = 40;
  for (const ChaseLimits& limits : {by_steps, by_facts}) {
    const bool torn = limits.max_facts == by_facts.max_facts;
    const std::string label = torn ? "fact stop" : "step stop";
    TestWorkspace ws;
    SoTgd so = TransitiveClosureRules(&ws);
    Instance input = PathInstance(&ws, 12);
    ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
    engine.Run();
    ASSERT_EQ(engine.stop_reason(),
              torn ? StopReason::kFactLimit : StopReason::kStepLimit)
        << label;

    ChaseEngineState state = engine.CaptureState();
    EXPECT_EQ(state.keep_rows.empty(), !torn) << label;
    std::string bytes = SerializeChaseSnapshot(ws.vocab, ws.arena, so, state,
                                               0, 0);
    auto snap = ParseChaseSnapshot(bytes);
    ASSERT_TRUE(snap.ok()) << label << ": " << snap.status().ToString();
    ChaseEngine resumed(snap->arena.get(), snap->vocab.get(), snap->rules,
                        std::move(*snap->state), ChaseLimits{});
    resumed.Run();
    EXPECT_EQ(resumed.stop_reason(), StopReason::kFixpoint) << label;
    EXPECT_EQ(resumed.instance().ToString(), golden.text) << label;
    EXPECT_EQ(resumed.rounds(), golden.rounds) << label;
    EXPECT_EQ(resumed.facts_created(), golden.facts_created) << label;
  }
}

TEST(SnapshotTest, ChasePeriodicCheckpointsAllResumeBitIdentical) {
  GoldenRun golden = GoldenChase(10);

  // Collect every periodic checkpoint the engine offers, then resume each
  // one: wherever the process might have been killed, the continuation
  // must converge to the same rendering and counters.
  std::vector<std::string> checkpoints;
  {
    TestWorkspace ws;
    SoTgd so = TransitiveClosureRules(&ws);
    Instance input = PathInstance(&ws, 10);
    ChaseEngine engine(&ws.arena, &ws.vocab, so, input);
    engine.SetCheckpointHook(
        /*every_steps=*/1, /*every_ms=*/0, [&](const ChaseEngine& e) {
          checkpoints.push_back(SerializeChaseSnapshot(
              ws.vocab, ws.arena, so, e.CaptureState(), 0, 0));
        });
    engine.Run();
  }
  ASSERT_GE(checkpoints.size(), 3u);
  for (const std::string& bytes : checkpoints) {
    auto snap = ParseChaseSnapshot(bytes);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ChaseEngine resumed(snap->arena.get(), snap->vocab.get(), snap->rules,
                        std::move(*snap->state), ChaseLimits{});
    resumed.Run();
    EXPECT_EQ(resumed.stop_reason(), StopReason::kFixpoint);
    EXPECT_EQ(resumed.instance().ToString(), golden.text);
    EXPECT_EQ(resumed.rounds(), golden.rounds);
    EXPECT_EQ(resumed.facts_created(), golden.facts_created);
  }
}

TEST(SnapshotTest, GovernorDoesNotRechargeRestoredConsumptionOnResume) {
  TestWorkspace ws;
  SoTgd so = TransitiveClosureRules(&ws);
  // Large enough that two 3000-step legs cannot reach fixpoint: the
  // second leg's budget consumption is then observable in full.
  Instance input = PathInstance(&ws, 30);
  ChaseLimits limits;
  limits.budget.max_steps = 3000;
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
  engine.Run();
  ASSERT_EQ(engine.stop_reason(), StopReason::kStepLimit);
  uint64_t consumed = engine.governor().total_steps();
  ASSERT_GE(consumed, 3000u);

  // Resume with a per-leg budget SMALLER than what the first leg already
  // consumed. If restored steps were charged against the new limit the
  // leg would stop within one governor check interval (~1024 steps); the
  // contract is that they are telemetry only, so the leg gets its full
  // 3000 fresh steps.
  std::string bytes = SerializeChaseSnapshot(
      ws.vocab, ws.arena, so, engine.CaptureState(), 0, 0);
  auto snap = ParseChaseSnapshot(bytes);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ChaseEngine resumed(snap->arena.get(), snap->vocab.get(), snap->rules,
                      std::move(*snap->state), limits);
  resumed.Run();
  ASSERT_EQ(resumed.stop_reason(), StopReason::kStepLimit);
  // Lifetime telemetry keeps counting across legs...
  EXPECT_GE(resumed.governor().total_steps(), consumed + 2500);
  // ...and the serialized consumption matches what a further resume
  // would restore.
  EXPECT_EQ(resumed.CaptureState().governor_steps,
            resumed.governor().total_steps());
}

TEST(SnapshotTest, WrongKindIsInvalidArgument) {
  TestWorkspace ws;
  SoTgd so = TransitiveClosureRules(&ws);
  Instance input = PathInstance(&ws, 4);
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input);
  engine.Run();
  std::string bytes = SerializeChaseSnapshot(
      ws.vocab, ws.arena, so, engine.CaptureState(), 0, 0);
  const std::string header = "tgdkit-snapshot v1 chase\n";
  ASSERT_EQ(bytes.substr(0, header.size()), header);

  // Older builds also wrote `restricted` and `pcp` snapshots. The header
  // is outside the CRC, so only the kind check stands between such a file
  // and a chase resume.
  for (std::string kind : {"restricted", "pcp"}) {
    std::string other = "tgdkit-snapshot v1 " + kind + "\n" +
                        bytes.substr(header.size());
    auto parsed = ParseChaseSnapshot(other);
    ASSERT_FALSE(parsed.ok()) << kind;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument) << kind;
    EXPECT_NE(parsed.status().message().find("'" + kind + "'"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(SnapshotTest, FutureVersionIsUnsupported) {
  TestWorkspace ws;
  SoTgd so = TransitiveClosureRules(&ws);
  Instance input = PathInstance(&ws, 4);
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input);
  engine.Run();
  std::string bytes = SerializeChaseSnapshot(
      ws.vocab, ws.arena, so, engine.CaptureState(), 0, 0);
  size_t v = bytes.find("v1");
  ASSERT_NE(v, std::string::npos);
  bytes[v + 1] = '9';
  auto parsed = ParseChaseSnapshot(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kUnsupported);
}

TEST(SnapshotTest, GarbageIsDataLoss) {
  auto parsed = ParseChaseSnapshot("not a snapshot at all\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), Status::Code::kDataLoss);
  auto empty = ParseChaseSnapshot("");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), Status::Code::kDataLoss);
}

TEST(SnapshotTest, CheckpointsOfLegalInstanceNamesResume) {
  // `_R` is an IDENT, so a legal relation name in instance files, and ""
  // a legal constant; a checkpoint must read both back.
  std::string dir = Cat(testing::TempDir(), "/tgdkit_underscore_", getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream(dir + "/" + name) << text;
    return dir + "/" + name;
  };
  std::string deps = write("deps.tgd",
                           "t: _R(x, y) & _R(y, z) -> _R(x, z) .\n"
                           "m: _R(x, y) -> exists w . _M(x, w) .\n");
  std::string facts = write("facts.inst", "_R(a, b) .\n_R(b, \"\") .\n");
  std::string snap = dir + "/run.snap";
  std::ostringstream first, first_err, resumed, resumed_err;
  ASSERT_EQ(RunCli({"chase", deps, facts, "--checkpoint", snap}, first,
                   first_err),
            0)
      << first_err.str();
  EXPECT_EQ(RunCli({"chase", "--resume", snap}, resumed, resumed_err), 0)
      << resumed_err.str();
  EXPECT_EQ(resumed.str(), first.str());
  EXPECT_NE(first.str().find("_R(a, \"\")"), std::string::npos)
      << first.str();
  for (const char* name : {"deps.tgd", "facts.inst", "run.snap"}) {
    std::remove((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SnapshotTest, WriterReproducesPinnedCaptures) {
  // corpus/snapshots/capture_*.snap were written by an earlier build of
  // the checkpoint writer (commands in corpus/snapshots/README.md). The
  // same runs must write the same bytes: a fixpoint capture, and a torn
  // one whose --max-facts stop lands inside a round's flush, so the
  // writer rolls the instance back to the round's start.
  const std::string corpus =
      std::string(TGDKIT_SOURCE_DIR) + "/corpus/snapshots/";
  const std::string snap =
      Cat(testing::TempDir(), "/tgdkit_pinned_", getpid(), ".snap");
  struct Pinned {
    const char* file;
    std::vector<std::string> flags;
    int exit_code;
  };
  for (const Pinned& pinned :
       {Pinned{"capture_fixpoint.snap", {}, kExitOk},
        Pinned{"capture_torn.snap", {"--max-facts", "50"}, kExitResource}}) {
    std::vector<std::string> args{"chase", corpus + "capture.tgd",
                                  corpus + "capture.inst", "--seed", "11",
                                  "--checkpoint", snap};
    args.insert(args.end(), pinned.flags.begin(), pinned.flags.end());
    std::ostringstream out, err;
    ASSERT_EQ(RunCli(args, out, err), pinned.exit_code)
        << pinned.file << ": " << err.str();
    std::string expected = ReadFileBytes(corpus + pinned.file);
    EXPECT_EQ(ReadFileBytes(snap), expected) << pinned.file;

    // The fixpoint capture keeps every printed fact; the torn one keeps
    // fewer than the stopped run printed.
    auto parsed = ParseChaseSnapshot(expected);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    size_t printed = 0;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      if (!line.empty() && line[0] != '#') ++printed;
    }
    if (pinned.exit_code == kExitOk) {
      EXPECT_EQ(parsed->state->instance.NumFacts(), printed) << pinned.file;
    } else {
      EXPECT_LT(parsed->state->instance.NumFacts(), printed) << pinned.file;
    }
    std::remove(snap.c_str());
  }
}

TEST(SnapshotTest, InstanceExactTextParsePrintIdentity) {
  // Property: parse ∘ print is the identity on the canonical exact text,
  // across randomly generated instances with nulls (satellite of the
  // snapshot format: the instance section must survive a round trip with
  // row ids and null indexes intact).
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Vocabulary vocab;
    Rng rng(seed);
    std::vector<RelationId> relations =
        GenerateSchema(&vocab, &rng, SchemaConfig{});
    Instance instance(&vocab);
    GenerateInstance(&vocab, &rng, relations, /*num_facts=*/40,
                     /*domain_size=*/8, /*num_nulls=*/5, &instance);
    std::string text = instance.ToExactText();
    Instance reparsed(&vocab);
    Status st = ParseFacts(text, FactDialect::kExact, &vocab, &reparsed,
                           instance.num_nulls());
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
    EXPECT_EQ(reparsed.ToExactText(), text) << "seed " << seed;
    EXPECT_EQ(reparsed.ToString(), instance.ToString()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tgdkit
