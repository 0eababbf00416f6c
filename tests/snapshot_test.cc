// Tests for the crash-consistent snapshot layer (src/snapshot): payload
// round-trips, envelope rejection, bit-identical checkpoint/resume for
// the Skolem chase, and the governor's no-recharge contract on resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "chase/chase.h"
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
  EXPECT_EQ(engine.stop_reason(), ChaseStop::kFixpoint);
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
  ASSERT_NE(engine.stop_reason(), ChaseStop::kFixpoint);

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
  EXPECT_EQ(parsed->state->instance.ToExactText(),
            state.instance.ToExactText());
  EXPECT_EQ(parsed->arena->size(), ws.arena.size());
  // Serializing the parsed snapshot reproduces the file byte for byte.
  EXPECT_EQ(SerializeChaseSnapshot(*parsed->vocab, *parsed->arena,
                                   parsed->rules, *parsed->state, 42, 99),
            bytes);
}

TEST(SnapshotTest, ChaseResumeAfterBudgetStopIsBitIdentical) {
  GoldenRun golden = GoldenChase(12);

  TestWorkspace ws;
  SoTgd so = TransitiveClosureRules(&ws);
  Instance input = PathInstance(&ws, 12);
  ChaseLimits limits;
  limits.budget.max_steps = 200;
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
  engine.Run();
  ASSERT_EQ(engine.stop_reason(), ChaseStop::kStepLimit);

  std::string bytes = SerializeChaseSnapshot(
      ws.vocab, ws.arena, so, engine.CaptureState(), 0, 0);
  auto snap = ParseChaseSnapshot(bytes);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ChaseEngine resumed(snap->arena.get(), snap->vocab.get(), snap->rules,
                      std::move(*snap->state), ChaseLimits{});
  resumed.Run();
  EXPECT_EQ(resumed.stop_reason(), ChaseStop::kFixpoint);
  EXPECT_EQ(resumed.instance().ToString(), golden.text);
  EXPECT_EQ(resumed.rounds(), golden.rounds);
  EXPECT_EQ(resumed.facts_created(), golden.facts_created);
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
    EXPECT_EQ(resumed.stop_reason(), ChaseStop::kFixpoint);
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
  ASSERT_EQ(engine.stop_reason(), ChaseStop::kStepLimit);
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
  ASSERT_EQ(resumed.stop_reason(), ChaseStop::kStepLimit);
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
    Status st = ParseInstanceText(text, &vocab, &reparsed);
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString();
    EXPECT_EQ(reparsed.ToExactText(), text) << "seed " << seed;
    EXPECT_EQ(reparsed.ToString(), instance.ToString()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace tgdkit
