// Semi-naive vs naive chase evaluation: identical fixpoints (up to null
// renaming), fewer redundant trigger evaluations.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>

#include "base/rng.h"
#include "chase/chase.h"
#include "classify/criteria.h"
#include "dep/skolem.h"
#include "gen/generators.h"
#include "homo/core.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

ChaseLimits Naive() {
  ChaseLimits limits;
  limits.semi_naive = false;
  return limits;
}

class SemiNaiveTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;
};

TEST_F(SemiNaiveTest, TransitiveClosureSameFixpoint) {
  Tgd trans;
  trans.body = {ws_.A("E", {ws_.V("x"), ws_.V("y")}),
                ws_.A("E", {ws_.V("y"), ws_.V("z")})};
  trans.head = {ws_.A("E", {ws_.V("x"), ws_.V("z")})};
  SoTgd so = TgdToSo(&ws_.arena, &ws_.vocab, trans);
  Instance input(&ws_.vocab);
  for (int i = 0; i < 12; ++i) {
    input.AddFact(ws_.Fc("E", {"n" + std::to_string(i),
                               "n" + std::to_string(i + 1)}));
  }
  ChaseResult fast = Chase(&ws_.arena, &ws_.vocab, so, input);
  ChaseResult slow = Chase(&ws_.arena, &ws_.vocab, so, input, Naive());
  EXPECT_TRUE(fast.Terminated());
  EXPECT_TRUE(slow.Terminated());
  EXPECT_EQ(fast.instance.NumFacts(), slow.instance.NumFacts());
  EXPECT_EQ(fast.instance.ToString(), slow.instance.ToString());
}

TEST_F(SemiNaiveTest, SkolemTermsSameFixpoint) {
  // Rules creating nulls: fixpoints agree up to null renaming.
  FunctionId f = ws_.vocab.InternFunction("fsn", 1);
  SoTgd so;
  so.functions = {f};
  SoPart invent;
  invent.body = {ws_.A("P", {ws_.V("x")})};
  invent.head = {ws_.A("R", {ws_.V("x"), ws_.F("fsn", {ws_.V("x")})})};
  SoPart copy;
  copy.body = {ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  copy.head = {ws_.A("S", {ws_.V("y")})};
  so.parts = {invent, copy};
  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("P", {"a"}));
  input.AddFact(ws_.Fc("P", {"b"}));
  ChaseResult fast = Chase(&ws_.arena, &ws_.vocab, so, input);
  ChaseResult slow = Chase(&ws_.arena, &ws_.vocab, so, input, Naive());
  EXPECT_EQ(fast.instance.NumFacts(), slow.instance.NumFacts());
  EXPECT_TRUE(HomomorphicallyEquivalent(&ws_.arena, &ws_.vocab,
                                        fast.instance, slow.instance));
}

TEST_F(SemiNaiveTest, ConstantsInBodiesHandled) {
  // Delta seeding must respect constants in body atoms.
  Tgd route;
  route.body = {ws_.A("St", {ws_.C("go"), ws_.V("x")})};
  route.head = {ws_.A("Out", {ws_.V("x")})};
  Tgd feed;
  feed.body = {ws_.A("In", {ws_.V("x")})};
  feed.head = {ws_.A("St", {ws_.C("go"), ws_.V("x")})};
  Tgd noise;
  noise.body = {ws_.A("In", {ws_.V("x")})};
  noise.head = {ws_.A("St", {ws_.C("stop"), ws_.V("x")})};
  std::vector<Tgd> tgds{route, feed, noise};
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, tgds);
  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("In", {"a"}));
  input.AddFact(ws_.Fc("In", {"b"}));
  ChaseResult fast = Chase(&ws_.arena, &ws_.vocab, so, input);
  ChaseResult slow = Chase(&ws_.arena, &ws_.vocab, so, input, Naive());
  EXPECT_EQ(fast.instance.ToString(), slow.instance.ToString());
  RelationId out = ws_.vocab.FindRelation("Out");
  EXPECT_EQ(fast.instance.NumTuples(out), 2u);
}

TEST_F(SemiNaiveTest, RepeatedVariableInPivot) {
  // Delta seeding must respect repeated variables in the pivot atom.
  Tgd diag;
  diag.body = {ws_.A("R", {ws_.V("x"), ws_.V("x")})};
  diag.head = {ws_.A("D", {ws_.V("x")})};
  Tgd gen;
  gen.body = {ws_.A("P", {ws_.V("x"), ws_.V("y")})};
  gen.head = {ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  std::vector<Tgd> tgds{diag, gen};
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, tgds);
  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("P", {"a", "a"}));
  input.AddFact(ws_.Fc("P", {"a", "b"}));
  ChaseResult fast = Chase(&ws_.arena, &ws_.vocab, so, input);
  RelationId d = ws_.vocab.FindRelation("D");
  EXPECT_EQ(fast.instance.NumTuples(d), 1u);
  ChaseResult slow = Chase(&ws_.arena, &ws_.vocab, so, input, Naive());
  EXPECT_EQ(fast.instance.ToString(), slow.instance.ToString());
}

TEST_F(SemiNaiveTest, TriggersTouchingSeveralDeltaFactsFireOnce) {
  // Over a path, closure makes every new edge a delta fact, so most
  // triggers of the 3-atom chain (and of the 2-atom closure) hold two or
  // three facts of the same delta. Windowed evaluation fires each once,
  // at its first delta atom; the result must agree with naive evaluation
  // up to null renaming (each trigger mints its own null).
  Tgd trans;
  trans.body = {ws_.A("E", {ws_.V("x"), ws_.V("y")}),
                ws_.A("E", {ws_.V("y"), ws_.V("z")})};
  trans.head = {ws_.A("E", {ws_.V("x"), ws_.V("z")})};
  Tgd chain;
  chain.body = {ws_.A("E", {ws_.V("a"), ws_.V("b")}),
                ws_.A("E", {ws_.V("b"), ws_.V("c")}),
                ws_.A("E", {ws_.V("c"), ws_.V("d")})};
  chain.head = {ws_.A("J", {ws_.V("a"), ws_.V("d"), ws_.V("w")})};
  chain.exist_vars = {ws_.Vid("w")};
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, std::vector<Tgd>{trans, chain});
  Instance input(&ws_.vocab);
  for (int i = 0; i < 7; ++i) {
    input.AddFact(ws_.Fc("E", {"n" + std::to_string(i),
                               "n" + std::to_string(i + 1)}));
  }
  ChaseResult fast = Chase(&ws_.arena, &ws_.vocab, so, input);
  ChaseResult slow = Chase(&ws_.arena, &ws_.vocab, so, input, Naive());
  ASSERT_TRUE(fast.Terminated());
  ASSERT_TRUE(slow.Terminated());
  EXPECT_EQ(fast.rounds, slow.rounds);
  EXPECT_EQ(fast.instance.NumFacts(), slow.instance.NumFacts());
  EXPECT_EQ(fast.instance.num_nulls(), slow.instance.num_nulls());
  EXPECT_TRUE(HomomorphicallyEquivalent(&ws_.arena, &ws_.vocab,
                                        fast.instance, slow.instance));
  RelationId j = ws_.vocab.FindRelation("J");
  EXPECT_EQ(fast.instance.NumTuples(j), slow.instance.NumTuples(j));
  EXPECT_GT(fast.instance.NumTuples(j), 20u);
  // Naive rounds re-fire every old trigger; windowed rounds fire only
  // new ones.
  EXPECT_LT(fast.budget_steps, slow.budget_steps);
}

TEST_F(SemiNaiveTest, DeltaPivotIsBoundOnce) {
  // Round 1 copies P into R; round 2's delta rows are R's, the pivot of
  // `use`. P is a union of complete bipartite blocks of side g = 2..16, so
  // every R value recurs in g rows at each position: a search that looked
  // the bound pivot up again would probe g rows per delta row. Binding
  // the pivot to its row costs exactly one probe instead.
  Tgd gen;
  gen.body = {ws_.A("P", {ws_.V("x"), ws_.V("y")})};
  gen.head = {ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  Tgd use;
  use.body = {ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  use.head = {ws_.A("S", {ws_.V("y"), ws_.V("w")})};
  use.exist_vars = {ws_.Vid("w")};
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, std::vector<Tgd>{gen, use});
  Instance input(&ws_.vocab);
  uint64_t rows = 0;
  for (int g = 2; g <= 16; ++g) {
    for (int i = 0; i < g; ++i) {
      for (int j = 0; j < g; ++j) {
        input.AddFact(ws_.Fc("P", {"a" + std::to_string(g) + "_" +
                                       std::to_string(i),
                                   "b" + std::to_string(g) + "_" +
                                       std::to_string(j)}));
        ++rows;
      }
    }
  }
  ChaseResult serial = Chase(&ws_.arena, &ws_.vocab, so, input);
  ASSERT_TRUE(serial.Terminated());
  EXPECT_EQ(serial.rounds, 3u);
  EXPECT_EQ(serial.facts_created, 2 * rows);
  // Round 1: a scan probe and a trigger per P row (R is still empty).
  // Round 2: per R delta row, one step for scanning it, one probe binding
  // the pivot to it, and a trigger. Round 3 has no delta to search.
  EXPECT_EQ(serial.budget_steps, 2 * rows + 3 * rows);

  ChaseLimits lanes;
  lanes.threads = 4;
  ChaseResult parallel = Chase(&ws_.arena, &ws_.vocab, so, input, lanes);
  EXPECT_EQ(parallel.budget_steps, serial.budget_steps);
  EXPECT_EQ(parallel.instance.ToString(), serial.instance.ToString());

  ChaseLimits spill;
  spill.spill_dir = testing::TempDir() + "/tgdkit_seminaive_pivot_" +
                    std::to_string(::getpid());
  spill.spill_segment_kb = 1;
  ASSERT_EQ(::system(("rm -rf " + spill.spill_dir).c_str()), 0);
  ChaseResult spilled = Chase(&ws_.arena, &ws_.vocab, so, input, spill);
  EXPECT_EQ(spilled.budget_steps, serial.budget_steps);
  EXPECT_EQ(spilled.instance.ToString(), serial.instance.ToString());
  ASSERT_EQ(::system(("rm -rf " + spill.spill_dir).c_str()), 0);
}

TEST_F(SemiNaiveTest, DeltaRowWithoutAPartnerPaysItsPivotProbe) {
  // Round 1 copies P into T; round 2's delta rows are T's, the pivot of
  // `join`, and only every tenth has an E partner. The pivot is bound to
  // each delta row with one probe before E is looked up, so a row whose
  // E lookup is empty still costs two steps: its scan and that probe. A
  // search of the whole body, pivot included, looked E up first (no
  // candidate beats the pivot's one) and paid the scan alone: 330 steps
  // here, so a --max-steps stop on such joins can come earlier.
  Tgd gen;
  gen.body = {ws_.A("P", {ws_.V("x"), ws_.V("y")})};
  gen.head = {ws_.A("T", {ws_.V("x"), ws_.V("y")})};
  Tgd join;
  join.body = {ws_.A("T", {ws_.V("x"), ws_.V("y")}),
               ws_.A("E", {ws_.V("y"), ws_.V("z")})};
  join.head = {ws_.A("S", {ws_.V("x"), ws_.V("z")})};
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, std::vector<Tgd>{gen, join});
  Instance input(&ws_.vocab);
  for (int i = 0; i < 100; ++i) {
    const std::string n = std::to_string(i);
    input.AddFact(ws_.Fc("P", {"a" + n, "b" + n}));
    if (i % 10 == 0) input.AddFact(ws_.Fc("E", {"b" + n, "c" + n}));
  }
  ChaseResult serial = Chase(&ws_.arena, &ws_.vocab, so, input);
  ASSERT_TRUE(serial.Terminated());
  EXPECT_EQ(serial.facts_created, 110u);
  // Round 1: a scan probe and a trigger per P row (T is still empty).
  // Round 2: two steps per T delta row, plus an E probe and a trigger
  // for each of the 10 with a partner.
  EXPECT_EQ(serial.budget_steps, 2 * 100 + 2 * 100 + 2 * 10u);

  ChaseLimits lanes;
  lanes.threads = 4;
  ChaseResult parallel = Chase(&ws_.arena, &ws_.vocab, so, input, lanes);
  EXPECT_EQ(parallel.budget_steps, serial.budget_steps);
  EXPECT_EQ(parallel.instance.ToString(), serial.instance.ToString());
}

TEST_F(SemiNaiveTest, RandomRuleSetsAgree) {
  Rng rng(424242);
  for (int trial = 0; trial < 15; ++trial) {
    TestWorkspace ws;
    auto relations = GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
    std::vector<Tgd> tgds;
    for (int i = 0; i < 3; ++i) {
      tgds.push_back(
          GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
    }
    SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
    Instance input(&ws.vocab);
    GenerateInstance(&ws.vocab, &rng, relations, 10, 3, 0, &input);
    ChaseLimits limits;
    limits.max_term_depth = 5;
    limits.max_facts = 20000;
    ChaseLimits naive = limits;
    naive.semi_naive = false;
    ChaseResult fast = Chase(&ws.arena, &ws.vocab, so, input, limits);
    ChaseResult slow = Chase(&ws.arena, &ws.vocab, so, input, naive);
    if (!fast.Terminated() || !slow.Terminated()) continue;
    EXPECT_EQ(fast.instance.NumFacts(), slow.instance.NumFacts())
        << "trial " << trial;
    EXPECT_TRUE(HomomorphicallyEquivalent(&ws.arena, &ws.vocab,
                                          fast.instance, slow.instance))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace tgdkit
