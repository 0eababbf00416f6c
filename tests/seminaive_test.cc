// Semi-naive vs naive chase evaluation: identical fixpoints (up to null
// renaming), fewer redundant trigger evaluations.
#include <gtest/gtest.h>

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
