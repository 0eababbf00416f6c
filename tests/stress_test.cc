// Stress and consistency tests for the low-level substrates: deep and
// wide term interning, index-vs-scan agreement on instances, large chase
// runs, and arena sharing across many structures.
#include <gtest/gtest.h>

#include <set>

#include "base/rng.h"
#include "chase/chase.h"
#include "dep/skolem.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

TEST(StressTest, DeepTermChainsIntern) {
  TestWorkspace ws;
  FunctionId f = ws.vocab.InternFunction("deep", 1);
  TermId t = ws.C("base");
  std::vector<TermId> chain{t};
  for (int i = 0; i < 2000; ++i) {
    t = ws.arena.MakeFunction(f, std::vector<TermId>{t});
    chain.push_back(t);
  }
  EXPECT_EQ(ws.arena.Depth(t), 2000u);
  // Re-interning the same chain yields identical ids (full sharing).
  TermId t2 = ws.C("base");
  for (int i = 0; i < 2000; ++i) {
    t2 = ws.arena.MakeFunction(f, std::vector<TermId>{t2});
    EXPECT_EQ(t2, chain[i + 1]);
  }
}

TEST(StressTest, WideInterningIsUnique) {
  TestWorkspace ws;
  FunctionId f = ws.vocab.InternFunction("pair", 2);
  std::set<TermId> distinct;
  std::vector<TermId> leaves;
  for (int i = 0; i < 40; ++i) {
    leaves.push_back(ws.C("c" + std::to_string(i)));
  }
  for (TermId a : leaves) {
    for (TermId b : leaves) {
      distinct.insert(ws.arena.MakeFunction(f, std::vector<TermId>{a, b}));
    }
  }
  EXPECT_EQ(distinct.size(), 1600u);
  // And the arena grew by exactly that many function nodes.
  for (TermId a : leaves) {
    for (TermId b : leaves) {
      TermId again = ws.arena.MakeFunction(f, std::vector<TermId>{a, b});
      EXPECT_TRUE(distinct.count(again));
    }
  }
}

TEST(StressTest, PositionIndexAgreesWithScan) {
  TestWorkspace ws;
  Rng rng(8642);
  RelationId r = ws.vocab.InternRelation("R", 3);
  Instance inst(&ws.vocab);
  for (int i = 0; i < 500; ++i) {
    std::vector<Value> args{Value::Constant(uint32_t(rng.Below(13))),
                            Value::Constant(uint32_t(rng.Below(7))),
                            Value::Constant(uint32_t(rng.Below(5)))};
    inst.AddFact(r, args);
  }
  size_t n = inst.NumTuples(r);
  for (uint32_t pos = 0; pos < 3; ++pos) {
    for (uint32_t c = 0; c < 13; ++c) {
      Value v = Value::Constant(c);
      std::vector<uint32_t> via_index;
      inst.CandidateRows(inst.FindPostings(r, pos, v), nullptr, UINT32_MAX,
                         &via_index);
      std::set<uint32_t> via_scan;
      for (uint32_t row = 0; row < n; ++row) {
        if (inst.Tuple(r, row)[pos] == v) via_scan.insert(row);
      }
      EXPECT_EQ(std::set<uint32_t>(via_index.begin(), via_index.end()),
                via_scan)
          << "pos " << pos << " value " << c;
    }
  }
}

TEST(StressTest, LargeTransitiveClosure) {
  TestWorkspace ws;
  Tgd trans;
  trans.body = {ws.A("E", {ws.V("x"), ws.V("y")}),
                ws.A("E", {ws.V("y"), ws.V("z")})};
  trans.head = {ws.A("E", {ws.V("x"), ws.V("z")})};
  std::vector<Tgd> tgds{trans};
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  Instance input(&ws.vocab);
  const uint32_t n = 60;
  for (uint32_t i = 0; i + 1 < n; ++i) {
    input.AddFact(ws.Fc("E", {"v" + std::to_string(i),
                              "v" + std::to_string(i + 1)}));
  }
  ChaseLimits limits;
  limits.max_facts = 100000;
  ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input, limits);
  ASSERT_TRUE(result.Terminated());
  // Path closure: n*(n-1)/2 edges.
  EXPECT_EQ(result.instance.NumTuples(ws.vocab.FindRelation("E")),
            n * (n - 1) / 2);
}

TEST(StressTest, ManyNullsRoundTrip) {
  TestWorkspace ws;
  RelationId r = ws.vocab.InternRelation("R", 2);
  Instance inst(&ws.vocab);
  std::vector<Value> nulls;
  for (int i = 0; i < 1000; ++i) {
    nulls.push_back(inst.FreshNull("n" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < 1000; ++i) {
    inst.AddFact(r, std::vector<Value>{nulls[i], nulls[i + 1]});
  }
  EXPECT_EQ(inst.NumFacts(), 999u);
  EXPECT_EQ(inst.num_nulls(), 1000u);
  EXPECT_EQ(inst.ValueToString(nulls[42]), "_n42");
  EXPECT_EQ(inst.ActiveDomain().size(), 1000u);
}

TEST(StressTest, ChaseWithManyRules) {
  // 50 copy rules chained: P0 -> P1 -> ... -> P50.
  TestWorkspace ws;
  std::vector<Tgd> tgds;
  for (int i = 0; i < 50; ++i) {
    Tgd copy;
    copy.body = {ws.A("L" + std::to_string(i), {ws.V("x")})};
    copy.head = {ws.A("L" + std::to_string(i + 1), {ws.V("x")})};
    tgds.push_back(copy);
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  Instance input(&ws.vocab);
  input.AddFact(ws.Fc("L0", {"seed"}));
  ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input);
  ASSERT_TRUE(result.Terminated());
  EXPECT_EQ(result.instance.NumFacts(), 51u);
  EXPECT_EQ(result.instance.NumTuples(ws.vocab.FindRelation("L50")), 1u);
}

}  // namespace
}  // namespace tgdkit
