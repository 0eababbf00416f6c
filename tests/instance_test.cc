#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "base/budget.h"
#include "base/rng.h"
#include "base/strings.h"
#include "data/instance.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class InstanceTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;
};

/// The ascending rows of `relation` whose `position`-th entry is `value`.
std::vector<uint32_t> RowsWithValue(const Instance& inst, RelationId relation,
                                    uint32_t position, Value value) {
  std::vector<uint32_t> rows;
  inst.CandidateRows(inst.FindPostings(relation, position, value), nullptr,
                     UINT32_MAX, &rows);
  return rows;
}

TEST_F(InstanceTest, AddFactDeduplicates) {
  Instance inst(&ws_.vocab);
  EXPECT_TRUE(inst.AddFact(ws_.Fc("Emp", {"alice", "cs"})));
  EXPECT_FALSE(inst.AddFact(ws_.Fc("Emp", {"alice", "cs"})));
  EXPECT_TRUE(inst.AddFact(ws_.Fc("Emp", {"bob", "cs"})));
  EXPECT_EQ(inst.NumFacts(), 2u);
}

TEST_F(InstanceTest, ContainsChecksExactTuple) {
  Instance inst(&ws_.vocab);
  Fact f = ws_.Fc("Emp", {"alice", "cs"});
  inst.AddFact(f);
  EXPECT_TRUE(inst.Contains(f.relation, f.args));
  Fact g = ws_.Fc("Emp", {"cs", "alice"});
  EXPECT_FALSE(inst.Contains(g.relation, g.args));
}

TEST_F(InstanceTest, FreshNullsAreDistinctValues) {
  Instance inst(&ws_.vocab);
  Value n1 = inst.FreshNull();
  Value n2 = inst.FreshNull("u");
  EXPECT_TRUE(n1.is_null());
  EXPECT_TRUE(n2.is_null());
  EXPECT_NE(n1, n2);
  EXPECT_EQ(inst.NullLabel(n2.index()), "u");
  EXPECT_NE(n1, ws_.Cv("alice"));
}

TEST_F(InstanceTest, NullAndConstantDoNotCollide) {
  Instance inst(&ws_.vocab);
  Value c = ws_.Cv("x");
  Value n = inst.FreshNull();
  // Same underlying index is possible; values must still differ.
  EXPECT_TRUE(c.is_constant());
  EXPECT_TRUE(n.is_null());
  EXPECT_NE(c, n);
}

TEST_F(InstanceTest, PositionIndexFindsRows) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("Emp", {"alice", "cs"}));
  inst.AddFact(ws_.Fc("Emp", {"bob", "cs"}));
  inst.AddFact(ws_.Fc("Emp", {"carol", "math"}));
  RelationId emp = ws_.vocab.FindRelation("Emp");
  EXPECT_EQ(RowsWithValue(inst, emp, 1, ws_.Cv("cs")).size(), 2u);
  EXPECT_EQ(RowsWithValue(inst, emp, 1, ws_.Cv("math")).size(), 1u);
  EXPECT_EQ(RowsWithValue(inst, emp, 0, ws_.Cv("cs")).size(), 0u);
  EXPECT_EQ(RowsWithValue(inst, emp, 1, ws_.Cv("physics")).size(), 0u);
}

TEST_F(InstanceTest, TupleAccess) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  RelationId r = ws_.vocab.FindRelation("R");
  auto t = inst.Tuple(r, 0);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], ws_.Cv("a"));
  EXPECT_EQ(t[1], ws_.Cv("b"));
}

TEST_F(InstanceTest, ActiveDomainCollectsDistinctValues) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  inst.AddFact(ws_.Fc("S", {"b", "c"}));
  Value n = inst.FreshNull();
  RelationId s = ws_.vocab.FindRelation("S");
  inst.AddFact(s, std::vector<Value>{ws_.Cv("a"), n});
  EXPECT_EQ(inst.ActiveDomain().size(), 4u);  // a, b, c, null
}

TEST_F(InstanceTest, AllFactsRoundTrips) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  inst.AddFact(ws_.Fc("S", {"c"}));
  std::vector<Fact> facts = inst.AllFacts();
  ASSERT_EQ(facts.size(), 2u);
  Instance copy(&ws_.vocab);
  for (const Fact& f : facts) copy.AddFact(f);
  EXPECT_EQ(copy.ToString(), inst.ToString());
}

TEST_F(InstanceTest, ToStringIsSortedAndStable) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("B", {"x"}));
  inst.AddFact(ws_.Fc("A", {"y"}));
  EXPECT_EQ(inst.ToString(), "A(y)\nB(x)\n");
}

TEST_F(InstanceTest, CopyFactsPreservesNullSpace) {
  Instance src(&ws_.vocab);
  Value n = src.FreshNull();
  RelationId r = ws_.vocab.InternRelation("R", 1);
  src.AddFact(r, std::vector<Value>{n});
  Instance dst(&ws_.vocab);
  CopyFacts(src, &dst);
  EXPECT_EQ(dst.NumFacts(), 1u);
  EXPECT_EQ(dst.num_nulls(), 1u);
}

/// The canonical print as it was before it streamed, kept as the
/// reference for the print order: one string per fact, std::sort, then
/// join.
std::string ReferencePrint(const Instance& inst) {
  std::vector<std::string> lines;
  for (const Fact& f : inst.AllFacts()) {
    std::string line = inst.vocab().RelationName(f.relation) + "(";
    for (size_t i = 0; i < f.args.size(); ++i) {
      if (i > 0) line += ", ";
      line += inst.ValueToString(f.args[i]);
    }
    lines.push_back(line + ")");
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// Fills `inst` with random facts over values whose renderings are
/// prefixes of one another (a, a$, a$b; 1, 10; _N1, _N10), contain the
/// separators (quoted "a,b", "a)", "a("), or coincide (the labelled null
/// _N5 and the null with index 5), over relations R and R$ whose order
/// differs by name and by "name(".
void FillAdversarial(uint64_t seed, int facts, Vocabulary* vocab,
                     Instance* inst) {
  std::vector<Value> values;
  for (const char* name : {"a", "a$", "a$b", "1", "10", "1 ", "a b", "a,b",
                           "a)", "a(", ""}) {
    values.push_back(Value::Constant(vocab->InternConstant(name)));
  }
  for (int i = 0; i < 12; ++i) values.push_back(inst->FreshNull());
  for (const char* label : {"N5", "N1", "x"}) {
    values.push_back(inst->FreshNull(label));
  }
  std::vector<RelationId> relations = {vocab->InternRelation("R", 2),
                                       vocab->InternRelation("R$", 1),
                                       vocab->InternRelation("T", 3)};
  Rng rng(seed);
  for (int i = 0; i < facts; ++i) {
    RelationId rel = rng.Pick(relations);
    std::vector<Value> args(vocab->RelationArity(rel));
    for (Value& v : args) v = rng.Pick(values);
    inst->AddFact(rel, args);
  }
}

TEST_F(InstanceTest, CanonicalPrintMatchesTheSortedLineReference) {
  std::string dir = testing::TempDir() + "/tgdkit_instance_print_" +
                    std::to_string(::getpid());
  ASSERT_EQ(::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Instance in_core(&ws_.vocab);
    FillAdversarial(seed, 1500, &ws_.vocab, &in_core);
    std::string reference = ReferencePrint(in_core);
    EXPECT_EQ(in_core.ToString(), reference) << "seed " << seed;

    // The same facts in 4 KiB segments: most rows print from sealed
    // segments.
    Instance spilled(&ws_.vocab);
    SpillConfig config;
    config.dir = dir;
    config.segment_bytes = 4096;
    ASSERT_TRUE(spilled.EnableSpill(config).ok());
    FillAdversarial(seed, 1500, &ws_.vocab, &spilled);
    EXPECT_GT(spilled.spill_stats().sealed_segments, 0u);
    EXPECT_EQ(spilled.ToString(), reference) << "spilled, seed " << seed;
    ASSERT_EQ(::system(("rm -rf " + dir + "/*").c_str()), 0);
  }
  ASSERT_EQ(::system(("rm -rf " + dir).c_str()), 0);
}

TEST_F(InstanceTest, CanonicalPrintOrdersBySeparatorAfterAPrefix) {
  Instance inst(&ws_.vocab);
  RelationId r = ws_.vocab.InternRelation("R", 2);
  auto add = [&](Value x, Value y) {
    inst.AddFact(r, std::vector<Value>{x, y});
  };
  add(ws_.Cv("a"), ws_.Cv("a)"));
  add(ws_.Cv("a$b"), ws_.Cv("z"));
  std::vector<Value> nulls;
  for (int i = 0; i < 11; ++i) nulls.push_back(inst.FreshNull());
  add(nulls[5], ws_.Cv("a"));
  add(nulls[10], ws_.Cv("a"));
  add(nulls[1], ws_.Cv("a"));
  EXPECT_EQ(inst.ToString(),
            "R(_N1, a)\nR(_N10, a)\nR(_N5, a)\nR(a$b, z)\nR(a, \"a)\")\n");
}

TEST_F(InstanceTest, CanonicalPrintStopsOnWholeLines) {
  Instance inst(&ws_.vocab);
  FillAdversarial(7, 400, &ws_.vocab, &inst);
  std::string full = inst.ToString();
  ExecutionBudget budget;
  budget.max_steps = 10;
  ResourceGovernor governor(budget);
  ChunkedWriter out;
  EXPECT_FALSE(inst.WriteCanonical(&out, &governor));
  EXPECT_EQ(governor.reason(), StopReason::kStepLimit);
  std::string partial = out.Take();
  ASSERT_FALSE(partial.empty());
  EXPECT_EQ(partial.back(), '\n');
  EXPECT_LT(partial.size(), full.size());
  EXPECT_EQ(full.compare(0, partial.size(), partial), 0);

  // A failed stream stops the print at once.
  std::ostringstream failed;
  failed.setstate(std::ios::badbit);
  ChunkedWriter to_failed(&failed);
  EXPECT_FALSE(inst.WriteCanonical(&to_failed));
}

}  // namespace
}  // namespace tgdkit
