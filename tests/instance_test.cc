#include <gtest/gtest.h>

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

}  // namespace
}  // namespace tgdkit
