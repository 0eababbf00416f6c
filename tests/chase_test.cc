#include <gtest/gtest.h>

#include "chase/chase.h"
#include "dep/skolem.h"
#include "homo/core.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class ChaseTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;
};

TEST_F(ChaseTest, SingleRuleCreatesNull) {
  // Emp(e, d) -> exists dm . Mgr(e, dm), Skolemized.
  Tgd tgd;
  tgd.body = {ws_.A("Emp", {ws_.V("e"), ws_.V("d")})};
  tgd.head = {ws_.A("Mgr", {ws_.V("e"), ws_.V("dm")})};
  tgd.exist_vars = {ws_.Vid("dm")};
  SoTgd so = TgdToSo(&ws_.arena, &ws_.vocab, tgd);

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("Emp", {"alice", "cs"}));

  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  EXPECT_TRUE(result.Terminated());
  RelationId mgr = ws_.vocab.FindRelation("Mgr");
  ASSERT_EQ(result.instance.NumTuples(mgr), 1u);
  auto tuple = result.instance.Tuple(mgr, 0);
  EXPECT_EQ(tuple[0], ws_.Cv("alice"));
  EXPECT_TRUE(tuple[1].is_null());
}

TEST_F(ChaseTest, SkolemChaseIsCanonical) {
  // Two employees in the same department share the department manager when
  // the Skolem term depends only on d (the paper's motivating example).
  FunctionId fdm = ws_.vocab.InternFunction("fdm", 1);
  SoTgd so;
  so.functions = {fdm};
  SoPart p;
  p.body = {ws_.A("Emp", {ws_.V("e"), ws_.V("d")})};
  p.head = {ws_.A("Mgr", {ws_.V("e"), ws_.F("fdm", {ws_.V("d")})})};
  so.parts = {p};

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("Emp", {"alice", "cs"}));
  input.AddFact(ws_.Fc("Emp", {"bob", "cs"}));
  input.AddFact(ws_.Fc("Emp", {"carol", "math"}));

  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  RelationId mgr = ws_.vocab.FindRelation("Mgr");
  ASSERT_EQ(result.instance.NumTuples(mgr), 3u);
  // alice and bob share one null; carol gets a different one.
  Value alice_mgr, bob_mgr, carol_mgr;
  for (uint32_t row = 0; row < 3; ++row) {
    auto t = result.instance.Tuple(mgr, row);
    if (t[0] == ws_.Cv("alice")) alice_mgr = t[1];
    if (t[0] == ws_.Cv("bob")) bob_mgr = t[1];
    if (t[0] == ws_.Cv("carol")) carol_mgr = t[1];
  }
  EXPECT_EQ(alice_mgr, bob_mgr);
  EXPECT_NE(alice_mgr, carol_mgr);
}

TEST_F(ChaseTest, TgdSkolemizationSeparatesManagers) {
  // Under plain-tgd Skolemization f(e, d), alice and bob do NOT share.
  Tgd tgd;
  tgd.body = {ws_.A("Emp", {ws_.V("e"), ws_.V("d")})};
  tgd.head = {ws_.A("Mgr", {ws_.V("e"), ws_.V("dm")})};
  tgd.exist_vars = {ws_.Vid("dm")};
  SoTgd so = TgdToSo(&ws_.arena, &ws_.vocab, tgd);

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("Emp", {"alice", "cs"}));
  input.AddFact(ws_.Fc("Emp", {"bob", "cs"}));

  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  RelationId mgr = ws_.vocab.FindRelation("Mgr");
  auto t0 = result.instance.Tuple(mgr, 0);
  auto t1 = result.instance.Tuple(mgr, 1);
  EXPECT_NE(t0[1], t1[1]);
}

TEST_F(ChaseTest, FiringIsIdempotent) {
  FunctionId f = ws_.vocab.InternFunction("fid", 1);
  SoTgd so;
  so.functions = {f};
  SoPart p;
  p.body = {ws_.A("P", {ws_.V("x")})};
  p.head = {ws_.A("R", {ws_.V("x"), ws_.F("fid", {ws_.V("x")})})};
  so.parts = {p};

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("P", {"a"}));
  ChaseEngine engine(&ws_.arena, &ws_.vocab, so, input);
  EXPECT_TRUE(engine.Step());
  EXPECT_FALSE(engine.Step());  // same trigger produces the same null
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.stop_reason(), ChaseStop::kFixpoint);
}

TEST_F(ChaseTest, TransitiveClosureFullTgd) {
  Tgd trans;
  trans.body = {ws_.A("E", {ws_.V("x"), ws_.V("y")}),
                ws_.A("E", {ws_.V("y"), ws_.V("z")})};
  trans.head = {ws_.A("E", {ws_.V("x"), ws_.V("z")})};
  SoTgd so = TgdToSo(&ws_.arena, &ws_.vocab, trans);

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("E", {"a", "b"}));
  input.AddFact(ws_.Fc("E", {"b", "c"}));
  input.AddFact(ws_.Fc("E", {"c", "d"}));

  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  EXPECT_TRUE(result.Terminated());
  RelationId e = ws_.vocab.FindRelation("E");
  EXPECT_EQ(result.instance.NumTuples(e), 6u);  // all pairs a<b<c<d
}

TEST_F(ChaseTest, NonTerminatingChaseHitsDepthLimit) {
  // P(x) -> P(f(x)): classic non-terminating Skolem chase.
  FunctionId f = ws_.vocab.InternFunction("succ", 1);
  SoTgd so;
  so.functions = {f};
  SoPart p;
  p.body = {ws_.A("P", {ws_.V("x")})};
  p.head = {ws_.A("P", {ws_.F("succ", {ws_.V("x")})})};
  so.parts = {p};

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("P", {"zero"}));

  ChaseLimits limits;
  limits.max_term_depth = 10;
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input, limits);
  EXPECT_FALSE(result.Terminated());
  EXPECT_EQ(result.stop_reason, ChaseStop::kDepthLimit);
  RelationId pr = ws_.vocab.FindRelation("P");
  EXPECT_GE(result.instance.NumTuples(pr), 10u);
}

TEST_F(ChaseTest, SharedSubtermTowerStopsAtDefaultDepthLimit) {
  // dup: R(x, y) -> exists z . R(z, z). Round k builds f(t, t) over the
  // previous round's term t: a 2^k-node tree that shares one subterm per
  // level. A depth check that re-walks that tree never lets the run reach
  // the default depth limit.
  Tgd dup;
  dup.body = {ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  dup.head = {ws_.A("R", {ws_.V("z"), ws_.V("z")})};
  dup.exist_vars = {ws_.Vid("z")};
  SoTgd so = TgdToSo(&ws_.arena, &ws_.vocab, dup);

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("R", {"a", "b"}));

  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  EXPECT_EQ(result.stop_reason, ChaseStop::kDepthLimit);
  EXPECT_EQ(result.rounds, 257u);
  EXPECT_EQ(result.facts_created, 256u);
}

TEST_F(ChaseTest, FactLimitStopsChase) {
  FunctionId f = ws_.vocab.InternFunction("wide", 1);
  SoTgd so;
  so.functions = {f};
  SoPart p;
  p.body = {ws_.A("P", {ws_.V("x")})};
  p.head = {ws_.A("P", {ws_.F("wide", {ws_.V("x")})})};
  so.parts = {p};
  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("P", {"zero"}));
  ChaseLimits limits;
  limits.max_facts = 5;
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input, limits);
  EXPECT_EQ(result.stop_reason, ChaseStop::kFactLimit);
  EXPECT_LE(result.instance.NumFacts(), 5u);
}

TEST_F(ChaseTest, EqualityFreeInterpretation) {
  // Emp(e) -> Mgr(e, f(e));  Emp(e) & e = f(e) -> SelfMgr(e).
  // Under the free interpretation e != f(e) always, so SelfMgr stays empty.
  FunctionId f = ws_.vocab.InternFunction("fmgr", 1);
  SoTgd so;
  so.functions = {f};
  SoPart p1;
  p1.body = {ws_.A("Emp", {ws_.V("e")})};
  p1.head = {ws_.A("Mgr", {ws_.V("e"), ws_.F("fmgr", {ws_.V("e")})})};
  SoPart p2;
  p2.body = {ws_.A("Emp", {ws_.V("e")})};
  p2.equalities = {{ws_.V("e"), ws_.F("fmgr", {ws_.V("e")})}};
  p2.head = {ws_.A("SelfMgr", {ws_.V("e")})};
  so.parts = {p1, p2};

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("Emp", {"alice"}));
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  EXPECT_TRUE(result.Terminated());
  EXPECT_EQ(result.instance.NumTuples(ws_.vocab.FindRelation("SelfMgr")), 0u);
  EXPECT_EQ(result.instance.NumTuples(ws_.vocab.FindRelation("Mgr")), 1u);
}

TEST_F(ChaseTest, EqualitySatisfiedBySameTerm) {
  // R(x, y) & f(x) = f(y) fires only when x == y (free interpretation).
  FunctionId f = ws_.vocab.InternFunction("feq", 1);
  SoTgd so;
  so.functions = {f};
  SoPart p;
  p.body = {ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  p.equalities = {{ws_.F("feq", {ws_.V("x")}), ws_.F("feq", {ws_.V("y")})}};
  p.head = {ws_.A("Same", {ws_.V("x"), ws_.V("y")})};
  so.parts = {p};

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("R", {"a", "a"}));
  input.AddFact(ws_.Fc("R", {"a", "b"}));
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  RelationId same = ws_.vocab.FindRelation("Same");
  ASSERT_EQ(result.instance.NumTuples(same), 1u);
  auto t = result.instance.Tuple(same, 0);
  EXPECT_EQ(t[0], ws_.Cv("a"));
  EXPECT_EQ(t[1], ws_.Cv("a"));
}

TEST_F(ChaseTest, InputNullsAreOpaqueIndividuals) {
  FunctionId f = ws_.vocab.InternFunction("fnul", 1);
  SoTgd so;
  so.functions = {f};
  SoPart p;
  p.body = {ws_.A("P", {ws_.V("x")})};
  p.head = {ws_.A("R", {ws_.V("x"), ws_.F("fnul", {ws_.V("x")})})};
  so.parts = {p};

  Instance input(&ws_.vocab);
  RelationId pr = ws_.vocab.InternRelation("P", 1);
  Value n = input.FreshNull();
  input.AddFact(pr, std::vector<Value>{n});

  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  RelationId r = ws_.vocab.FindRelation("R");
  ASSERT_EQ(result.instance.NumTuples(r), 1u);
  auto t = result.instance.Tuple(r, 0);
  EXPECT_EQ(t[0], n);
  EXPECT_TRUE(t[1].is_null());
  EXPECT_NE(t[1], n);
}

TEST_F(ChaseTest, NullProvenanceRecordsSkolemTerm) {
  FunctionId f = ws_.vocab.InternFunction("fprov", 1);
  SoTgd so;
  so.functions = {f};
  SoPart p;
  p.body = {ws_.A("P", {ws_.V("x")})};
  p.head = {ws_.A("R", {ws_.F("fprov", {ws_.V("x")})})};
  so.parts = {p};
  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("P", {"a"}));
  ChaseEngine engine(&ws_.arena, &ws_.vocab, so, input);
  engine.Run();
  RelationId r = ws_.vocab.FindRelation("R");
  auto t = engine.instance().Tuple(r, 0);
  ASSERT_TRUE(t[0].is_null());
  TermId prov = engine.NullProvenance(t[0].index());
  ASSERT_NE(prov, kInvalidTerm);
  EXPECT_EQ(ws_.arena.ToString(prov, ws_.vocab), "fprov(\"a\")");
}

TEST_F(ChaseTest, ChaseResultExplainsNulls) {
  // Dep(d) -> Dep2(fd(d)); Dep2 null explains as fd("cs"); deep chains
  // explain as nested terms.
  FunctionId fd = ws_.vocab.InternFunction("fdx", 1);
  FunctionId fe = ws_.vocab.InternFunction("fex", 1);
  SoTgd so;
  so.functions = {fd, fe};
  SoPart p1;
  p1.body = {ws_.A("Dep", {ws_.V("d")})};
  p1.head = {ws_.A("Dep2", {ws_.F("fdx", {ws_.V("d")})})};
  SoPart p2;
  p2.body = {ws_.A("Dep2", {ws_.V("u")})};
  p2.head = {ws_.A("Dep3", {ws_.F("fex", {ws_.V("u")})})};
  so.parts = {p1, p2};
  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("Dep", {"cs"}));
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  ASSERT_TRUE(result.Terminated());
  RelationId dep2 = ws_.vocab.FindRelation("Dep2");
  RelationId dep3 = ws_.vocab.FindRelation("Dep3");
  Value u = result.instance.Tuple(dep2, 0)[0];
  EXPECT_EQ(result.ExplainValue(ws_.arena, ws_.vocab, u), "fdx(\"cs\")");
  Value w = result.instance.Tuple(dep3, 0)[0];
  EXPECT_EQ(result.ExplainValue(ws_.arena, ws_.vocab, w),
            "fex(fdx(\"cs\"))");
  // Constants explain as themselves.
  EXPECT_EQ(result.ExplainValue(ws_.arena, ws_.vocab, ws_.Cv("cs")), "cs");
}

TEST_F(ChaseTest, RestrictedChaseAvoidsRedundantNulls) {
  // Emp(e) -> exists m . Mgr(e, m), with Mgr(alice, boss) already present:
  // the restricted chase does not fire; the oblivious chase does.
  Tgd tgd;
  tgd.body = {ws_.A("Emp", {ws_.V("e")})};
  tgd.head = {ws_.A("Mgr", {ws_.V("e"), ws_.V("m")})};
  tgd.exist_vars = {ws_.Vid("m")};

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("Emp", {"alice"}));
  input.AddFact(ws_.Fc("Mgr", {"alice", "boss"}));

  std::vector<Tgd> tgds{tgd};
  ChaseResult restricted =
      RestrictedChaseTgds(&ws_.arena, &ws_.vocab, tgds, input);
  EXPECT_TRUE(restricted.Terminated());
  EXPECT_EQ(restricted.instance.NumFacts(), 2u);

  SoTgd so = TgdToSo(&ws_.arena, &ws_.vocab, tgd);
  ChaseResult oblivious = Chase(&ws_.arena, &ws_.vocab, so, input);
  EXPECT_EQ(oblivious.instance.NumFacts(), 3u);
}

TEST_F(ChaseTest, RestrictedAndObliviousAreHomEquivalent) {
  Tgd tgd;
  tgd.body = {ws_.A("P", {ws_.V("x")})};
  tgd.head = {ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  tgd.exist_vars = {ws_.Vid("y")};
  Tgd copy;
  copy.body = {ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  copy.head = {ws_.A("S", {ws_.V("y")})};

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("P", {"a"}));
  input.AddFact(ws_.Fc("P", {"b"}));

  std::vector<Tgd> tgds{tgd, copy};
  ChaseResult restricted =
      RestrictedChaseTgds(&ws_.arena, &ws_.vocab, tgds, input);
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, tgds);
  ChaseResult oblivious = Chase(&ws_.arena, &ws_.vocab, so, input);
  EXPECT_TRUE(HomomorphicallyEquivalent(&ws_.arena, &ws_.vocab,
                                        restricted.instance,
                                        oblivious.instance));
}

TEST_F(ChaseTest, MultiPartRuleChains) {
  // Dep(d) -> Dep2(fd(d));  Dep(d) & Grp(d,g) -> Grp2(fd(d), fg(d,g)).
  FunctionId fd = ws_.vocab.InternFunction("fdc", 1);
  FunctionId fg = ws_.vocab.InternFunction("fgc", 2);
  SoTgd so;
  so.functions = {fd, fg};
  TermId d = ws_.V("d"), g = ws_.V("g");
  SoPart p1;
  p1.body = {ws_.A("Dep", {d})};
  p1.head = {ws_.A("Dep2", {ws_.F("fdc", {d})})};
  SoPart p2;
  p2.body = {ws_.A("Dep", {d}), ws_.A("Grp", {d, g})};
  p2.head = {ws_.A("Grp2", {ws_.F("fdc", {d}), ws_.F("fgc", {d, g})})};
  so.parts = {p1, p2};

  Instance input(&ws_.vocab);
  input.AddFact(ws_.Fc("Dep", {"cs"}));
  input.AddFact(ws_.Fc("Grp", {"cs", "a"}));
  input.AddFact(ws_.Fc("Grp", {"cs", "b"}));

  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, input);
  RelationId dep2 = ws_.vocab.FindRelation("Dep2");
  RelationId grp2 = ws_.vocab.FindRelation("Grp2");
  EXPECT_EQ(result.instance.NumTuples(dep2), 1u);
  EXPECT_EQ(result.instance.NumTuples(grp2), 2u);
  // Both Grp2 facts share the same fd(cs) null, which also appears in Dep2.
  Value dep_null = result.instance.Tuple(dep2, 0)[0];
  EXPECT_EQ(result.instance.Tuple(grp2, 0)[0], dep_null);
  EXPECT_EQ(result.instance.Tuple(grp2, 1)[0], dep_null);
}

}  // namespace
}  // namespace tgdkit
