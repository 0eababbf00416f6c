// Tests for the data-exchange module: solutions, core solutions, target
// certain answers, s-t validation.
#include <gtest/gtest.h>

#include "dep/skolem.h"
#include "exchange/exchange.h"
#include "homo/core.h"
#include "parse/parser.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class ExchangeTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;

  SchemaMapping EmpMapping() {
    Parser p(&ws_.arena, &ws_.vocab);
    auto program = p.ParseDependencies(
        "Emp(e, d) -> exists m . Mgr(e, m) .\n"
        "Emp(e, d) -> Dept(d) .\n"
        "so exists fdm { Emp(e, d) -> DM(e, fdm(d)) } .");
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    SchemaMapping mapping;
    std::vector<Tgd> tgds = program->Tgds();
    std::vector<SoTgd> pieces{TgdsToSo(&ws_.arena, &ws_.vocab, tgds),
                              program->Sos()[0]};
    mapping.rules = MergeSo(pieces);
    mapping.source_relations = {ws_.vocab.FindRelation("Emp")};
    mapping.target_relations = {ws_.vocab.FindRelation("Mgr"),
                                ws_.vocab.FindRelation("Dept"),
                                ws_.vocab.FindRelation("DM")};
    return mapping;
  }

  Instance EmpSource() {
    Parser p(&ws_.arena, &ws_.vocab);
    Instance source(&ws_.vocab);
    EXPECT_TRUE(p.ParseInstanceInto(
                     "Emp(alice, cs). Emp(bob, cs). Emp(carol, math).",
                     &source)
                    .ok());
    return source;
  }
};

TEST_F(ExchangeTest, SourceToTargetValidation) {
  SchemaMapping mapping = EmpMapping();
  EXPECT_TRUE(ValidateSourceToTarget(mapping).ok());
  // Moving Mgr into the source schema breaks disjointness.
  SchemaMapping broken = mapping;
  broken.source_relations.insert(ws_.vocab.FindRelation("Mgr"));
  EXPECT_FALSE(ValidateSourceToTarget(broken).ok());
  // Declaring Dept as non-target breaks the head check.
  SchemaMapping missing = mapping;
  missing.target_relations.erase(ws_.vocab.FindRelation("Dept"));
  EXPECT_FALSE(ValidateSourceToTarget(missing).ok());
}

TEST_F(ExchangeTest, SolutionContainsOnlyTargetFacts) {
  SchemaMapping mapping = EmpMapping();
  Instance source = EmpSource();
  ExchangeResult result = Solve(&ws_.arena, &ws_.vocab, mapping, source);
  EXPECT_TRUE(result.IsUniversal());
  RelationId emp = ws_.vocab.FindRelation("Emp");
  EXPECT_EQ(result.solution.NumTuples(emp), 0u);  // source facts excluded
  EXPECT_EQ(result.solution.NumTuples(ws_.vocab.FindRelation("Mgr")), 3u);
  EXPECT_EQ(result.solution.NumTuples(ws_.vocab.FindRelation("Dept")), 2u);
  EXPECT_EQ(result.solution.NumTuples(ws_.vocab.FindRelation("DM")), 3u);
}

TEST_F(ExchangeTest, SharedDepartmentManagerNulls) {
  SchemaMapping mapping = EmpMapping();
  Instance source = EmpSource();
  ExchangeResult result = Solve(&ws_.arena, &ws_.vocab, mapping, source);
  RelationId dm = ws_.vocab.FindRelation("DM");
  // alice and bob share fdm(cs); carol gets fdm(math).
  Value alice_dm, bob_dm, carol_dm;
  for (uint32_t row = 0; row < 3; ++row) {
    auto t = result.solution.Tuple(dm, row);
    if (t[0] == ws_.Cv("alice")) alice_dm = t[1];
    if (t[0] == ws_.Cv("bob")) bob_dm = t[1];
    if (t[0] == ws_.Cv("carol")) carol_dm = t[1];
  }
  EXPECT_EQ(alice_dm, bob_dm);
  EXPECT_NE(alice_dm, carol_dm);
}

TEST_F(ExchangeTest, CoreSolutionIsNoLargerAndEquivalent) {
  SchemaMapping mapping = EmpMapping();
  Instance source = EmpSource();
  ExchangeResult plain = Solve(&ws_.arena, &ws_.vocab, mapping, source);
  Instance core = CoreSolution(&ws_.arena, &ws_.vocab, plain.solution);
  EXPECT_LE(core.NumFacts(), plain.solution.NumFacts());
  EXPECT_TRUE(HomomorphicallyEquivalent(&ws_.arena, &ws_.vocab,
                                        plain.solution, core));
}

TEST_F(ExchangeTest, CoreSolutionCollapsesRedundancy) {
  // Two rules inventing independent nulls for the same pattern: the core
  // keeps one.
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies(
      "S(x) -> exists y . T(x, y) .\n"
      "S(x) -> exists z . T(x, z) .");
  ASSERT_TRUE(program.ok());
  SchemaMapping mapping;
  std::vector<Tgd> tgds = program->Tgds();
  mapping.rules = TgdsToSo(&ws_.arena, &ws_.vocab, tgds);
  mapping.source_relations = {ws_.vocab.FindRelation("S")};
  mapping.target_relations = {ws_.vocab.FindRelation("T")};
  Instance source(&ws_.vocab);
  source.AddFact(ws_.Fc("S", {"a"}));
  ExchangeResult plain = Solve(&ws_.arena, &ws_.vocab, mapping, source);
  EXPECT_EQ(plain.solution.NumFacts(), 2u);
  Instance core = CoreSolution(&ws_.arena, &ws_.vocab, plain.solution);
  EXPECT_EQ(core.NumFacts(), 1u);
}

TEST_F(ExchangeTest, CoreSolutionFoldsTheGivenSolution) {
  // A hand-built solution that no chase of a source produces:
  // Mgr(alice, _N0) folds into Mgr(alice, boss); Mgr(bob, _N1) has
  // nowhere to go.
  RelationId mgr = ws_.vocab.InternRelation("Mgr", 2);
  Instance solution(&ws_.vocab);
  Value spare = solution.FreshNull();
  Value kept = solution.FreshNull();
  solution.AddFact(mgr, std::vector<Value>{ws_.Cv("alice"), ws_.Cv("boss")});
  solution.AddFact(mgr, std::vector<Value>{ws_.Cv("alice"), spare});
  solution.AddFact(mgr, std::vector<Value>{ws_.Cv("bob"), kept});

  Instance core = CoreSolution(&ws_.arena, &ws_.vocab, solution);
  Instance expected(&ws_.vocab);
  expected.EnsureNulls(solution.num_nulls());
  expected.AddFact(mgr,
                   std::vector<Value>{ws_.Cv("alice"), ws_.Cv("boss")});
  expected.AddFact(mgr, std::vector<Value>{ws_.Cv("bob"), kept});
  EXPECT_EQ(core.ToString(), expected.ToString());
}

TEST_F(ExchangeTest, HenkinBasedMapping) {
  // A mapping whose only rule is a standard Henkin tgd: employee ids per
  // employee, manager per department, materialized as two independent
  // null families.
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies(
      "henkin { forall e, d ; exists eid(e) ; exists dm(d) }"
      " Emp(e, d) -> Badge(e, eid) & Head(d, dm) .");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  SchemaMapping mapping;
  std::vector<HenkinTgd> henkins = program->Henkins();
  mapping.rules = HenkinsToSo(&ws_.arena, &ws_.vocab, henkins);
  mapping.source_relations = {ws_.vocab.FindRelation("Emp")};
  mapping.target_relations = {ws_.vocab.FindRelation("Badge"),
                              ws_.vocab.FindRelation("Head")};
  ASSERT_TRUE(ValidateSourceToTarget(mapping).ok());
  Instance source = EmpSource();
  ExchangeResult result = Solve(&ws_.arena, &ws_.vocab, mapping, source);
  ASSERT_TRUE(result.IsUniversal());
  // Three badges (one per employee), two heads (one per department).
  EXPECT_EQ(result.solution.NumTuples(ws_.vocab.FindRelation("Badge")), 3u);
  EXPECT_EQ(result.solution.NumTuples(ws_.vocab.FindRelation("Head")), 2u);
  // The solution is already a core: nothing is redundant.
  Instance core = CoreSolution(&ws_.arena, &ws_.vocab, result.solution);
  EXPECT_EQ(core.NumFacts(), result.solution.NumFacts());
}

TEST_F(ExchangeTest, TargetCertainAnswers) {
  SchemaMapping mapping = EmpMapping();
  Instance source = EmpSource();
  Parser p(&ws_.arena, &ws_.vocab);
  auto q = p.ParseQuery("ans(d) :- Dept(d).");
  ASSERT_TRUE(q.ok());
  CertainAnswers answers =
      TargetCertainAnswers(&ws_.arena, &ws_.vocab, mapping, source, *q);
  EXPECT_TRUE(answers.Complete());
  EXPECT_EQ(answers.answers.size(), 2u);  // cs, math
  // Managers are nulls: no certain manager values.
  auto q2 = p.ParseQuery("ans(m) :- Mgr(e, m).");
  ASSERT_TRUE(q2.ok());
  CertainAnswers none =
      TargetCertainAnswers(&ws_.arena, &ws_.vocab, mapping, source, *q2);
  EXPECT_TRUE(none.answers.empty());
}

}  // namespace
}  // namespace tgdkit
