// Semantic sanity properties relating the dependency classes — the
// "expressive power" facts of Section 4 stated as checkable implications
// between the model-checking engines, plus classic data-exchange chase
// scenarios.
#include <gtest/gtest.h>

#include "base/rng.h"
#include "chase/chase.h"
#include "dep/skolem.h"
#include "gen/generators.h"
#include "mc/model_check.h"
#include "parse/parser.h"
#include "query/query.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class SemanticsTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;
};

TEST_F(SemanticsTest, HenkinImpliesPlainTgd) {
  // A Henkin tgd is stronger than the tgd obtained by forgetting the
  // quantifier structure: Q(ϕ→ψ) ⊨ ∀x̄(ϕ→∃ȳψ). Checked on random
  // instances: whenever the Henkin MC accepts, the tgd MC must accept.
  Rng rng(24681357);
  int henkin_true = 0, checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    TestWorkspace ws;
    SchemaConfig schema_config;
    schema_config.num_relations = 3;
    schema_config.max_arity = 2;
    auto relations = GenerateSchema(&ws.vocab, &rng, schema_config);
    HenkinTgd henkin = GenerateHenkinTgd(&ws.arena, &ws.vocab, &rng,
                                         relations, TgdConfig{});
    Tgd weakened;
    weakened.body = henkin.body;
    weakened.head = henkin.head;
    weakened.exist_vars = henkin.quantifier.existentials();
    ASSERT_TRUE(ValidateTgd(ws.arena, weakened).ok());

    Instance inst(&ws.vocab);
    GenerateInstance(&ws.vocab, &rng, relations, 9, 3, 0, &inst);
    McResult h = CheckHenkin(&ws.arena, &ws.vocab, inst, henkin);
    if (h.budget_exceeded) continue;
    ++checked;
    if (h.satisfied) {
      ++henkin_true;
      EXPECT_TRUE(CheckTgd(ws.arena, inst, weakened))
          << ToString(ws.arena, ws.vocab, henkin) << "\n" << inst.ToString();
    }
  }
  EXPECT_GT(checked, 30);
  EXPECT_GT(henkin_true, 0);
}

TEST_F(SemanticsTest, TgdSkolemizationImpliesHenkinWeakenings) {
  // Adding dependencies to an existential's Skolem term only STRENGTHENS
  // the function's discriminating power: if the full-dependency (tgd)
  // Skolemization is satisfied... the converse fails; check the known
  // direction concretely: f(d) satisfiable => f(e, d) satisfiable.
  Parser p(&ws_.arena, &ws_.vocab);
  auto restricted = p.ParseDependencies(
      "henkin { forall e, d ; exists m(d) } Emp(e, d) -> Mgr(e, m) .");
  auto full = p.ParseDependencies(
      "henkin { forall e, d ; exists m2(e, d) } Emp(e, d) -> Mgr(e, m2) .");
  ASSERT_TRUE(restricted.ok() && full.ok());

  Rng rng(11223344);
  RelationId emp = ws_.vocab.FindRelation("Emp");
  RelationId mgr = ws_.vocab.FindRelation("Mgr");
  int restricted_true = 0, full_only = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Instance inst(&ws_.vocab);
    std::vector<Value> dom{ws_.Cv("a"), ws_.Cv("b"), ws_.Cv("c")};
    for (Value x : dom) {
      for (Value y : dom) {
        if (rng.Chance(30)) inst.AddFact(emp, std::vector<Value>{x, y});
        if (rng.Chance(45)) inst.AddFact(mgr, std::vector<Value>{x, y});
      }
    }
    bool r = CheckHenkin(&ws_.arena, &ws_.vocab, inst,
                         restricted->dependencies[0].henkin)
                 .satisfied;
    bool f = CheckHenkin(&ws_.arena, &ws_.vocab, inst,
                         full->dependencies[0].henkin)
                 .satisfied;
    if (r) {
      EXPECT_TRUE(f) << inst.ToString();  // m(d) choice also works for m2(e,d)
      ++restricted_true;
    }
    if (f && !r) ++full_only;  // the separation: f(e,d) strictly weaker
  }
  EXPECT_GT(restricted_true, 0);
  EXPECT_GT(full_only, 0);  // the paper's introduction distinction is real
}

TEST_F(SemanticsTest, CertainAnswersAreMonotoneInRules) {
  // Adding rules can only add certain answers (for terminating chases).
  Parser p(&ws_.arena, &ws_.vocab);
  auto small = p.ParseDependencies("Takes(s, c) -> Attends(s) .");
  auto extra = p.ParseDependencies(
      "Takes(s, c) -> Attends(s) .\n"
      "Takes(s, c) -> Attends(c) .");
  ASSERT_TRUE(small.ok() && extra.ok());
  Instance source(&ws_.vocab);
  ASSERT_TRUE(
      p.ParseInstanceInto("Takes(ada, logic). Takes(bob, sets).", &source)
          .ok());
  auto q = p.ParseQuery("ans(x) :- Attends(x).");
  ASSERT_TRUE(q.ok());
  std::vector<Tgd> small_tgds = small->Tgds();
  std::vector<Tgd> extra_tgds = extra->Tgds();
  SoTgd so_small = TgdsToSo(&ws_.arena, &ws_.vocab, small_tgds);
  SoTgd so_extra = TgdsToSo(&ws_.arena, &ws_.vocab, extra_tgds);
  CertainAnswers a =
      ComputeCertainAnswers(&ws_.arena, &ws_.vocab, so_small, source, *q);
  CertainAnswers b =
      ComputeCertainAnswers(&ws_.arena, &ws_.vocab, so_extra, source, *q);
  EXPECT_EQ(a.answers.size(), 2u);
  EXPECT_EQ(b.answers.size(), 4u);
  for (const auto& row : a.answers) {
    EXPECT_NE(std::find(b.answers.begin(), b.answers.end(), row),
              b.answers.end());
  }
}

TEST_F(SemanticsTest, ClassicFlightExample) {
  // Fagin et al.'s flight example shape: routes with intermediate stops
  // invented by the target.
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies(
      "Flight(src, dst) -> exists plane . Leg(src, dst, plane) .\n"
      "Leg(src, dst, plane) -> Serves(plane, src) & Serves(plane, dst) .");
  ASSERT_TRUE(program.ok());
  Instance source(&ws_.vocab);
  ASSERT_TRUE(p.ParseInstanceInto(
                   "Flight(vienna, oxford). Flight(oxford, melbourne).",
                   &source)
                  .ok());
  std::vector<Tgd> tgds = program->Tgds();
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, tgds);
  ChaseResult model = Chase(&ws_.arena, &ws_.vocab, so, source);
  ASSERT_TRUE(model.Terminated());
  RelationId serves = ws_.vocab.FindRelation("Serves");
  EXPECT_EQ(model.instance.NumTuples(serves), 4u);
  // Each leg has its own invented plane.
  RelationId leg = ws_.vocab.FindRelation("Leg");
  ASSERT_EQ(model.instance.NumTuples(leg), 2u);
  EXPECT_NE(model.instance.Tuple(leg, 0)[2], model.instance.Tuple(leg, 1)[2]);
  // Provenance: each plane null explains as a Skolem term over its route.
  Value plane = model.instance.Tuple(leg, 0)[2];
  std::string explained =
      model.ExplainValue(ws_.arena, ws_.vocab, plane);
  EXPECT_NE(explained.find("sk_plane"), std::string::npos);
}

TEST_F(SemanticsTest, RestrictedChaseReusesExistingWitnesses) {
  // The restricted chase produces a SMALLER (but hom-equivalent) model
  // when witnesses pre-exist — the classic restricted-vs-oblivious gap.
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies(
      "Person(x) -> exists y . Knows(x, y) .\n"
      "Knows(x, y) -> Person(y) .");
  ASSERT_TRUE(program.ok());
  Instance source(&ws_.vocab);
  ASSERT_TRUE(
      p.ParseInstanceInto("Person(ada). Knows(ada, bob).", &source).ok());
  std::vector<Tgd> tgds = program->Tgds();
  // Neither chase terminates (every new person needs a new acquaintance);
  // compare fact counts under matched budgets: 8 rounds for the
  // restricted chase vs Skolem-term depth 8 for the oblivious one.
  // Restricted reuses Knows(ada, bob), so it grows ONE null chain (from
  // bob); the oblivious chase also invents a witness for ada — two
  // chains — and must be strictly larger.
  ChaseLimits restricted_limits;
  restricted_limits.max_rounds = 8;
  ChaseResult restricted =
      RestrictedChaseTgds(&ws_.arena, tgds, source, restricted_limits);
  EXPECT_FALSE(restricted.Terminated());
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, tgds);
  ChaseLimits oblivious_limits;
  oblivious_limits.max_term_depth = 8;
  ChaseResult oblivious =
      Chase(&ws_.arena, &ws_.vocab, so, source, oblivious_limits);
  EXPECT_FALSE(oblivious.Terminated());
  EXPECT_LT(restricted.instance.NumFacts(), oblivious.instance.NumFacts());
}

}  // namespace
}  // namespace tgdkit
