// Property-based tests over generated corpora: parameterized sweeps
// checking the structural invariants the paper's diagrams assert
// (Figure 1 inclusion monotonicity, Figure 2 family inclusions,
// Algorithm 1/2 equivalences, chase/core invariants, parser round-trips).
#include <gtest/gtest.h>

#include "base/rng.h"
#include "chase/chase.h"
#include "classify/criteria.h"
#include "dep/skolem.h"
#include "dep/syntactic.h"
#include "gen/generators.h"
#include "homo/core.h"
#include "mc/model_check.h"
#include "parse/parser.h"
#include "tests/test_util.h"
#include "transform/nested.h"

namespace tgdkit {
namespace {

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(11, 23, 37, 59, 71, 97, 131, 173,
                                           211, 257));

TEST_P(PropertyTest, TgdSkolemizationIsAlwaysFigure1Bottom) {
  TestWorkspace ws;
  Rng rng(GetParam());
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  for (int i = 0; i < 20; ++i) {
    Tgd tgd = GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{});
    ASSERT_TRUE(ValidateTgd(ws.arena, tgd).ok());
    SoTgd so = TgdToSo(&ws.arena, &ws.vocab, tgd);
    ASSERT_TRUE(ValidateSoTgd(ws.arena, so).ok());
    Figure1Membership m = ClassifyFigure1(ws.arena, so);
    // A tgd lies at the bottom of Figure 1: member of every class.
    EXPECT_TRUE(m.tgd);
    EXPECT_TRUE(m.standard_henkin);
    EXPECT_TRUE(m.henkin);
    EXPECT_TRUE(m.normalized_nested_shape);
    EXPECT_TRUE(m.plain_so);
  }
}

TEST_P(PropertyTest, Figure1EdgesAreMonotone) {
  TestWorkspace ws;
  Rng rng(GetParam() * 3 + 1);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  for (int i = 0; i < 20; ++i) {
    HenkinTgd henkin =
        GenerateHenkinTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{});
    ASSERT_TRUE(ValidateHenkinTgd(ws.arena, henkin).ok());
    SoTgd so = HenkinToSo(&ws.arena, &ws.vocab, henkin);
    Figure1Membership m = ClassifyFigure1(ws.arena, so);
    // Every Henkin tgd Skolemization must be recognized as Henkin, and the
    // diagram's edges must be monotone.
    EXPECT_TRUE(m.henkin);
    if (m.tgd) {
      EXPECT_TRUE(m.standard_henkin);
    }
    if (m.standard_henkin) {
      EXPECT_TRUE(m.henkin);
    }
    if (m.henkin || m.normalized_nested_shape) {
      EXPECT_TRUE(m.plain_so);
    }
    // Semantic agreement: standardness of the quantifier matches the
    // syntactic recognizer on the Skolemized form.
    EXPECT_EQ(henkin.IsStandard(), m.standard_henkin)
        << ToString(ws.arena, ws.vocab, henkin);
  }
}

TEST_P(PropertyTest, NestedNormalizationInvariants) {
  TestWorkspace ws;
  Rng rng(GetParam() * 5 + 2);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  for (int i = 0; i < 10; ++i) {
    NestedConfig config;
    config.depth = 1 + static_cast<uint32_t>(rng.Below(3));
    NestedTgd nested =
        GenerateNestedTgd(&ws.arena, &ws.vocab, &rng, relations, config);
    ASSERT_TRUE(ValidateNestedTgd(ws.arena, nested).ok());
    SoTgd so = NestedToSo(&ws.arena, &ws.vocab, nested);
    ASSERT_TRUE(ValidateSoTgd(ws.arena, so).ok());
    // Algorithm 1: one part per nested part, plain, hierarchical shape.
    EXPECT_EQ(so.parts.size(), nested.NumParts());
    EXPECT_TRUE(so.IsPlain(ws.arena));
    EXPECT_TRUE(IsHierarchicalSo(ws.arena, so));
  }
}

TEST_P(PropertyTest, NestedToHenkinProducesValidTreeHenkins) {
  TestWorkspace ws;
  Rng rng(GetParam() * 7 + 3);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  for (int i = 0; i < 6; ++i) {
    NestedConfig config;
    config.depth = 1 + static_cast<uint32_t>(rng.Below(3));
    NestedTgd nested =
        GenerateNestedTgd(&ws.arena, &ws.vocab, &rng, relations, config);
    bool overflow = false;
    std::vector<HenkinTgd> henkins = NestedToHenkin(
        &ws.arena, &ws.vocab, nested, /*max_rules=*/4096, &overflow);
    if (overflow) continue;
    EXPECT_EQ(henkins.size(), NestedToHenkinRuleCount(nested));
    for (const HenkinTgd& henkin : henkins) {
      EXPECT_TRUE(ValidateHenkinTgd(ws.arena, henkin).ok())
          << ToString(ws.arena, ws.vocab, henkin);
      EXPECT_TRUE(henkin.IsTree())
          << ToString(ws.arena, ws.vocab, henkin);
    }
  }
}

TEST_P(PropertyTest, AlgorithmsAgreeOnRandomInstances) {
  // Theorem 4.3 equivalence, sampled: τ ≡ nested-to-so(τ) ≡
  // nested-to-henkin(τ) on random instances.
  TestWorkspace ws;
  Rng rng(GetParam() * 11 + 4);
  SchemaConfig schema_config;
  schema_config.num_relations = 4;
  schema_config.max_arity = 2;
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, schema_config);
  NestedConfig config;
  config.depth = 2;
  config.max_children = 1;
  NestedTgd nested =
      GenerateNestedTgd(&ws.arena, &ws.vocab, &rng, relations, config);
  SoTgd so = NestedToSo(&ws.arena, &ws.vocab, nested);
  bool overflow = false;
  std::vector<HenkinTgd> henkins =
      NestedToHenkin(&ws.arena, &ws.vocab, nested, 4096, &overflow);
  ASSERT_FALSE(overflow);
  for (int trial = 0; trial < 8; ++trial) {
    Instance inst(&ws.vocab);
    GenerateInstance(&ws.vocab, &rng, relations, /*num_facts=*/10,
                     /*domain_size=*/3, /*num_nulls=*/1, &inst);
    bool nested_ok = CheckNested(ws.arena, inst, nested);
    bool so_ok = CheckSo(ws.arena, inst, so).satisfied;
    McResult henkin_result =
        CheckHenkins(&ws.arena, &ws.vocab, inst, henkins);
    ASSERT_FALSE(henkin_result.budget_exceeded);
    EXPECT_EQ(nested_ok, so_ok) << "trial " << trial;
    EXPECT_EQ(nested_ok, henkin_result.satisfied) << "trial " << trial;
  }
}

TEST_P(PropertyTest, ChaseResultModelsItsRules) {
  // Soundness of the chase: a terminating chase result satisfies the
  // rules it was chased with (it is a model).
  TestWorkspace ws;
  Rng rng(GetParam() * 13 + 5);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  std::vector<Tgd> tgds;
  for (int i = 0; i < 3; ++i) {
    tgds.push_back(
        GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  Instance input(&ws.vocab);
  GenerateInstance(&ws.vocab, &rng, relations, 12, 4, 0, &input);
  ChaseLimits limits;
  limits.max_term_depth = 6;
  limits.max_facts = 20000;
  ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input, limits);
  if (!result.Terminated()) return;  // budget runs prove nothing
  EXPECT_TRUE(CheckSo(ws.arena, result.instance, so).satisfied);
  EXPECT_TRUE(CheckTgds(ws.arena, result.instance, tgds));
}

TEST_P(PropertyTest, RestrictedAndSkolemChasesHomEquivalent) {
  TestWorkspace ws;
  Rng rng(GetParam() * 17 + 6);
  SchemaConfig schema_config;
  schema_config.num_relations = 4;
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, schema_config);
  std::vector<Tgd> tgds;
  for (int i = 0; i < 2; ++i) {
    tgds.push_back(
        GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  // Only compare on weakly acyclic sets (both chases terminate).
  if (!IsWeaklyAcyclic(ws.arena, so)) return;
  Instance input(&ws.vocab);
  GenerateInstance(&ws.vocab, &rng, relations, 8, 3, 0, &input);
  ChaseLimits limits;
  limits.max_facts = 50000;
  ChaseResult skolem = Chase(&ws.arena, &ws.vocab, so, input, limits);
  ChaseResult restricted = RestrictedChaseTgds(&ws.arena, tgds, input, limits);
  if (!skolem.Terminated() || !restricted.Terminated()) return;
  EXPECT_TRUE(HomomorphicallyEquivalent(&ws.arena, &ws.vocab,
                                        skolem.instance,
                                        restricted.instance));
}

TEST_P(PropertyTest, CoreIsMinimalAndEquivalent) {
  TestWorkspace ws;
  Rng rng(GetParam() * 19 + 7);
  SchemaConfig schema_config;
  schema_config.num_relations = 3;
  schema_config.max_arity = 2;
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, schema_config);
  Instance inst(&ws.vocab);
  GenerateInstance(&ws.vocab, &rng, relations, 10, 2, 3, &inst);
  Instance core = ComputeCore(&ws.arena, &ws.vocab, inst);
  EXPECT_LE(core.NumFacts(), inst.NumFacts());
  EXPECT_TRUE(HomomorphicallyEquivalent(&ws.arena, &ws.vocab, inst, core));
  // Idempotence: the core of a core is itself (same size).
  Instance core2 = ComputeCore(&ws.arena, &ws.vocab, core);
  EXPECT_EQ(core2.NumFacts(), core.NumFacts());
}

TEST_P(PropertyTest, WeaklyAcyclicChaseTerminates) {
  // The Figure 2 guarantee: weak acyclicity implies chase termination,
  // even for SO tgds (the paper's Section 5 observation).
  TestWorkspace ws;
  Rng rng(GetParam() * 23 + 8);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  std::vector<Tgd> tgds;
  for (int i = 0; i < 3; ++i) {
    tgds.push_back(
        GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  if (!IsWeaklyAcyclic(ws.arena, so)) return;
  Instance input(&ws.vocab);
  GenerateInstance(&ws.vocab, &rng, relations, 10, 3, 0, &input);
  ChaseLimits limits;
  limits.max_rounds = 100000;
  limits.max_facts = 500000;
  limits.max_term_depth = 10000;
  ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input, limits);
  EXPECT_TRUE(result.Terminated());
}

TEST_P(PropertyTest, ParserRoundTripsGeneratedTgds) {
  TestWorkspace ws;
  Rng rng(GetParam() * 29 + 9);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  Parser parser(&ws.arena, &ws.vocab);
  for (int i = 0; i < 10; ++i) {
    Tgd tgd = GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{});
    std::string printed = ToString(ws.arena, ws.vocab, tgd) + " .";
    auto reparsed = parser.ParseDependencies(printed);
    ASSERT_TRUE(reparsed.ok())
        << printed << "\n" << reparsed.status().ToString();
    EXPECT_EQ(ToString(ws.arena, ws.vocab, reparsed->dependencies[0].tgd),
              ToString(ws.arena, ws.vocab, tgd));
  }
}

TEST_P(PropertyTest, GeneratedSoTgdsClassifyAndCheckConsistently) {
  // Random plain SO tgds with functions SHARED across parts: they must
  // validate, classify as plain SO (and usually NOT as Henkin), and the
  // chase of any terminating run must satisfy them under CheckSo.
  TestWorkspace ws;
  Rng rng(GetParam() * 41 + 12);
  SchemaConfig schema_config;
  schema_config.num_relations = 4;
  schema_config.max_arity = 2;
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, schema_config);
  for (int i = 0; i < 6; ++i) {
    SoTgd so = GenerateSoTgd(&ws.arena, &ws.vocab, &rng, relations,
                             /*num_parts=*/3, /*num_functions=*/2);
    ASSERT_TRUE(ValidateSoTgd(ws.arena, so).ok());
    EXPECT_TRUE(so.IsPlain(ws.arena));
    Figure1Membership m = ClassifyFigure1(ws.arena, so);
    EXPECT_TRUE(m.plain_so);
    Instance input(&ws.vocab);
    GenerateInstance(&ws.vocab, &rng, relations, 8, 3, 0, &input);
    ChaseLimits limits;
    limits.max_term_depth = 5;
    limits.max_facts = 20000;
    ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input, limits);
    if (!result.Terminated()) continue;
    McResult check = CheckSo(ws.arena, result.instance, so);
    if (check.budget_exceeded) continue;
    EXPECT_TRUE(check.satisfied) << ToString(ws.arena, ws.vocab, so);
  }
}

TEST_P(PropertyTest, Figure2InclusionEdgesOnGeneratedCorpus) {
  TestWorkspace ws;
  Rng rng(GetParam() * 31 + 10);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  for (int i = 0; i < 20; ++i) {
    Tgd tgd = GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{});
    SoTgd so = TgdToSo(&ws.arena, &ws.vocab, tgd);
    Figure2Membership m = ClassifyFigure2(ws.arena, so);
    if (m.full) {
      EXPECT_TRUE(m.weakly_acyclic);
    }
    if (m.linear) {
      EXPECT_TRUE(m.guarded);
    }
    if (m.guarded) {
      EXPECT_TRUE(m.weakly_guarded);
    }
    if (m.sticky || m.linear) {
      EXPECT_TRUE(m.sticky_join);
    }
  }
}

}  // namespace
}  // namespace tgdkit
