// Differential testing of the homomorphism matcher against an
// independent naive nested-loop evaluator, plus chase order-independence
// properties. These are the deepest correctness guards for the two
// engines everything else builds on.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/rng.h"
#include "chase/chase.h"
#include "dep/skolem.h"
#include "gen/generators.h"
#include "homo/core.h"
#include "homo/matcher.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

/// Reference implementation: enumerate all assignments of query variables
/// to active-domain values by brute force and keep those where every atom
/// is a fact. Exponential, tiny inputs only.
std::set<std::vector<Value>> NaiveEvaluate(const TermArena& arena,
                                           const Instance& instance,
                                           std::span<const Atom> atoms) {
  // Collect variables in first-occurrence order.
  std::vector<VariableId> variables;
  for (const Atom& atom : atoms) {
    for (TermId t : atom.args) arena.CollectVariables(t, &variables);
  }
  std::vector<Value> domain = instance.ActiveDomain();
  std::set<std::vector<Value>> results;
  std::vector<Value> binding(variables.size());

  std::function<void(size_t)> enumerate = [&](size_t index) {
    if (index == variables.size()) {
      for (const Atom& atom : atoms) {
        std::vector<Value> args;
        for (TermId t : atom.args) {
          if (arena.IsConstant(t)) {
            args.push_back(Value::Constant(arena.symbol(t)));
          } else {
            size_t var_index =
                std::find(variables.begin(), variables.end(),
                          arena.symbol(t)) -
                variables.begin();
            args.push_back(binding[var_index]);
          }
        }
        if (!instance.Contains(atom.relation, args)) return;
      }
      results.insert(binding);
      return;
    }
    for (Value v : domain) {
      binding[index] = v;
      enumerate(index + 1);
    }
  };
  if (!domain.empty() || variables.empty()) enumerate(0);
  return results;
}

class MatcherOracleTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleTest,
                         ::testing::Values(3, 17, 41, 89, 151, 223));

TEST_P(MatcherOracleTest, MatcherAgreesWithNaiveJoin) {
  TestWorkspace ws;
  Rng rng(GetParam() * 1000 + 7);
  SchemaConfig schema_config;
  schema_config.num_relations = 3;
  schema_config.max_arity = 2;
  auto relations = GenerateSchema(&ws.vocab, &rng, schema_config);

  for (int round = 0; round < 10; ++round) {
    Instance inst(&ws.vocab);
    GenerateInstance(&ws.vocab, &rng, relations, 8, 3, 1, &inst);

    // Random query: 1-3 atoms over <=3 variables plus maybe a constant.
    std::vector<VariableId> vars{ws.Vid("q0"), ws.Vid("q1"), ws.Vid("q2")};
    std::vector<Atom> atoms;
    uint32_t num_atoms = 1 + static_cast<uint32_t>(rng.Below(3));
    for (uint32_t i = 0; i < num_atoms; ++i) {
      RelationId rel = rng.Pick(relations);
      Atom atom;
      atom.relation = rel;
      for (uint32_t j = 0; j < ws.vocab.RelationArity(rel); ++j) {
        if (rng.Chance(15)) {
          atom.args.push_back(ws.C("G_c0"));
        } else {
          atom.args.push_back(ws.arena.MakeVariable(rng.Pick(vars)));
        }
      }
      atoms.push_back(std::move(atom));
    }

    // Matcher answers, projected onto the query's variable list.
    std::vector<VariableId> query_vars;
    for (const Atom& atom : atoms) {
      for (TermId t : atom.args) {
        ws.arena.CollectVariables(t, &query_vars);
      }
    }
    Matcher matcher(&ws.arena, &inst, atoms);
    std::set<std::vector<Value>> via_matcher;
    matcher.ForEach({}, [&](std::span<const Value> binding) {
      std::vector<Value> row;
      for (VariableId v : query_vars) row.push_back(binding[matcher.Slot(v)]);
      via_matcher.insert(std::move(row));
      return true;
    });

    std::set<std::vector<Value>> via_naive =
        NaiveEvaluate(ws.arena, inst, atoms);
    EXPECT_EQ(via_matcher, via_naive)
        << "seed " << GetParam() << " round " << round;
  }
}

TEST_P(MatcherOracleTest, SeededSearchMatchesFilteredNaive) {
  TestWorkspace ws;
  Rng rng(GetParam() * 1000 + 13);
  SchemaConfig schema_config;
  schema_config.num_relations = 2;
  schema_config.max_arity = 2;
  auto relations = GenerateSchema(&ws.vocab, &rng, schema_config);
  Instance inst(&ws.vocab);
  GenerateInstance(&ws.vocab, &rng, relations, 10, 3, 0, &inst);

  std::vector<Atom> atoms{
      Atom{relations[0], {ws.V("a"), ws.V("b")}},
      Atom{relations[1], {ws.V("b"), ws.V("c")}}};
  // Relation arities may be 1; patch args to match.
  for (Atom& atom : atoms) {
    atom.args.resize(ws.vocab.RelationArity(atom.relation),
                     atom.args.empty() ? ws.V("a") : atom.args.back());
  }

  std::vector<Value> domain = inst.ActiveDomain();
  if (domain.empty()) return;
  Value pin = domain[rng.Below(domain.size())];

  Matcher matcher(&ws.arena, &inst, atoms);
  std::set<std::vector<Value>> seeded;
  std::vector<Value> seed(matcher.variables().size());
  seed[matcher.Slot(ws.Vid("a"))] = pin;
  matcher.ForEach(seed, [&](std::span<const Value> binding) {
    seeded.emplace(binding.begin(), binding.end());
    return true;
  });

  std::set<std::vector<Value>> filtered;
  std::set<std::vector<Value>> all = NaiveEvaluate(ws.arena, inst, atoms);
  // Naive rows are ordered by first-occurrence variables, which matches
  // matcher.variables() ordering ("a" first if it occurs).
  size_t a_index = std::find(matcher.variables().begin(),
                             matcher.variables().end(), ws.Vid("a")) -
                   matcher.variables().begin();
  for (const auto& row : all) {
    if (a_index < row.size() && row[a_index] == pin) filtered.insert(row);
  }
  EXPECT_EQ(seeded, filtered) << "seed " << GetParam();
}

TEST_P(MatcherOracleTest, ChaseIsRuleOrderIndependent) {
  // Permuting the rule order yields hom-equivalent fixpoints.
  TestWorkspace ws;
  Rng rng(GetParam() * 1000 + 29);
  auto relations = GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  std::vector<Tgd> tgds;
  for (int i = 0; i < 3; ++i) {
    tgds.push_back(
        GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
  }
  Instance input(&ws.vocab);
  GenerateInstance(&ws.vocab, &rng, relations, 10, 3, 0, &input);

  ChaseLimits limits;
  limits.max_term_depth = 5;
  limits.max_facts = 20000;

  SoTgd forward = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  std::vector<Tgd> reversed(tgds.rbegin(), tgds.rend());
  SoTgd backward = TgdsToSo(&ws.arena, &ws.vocab, reversed);

  ChaseResult a = Chase(&ws.arena, &ws.vocab, forward, input, limits);
  ChaseResult b = Chase(&ws.arena, &ws.vocab, backward, input, limits);
  if (!a.Terminated() || !b.Terminated()) return;
  EXPECT_EQ(a.instance.NumFacts(), b.instance.NumFacts());
  EXPECT_TRUE(HomomorphicallyEquivalent(&ws.arena, &ws.vocab, a.instance,
                                        b.instance));
}

TEST_P(MatcherOracleTest, ChaseMonotoneInInput) {
  // More input facts never remove chase conclusions: chase(I1) maps into
  // chase(I1 ∪ I2).
  TestWorkspace ws;
  Rng rng(GetParam() * 1000 + 31);
  auto relations = GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  std::vector<Tgd> tgds;
  for (int i = 0; i < 2; ++i) {
    tgds.push_back(
        GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  Instance small(&ws.vocab);
  GenerateInstance(&ws.vocab, &rng, relations, 6, 3, 0, &small);
  Instance big(&ws.vocab);
  CopyFacts(small, &big);
  GenerateInstance(&ws.vocab, &rng, relations, 6, 4, 0, &big);

  ChaseLimits limits;
  limits.max_term_depth = 4;
  limits.max_facts = 30000;
  ChaseResult small_chase = Chase(&ws.arena, &ws.vocab, so, small, limits);
  ChaseResult big_chase = Chase(&ws.arena, &ws.vocab, so, big, limits);
  if (!small_chase.Terminated() || !big_chase.Terminated()) return;
  EXPECT_TRUE(HomomorphismExists(&ws.arena, &ws.vocab, small_chase.instance,
                                 big_chase.instance));
}

}  // namespace
}  // namespace tgdkit
