// Differential testing of the lazy second-order model checker against a
// brute-force oracle that enumerates COMPLETE function tables over the
// active domain. Only feasible for tiny domains, which is exactly where
// subtle bugs in the backtracking search would hide.
#include <gtest/gtest.h>

#include <functional>

#include "base/rng.h"
#include "gen/generators.h"
#include "mc/model_check.h"
#include "parse/parser.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

/// Brute force: for every total interpretation of the (unary) function
/// symbols over the active domain, check all parts under all body homs.
bool NaiveCheckSo(const TermArena& arena, const Instance& instance,
                  const SoTgd& so) {
  std::vector<Value> domain = instance.ActiveDomain();
  if (domain.empty()) return true;  // bodies cannot match

  // Only unary functions supported by this oracle.
  std::vector<FunctionId> functions = so.functions;
  size_t num_entries = functions.size() * domain.size();
  std::vector<size_t> table(num_entries, 0);  // entry -> domain index

  auto eval_term = [&](TermId t, const Matcher& body,
                       std::span<const Value> binding,
                       auto&& self) -> Value {
    if (arena.IsVariable(t)) return binding[body.Slot(arena.symbol(t))];
    if (arena.IsConstant(t)) return Value::Constant(arena.symbol(t));
    FunctionId f = arena.symbol(t);
    Value arg = self(arena.args(t)[0], body, binding, self);
    size_t f_index =
        std::find(functions.begin(), functions.end(), f) - functions.begin();
    size_t arg_index =
        std::find(domain.begin(), domain.end(), arg) - domain.begin();
    return domain[table[f_index * domain.size() + arg_index]];
  };

  auto satisfied_under_table = [&]() {
    for (const SoPart& part : so.parts) {
      Matcher body(&arena, &instance, part.body);
      bool part_ok = true;
      body.ForEach({}, [&](std::span<const Value> binding) {
        for (const SoEquality& eq : part.equalities) {
          if (eval_term(eq.lhs, body, binding, eval_term) !=
              eval_term(eq.rhs, body, binding, eval_term)) {
            return true;  // antecedent false, trigger inactive
          }
        }
        for (const Atom& atom : part.head) {
          std::vector<Value> args;
          for (TermId t : atom.args) {
            args.push_back(eval_term(t, body, binding, eval_term));
          }
          if (!instance.Contains(atom.relation, args)) {
            part_ok = false;
            return false;
          }
        }
        return true;
      });
      if (!part_ok) return false;
    }
    return true;
  };

  // Enumerate all |domain|^num_entries tables.
  std::function<bool(size_t)> enumerate = [&](size_t entry) -> bool {
    if (entry == num_entries) return satisfied_under_table();
    for (size_t v = 0; v < domain.size(); ++v) {
      table[entry] = v;
      if (enumerate(entry + 1)) return true;
    }
    return false;
  };
  return enumerate(0);
}

class SoOracleTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SoOracleTest,
                         ::testing::Values(5, 19, 43, 67, 101, 137));

TEST_P(SoOracleTest, LazySearchAgreesWithFullEnumeration) {
  TestWorkspace ws;
  Rng rng(GetParam() * 31 + 3);
  // Tiny schema, one or two unary functions, domain of 2-3 values.
  RelationId p = ws.vocab.InternRelation("P", 2);
  RelationId r = ws.vocab.InternRelation("R", 2);
  FunctionId f = ws.vocab.InternFunction("of", 1);
  FunctionId g = ws.vocab.InternFunction("og", 1);

  for (int trial = 0; trial < 12; ++trial) {
    // Random single-part plain SO tgd: P(x,y) -> R(t1, t2) with terms
    // drawn from {x, y, of(x), og(y), of(og(...))}.
    TermId x = ws.V("x"), y = ws.V("y");
    auto random_term = [&]() {
      TermId base = rng.Chance(50) ? x : y;
      uint32_t wraps = static_cast<uint32_t>(rng.Below(3));
      for (uint32_t i = 0; i < wraps; ++i) {
        base = ws.arena.MakeFunction(rng.Chance(50) ? f : g,
                                     std::vector<TermId>{base});
      }
      return base;
    };
    SoTgd so;
    so.functions = {f, g};
    SoPart part;
    part.body = {Atom{p, {x, y}}};
    part.head = {Atom{r, {random_term(), random_term()}}};
    if (rng.Chance(30)) {
      part.equalities = {{random_term(), random_term()}};
    }
    so.parts = {part};
    ASSERT_TRUE(ValidateSoTgd(ws.arena, so).ok());

    Instance inst(&ws.vocab);
    std::vector<Value> dom{ws.Cv("a"), ws.Cv("b")};
    if (rng.Chance(50)) dom.push_back(ws.Cv("c"));
    for (Value v1 : dom) {
      for (Value v2 : dom) {
        if (rng.Chance(30)) inst.AddFact(p, std::vector<Value>{v1, v2});
        if (rng.Chance(45)) inst.AddFact(r, std::vector<Value>{v1, v2});
      }
    }

    McResult lazy = CheckSo(ws.arena, inst, so);
    ASSERT_FALSE(lazy.budget_exceeded);
    bool naive = NaiveCheckSo(ws.arena, inst, so);
    EXPECT_EQ(lazy.satisfied, naive)
        << "seed " << GetParam() << " trial " << trial << "\n"
        << ToString(ws.arena, ws.vocab, so) << "\n"
        << inst.ToString();
  }
}

TEST_P(SoOracleTest, MultiPartAgreement) {
  TestWorkspace ws;
  Rng rng(GetParam() * 37 + 11);
  RelationId p = ws.vocab.InternRelation("P", 1);
  RelationId q = ws.vocab.InternRelation("Q", 2);
  FunctionId f = ws.vocab.InternFunction("mf", 1);

  for (int trial = 0; trial < 12; ++trial) {
    TermId x = ws.V("x");
    SoTgd so;
    so.functions = {f};
    // Part 1: P(x) -> Q(x, f(x)); Part 2: P(x) & f(x) = x -> Q(x, x).
    SoPart p1;
    p1.body = {Atom{p, {x}}};
    p1.head = {Atom{q, {x, ws.arena.MakeFunction(f, std::vector<TermId>{x})}}};
    SoPart p2;
    p2.body = {Atom{p, {x}}};
    p2.equalities = {
        {ws.arena.MakeFunction(f, std::vector<TermId>{x}), x}};
    p2.head = {Atom{q, {x, x}}};
    so.parts = {p1, p2};

    Instance inst(&ws.vocab);
    std::vector<Value> dom{ws.Cv("a"), ws.Cv("b"), ws.Cv("c")};
    for (Value v : dom) {
      if (rng.Chance(60)) inst.AddFact(p, std::vector<Value>{v});
      for (Value w : dom) {
        if (rng.Chance(40)) inst.AddFact(q, std::vector<Value>{v, w});
      }
    }
    McResult lazy = CheckSo(ws.arena, inst, so);
    ASSERT_FALSE(lazy.budget_exceeded);
    EXPECT_EQ(lazy.satisfied, NaiveCheckSo(ws.arena, inst, so))
        << "seed " << GetParam() << " trial " << trial << "\n"
        << inst.ToString();
  }
}

}  // namespace
}  // namespace tgdkit
