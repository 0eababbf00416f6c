#include "query/query.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "base/strings.h"
#include "homo/matcher.h"

namespace tgdkit {

std::vector<std::vector<Value>> Evaluate(const TermArena& arena,
                                         const Instance& instance,
                                         const ConjunctiveQuery& q) {
  Matcher matcher(&arena, &instance, q.atoms);
  // Safe queries: every free variable occurs in the body.
  std::vector<int> slots;
  for (VariableId v : q.free_vars) {
    slots.push_back(matcher.Slot(v));
    assert(slots.back() >= 0);
  }
  std::set<std::vector<Value>> distinct;
  matcher.ForEach({}, [&](std::span<const Value> row) {
    std::vector<Value> tuple;
    tuple.reserve(slots.size());
    for (int slot : slots) tuple.push_back(row[slot]);
    distinct.insert(std::move(tuple));
    // Boolean queries need only one witness.
    return !q.free_vars.empty();
  });
  return {distinct.begin(), distinct.end()};
}

bool EvaluateBoolean(const TermArena& arena, const Instance& instance,
                     const ConjunctiveQuery& q) {
  Matcher matcher(&arena, &instance, q.atoms);
  return matcher.Exists({});
}

SoTgd PartsReaching(const SoTgd& rules, std::span<const RelationId> targets) {
  // Why the pruned chase answers as the full one does: the Skolem chase is
  // monotone, and only a part that names a relation in its head derives
  // facts in it. A kept part's body reads only kept relations, so every
  // kept relation gets the same facts in the same round with or without
  // the dropped parts. Skolem terms are functional, so the kept parts
  // build the same terms either way, and body equalities compare terms,
  // not relations. Only null numbering can differ, and certain answers are
  // null-free; constant ids are fixed at parse time, so Evaluate's answer
  // order does not change either.
  std::unordered_map<RelationId, std::vector<uint32_t>> parts_by_head;
  for (uint32_t p = 0; p < rules.parts.size(); ++p) {
    for (const Atom& atom : rules.parts[p].head) {
      std::vector<uint32_t>& parts = parts_by_head[atom.relation];
      if (parts.empty() || parts.back() != p) parts.push_back(p);
    }
  }
  std::unordered_set<RelationId> seen;
  std::vector<RelationId> worklist;
  auto reach = [&](RelationId rel) {
    if (seen.insert(rel).second) worklist.push_back(rel);
  };
  for (RelationId rel : targets) reach(rel);
  std::vector<bool> kept(rules.parts.size(), false);
  while (!worklist.empty()) {
    RelationId rel = worklist.back();
    worklist.pop_back();
    auto it = parts_by_head.find(rel);
    if (it == parts_by_head.end()) continue;
    for (uint32_t p : it->second) {
      if (kept[p]) continue;
      kept[p] = true;
      for (const Atom& atom : rules.parts[p].body) reach(atom.relation);
    }
  }
  SoTgd out;
  out.functions = rules.functions;
  for (uint32_t p = 0; p < rules.parts.size(); ++p) {
    if (kept[p]) out.parts.push_back(rules.parts[p]);
  }
  return out;
}

CertainAnswers ComputeCertainAnswers(TermArena* arena, Vocabulary* vocab,
                                     const SoTgd& rules, Instance input,
                                     const ConjunctiveQuery& q,
                                     ChaseLimits limits) {
  std::vector<RelationId> targets;
  for (const Atom& atom : q.atoms) targets.push_back(atom.relation);
  ChaseResult chased = Chase(arena, vocab, PartsReaching(rules, targets),
                             std::move(input), limits);
  CertainAnswers out;
  out.chase_stop = chased.stop_reason;
  out.chase_rounds = chased.rounds;
  out.chase_facts = chased.facts_created;
  for (std::vector<Value>& tuple : Evaluate(*arena, chased.instance, q)) {
    bool null_free = true;
    for (Value v : tuple) null_free &= v.is_constant();
    if (null_free) out.answers.push_back(std::move(tuple));
  }
  return out;
}

bool CertainlyHolds(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
                    const Instance& input, const Fact& goal,
                    ChaseLimits limits) {
  // Chase round-by-round and stop as soon as the goal appears: the chase
  // is a semi-decision procedure for the undecidable cases of Section 5.
  const RelationId target[] = {goal.relation};
  ChaseEngine engine(arena, vocab, PartsReaching(rules, target), input,
                     limits);
  if (engine.instance().Contains(goal.relation, goal.args)) return true;
  while (engine.Step()) {
    if (engine.instance().Contains(goal.relation, goal.args)) return true;
  }
  return engine.instance().Contains(goal.relation, goal.args);
}

namespace {

/// Builds the canonical instance of `atoms` with free variables frozen to
/// distinguished constants and bound variables mapped to nulls.
Instance FreezeAtoms(TermArena* arena, Vocabulary* vocab,
                     std::span<const Atom> atoms,
                     const std::unordered_set<VariableId>& frozen) {
  Instance canonical(vocab);
  std::unordered_map<VariableId, Value> value_of;
  auto value_for = [&](TermId t) {
    if (arena->IsConstant(t)) return Value::Constant(arena->symbol(t));
    VariableId v = arena->symbol(t);
    auto it = value_of.find(v);
    if (it != value_of.end()) return it->second;
    Value value =
        frozen.count(v)
            ? Value::Constant(vocab->InternConstant(
                  Cat("@frz$", vocab->VariableName(v))))
            : canonical.FreshNull();
    value_of.emplace(v, value);
    return value;
  };
  for (const Atom& atom : atoms) {
    std::vector<Value> args;
    for (TermId t : atom.args) args.push_back(value_for(t));
    canonical.AddFact(atom.relation, args);
  }
  return canonical;
}

/// Replaces the free variables of `atoms` by their frozen constants.
std::vector<Atom> FreezeFreeVariables(
    TermArena* arena, Vocabulary* vocab, std::span<const Atom> atoms,
    const std::unordered_set<VariableId>& frozen) {
  std::vector<Atom> out;
  for (const Atom& atom : atoms) {
    Atom mapped;
    mapped.relation = atom.relation;
    for (TermId t : atom.args) {
      if (arena->IsVariable(t) && frozen.count(arena->symbol(t))) {
        mapped.args.push_back(arena->MakeConstant(vocab->InternConstant(
            Cat("@frz$", vocab->VariableName(arena->symbol(t))))));
      } else {
        mapped.args.push_back(t);
      }
    }
    out.push_back(std::move(mapped));
  }
  return out;
}

}  // namespace

bool QueryContained(TermArena* arena, Vocabulary* vocab,
                    const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  std::unordered_set<VariableId> frozen(q1.free_vars.begin(),
                                        q1.free_vars.end());
  Instance canonical = FreezeAtoms(arena, vocab, q1.atoms, frozen);
  std::vector<Atom> frozen_q2 =
      FreezeFreeVariables(arena, vocab, q2.atoms, frozen);
  Matcher matcher(arena, &canonical, frozen_q2);
  return matcher.Exists({});
}

bool QueryEquivalent(TermArena* arena, Vocabulary* vocab,
                     const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return QueryContained(arena, vocab, q1, q2) &&
         QueryContained(arena, vocab, q2, q1);
}

ImplicationResult ImpliesTgd(TermArena* arena, Vocabulary* vocab,
                             const SoTgd& rules, const Tgd& sigma,
                             ChaseLimits limits) {
  // Freeze σ's body: universals become fresh constants.
  std::vector<VariableId> universals =
      CollectAtomVariables(*arena, sigma.body);
  std::unordered_set<VariableId> frozen(universals.begin(),
                                        universals.end());
  Instance canonical = FreezeAtoms(arena, vocab, sigma.body, frozen);
  ChaseResult chased =
      Chase(arena, vocab, rules, std::move(canonical), limits);
  // σ is implied iff the frozen head is satisfiable in the chase result.
  std::vector<Atom> frozen_head =
      FreezeFreeVariables(arena, vocab, sigma.head, frozen);
  Matcher matcher(arena, &chased.instance, frozen_head);
  ImplicationResult out;
  out.implied = matcher.Exists({});
  out.complete = chased.Terminated() || out.implied;
  return out;
}

ConjunctiveQuery MinimizeQuery(TermArena* arena, Vocabulary* vocab,
                               const ConjunctiveQuery& q) {
  ConjunctiveQuery current = q;
  std::unordered_set<VariableId> frozen(q.free_vars.begin(),
                                        q.free_vars.end());
  bool changed = true;
  while (changed && current.atoms.size() > 1) {
    changed = false;
    for (size_t drop = 0; drop < current.atoms.size(); ++drop) {
      // q is equivalent to q-minus-atom iff q maps homomorphically into
      // the canonical instance of q-minus-atom, fixing free variables.
      std::vector<Atom> reduced;
      for (size_t i = 0; i < current.atoms.size(); ++i) {
        if (i != drop) reduced.push_back(current.atoms[i]);
      }
      // Free variables must stay safe (occur in the body).
      std::vector<VariableId> remaining =
          CollectAtomVariables(*arena, reduced);
      bool safe = true;
      for (VariableId v : q.free_vars) {
        if (std::find(remaining.begin(), remaining.end(), v) ==
            remaining.end()) {
          safe = false;
          break;
        }
      }
      if (!safe) continue;
      Instance canonical = FreezeAtoms(arena, vocab, reduced, frozen);
      std::vector<Atom> frozen_query =
          FreezeFreeVariables(arena, vocab, current.atoms, frozen);
      Matcher matcher(arena, &canonical, frozen_query);
      if (matcher.Exists({})) {
        current.atoms = std::move(reduced);
        changed = true;
        break;
      }
    }
  }
  return current;
}

}  // namespace tgdkit
