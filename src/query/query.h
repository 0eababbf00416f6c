// Conjunctive queries and certain-answer query answering (Section 5 of the
// paper). Certain answers are computed by chasing the input instance into
// a (possibly truncated) universal model and keeping the null-free answer
// tuples: sound always, and complete whenever the chase reaches a fixpoint
// (e.g. under weak acyclicity).
#pragma once

#include <span>
#include <vector>

#include "chase/chase.h"
#include "data/instance.h"
#include "dep/dependency.h"

namespace tgdkit {

/// A conjunctive query ∃x̄ (A₁ ∧ … ∧ Aₙ) with free (answer) variables.
/// Atoms may contain variables and constants.
struct ConjunctiveQuery {
  std::vector<Atom> atoms;
  std::vector<VariableId> free_vars;

  bool IsBoolean() const { return free_vars.empty(); }
  bool IsAtomic() const { return atoms.size() == 1; }
};

/// Evaluates `q` over `instance`; returns the distinct answer tuples (in
/// free-variable order). For Boolean queries the result is empty or a
/// single empty tuple.
std::vector<std::vector<Value>> Evaluate(const TermArena& arena,
                                         const Instance& instance,
                                         const ConjunctiveQuery& q);

/// True iff the Boolean query holds.
bool EvaluateBoolean(const TermArena& arena, const Instance& instance,
                     const ConjunctiveQuery& q);

struct CertainAnswers {
  /// Null-free answer tuples found in the chase result.
  std::vector<std::vector<Value>> answers;
  /// How the chase ended. Answers are sound regardless; they are complete
  /// only when this is ChaseStop::kFixpoint.
  ChaseStop chase_stop;
  uint64_t chase_rounds;
  uint64_t chase_facts;

  bool Complete() const { return chase_stop == ChaseStop::kFixpoint; }
};

/// The parts of `rules` that can derive a fact in one of `targets`: a part
/// is kept when one of its head relations is a target, and the body
/// relations of a kept part become targets too, until nothing new is
/// added. Kept parts stay in their original order (part order fixes the
/// chase's trigger order); `functions` is kept whole.
SoTgd PartsReaching(const SoTgd& rules, std::span<const RelationId> targets);

/// Computes certain answers to `q` over `input` under the dependencies
/// `rules` by chasing and filtering null-free tuples. Only the parts that
/// reach a query relation (PartsReaching) are chased, so the round count
/// and the stop are those of that smaller chase; the answers are the full
/// chase's whenever both reach a fixpoint.
CertainAnswers ComputeCertainAnswers(TermArena* arena, Vocabulary* vocab,
                                     const SoTgd& rules, Instance input,
                                     const ConjunctiveQuery& q,
                                     ChaseLimits limits = {});

/// Atomic Boolean certain-answer check: is `goal` (a ground fact) certain?
/// This is the query-answering problem of Theorems 5.1/5.2 specialized to
/// the goal facts used in the PCP encodings. Chases only the parts that
/// reach the goal's relation.
bool CertainlyHolds(TermArena* arena, Vocabulary* vocab, const SoTgd& rules,
                    const Instance& input, const Fact& goal,
                    ChaseLimits limits = {});

/// Minimizes a conjunctive query: repeatedly drops atoms that are
/// subsumed by a homomorphism of the query into itself fixing the free
/// variables (the query's core; Chandra–Merlin). The result is equivalent
/// to `q` on every instance and has a minimal atom set.
ConjunctiveQuery MinimizeQuery(TermArena* arena, Vocabulary* vocab,
                               const ConjunctiveQuery& q);

/// CQ containment q1 ⊑ q2 (every answer of q1 is an answer of q2 on every
/// instance), decided Chandra–Merlin style: q2 must map homomorphically
/// into the frozen canonical instance of q1, fixing free variables.
/// Precondition: identical free-variable lists.
bool QueryContained(TermArena* arena, Vocabulary* vocab,
                    const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// CQ equivalence: containment both ways.
bool QueryEquivalent(TermArena* arena, Vocabulary* vocab,
                     const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// Logical implication Σ ⊨ σ for dependencies, decided by chasing σ's
/// frozen body under Σ and checking that the head becomes satisfiable
/// (sound and complete when the chase terminates; `complete` reports
/// whether it did). Works for any SoTgd rule set and tgd σ.
struct ImplicationResult {
  bool implied = false;
  bool complete = true;  // false when the chase hit a budget
};
ImplicationResult ImpliesTgd(TermArena* arena, Vocabulary* vocab,
                             const SoTgd& rules, const Tgd& sigma,
                             ChaseLimits limits = {});

}  // namespace tgdkit
