// Theorems 5.1 / 5.2 and Figure 4: encoding Post's Correspondence Problem
// into query answering under sticky linear standard Henkin tgds with two
// unary function symbols (and, alternatively, sticky guarded simple nested
// tgds).
//
// Construction (following the paper's Ideas 1–3, 3⁺):
//
//  * Idea 1 — two branches build the first and second string of the PCP.
//    A configuration is a fact R(q, s, w): control state q (a constant),
//    selection-sequence term s, string term w. Both pair indexes and
//    alphabet symbols are binary-coded, so the only functions are the two
//    unary symbols f0, f1 (Theorem 5.1's "two unary function symbols").
//
//  * Idea 2 — the branch/state is carried as a constant in the first
//    argument, protecting configurations from collapsing (the paper uses
//    an N-vector for the same purpose under its representation).
//
//  * Idea 3 — two-phase function application: full tgds emit application
//    requests AP0/AP1(q, a, p) ("apply f0/f1 to a, then continue in q");
//    exactly ONE dependency per function symbol performs the application:
//
//       AP0(q, a, p) → ∃a'(a) Done(q, a', p)      (standard Henkin tgd)
//       AP1(q, a, p) → ∃a'(a) Done(q, a', p)
//
//    All other rules are full tgds, matching the paper's remark that
//    undecidability holds "given just two Henkin tgds, while the rest are
//    full tgds". Every rule body is a single atom, so the set is linear,
//    guarded and sticky.
//
//  * Idea 3⁺ — the nested variant replaces each application rule by the
//    simple nested tgd  Y(a) → ∃a' [ AP(q, a, p) → Done(q, a', p) ]  plus
//    full Y-producers; its normalization is sticky and guarded but (as the
//    paper notes) no longer linear.
//
// The PCP instance has a solution iff the Boolean query
//   ∃s,w R("B1", s, w) ∧ R("B2", s, w)
// is certain, with "B1"/"B2" only reachable after at least one selection.
// Since the chase is a semi-decision procedure, SemiDecidePcp runs it
// round-by-round under a budget.
#pragma once

#include "chase/chase.h"
#include "data/instance.h"
#include "dep/dependency.h"
#include "oracle/oracle.h"
#include "query/query.h"

namespace tgdkit {

struct PcpEncoding {
  /// All full tgds of the construction (init, routing, branch logic).
  std::vector<Tgd> full_rules;
  /// The two function-applying standard Henkin tgds.
  std::vector<HenkinTgd> henkin_rules;
  /// Nested-variant application rules (Theorem 5.2) and their Y-producers.
  std::vector<NestedTgd> nested_rules;
  std::vector<Tgd> nested_producers;
  /// The seed instance: a single Start fact.
  Instance seed;
  /// The Boolean goal query ∃s,w R(B1,s,w) ∧ R(B2,s,w).
  ConjunctiveQuery goal;

  explicit PcpEncoding(const Vocabulary* vocab) : seed(vocab) {}

  /// Skolemizes and merges the Henkin-variant rule set (for the chase and
  /// the Figure 2 classifiers).
  SoTgd HenkinRuleSet(TermArena* arena, Vocabulary* vocab) const;
  /// Skolemizes and merges the nested-variant rule set (Theorem 5.2).
  SoTgd NestedRuleSet(TermArena* arena, Vocabulary* vocab) const;
};

/// Builds the encoding of `instance` per Theorem 5.1 / 5.2.
/// Precondition: instance has at least one pair and alphabet_size >= 1.
PcpEncoding BuildPcpEncoding(TermArena* arena, Vocabulary* vocab,
                             const PcpInstance& instance);

struct PcpChaseOutcome {
  /// True when the goal query became certain (the PCP has a solution).
  bool solved = false;
  uint64_t rounds = 0;
  uint64_t facts = 0;
  StopReason stop = StopReason::kFixpoint;
  /// Governor telemetry: chase steps taken and bytes observed.
  uint64_t budget_steps = 0;
  uint64_t budget_bytes = 0;

  /// Ok when the goal was reached or a true fixpoint proved it
  /// unreachable; ResourceExhausted when a budget cut the search short.
  Status ToStatus() const {
    if (solved || stop == StopReason::kFixpoint) return Status::Ok();
    return StopReasonToStatus(stop, "pcp semi-decision");
  }
};

/// Runs the chase on the given rule set as a semi-decision procedure:
/// stops as soon as the goal is derivable, or when the budget is
/// exhausted ("not solved within budget").
PcpChaseOutcome SemiDecidePcp(TermArena* arena, Vocabulary* vocab,
                              const PcpEncoding& encoding, const SoTgd& rules,
                              ChaseLimits limits);

}  // namespace tgdkit
