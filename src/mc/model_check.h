// Model checking (Section 6 of the paper): does an instance satisfy a
// dependency?
//
//  * tgds — first-order: for every body homomorphism there must be an
//    extension satisfying the head (Π₂ᵖ in combined complexity).
//  * nested tgds — recursive quantifier-alternation evaluator (PSPACE in
//    query/combined complexity, Theorem 6.3).
//  * SO tgds / Henkin tgds — second-order semantics: there must EXIST
//    interpretations of the function symbols over the active domain of the
//    instance making every part true (Fagin et al. 2005). Implemented as a
//    lazy backtracking search over partial function tables, branching only
//    on entries that constraints actually touch (NEXPTIME in general,
//    Theorems 6.1/6.2).
//
// A set of Henkin tgds is checked dependency-by-dependency: each Henkin
// tgd quantifies its own functions, unlike the parts of one SO tgd which
// share a single ∃f̄ prefix — the distinction at the heart of Section 4.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "base/budget.h"
#include "data/instance.h"
#include "dep/dependency.h"
#include "homo/matcher.h"

namespace tgdkit {

/// Budget for the second-order search.
struct McOptions {
  /// Maximum number of branching decisions before giving up.
  uint64_t max_branches = 50'000'000;
  /// Cross-cutting resource budget (deadline, bytes, steps, cancellation).
  /// One step = one matcher row probe or one branching decision.
  ExecutionBudget budget;
};

/// Result of a (possibly budgeted) model check.
struct McResult {
  bool satisfied = false;
  /// True when the search exhausted its budget; `satisfied` is then
  /// meaningless.
  bool budget_exceeded = false;
  /// Branching decisions taken (second-order checks only).
  uint64_t branches = 0;
  /// Why the search ended; kFixpoint means it ran to completion and
  /// `satisfied` is authoritative.
  StopReason stop = StopReason::kFixpoint;

  /// Machine-readable outcome: Ok when complete, ResourceExhausted with
  /// the stop reason otherwise.
  Status ToStatus() const { return StopReasonToStatus(stop, "model check"); }
};

/// First-order model checking for a tgd.
bool CheckTgd(const TermArena& arena, const Instance& instance,
              const Tgd& tgd);

/// A violation witness: the body homomorphism that has no head extension,
/// by variable (built once, when the violation is reported).
struct TgdViolation {
  std::unordered_map<VariableId, Value> trigger;

  /// Renders the witness, e.g. "e=alice, d=cs".
  std::string ToString(const Vocabulary& vocab,
                       const Instance& instance) const;
};

/// Finds a violating trigger of `tgd` in `instance`, if any. With a
/// governor, the search stops cleanly once the budget is exhausted;
/// `nullopt` then means "no violation found within budget" (check
/// governor->exhausted()).
std::optional<TgdViolation> FindTgdViolation(const TermArena& arena,
                                             const Instance& instance,
                                             const Tgd& tgd,
                                             ResourceGovernor* governor =
                                                 nullptr);

/// Checks every tgd in the set.
bool CheckTgds(const TermArena& arena, const Instance& instance,
               std::span<const Tgd> tgds);

/// PSPACE evaluator for nested tgds (recursive quantifier alternation).
bool CheckNested(const TermArena& arena, const Instance& instance,
                 const NestedTgd& nested);

/// Finds a violating ROOT trigger of a nested tgd: a homomorphism of the
/// root body for which no choice of existentials satisfies the nested
/// conclusion. Returns nullopt when the instance is a model (or, with a
/// governor, when the budget ran out first — check governor->exhausted()).
std::optional<TgdViolation> FindNestedViolation(const TermArena& arena,
                                                const Instance& instance,
                                                const NestedTgd& nested,
                                                ResourceGovernor* governor =
                                                    nullptr);

/// Second-order model checking for an SO tgd: searches for function
/// interpretations over the active domain satisfying all parts.
McResult CheckSo(const TermArena& arena, const Instance& instance,
                 const SoTgd& so, const McOptions& options = {});

/// Second-order model checking for one Henkin tgd (via its Skolemization).
McResult CheckHenkin(TermArena* arena, Vocabulary* vocab,
                     const Instance& instance, const HenkinTgd& henkin,
                     const McOptions& options = {});

/// Checks a set of Henkin tgds, each with its own function quantifiers.
McResult CheckHenkins(TermArena* arena, Vocabulary* vocab,
                      const Instance& instance,
                      std::span<const HenkinTgd> henkins,
                      const McOptions& options = {});

}  // namespace tgdkit
