// Independent brute-force decision procedures used to validate the
// paper's reductions (Sections 5 and 6). These deliberately share no code
// with the reductions they check.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"

namespace tgdkit {

// ---------------------------------------------------------------------------
// Graphs and 3-colorability (Theorem 6.1)

/// A simple undirected graph on vertices 0..num_vertices-1.
struct Graph {
  uint32_t num_vertices = 0;
  std::vector<std::pair<uint32_t, uint32_t>> edges;
};

/// Exhaustive 3-colorability test (with first-vertex symmetry breaking).
bool ThreeColorable(const Graph& graph);

/// Budgeted variant: polls `governor` once per color assignment tried and
/// returns nullopt when the budget runs out before the search completes
/// (governor->reason() says why). The unbudgeted overload above is
/// equivalent to passing an unlimited governor.
std::optional<bool> ThreeColorableBudgeted(const Graph& graph,
                                           ResourceGovernor* governor);

// ---------------------------------------------------------------------------
// Quantified Boolean formulas (Theorem 6.3)

/// A literal over the QBF's variables: universals x_1..x_n are
/// (kUniversal, i), existentials y_1..y_n are (kExistential, i), both
/// 0-based; `negated` selects the complement.
struct QbfLiteral {
  enum class Kind : uint8_t { kUniversal, kExistential };
  Kind kind;
  uint32_t index;
  bool negated;
};

/// A QBF in the restricted shape of Theorem 6.3's reduction:
///   ∀x₁∃y₁ … ∀xₙ∃yₙ (c₁ ∧ … ∧ c_m), each cᵢ a 3-clause.
struct Qbf {
  uint32_t num_pairs = 0;  // n: quantifier alternations
  std::vector<std::array<QbfLiteral, 3>> clauses;
};

/// Exhaustive QBF evaluation by quantifier recursion.
bool EvaluateQbf(const Qbf& qbf);

/// Budgeted variant: polls `governor` once per quantifier-tree node and
/// returns nullopt when the budget runs out mid-evaluation.
std::optional<bool> EvaluateQbfBudgeted(const Qbf& qbf,
                                        ResourceGovernor* governor);

// ---------------------------------------------------------------------------
// Post's Correspondence Problem (Theorems 5.1, 5.2)

/// A PCP instance: pairs of words over the alphabet {1, …, alphabet_size}.
/// Words are vectors of symbols (each in [1, alphabet_size]).
struct PcpInstance {
  uint32_t alphabet_size = 0;
  std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>> pairs;
};

/// Bounded solver: searches index sequences of length ≤ max_sequence_length
/// (BFS over prefix configurations). Returns a witness sequence (1-based
/// indexes) or nullopt when no solution exists within the bound. PCP is
/// undecidable, so "nullopt" only means "none within the bound".
std::optional<std::vector<uint32_t>> SolvePcp(const PcpInstance& instance,
                                              uint32_t max_sequence_length);

/// Outcome of the budgeted PCP search, distinguishing "no solution within
/// the length bound" (search complete) from a resource stop mid-search.
struct PcpSearchOutcome {
  std::optional<std::vector<uint32_t>> witness;
  /// kFixpoint when the bounded search ran to completion; a resource stop
  /// reason when the budget cut it short (the absence of a witness is
  /// then inconclusive even within the bound).
  StopReason stop = StopReason::kFixpoint;
  /// Configurations expanded (also the governor step count).
  uint64_t configs = 0;

  bool Complete() const { return stop == StopReason::kFixpoint; }
};

/// Budgeted variant of SolvePcp: polls `governor` once per configuration
/// expanded and charges it per configuration enqueued, so a byte budget
/// bounds the (worst-case exponential) BFS frontier and seen-set.
PcpSearchOutcome SolvePcpBudgeted(const PcpInstance& instance,
                                  uint32_t max_sequence_length,
                                  ResourceGovernor* governor);

/// Checks a candidate solution (1-based pair indexes).
bool CheckPcpSolution(const PcpInstance& instance,
                      const std::vector<uint32_t>& sequence);

}  // namespace tgdkit
