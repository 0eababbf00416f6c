// Static analysis of dependency programs: the data structures behind the
// Figure 2 classifiers, materialized as first-class artifacts instead of
// bare booleans.
//
//   * PositionGraph — the position dependency graph of Fagin et al. 2005,
//     every edge carrying provenance (rule, variable, head occurrence);
//   * AffectedAnalysis — the affected-positions least fixpoint of Calì,
//     Gottlob & Kifer, each position remembering the derivation step that
//     put it there;
//   * StickyMarking — the Calì–Gottlob–Pieris marking table: per-rule
//     marked variables plus the global marked-position set driving the
//     propagation, again with per-entry provenance;
//   * ComplexityBound — a structural Skolem-chase complexity tier
//     (polynomial / exponential / non-elementary) read off the generating
//     strongly connected components of the position graph, after
//     Hanisch–Krötzsch's chase-termination-complexity criteria.
//
// On top of the artifacts, AnalyzeRules renders a verdict for each
// Figure 2 criterion. A negative verdict is never a bare `false`: it
// carries a concrete witness — a cycle through a special edge, a rule
// whose body atoms each miss a variable that needs guarding, a marked
// variable with two join occurrences — that ReplayWitness re-validates
// against the very graph or table it indicts. Witnesses pin the offending
// rule to its statement label and source span (threaded through
// parse/parser.h from the lexer).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "base/status.h"
#include "classify/criteria.h"
#include "dep/dependency.h"
#include "parse/parser.h"

namespace tgdkit {

// ---------------------------------------------------------------------------
// Input: flattened, origin-tracked rules

/// One Skolemized rule (an SO-tgd part) plus where it came from.
struct AnalyzedRule {
  SoPart part;
  uint32_t dep_index = 0;   // statement index in the source program
  uint32_t part_index = 0;  // part within that statement's Skolemized form
  std::string label;        // statement label, or "#k" for unlabeled
  uint32_t line = 0;        // statement span (0 = built programmatically)
  uint32_t column = 0;
};

// ---------------------------------------------------------------------------
// Artifact 1: the position dependency graph

/// One edge of the position dependency graph, with provenance: rule
/// `rule`'s body variable `var` flows from node `from` into head atom
/// `head_atom` at argument `head_arg` (= node `to`). A special edge means
/// the head argument is a functional term mentioning `var` — the position
/// receives a fresh null whose value depends on `var`.
struct PositionEdge {
  uint32_t from = 0;
  uint32_t to = 0;
  bool special = false;
  uint32_t rule = 0;
  VariableId var = 0;
  uint32_t head_atom = 0;
  uint32_t head_arg = 0;
};

struct PositionGraph {
  std::vector<Position> nodes;
  std::map<Position, uint32_t> node_index;
  std::vector<PositionEdge> edges;
  /// Outgoing edge indexes per node.
  std::vector<std::vector<uint32_t>> out_edges;

  bool HasNode(const Position& p) const { return node_index.count(p) != 0; }
};

// ---------------------------------------------------------------------------
// Artifact 2: affected positions with derivation provenance

/// Why a position entered the affected fixpoint.
struct AffectedReason {
  enum class Kind : uint8_t {
    /// Base case: head atom `head_atom` of rule `rule` carries a
    /// functional term at argument `head_arg`.
    kFunctionalHead,
    /// Inductive step: body variable `var` of rule `rule` occurs only at
    /// affected positions and lands here (head atom/arg as recorded).
    kPropagated,
  };
  Kind kind = Kind::kFunctionalHead;
  uint32_t rule = 0;
  uint32_t head_atom = 0;
  uint32_t head_arg = 0;
  VariableId var = 0;  // kPropagated only
};

struct AffectedAnalysis {
  std::set<Position> affected;
  /// First derivation recorded per position (a witness, not the full set
  /// of derivations). kPropagated reasons only cite positions that were
  /// already affected, so chains always ground out in a kFunctionalHead.
  std::map<Position, AffectedReason> reasons;
};

// ---------------------------------------------------------------------------
// Artifact 3: the sticky marking table

/// Why a (rule, variable) pair got marked.
struct MarkReason {
  enum class Kind : uint8_t {
    /// Initial step: head atom `head_atom` of the rule does not contain
    /// the variable (top level), so its body occurrences are marked.
    kDropped,
    /// Propagation: the variable occurs in head atom `head_atom` at
    /// argument `head_arg`, whose position `via` holds a marked body
    /// occurrence somewhere in the rule set.
    kPropagated,
  };
  Kind kind = Kind::kDropped;
  uint32_t head_atom = 0;
  uint32_t head_arg = 0;   // kPropagated only
  Position via{0, 0};      // kPropagated only
};

struct StickyMarking {
  /// Marked variables per rule (indexes parallel the analyzed rule list),
  /// each with the first derivation that marked it.
  std::vector<std::map<VariableId, MarkReason>> marked_vars;
  /// Body positions holding a marked occurrence in some rule — the key
  /// the propagation step joins on.
  std::set<Position> marked_positions;

  bool IsMarked(uint32_t rule, VariableId var) const {
    return rule < marked_vars.size() && marked_vars[rule].count(var) != 0;
  }
};

// ---------------------------------------------------------------------------
// Witnesses: one concrete, machine-checkable counterexample per criterion

/// Not full: a functional (existential) head term — or, for SO tgds, an
/// equality in the rule (then `equality` is set, `term` is its lhs and the
/// atom/arg fields are meaningless).
struct FullWitness {
  uint32_t rule = 0;
  uint32_t head_atom = 0;
  uint32_t head_arg = 0;
  TermId term = 0;
  bool equality = false;
};

/// Not linear: a rule with more than one body atom.
struct LinearWitness {
  uint32_t rule = 0;
  uint32_t body_atoms = 0;
};

/// Not (weakly) guarded: a rule where every body atom misses at least one
/// of the variables that need guarding. `missing[i]` names a required
/// variable absent from body atom i — together they prove no atom guards.
struct GuardWitness {
  uint32_t rule = 0;
  /// Guarded: all body variables. Weakly guarded: the variables occurring
  /// only at affected positions (their positions justified by `affected`).
  std::vector<VariableId> required;
  std::vector<VariableId> missing;  // one entry per body atom
};

/// Not weakly acyclic: a closed walk in the position graph through at
/// least one special edge. `edges[i].to == edges[i+1].from` and the walk
/// closes back on `edges.front().from`.
struct CycleWitness {
  std::vector<uint32_t> edges;  // indexes into PositionGraph::edges
};

/// Not sticky / sticky-join: variable `var`, marked in rule `rule`,
/// occurs at two body occurrences (atom, arg) — for sticky any repeat,
/// for sticky-join a repeat across two distinct atoms.
struct StickyWitness {
  uint32_t rule = 0;
  VariableId var = 0;
  uint32_t atom1 = 0, arg1 = 0;
  uint32_t atom2 = 0, arg2 = 0;
};

/// Not triangularly guarded: an unguarded triangle. `component` is a
/// triangular component — a strongly connected component of the position
/// graph containing a special edge — given as sorted node indexes, and
/// `cycle` is a closed walk inside it through that special edge (side 1
/// of the triangle). The component satisfies neither repair discipline:
/// `guard` indicts a component rule whose component-dangerous variables
/// no body atom covers (side 2), and `join` indicts a marked variable
/// joining two component positions across distinct atoms of a component
/// rule (side 3). All three sides replay independently.
struct TriangleWitness {
  std::vector<uint32_t> component;  // sorted node indexes
  std::vector<uint32_t> cycle;      // edge indexes, closes through a special
  GuardWitness guard;
  StickyWitness join;
};

using Witness =
    std::variant<std::monostate, FullWitness, LinearWitness, GuardWitness,
                 CycleWitness, StickyWitness, TriangleWitness>;

/// Figure 2 criteria, in ToString(Figure2Membership) order.
enum class Criterion : uint8_t {
  kFull,
  kWeaklyAcyclic,
  kLinear,
  kGuarded,
  kWeaklyGuarded,
  kSticky,
  kStickyJoin,
  kTriangularlyGuarded,
};

const char* CriterionName(Criterion criterion);

struct CriterionVerdict {
  Criterion criterion = Criterion::kFull;
  bool holds = true;
  Witness witness;  // monostate iff holds
};

// ---------------------------------------------------------------------------
// Artifact 4: the structural chase-complexity bound

/// A structural upper bound on Skolem-chase cost, derived from the
/// generating strongly connected components of the position graph (the
/// SCCs containing a special edge), in the spirit of Hanisch–Krötzsch's
/// complexity-bounded chase termination criteria. The tier is an upper
/// bound conditional on termination; for the polynomial tier (no
/// generating SCC — exactly weak acyclicity) termination itself is
/// guaranteed. Every claim carries a provenance witness:
///
///   * polynomial — `rank` is the maximum number of special edges on any
///     path, bounding null-nesting depth; `rank_path` lists `rank`
///     special edges, each reaching the next (a realizing chain).
///   * exponential — generating SCCs exist but none reaches another;
///     `cycle` is a closed walk through one in-component special edge.
///   * non-elementary — a generating SCC feeds a second one: `cycle` and
///     `cycle2` are closed special walks in two distinct SCCs and `link`
///     is an edge path from the first onto the second.
struct ComplexityBound {
  ComplexityTier tier = ComplexityTier::kPolynomial;
  uint32_t rank = 0;                 // polynomial tier only
  std::vector<uint32_t> rank_path;   // special edge indexes, `rank` of them
  std::vector<uint32_t> cycle;       // exponential and above
  std::vector<uint32_t> link;        // non-elementary only
  std::vector<uint32_t> cycle2;      // non-elementary only
};

// ---------------------------------------------------------------------------
// The analysis result

struct ProgramAnalysis {
  /// The arena the rules live in (borrowed; must outlive the analysis).
  const TermArena* arena = nullptr;
  std::vector<AnalyzedRule> rules;
  PositionGraph graph;
  AffectedAnalysis affected;
  StickyMarking marking;
  ComplexityBound complexity;
  std::vector<CriterionVerdict> verdicts;  // one per Criterion, in order

  const CriterionVerdict& verdict(Criterion criterion) const {
    return verdicts[static_cast<size_t>(criterion)];
  }
  Figure2Membership Membership() const;
};

/// Runs every analysis over `rules`. Pure: reads the arena only.
ProgramAnalysis AnalyzeRules(const TermArena& arena,
                             std::vector<AnalyzedRule> rules);

/// Convenience: analyzes a single SO tgd (one synthetic statement).
ProgramAnalysis AnalyzeSo(const TermArena& arena, const SoTgd& so);

/// The name a statement is reported under: its label, or "#k" for the
/// k-th statement (1-based) when it has none.
std::string StatementLabel(const ParsedDependency& dep, size_t index);

/// One statement's Skolemized form: tgd, nested and Henkin statements are
/// Skolemized (fresh function symbols are interned into `vocab`); an SO
/// tgd is returned as written.
SoTgd SkolemizeStatement(TermArena* arena, Vocabulary* vocab,
                         const ParsedDependency& dep);

/// Every statement of `program` Skolemized into the one rule set that the
/// chase-based commands run: all tgds, then all Henkin tgds, then each
/// nested tgd, then each SO tgd, each group in statement order.
SoTgd SkolemizeProgram(TermArena* arena, Vocabulary* vocab,
                       const DependencyProgram& program);

/// The origin-tracked rules of statement `index`, given its Skolemized
/// form `so`: one rule per part, carrying the statement's label and span.
std::vector<AnalyzedRule> StatementRules(const ParsedDependency& dep,
                                         uint32_t index, const SoTgd& so);

/// Analyzes a parsed program: the StatementRules of each statement's
/// SkolemizeStatement, in statement order, through AnalyzeRules.
ProgramAnalysis AnalyzeProgram(TermArena* arena, Vocabulary* vocab,
                               const DependencyProgram& program);

// ---------------------------------------------------------------------------
// Witness replay

/// Re-validates a verdict's witness against the analysis artifacts: cycle
/// edges must chain and close through a special edge of the graph, guard
/// witnesses must name a missing required variable for every body atom,
/// sticky witnesses must point at genuinely marked variables and real
/// occurrences, and so on. Ok for positive verdicts (nothing to check);
/// InvalidArgument with a reason when a witness does not replay.
Status ReplayWitness(const TermArena& arena, const ProgramAnalysis& analysis,
                     const CriterionVerdict& verdict);

/// Re-validates the complexity bound: the tier must match a recomputation
/// from the graph and the witness walks must chain, close and reach as
/// claimed (rank_path edges special and pairwise reaching, cycles closed
/// through a special edge, the link landing on the second cycle, the two
/// cycles in distinct SCCs). InvalidArgument when tampered.
Status ReplayComplexity(const ProgramAnalysis& analysis);

/// Replays every verdict plus the complexity bound; first failure wins.
Status ReplayAllWitnesses(const TermArena& arena,
                          const ProgramAnalysis& analysis);

// ---------------------------------------------------------------------------
// Rendering

/// Renders a witness as one line, e.g.
///   "cycle N.0 -> E.1 -*-> N.0 (rules s1, s2)" or
///   "rule s3: marked variable y joins P.1 and Q.0".
std::string WitnessToString(const TermArena& arena, const Vocabulary& vocab,
                            const ProgramAnalysis& analysis,
                            const CriterionVerdict& verdict);

/// Renders the complexity bound with its witness, e.g.
///   "polynomial (rank 2: A.0 -*-> B.1 => B.0 -*-> C.1)" or
///   "exponential (generating cycle E.0 -*-> E.1 -> E.0)".
std::string ComplexityToString(const Vocabulary& vocab,
                               const ProgramAnalysis& analysis);

/// Renders the derivation chain of an affected position, innermost first.
std::string ExplainAffected(const Vocabulary& vocab,
                            const ProgramAnalysis& analysis,
                            const Position& position);

/// Renders the derivation chain of a marked (rule, variable) pair.
std::string ExplainMarked(const Vocabulary& vocab,
                          const ProgramAnalysis& analysis, uint32_t rule,
                          VariableId var);

}  // namespace tgdkit
