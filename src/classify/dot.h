// GraphViz (DOT) exports of the structures behind the paper's figures:
// the position dependency graph of a rule set (weak acyclicity, Figure 2),
// the order graph of a Henkin quantifier (Section 3.1), and the nesting
// tree of a nested tgd. Render with `dot -Tpng`.
#pragma once

#include <string>

#include "analyze/analysis.h"
#include "classify/criteria.h"
#include "dep/dependency.h"

namespace tgdkit {

/// The analyzer's position dependency graph with full provenance: nodes
/// are relation positions (affected ones shaded, sticky-marked ones with
/// a bold border), edges carry "rule label / variable" labels, special
/// edges are dashed, and — when the weak-acyclicity verdict failed — the
/// witness cycle is drawn in red. A failed triangular-guardedness
/// verdict additionally draws its witness triangle in red: the unguarded
/// component's nodes get a red border and its cycle joins the red edges.
std::string AnalysisDot(const Vocabulary& vocab,
                        const ProgramAnalysis& analysis);

/// The Hasse diagram of the Figure 2 class landscape, membership-colored:
/// one node per class (members filled green), one edge per direct
/// subsumption — full ⊂ weakly-acyclic, linear ⊂ guarded ⊂
/// weakly-guarded, sticky ⊂ sticky-join ⊃ linear, and triangularly-
/// guarded above weakly-acyclic, weakly-guarded and sticky-join.
std::string Figure2HasseDot(const Figure2Membership& membership);

/// The analysis's position dependency graph without provenance: nodes
/// are the relation positions that hold a body variable or receive an
/// edge, solid edges are regular, dashed edges are special (they
/// introduce nulls), and parallel edges are drawn once. Affected
/// positions are shaded. A cycle through a dashed edge is exactly a
/// weak-acyclicity violation.
std::string PositionGraphDot(const Vocabulary& vocab,
                             const ProgramAnalysis& analysis);

/// The order graph of a Henkin quantifier: universals as boxes,
/// existentials as ellipses, one edge per generator pair.
std::string QuantifierDot(const Vocabulary& vocab,
                          const HenkinQuantifier& quantifier);

/// The nesting tree of a nested tgd: one node per part, labeled with its
/// body and direct head atoms.
std::string NestingTreeDot(const TermArena& arena, const Vocabulary& vocab,
                           const NestedTgd& nested);

}  // namespace tgdkit
