#include "analyze/analysis.h"

#include <algorithm>
#include <iterator>

#include "base/strings.h"
#include "dep/skolem.h"
#include "transform/nested.h"

namespace tgdkit {

namespace {

void TermVariables(const TermArena& arena, TermId t,
                   std::set<VariableId>* out) {
  std::vector<VariableId> vars;
  arena.CollectVariables(t, &vars);
  out->insert(vars.begin(), vars.end());
}

std::set<VariableId> BodyVariables(const TermArena& arena,
                                   const SoPart& part) {
  std::set<VariableId> vars;
  for (const Atom& atom : part.body) {
    for (TermId t : atom.args) TermVariables(arena, t, &vars);
  }
  return vars;
}

/// Distinct body positions per variable (top level). The replays and the
/// renderers rebuild it from the rule on purpose; the builders read the
/// RuleTable that AnalyzeRules builds once.
std::map<VariableId, std::set<Position>> BodyPositions(
    const TermArena& arena, const SoPart& part) {
  std::map<VariableId, std::set<Position>> out;
  for (const Atom& atom : part.body) {
    for (uint32_t i = 0; i < atom.args.size(); ++i) {
      if (arena.IsVariable(atom.args[i])) {
        out[arena.symbol(atom.args[i])].insert({atom.relation, i});
      }
    }
  }
  return out;
}

bool OccursTopLevel(const TermArena& arena, VariableId var, const Atom& atom) {
  for (TermId t : atom.args) {
    if (arena.IsVariable(t) && arena.symbol(t) == var) return true;
  }
  return false;
}

// --- per-rule tables --------------------------------------------------------

/// A head argument that holds a body variable: at top level, or inside a
/// functional term (`special`: the position receives a null built from
/// the variable).
struct HeadSlot {
  uint32_t atom = 0;
  uint32_t arg = 0;
  bool special = false;
};

/// What the builders read about one top-level body variable of a rule.
struct BodyVar {
  std::set<Position> positions;
  /// Top-level body occurrences (atom index, arg index), in body order.
  std::vector<std::pair<uint32_t, uint32_t>> occurrences;
  std::vector<HeadSlot> head;  // in (atom, arg) order
};

/// A rule's top-level body variables, built once per analysis.
using RuleTable = std::map<VariableId, BodyVar>;

RuleTable BuildRuleTable(const TermArena& arena, const SoPart& part) {
  RuleTable vars;
  for (uint32_t a = 0; a < part.body.size(); ++a) {
    const Atom& atom = part.body[a];
    for (uint32_t i = 0; i < atom.args.size(); ++i) {
      if (!arena.IsVariable(atom.args[i])) continue;
      BodyVar& v = vars[arena.symbol(atom.args[i])];
      v.positions.insert({atom.relation, i});
      v.occurrences.emplace_back(a, i);
    }
  }
  for (uint32_t a = 0; a < part.head.size(); ++a) {
    const Atom& atom = part.head[a];
    for (uint32_t i = 0; i < atom.args.size(); ++i) {
      TermId t = atom.args[i];
      std::set<VariableId> held;
      if (arena.IsVariable(t)) {
        held.insert(arena.symbol(t));
      } else if (arena.IsFunction(t)) {
        TermVariables(arena, t, &held);
      }
      for (VariableId var : held) {
        auto it = vars.find(var);
        if (it == vars.end()) continue;
        it->second.head.push_back({a, i, arena.IsFunction(t)});
      }
    }
  }
  return vars;
}

bool AllAffected(const AffectedAnalysis& affected, const BodyVar& v) {
  return std::all_of(v.positions.begin(), v.positions.end(),
                     [&affected](const Position& p) {
                       return affected.affected.count(p) != 0;
                     });
}

// --- artifact builders ------------------------------------------------------

PositionGraph BuildPositionGraph(const std::vector<AnalyzedRule>& rules,
                                 const std::vector<RuleTable>& tables) {
  PositionGraph graph;
  auto node = [&graph](const Position& p) {
    auto [it, inserted] = graph.node_index.emplace(
        p, static_cast<uint32_t>(graph.nodes.size()));
    if (inserted) graph.nodes.push_back(p);
    return it->second;
  };
  // Every position mentioned by a rule is a node, even an isolated one:
  // the graph is an artifact in its own right, not just cycle fodder.
  for (const AnalyzedRule& rule : rules) {
    for (const Atom& atom : rule.part.body) {
      for (uint32_t i = 0; i < atom.args.size(); ++i) {
        node({atom.relation, i});
      }
    }
    for (const Atom& atom : rule.part.head) {
      for (uint32_t i = 0; i < atom.args.size(); ++i) {
        node({atom.relation, i});
      }
    }
  }
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const SoPart& part = rules[r].part;
    for (const auto& [var, v] : tables[r]) {
      for (const Position& from : v.positions) {
        uint32_t from_node = node(from);
        for (const HeadSlot& slot : v.head) {
          graph.edges.push_back(
              {from_node, node({part.head[slot.atom].relation, slot.arg}),
               slot.special, r, var, slot.atom, slot.arg});
        }
      }
    }
  }
  graph.out_edges.assign(graph.nodes.size(), {});
  for (uint32_t e = 0; e < graph.edges.size(); ++e) {
    graph.out_edges[graph.edges[e].from].push_back(e);
  }
  return graph;
}

AffectedAnalysis BuildAffected(const TermArena& arena,
                               const std::vector<AnalyzedRule>& rules,
                               const std::vector<RuleTable>& tables) {
  AffectedAnalysis out;
  // (1) Head positions carrying functional terms.
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const SoPart& part = rules[r].part;
    for (uint32_t a = 0; a < part.head.size(); ++a) {
      const Atom& atom = part.head[a];
      for (uint32_t i = 0; i < atom.args.size(); ++i) {
        if (!arena.IsFunction(atom.args[i])) continue;
        Position p{atom.relation, i};
        if (out.affected.insert(p).second) {
          out.reasons[p] = {AffectedReason::Kind::kFunctionalHead, r, a, i,
                            /*var=*/0};
        }
      }
    }
  }
  // (2) Propagate through variables occurring only at affected positions.
  // A (rule, variable) pair fires once every body position of its variable
  // is affected: each pair counts its unaffected positions, and each
  // position lists the pairs waiting on it, so a position is visited once.
  struct Pair {
    uint32_t rule;
    VariableId var;
    const BodyVar* v;
  };
  std::vector<Pair> pairs;
  std::vector<size_t> unaffected;
  std::map<Position, std::vector<uint32_t>> waiting;
  std::vector<uint32_t> ready;
  for (uint32_t r = 0; r < rules.size(); ++r) {
    for (const auto& [var, v] : tables[r]) {
      uint32_t index = static_cast<uint32_t>(pairs.size());
      pairs.push_back({r, var, &v});
      size_t count = 0;
      for (const Position& p : v.positions) {
        if (out.affected.count(p)) continue;
        ++count;
        waiting[p].push_back(index);
      }
      unaffected.push_back(count);
      if (count == 0) ready.push_back(index);
    }
  }
  while (!ready.empty()) {
    const Pair& pair = pairs[ready.back()];
    ready.pop_back();
    const SoPart& part = rules[pair.rule].part;
    for (const HeadSlot& slot : pair.v->head) {
      if (slot.special) continue;
      Position p{part.head[slot.atom].relation, slot.arg};
      if (!out.affected.insert(p).second) continue;
      out.reasons[p] = {AffectedReason::Kind::kPropagated, pair.rule,
                        slot.atom, slot.arg, pair.var};
      auto it = waiting.find(p);
      if (it == waiting.end()) continue;
      for (uint32_t w : it->second) {
        if (--unaffected[w] == 0) ready.push_back(w);
      }
    }
  }
  return out;
}

/// The Calì–Gottlob–Pieris marking procedure, per-rule. A variable is
/// marked in a rule when (initial step) some head atom of the rule drops
/// it, or (propagation) it flows into a head position that holds a marked
/// body occurrence somewhere in the rule set.
StickyMarking BuildMarking(const TermArena& arena,
                           const std::vector<AnalyzedRule>& rules,
                           const std::vector<RuleTable>& tables) {
  StickyMarking marking;
  marking.marked_vars.resize(rules.size());
  // Position -> the (rule, variable) pairs with a top-level head
  // occurrence there: the pairs a newly marked position makes eligible.
  std::map<Position, std::vector<std::pair<uint32_t, VariableId>>> readers;
  for (uint32_t r = 0; r < rules.size(); ++r) {
    for (const auto& [var, v] : tables[r]) {
      for (const HeadSlot& slot : v.head) {
        if (slot.special) continue;
        readers[{rules[r].part.head[slot.atom].relation, slot.arg}]
            .emplace_back(r, var);
      }
    }
  }
  // Eligible pairs are marked smallest (rule, variable) first, each citing
  // its first marked head slot, so every pair records the derivation a
  // rescan of the whole rule set after each mark finds. WitnessToString
  // prints these derivations through ExplainMarked.
  std::set<std::pair<uint32_t, VariableId>> eligible;
  auto mark = [&](uint32_t r, VariableId var, const MarkReason& reason) {
    marking.marked_vars[r].emplace(var, reason);
    for (const Position& p : tables[r].at(var).positions) {
      if (!marking.marked_positions.insert(p).second) continue;
      auto it = readers.find(p);
      if (it != readers.end()) {
        eligible.insert(it->second.begin(), it->second.end());
      }
    }
  };
  // Initial step: mark variables missing from some head atom.
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const SoPart& part = rules[r].part;
    for (const auto& [var, v] : tables[r]) {
      for (uint32_t a = 0; a < part.head.size(); ++a) {
        if (!OccursTopLevel(arena, var, part.head[a])) {
          mark(r, var, {MarkReason::Kind::kDropped, a, 0, {0, 0}});
          break;
        }
      }
    }
  }
  // Propagation: follow head occurrences into marked positions.
  while (!eligible.empty()) {
    auto [r, var] = *eligible.begin();
    eligible.erase(eligible.begin());
    if (marking.IsMarked(r, var)) continue;
    for (const HeadSlot& slot : tables[r].at(var).head) {
      if (slot.special) continue;
      Position p{rules[r].part.head[slot.atom].relation, slot.arg};
      if (!marking.marked_positions.count(p)) continue;
      mark(r, var, {MarkReason::Kind::kPropagated, slot.atom, slot.arg, p});
      break;
    }
  }
  return marking;
}

// --- verdict builders -------------------------------------------------------

CriterionVerdict JudgeFull(const TermArena& arena,
                           const std::vector<AnalyzedRule>& rules) {
  CriterionVerdict v{Criterion::kFull, true, {}};
  for (uint32_t r = 0; r < rules.size(); ++r) {
    const SoPart& part = rules[r].part;
    if (!part.equalities.empty()) {
      v.holds = false;
      v.witness = FullWitness{r, /*head_atom=*/0, /*head_arg=*/0,
                              part.equalities[0].lhs, /*equality=*/true};
      return v;
    }
    for (uint32_t a = 0; a < part.head.size(); ++a) {
      const Atom& atom = part.head[a];
      for (uint32_t i = 0; i < atom.args.size(); ++i) {
        TermId t = atom.args[i];
        if (arena.IsFunction(t) || arena.HasNestedFunction(t)) {
          v.holds = false;
          v.witness = FullWitness{r, a, i, t, /*equality=*/false};
          return v;
        }
      }
    }
  }
  return v;
}

CriterionVerdict JudgeLinear(const std::vector<AnalyzedRule>& rules) {
  CriterionVerdict v{Criterion::kLinear, true, {}};
  for (uint32_t r = 0; r < rules.size(); ++r) {
    if (rules[r].part.body.size() != 1) {
      v.holds = false;
      v.witness = LinearWitness{
          r, static_cast<uint32_t>(rules[r].part.body.size())};
      return v;
    }
  }
  return v;
}

/// Shared guard search: does some body atom of `part` contain every
/// variable of `required`? If not, fills `missing` with one absent
/// required variable per body atom.
bool FindGuard(const TermArena& arena, const SoPart& part,
               const std::set<VariableId>& required,
               std::vector<VariableId>* missing) {
  missing->clear();
  for (const Atom& atom : part.body) {
    std::set<VariableId> atom_vars;
    for (TermId t : atom.args) TermVariables(arena, t, &atom_vars);
    VariableId absent = 0;
    bool covers = true;
    for (VariableId v : required) {
      if (!atom_vars.count(v)) {
        covers = false;
        absent = v;
        break;
      }
    }
    if (covers) return true;
    missing->push_back(absent);
  }
  return false;
}

CriterionVerdict JudgeGuarded(const TermArena& arena,
                              const std::vector<AnalyzedRule>& rules) {
  CriterionVerdict v{Criterion::kGuarded, true, {}};
  for (uint32_t r = 0; r < rules.size(); ++r) {
    std::set<VariableId> body_vars = BodyVariables(arena, rules[r].part);
    std::vector<VariableId> missing;
    if (FindGuard(arena, rules[r].part, body_vars, &missing)) continue;
    v.holds = false;
    v.witness = GuardWitness{
        r, {body_vars.begin(), body_vars.end()}, std::move(missing)};
    return v;
  }
  return v;
}

CriterionVerdict JudgeWeaklyGuarded(const TermArena& arena,
                                    const std::vector<AnalyzedRule>& rules,
                                    const std::vector<RuleTable>& tables,
                                    const AffectedAnalysis& affected) {
  CriterionVerdict v{Criterion::kWeaklyGuarded, true, {}};
  for (uint32_t r = 0; r < rules.size(); ++r) {
    std::set<VariableId> must_guard;
    for (const auto& [var, body_var] : tables[r]) {
      if (AllAffected(affected, body_var)) must_guard.insert(var);
    }
    if (must_guard.empty()) continue;
    std::vector<VariableId> missing;
    if (FindGuard(arena, rules[r].part, must_guard, &missing)) continue;
    v.holds = false;
    v.witness = GuardWitness{
        r, {must_guard.begin(), must_guard.end()}, std::move(missing)};
    return v;
  }
  return v;
}

// --- position graph walks ---------------------------------------------------

/// Breadth-first search from node `from`: the edge that first reached
/// each node, -1 for `from` and for unreached nodes. Stops once `stop_at`
/// is reached, with the edges a full search would have recorded so far.
std::vector<int64_t> BfsTree(const PositionGraph& graph, uint32_t from,
                             uint32_t stop_at = UINT32_MAX) {
  std::vector<int64_t> parent_edge(graph.nodes.size(), -1);
  std::vector<bool> seen(graph.nodes.size(), false);
  std::vector<uint32_t> queue{from};
  seen[from] = true;
  for (size_t q = 0; q < queue.size(); ++q) {
    for (uint32_t e : graph.out_edges[queue[q]]) {
      uint32_t next = graph.edges[e].to;
      if (seen[next]) continue;
      seen[next] = true;
      parent_edge[next] = e;
      if (next == stop_at) return parent_edge;
      queue.push_back(next);
    }
  }
  return parent_edge;
}

/// The search tree's edge path from its root `from` to the reached `to`.
std::vector<uint32_t> TreePath(const PositionGraph& graph,
                               const std::vector<int64_t>& parent_edge,
                               uint32_t from, uint32_t to) {
  std::vector<uint32_t> path;
  for (uint32_t at = to; at != from;) {
    uint32_t e = static_cast<uint32_t>(parent_edge[at]);
    path.push_back(e);
    at = graph.edges[e].from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// Closed walk through edge `se`: `se`, then the BFS path back from its
/// head to its tail. Empty when `se` lies on no cycle.
std::vector<uint32_t> CloseWalkThrough(const PositionGraph& graph,
                                       uint32_t se) {
  uint32_t head = graph.edges[se].to;
  uint32_t tail = graph.edges[se].from;
  std::vector<uint32_t> walk{se};
  if (head == tail) return walk;
  std::vector<int64_t> parent_edge = BfsTree(graph, head, tail);
  if (parent_edge[tail] < 0) return {};
  std::vector<uint32_t> back = TreePath(graph, parent_edge, head, tail);
  walk.insert(walk.end(), back.begin(), back.end());
  return walk;
}

/// Strongly connected components of the position graph (iterative
/// Tarjan). Returns the component id per node; ids number the components
/// in reverse topological order (every component only reaches lower ids).
std::vector<uint32_t> ComputeSccs(const PositionGraph& graph) {
  uint32_t n = static_cast<uint32_t>(graph.nodes.size());
  std::vector<uint32_t> scc(n, 0);
  std::vector<uint32_t> index(n, UINT32_MAX);
  std::vector<uint32_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> stack;
  uint32_t next_index = 0;
  uint32_t next_scc = 0;
  for (uint32_t root = 0; root < n; ++root) {
    if (index[root] != UINT32_MAX) continue;
    // Explicit frames (node, next out-edge slot): the graph can be as
    // deep as the program is long, so no recursion.
    std::vector<std::pair<uint32_t, size_t>> frames{{root, 0}};
    while (!frames.empty()) {
      uint32_t v = frames.back().first;
      if (frames.back().second == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      bool descended = false;
      while (frames.back().second < graph.out_edges[v].size()) {
        uint32_t w = graph.edges[graph.out_edges[v][frames.back().second]].to;
        ++frames.back().second;
        if (index[w] == UINT32_MAX) {
          frames.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        for (;;) {
          uint32_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          scc[w] = next_scc;
          if (w == v) break;
        }
        ++next_scc;
      }
      frames.pop_back();
      if (!frames.empty()) {
        uint32_t parent = frames.back().first;
        low[parent] = std::min(low[parent], low[v]);
      }
    }
  }
  return scc;
}

/// The strongly connected components of the position graph, and the
/// generating ones among them: a component is generating when a special
/// edge lies inside it, i.e. on a cycle.
struct Components {
  std::vector<uint32_t> scc;  // component id per node (see ComputeSccs)
  uint32_t count = 0;
  /// Generating component -> its smallest in-component special edge.
  std::map<uint32_t, uint32_t> generating;
};

Components FindComponents(const PositionGraph& graph) {
  Components out;
  out.scc = ComputeSccs(graph);
  for (uint32_t id : out.scc) out.count = std::max(out.count, id + 1);
  for (uint32_t e = 0; e < graph.edges.size(); ++e) {
    const PositionEdge& edge = graph.edges[e];
    if (edge.special && out.scc[edge.from] == out.scc[edge.to]) {
      out.generating.emplace(out.scc[edge.from], e);
    }
  }
  return out;
}

CriterionVerdict JudgeWeaklyAcyclic(const PositionGraph& graph,
                                    const Components& components) {
  CriterionVerdict v{Criterion::kWeaklyAcyclic, true, {}};
  if (components.generating.empty()) return v;
  // A special edge closes a walk iff it lies inside a component, so the
  // smallest in-component special edge is the first special edge with a
  // closed walk, and the witness walks through it.
  uint32_t smallest = UINT32_MAX;
  for (const auto& [component, edge] : components.generating) {
    smallest = std::min(smallest, edge);
  }
  v.holds = false;
  v.witness = CycleWitness{CloseWalkThrough(graph, smallest)};
  return v;
}

CriterionVerdict JudgeSticky(const std::vector<RuleTable>& tables,
                             const StickyMarking& marking, bool join_only) {
  CriterionVerdict v{join_only ? Criterion::kStickyJoin : Criterion::kSticky,
                     true,
                     {}};
  for (uint32_t r = 0; r < tables.size(); ++r) {
    for (const auto& [var, body_var] : tables[r]) {
      const auto& occurrences = body_var.occurrences;
      if (occurrences.size() < 2 || !marking.IsMarked(r, var)) continue;
      if (join_only) {
        // Sticky-join tolerates repeats inside a single atom (a selection,
        // compilable away); only a repeat across two atoms is a join.
        for (size_t i = 1; i < occurrences.size(); ++i) {
          if (occurrences[i].first != occurrences[0].first) {
            v.holds = false;
            v.witness = StickyWitness{r, var, occurrences[0].first,
                                      occurrences[0].second,
                                      occurrences[i].first,
                                      occurrences[i].second};
            return v;
          }
        }
      } else {
        v.holds = false;
        v.witness = StickyWitness{r, var, occurrences[0].first,
                                  occurrences[0].second,
                                  occurrences[1].first,
                                  occurrences[1].second};
        return v;
      }
    }
  }
  return v;
}

/// Triangular guardedness (after Asuncion–Zhang). A triangular component
/// is an SCC of the position graph containing a special edge — a loop
/// that keeps re-generating nulls. The criterion holds when every such
/// component obeys at least one repair discipline:
///   (b) guarded: every rule with an edge inside the component has one
///       body atom covering all its component-dangerous variables (body
///       variables bound only at affected positions, at least one of them
///       inside the component);
///   (c) sticky: no marked variable of a component rule joins two
///       component positions across distinct body atoms.
/// Weak acyclicity (no triangular components at all), weak guardedness
/// (the global guard covers every component subset) and sticky-join (no
/// cross-atom marked join anywhere) each imply it.
CriterionVerdict JudgeTriangularlyGuarded(
    const TermArena& arena, const std::vector<AnalyzedRule>& rules,
    const std::vector<RuleTable>& tables, const PositionGraph& graph,
    const Components& components, const AffectedAnalysis& affected,
    const StickyMarking& marking) {
  CriterionVerdict v{Criterion::kTriangularlyGuarded, true, {}};
  const std::vector<uint32_t>& scc = components.scc;
  // Per component, the rules with an edge inside it.
  std::vector<std::set<uint32_t>> touching(components.count);
  for (const PositionEdge& edge : graph.edges) {
    if (scc[edge.from] == scc[edge.to]) {
      touching[scc[edge.from]].insert(edge.rule);
    }
  }
  for (const auto& [component, special_edge] : components.generating) {
    auto in_component = [&](const Position& p) {
      auto it = graph.node_index.find(p);
      return it != graph.node_index.end() && scc[it->second] == component;
    };
    // Discipline (b): guard the component-dangerous variables.
    std::optional<GuardWitness> guard_fail;
    for (uint32_t r : touching[component]) {
      std::set<VariableId> must_guard;
      for (const auto& [var, body_var] : tables[r]) {
        if (AllAffected(affected, body_var) &&
            std::any_of(body_var.positions.begin(), body_var.positions.end(),
                        in_component)) {
          must_guard.insert(var);
        }
      }
      if (must_guard.empty()) continue;
      std::vector<VariableId> missing;
      if (FindGuard(arena, rules[r].part, must_guard, &missing)) continue;
      guard_fail = GuardWitness{
          r, {must_guard.begin(), must_guard.end()}, std::move(missing)};
      break;
    }
    if (!guard_fail.has_value()) continue;
    // Discipline (c): no marked cross-atom join on component positions.
    std::optional<StickyWitness> join_fail;
    for (uint32_t r : touching[component]) {
      const SoPart& part = rules[r].part;
      for (const auto& [var, body_var] : tables[r]) {
        const auto& occurrences = body_var.occurrences;
        if (occurrences.size() < 2 || !marking.IsMarked(r, var)) continue;
        for (size_t i = 0; i < occurrences.size() && !join_fail; ++i) {
          const auto& [a1, g1] = occurrences[i];
          if (!in_component({part.body[a1].relation, g1})) continue;
          for (size_t j = i + 1; j < occurrences.size(); ++j) {
            const auto& [a2, g2] = occurrences[j];
            if (a2 == a1) continue;
            if (!in_component({part.body[a2].relation, g2})) continue;
            join_fail = StickyWitness{r, var, a1, g1, a2, g2};
            break;
          }
        }
        if (join_fail) break;
      }
      if (join_fail) break;
    }
    if (!join_fail.has_value()) continue;
    // Both disciplines fail: the component is an unguarded triangle.
    TriangleWitness witness;
    for (uint32_t node = 0; node < graph.nodes.size(); ++node) {
      if (scc[node] == component) witness.component.push_back(node);
    }
    witness.cycle = CloseWalkThrough(graph, special_edge);
    witness.guard = std::move(*guard_fail);
    witness.join = std::move(*join_fail);
    v.holds = false;
    v.witness = std::move(witness);
    return v;
  }
  return v;
}

/// The structural complexity bound. Generating SCC = one containing a
/// special edge. None: the graph is weakly acyclic, the chase is
/// polynomial with null depth bounded by the special-edge rank. Some, but
/// none reaching another: one self-feeding generation stage —
/// exponential. A generating SCC feeding a second one: stacked generation
/// stages — non-elementary.
ComplexityBound BuildComplexity(const PositionGraph& graph,
                                const Components& components) {
  ComplexityBound out;
  const std::vector<uint32_t>& scc = components.scc;
  if (components.generating.empty()) {
    out.tier = ComplexityTier::kPolynomial;
    // Rank per SCC: max special edges on any path leaving it. Tarjan ids
    // are reverse-topological, so every successor SCC is already final
    // when its predecessors are folded in. Track the realizing edge; ties
    // go to the first edge in ascending (source SCC, edge) order.
    if (components.count == 0) return out;
    std::vector<std::vector<uint32_t>> leaving(components.count);
    for (uint32_t e = 0; e < graph.edges.size(); ++e) {
      const PositionEdge& edge = graph.edges[e];
      if (scc[edge.from] != scc[edge.to]) leaving[scc[edge.from]].push_back(e);
    }
    std::vector<uint32_t> rank(components.count, 0);
    std::vector<int64_t> via_edge(components.count, -1);
    for (uint32_t c = 0; c < components.count; ++c) {
      for (uint32_t e : leaving[c]) {
        const PositionEdge& edge = graph.edges[e];
        uint32_t reach = rank[scc[edge.to]] + (edge.special ? 1 : 0);
        if (reach > rank[c]) {
          rank[c] = reach;
          via_edge[c] = e;
        }
      }
    }
    uint32_t best = 0;
    for (uint32_t c = 0; c < components.count; ++c) {
      if (rank[c] > rank[best]) best = c;
    }
    out.rank = rank[best];
    for (uint32_t c = best; via_edge[c] >= 0;) {
      uint32_t e = static_cast<uint32_t>(via_edge[c]);
      if (graph.edges[e].special) out.rank_path.push_back(e);
      c = scc[graph.edges[e].to];
    }
    return out;
  }
  // Does any generating SCC feed a different one? One search from each,
  // in ascending id order; the first (c1, c2) pair found, c2 ascending,
  // is the witness, and its link is the search tree's path.
  for (const auto& [c1, e1] : components.generating) {
    uint32_t root = graph.edges[e1].to;
    std::vector<int64_t> parent_edge = BfsTree(graph, root);
    for (const auto& [c2, e2] : components.generating) {
      uint32_t target = graph.edges[e2].from;
      if (c2 == c1 || parent_edge[target] < 0) continue;
      out.tier = ComplexityTier::kNonElementary;
      out.cycle = CloseWalkThrough(graph, e1);
      out.link = TreePath(graph, parent_edge, root, target);
      out.cycle2 = CloseWalkThrough(graph, e2);
      return out;
    }
  }
  out.tier = ComplexityTier::kExponential;
  out.cycle = CloseWalkThrough(graph, components.generating.begin()->second);
  return out;
}

}  // namespace

const char* CriterionName(Criterion criterion) {
  switch (criterion) {
    case Criterion::kFull:
      return "full";
    case Criterion::kWeaklyAcyclic:
      return "weakly-acyclic";
    case Criterion::kLinear:
      return "linear";
    case Criterion::kGuarded:
      return "guarded";
    case Criterion::kWeaklyGuarded:
      return "weakly-guarded";
    case Criterion::kSticky:
      return "sticky";
    case Criterion::kStickyJoin:
      return "sticky-join";
    case Criterion::kTriangularlyGuarded:
      return "triangularly-guarded";
  }
  return "?";
}

Figure2Membership ProgramAnalysis::Membership() const {
  Figure2Membership m;
  m.full = verdict(Criterion::kFull).holds;
  m.weakly_acyclic = verdict(Criterion::kWeaklyAcyclic).holds;
  m.linear = verdict(Criterion::kLinear).holds;
  m.guarded = verdict(Criterion::kGuarded).holds;
  m.weakly_guarded = verdict(Criterion::kWeaklyGuarded).holds;
  m.sticky = verdict(Criterion::kSticky).holds;
  m.sticky_join = verdict(Criterion::kStickyJoin).holds;
  m.triangularly_guarded = verdict(Criterion::kTriangularlyGuarded).holds;
  return m;
}

ProgramAnalysis AnalyzeRules(const TermArena& arena,
                             std::vector<AnalyzedRule> rules) {
  ProgramAnalysis analysis;
  analysis.arena = &arena;
  analysis.rules = std::move(rules);
  std::vector<RuleTable> tables;
  tables.reserve(analysis.rules.size());
  for (const AnalyzedRule& rule : analysis.rules) {
    tables.push_back(BuildRuleTable(arena, rule.part));
  }
  analysis.graph = BuildPositionGraph(analysis.rules, tables);
  analysis.affected = BuildAffected(arena, analysis.rules, tables);
  analysis.marking = BuildMarking(arena, analysis.rules, tables);
  Components components = FindComponents(analysis.graph);
  analysis.verdicts.push_back(JudgeFull(arena, analysis.rules));
  analysis.verdicts.push_back(JudgeWeaklyAcyclic(analysis.graph, components));
  analysis.verdicts.push_back(JudgeLinear(analysis.rules));
  analysis.verdicts.push_back(JudgeGuarded(arena, analysis.rules));
  analysis.verdicts.push_back(
      JudgeWeaklyGuarded(arena, analysis.rules, tables, analysis.affected));
  analysis.verdicts.push_back(JudgeSticky(tables, analysis.marking, false));
  analysis.verdicts.push_back(JudgeSticky(tables, analysis.marking, true));
  analysis.verdicts.push_back(JudgeTriangularlyGuarded(
      arena, analysis.rules, tables, analysis.graph, components,
      analysis.affected, analysis.marking));
  analysis.complexity = BuildComplexity(analysis.graph, components);
  return analysis;
}

ProgramAnalysis AnalyzeSo(const TermArena& arena, const SoTgd& so) {
  // One synthetic statement: unlabeled ("#1") and without a span.
  return AnalyzeRules(arena, StatementRules(ParsedDependency{}, 0, so));
}

std::string StatementLabel(const ParsedDependency& dep, size_t index) {
  return dep.label.empty() ? Cat("#", index + 1) : dep.label;
}

SoTgd SkolemizeStatement(TermArena* arena, Vocabulary* vocab,
                         const ParsedDependency& dep) {
  switch (dep.kind) {
    case ParsedDependency::Kind::kTgd:
      return TgdToSo(arena, vocab, dep.tgd);
    case ParsedDependency::Kind::kSo:
      return dep.so;
    case ParsedDependency::Kind::kNested:
      return NestedToSo(arena, vocab, dep.nested);
    case ParsedDependency::Kind::kHenkin:
      return HenkinToSo(arena, vocab, dep.henkin);
  }
  return {};
}

SoTgd SkolemizeProgram(TermArena* arena, Vocabulary* vocab,
                       const DependencyProgram& program) {
  // Fresh Skolem function names are numbered in the order statements are
  // Skolemized, and `explain` prints them: keep the kind-major order.
  using Kind = ParsedDependency::Kind;
  std::vector<SoTgd> pieces;
  for (Kind kind : {Kind::kTgd, Kind::kHenkin, Kind::kNested, Kind::kSo}) {
    for (const ParsedDependency& dep : program.dependencies) {
      if (dep.kind == kind) {
        pieces.push_back(SkolemizeStatement(arena, vocab, dep));
      }
    }
  }
  return MergeSo(pieces);
}

std::vector<AnalyzedRule> StatementRules(const ParsedDependency& dep,
                                         uint32_t index, const SoTgd& so) {
  std::vector<AnalyzedRule> rules;
  for (uint32_t j = 0; j < so.parts.size(); ++j) {
    AnalyzedRule rule;
    rule.part = so.parts[j];
    rule.dep_index = index;
    rule.part_index = j;
    rule.label = StatementLabel(dep, index);
    rule.line = dep.line;
    rule.column = dep.column;
    rules.push_back(std::move(rule));
  }
  return rules;
}

ProgramAnalysis AnalyzeProgram(TermArena* arena, Vocabulary* vocab,
                               const DependencyProgram& program) {
  std::vector<AnalyzedRule> rules;
  for (uint32_t i = 0; i < program.dependencies.size(); ++i) {
    const ParsedDependency& dep = program.dependencies[i];
    std::vector<AnalyzedRule> statement =
        StatementRules(dep, i, SkolemizeStatement(arena, vocab, dep));
    std::move(statement.begin(), statement.end(), std::back_inserter(rules));
  }
  return AnalyzeRules(*arena, std::move(rules));
}

// ---------------------------------------------------------------------------
// Replay

namespace {

Status Fail(const std::string& what) {
  return Status::InvalidArgument(Cat("witness replay failed: ", what));
}

Status ReplayFull(const TermArena& arena, const ProgramAnalysis& analysis,
                  const FullWitness& w) {
  if (w.rule >= analysis.rules.size()) return Fail("rule out of range");
  const SoPart& part = analysis.rules[w.rule].part;
  if (w.equality) {
    if (part.equalities.empty()) return Fail("rule has no equalities");
    return Status::Ok();
  }
  if (w.head_atom >= part.head.size()) return Fail("head atom out of range");
  const Atom& atom = part.head[w.head_atom];
  if (w.head_arg >= atom.args.size()) return Fail("head arg out of range");
  TermId t = atom.args[w.head_arg];
  if (t != w.term) return Fail("term does not match head occurrence");
  if (!arena.IsFunction(t) && !arena.HasNestedFunction(t)) {
    return Fail("cited term is not functional");
  }
  return Status::Ok();
}

Status ReplayLinear(const ProgramAnalysis& analysis, const LinearWitness& w) {
  if (w.rule >= analysis.rules.size()) return Fail("rule out of range");
  size_t atoms = analysis.rules[w.rule].part.body.size();
  if (atoms != w.body_atoms) return Fail("body atom count mismatch");
  if (atoms == 1) return Fail("rule is linear after all");
  return Status::Ok();
}

Status ReplayGuard(const TermArena& arena, const ProgramAnalysis& analysis,
                   const GuardWitness& w, bool weakly) {
  if (w.rule >= analysis.rules.size()) return Fail("rule out of range");
  const SoPart& part = analysis.rules[w.rule].part;
  if (w.required.empty()) return Fail("empty required set");
  std::set<VariableId> required(w.required.begin(), w.required.end());
  std::set<VariableId> body_vars = BodyVariables(arena, part);
  for (VariableId v : required) {
    if (!body_vars.count(v)) return Fail("required variable not in body");
  }
  if (!weakly && required != body_vars) {
    return Fail("guarded witness must require every body variable");
  }
  if (weakly) {
    // Every required variable must occur only at affected positions.
    auto positions = BodyPositions(arena, part);
    for (VariableId v : required) {
      for (const Position& p : positions[v]) {
        if (!analysis.affected.affected.count(p)) {
          return Fail("required variable occurs at an unaffected position");
        }
      }
    }
  }
  if (w.missing.size() != part.body.size()) {
    return Fail("missing list must cover every body atom");
  }
  for (uint32_t a = 0; a < part.body.size(); ++a) {
    VariableId absent = w.missing[a];
    if (!required.count(absent)) return Fail("missing variable not required");
    std::set<VariableId> atom_vars;
    for (TermId t : part.body[a].args) TermVariables(arena, t, &atom_vars);
    if (atom_vars.count(absent)) {
      return Fail("cited variable actually occurs in the atom");
    }
  }
  return Status::Ok();
}

Status ReplayCycle(const ProgramAnalysis& analysis, const CycleWitness& w) {
  if (w.edges.empty()) return Fail("empty cycle");
  const PositionGraph& graph = analysis.graph;
  bool has_special = false;
  for (size_t i = 0; i < w.edges.size(); ++i) {
    if (w.edges[i] >= graph.edges.size()) return Fail("edge out of range");
    const PositionEdge& edge = graph.edges[w.edges[i]];
    has_special |= edge.special;
    const PositionEdge& next =
        graph.edges[w.edges[(i + 1) % w.edges.size()]];
    if (edge.to != next.from) return Fail("cycle edges do not chain");
  }
  if (!has_special) return Fail("cycle has no special edge");
  return Status::Ok();
}

Status ReplaySticky(const TermArena& arena, const ProgramAnalysis& analysis,
                    const StickyWitness& w, bool join_only) {
  if (w.rule >= analysis.rules.size()) return Fail("rule out of range");
  const SoPart& part = analysis.rules[w.rule].part;
  auto occurrence_is_var = [&](uint32_t atom, uint32_t arg) {
    if (atom >= part.body.size()) return false;
    if (arg >= part.body[atom].args.size()) return false;
    TermId t = part.body[atom].args[arg];
    return arena.IsVariable(t) && arena.symbol(t) == w.var;
  };
  if (!occurrence_is_var(w.atom1, w.arg1) ||
      !occurrence_is_var(w.atom2, w.arg2)) {
    return Fail("cited occurrence does not hold the variable");
  }
  if (w.atom1 == w.atom2 && w.arg1 == w.arg2) {
    return Fail("witness cites one occurrence twice");
  }
  if (join_only && w.atom1 == w.atom2) {
    return Fail("sticky-join witness must span two atoms");
  }
  if (!analysis.marking.IsMarked(w.rule, w.var)) {
    return Fail("variable is not marked in the rule");
  }
  // Replay the marking derivation itself.
  const MarkReason& reason =
      analysis.marking.marked_vars[w.rule].at(w.var);
  if (reason.kind == MarkReason::Kind::kDropped) {
    if (reason.head_atom >= part.head.size()) {
      return Fail("mark reason head atom out of range");
    }
    if (OccursTopLevel(arena, w.var, part.head[reason.head_atom])) {
      return Fail("mark reason claims a drop but the head keeps the variable");
    }
  } else {
    if (reason.head_atom >= part.head.size()) {
      return Fail("mark reason head atom out of range");
    }
    const Atom& atom = part.head[reason.head_atom];
    if (reason.head_arg >= atom.args.size()) {
      return Fail("mark reason head arg out of range");
    }
    TermId t = atom.args[reason.head_arg];
    if (!arena.IsVariable(t) || arena.symbol(t) != w.var) {
      return Fail("mark reason head occurrence does not hold the variable");
    }
    if (Position{atom.relation, reason.head_arg} != reason.via) {
      return Fail("mark reason position mismatch");
    }
    if (!analysis.marking.marked_positions.count(reason.via)) {
      return Fail("mark reason cites an unmarked position");
    }
    // The via position must hold a marked occurrence somewhere.
    bool justified = false;
    for (uint32_t r = 0; r < analysis.rules.size() && !justified; ++r) {
      for (const auto& [var, positions] :
           BodyPositions(arena, analysis.rules[r].part)) {
        if (positions.count(reason.via) &&
            analysis.marking.IsMarked(r, var)) {
          justified = true;
          break;
        }
      }
    }
    if (!justified) {
      return Fail("no marked occurrence justifies the via position");
    }
  }
  return Status::Ok();
}

Status ReplayTriangle(const TermArena& arena, const ProgramAnalysis& analysis,
                      const TriangleWitness& w) {
  const PositionGraph& graph = analysis.graph;
  if (w.component.empty()) return Fail("empty triangular component");
  for (uint32_t node : w.component) {
    if (node >= graph.nodes.size()) return Fail("component node out of range");
  }
  // The component must be exactly one strongly connected component.
  std::vector<uint32_t> scc = ComputeSccs(graph);
  uint32_t id = scc[w.component.front()];
  std::set<uint32_t> expected;
  for (uint32_t node = 0; node < graph.nodes.size(); ++node) {
    if (scc[node] == id) expected.insert(node);
  }
  if (std::set<uint32_t>(w.component.begin(), w.component.end()) != expected) {
    return Fail("component is not a strongly connected component");
  }
  auto in_component = [&](const Position& p) {
    auto it = graph.node_index.find(p);
    return it != graph.node_index.end() && scc[it->second] == id;
  };
  auto touches = [&](uint32_t rule) {
    for (const PositionEdge& edge : graph.edges) {
      if (edge.rule == rule && scc[edge.from] == id && scc[edge.to] == id) {
        return true;
      }
    }
    return false;
  };
  // Side 1: a closed walk through a special edge, inside the component.
  Status cycle_status = ReplayCycle(analysis, CycleWitness{w.cycle});
  if (!cycle_status.ok()) return cycle_status;
  for (uint32_t e : w.cycle) {
    if (scc[graph.edges[e].from] != id || scc[graph.edges[e].to] != id) {
      return Fail("cycle leaves the component");
    }
  }
  // Side 2: the guard failure, with every required variable dangerous
  // (affected-only) and touching the component.
  Status guard_status = ReplayGuard(arena, analysis, w.guard, /*weakly=*/true);
  if (!guard_status.ok()) return guard_status;
  if (!touches(w.guard.rule)) {
    return Fail("guard rule has no edge inside the component");
  }
  {
    auto positions = BodyPositions(arena, analysis.rules[w.guard.rule].part);
    for (VariableId var : w.guard.required) {
      bool touching = std::any_of(positions[var].begin(),
                                  positions[var].end(), in_component);
      if (!touching) {
        return Fail("required variable never touches the component");
      }
    }
  }
  // Side 3: the marked cross-atom join, both ends on component positions.
  Status join_status =
      ReplaySticky(arena, analysis, w.join, /*join_only=*/true);
  if (!join_status.ok()) return join_status;
  if (!touches(w.join.rule)) {
    return Fail("join rule has no edge inside the component");
  }
  const SoPart& join_part = analysis.rules[w.join.rule].part;
  if (!in_component({join_part.body[w.join.atom1].relation, w.join.arg1}) ||
      !in_component({join_part.body[w.join.atom2].relation, w.join.arg2})) {
    return Fail("join occurrence lies outside the component");
  }
  return Status::Ok();
}

}  // namespace

Status ReplayComplexity(const ProgramAnalysis& analysis) {
  const PositionGraph& graph = analysis.graph;
  const ComplexityBound& c = analysis.complexity;
  ComplexityBound fresh = BuildComplexity(graph, FindComponents(graph));
  if (fresh.tier != c.tier) return Fail("tier does not match the graph");
  auto closed_special_walk = [&](const std::vector<uint32_t>& walk) {
    return ReplayCycle(analysis, CycleWitness{walk});
  };
  switch (c.tier) {
    case ComplexityTier::kPolynomial: {
      if (fresh.rank != c.rank) return Fail("rank does not match the graph");
      if (c.rank_path.size() != c.rank) {
        return Fail("rank path does not realize the rank");
      }
      for (size_t i = 0; i < c.rank_path.size(); ++i) {
        if (c.rank_path[i] >= graph.edges.size()) {
          return Fail("rank path edge out of range");
        }
        if (!graph.edges[c.rank_path[i]].special) {
          return Fail("rank path cites a non-special edge");
        }
        if (i == 0) continue;
        uint32_t from = graph.edges[c.rank_path[i - 1]].to;
        uint32_t to = graph.edges[c.rank_path[i]].from;
        if (from != to && BfsTree(graph, from, to)[to] < 0) {
          return Fail("rank path special edges do not chain");
        }
      }
      return Status::Ok();
    }
    case ComplexityTier::kExponential:
      return closed_special_walk(c.cycle);
    case ComplexityTier::kNonElementary: {
      Status status = closed_special_walk(c.cycle);
      if (!status.ok()) return status;
      status = closed_special_walk(c.cycle2);
      if (!status.ok()) return status;
      if (c.link.empty()) return Fail("missing link between the cycles");
      std::vector<uint32_t> scc = ComputeSccs(graph);
      uint32_t first = scc[graph.edges[c.cycle.front()].from];
      uint32_t second = scc[graph.edges[c.cycle2.front()].from];
      if (first == second) {
        return Fail("cycles share a strongly connected component");
      }
      std::set<uint32_t> on_first, on_second;
      for (uint32_t e : c.cycle) {
        on_first.insert(graph.edges[e].from);
        on_first.insert(graph.edges[e].to);
      }
      for (uint32_t e : c.cycle2) {
        on_second.insert(graph.edges[e].from);
        on_second.insert(graph.edges[e].to);
      }
      for (size_t i = 0; i < c.link.size(); ++i) {
        if (c.link[i] >= graph.edges.size()) {
          return Fail("link edge out of range");
        }
        if (i > 0 &&
            graph.edges[c.link[i - 1]].to != graph.edges[c.link[i]].from) {
          return Fail("link edges do not chain");
        }
      }
      if (!on_first.count(graph.edges[c.link.front()].from)) {
        return Fail("link does not start on the first cycle");
      }
      if (!on_second.count(graph.edges[c.link.back()].to)) {
        return Fail("link does not land on the second cycle");
      }
      return Status::Ok();
    }
  }
  return Fail("unknown complexity tier");
}

Status ReplayWitness(const TermArena& arena, const ProgramAnalysis& analysis,
                     const CriterionVerdict& verdict) {
  if (verdict.holds) {
    if (!std::holds_alternative<std::monostate>(verdict.witness)) {
      return Fail("positive verdict carries a witness");
    }
    return Status::Ok();
  }
  switch (verdict.criterion) {
    case Criterion::kFull:
      return ReplayFull(arena, analysis,
                        std::get<FullWitness>(verdict.witness));
    case Criterion::kLinear:
      return ReplayLinear(analysis,
                          std::get<LinearWitness>(verdict.witness));
    case Criterion::kGuarded:
      return ReplayGuard(arena, analysis,
                         std::get<GuardWitness>(verdict.witness), false);
    case Criterion::kWeaklyGuarded:
      return ReplayGuard(arena, analysis,
                         std::get<GuardWitness>(verdict.witness), true);
    case Criterion::kWeaklyAcyclic:
      return ReplayCycle(analysis, std::get<CycleWitness>(verdict.witness));
    case Criterion::kSticky:
      return ReplaySticky(arena, analysis,
                          std::get<StickyWitness>(verdict.witness), false);
    case Criterion::kStickyJoin:
      return ReplaySticky(arena, analysis,
                          std::get<StickyWitness>(verdict.witness), true);
    case Criterion::kTriangularlyGuarded:
      return ReplayTriangle(arena, analysis,
                            std::get<TriangleWitness>(verdict.witness));
  }
  return Fail("unknown criterion");
}

Status ReplayAllWitnesses(const TermArena& arena,
                          const ProgramAnalysis& analysis) {
  for (const CriterionVerdict& verdict : analysis.verdicts) {
    Status status = ReplayWitness(arena, analysis, verdict);
    if (!status.ok()) {
      return Status::InvalidArgument(
          Cat(CriterionName(verdict.criterion), ": ", status.ToString()));
    }
  }
  Status status = ReplayComplexity(analysis);
  if (!status.ok()) {
    return Status::InvalidArgument(Cat("complexity: ", status.ToString()));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Rendering

namespace {

std::string PositionName(const Vocabulary& vocab, const Position& p) {
  return Cat(vocab.RelationName(p.first), ".", p.second);
}

std::string RuleRef(const ProgramAnalysis& analysis, uint32_t rule) {
  const AnalyzedRule& r = analysis.rules[rule];
  std::string out = Cat("rule ", r.label);
  bool multi_part = r.part_index > 0 ||
                    (rule + 1 < analysis.rules.size() &&
                     analysis.rules[rule + 1].dep_index == r.dep_index);
  if (multi_part) out += Cat("/", r.part_index + 1);
  return out;
}

std::string WalkToString(const Vocabulary& vocab,
                         const ProgramAnalysis& analysis,
                         const std::vector<uint32_t>& edges) {
  std::string out;
  for (size_t i = 0; i < edges.size(); ++i) {
    const PositionEdge& edge = analysis.graph.edges[edges[i]];
    if (i == 0) out += PositionName(vocab, analysis.graph.nodes[edge.from]);
    out += edge.special ? " -*-> " : " -> ";
    out += PositionName(vocab, analysis.graph.nodes[edge.to]);
  }
  return out;
}

}  // namespace

std::string ExplainAffected(const Vocabulary& vocab,
                            const ProgramAnalysis& analysis,
                            const Position& position) {
  std::string out;
  std::set<Position> visited;
  Position at = position;
  const TermArena* arena = analysis.arena;
  for (;;) {
    auto it = analysis.affected.reasons.find(at);
    if (it == analysis.affected.reasons.end()) {
      return out + Cat(PositionName(vocab, at), " (unexplained)");
    }
    if (!visited.insert(at).second) return out + "(cycle)";
    const AffectedReason& reason = it->second;
    if (reason.kind == AffectedReason::Kind::kFunctionalHead ||
        arena == nullptr) {
      return out + Cat(PositionName(vocab, at),
                       " receives a functional term in ",
                       RuleRef(analysis, reason.rule));
    }
    out += Cat(PositionName(vocab, at), " <- variable ",
               vocab.VariableName(reason.var), " of ",
               RuleRef(analysis, reason.rule),
               " bound only at affected positions, e.g. ");
    // Continue through one of the variable's body positions (all affected
    // by construction; pick the smallest for determinism).
    auto positions =
        BodyPositions(*arena, analysis.rules[reason.rule].part)[reason.var];
    if (positions.empty()) return out + "(none)";
    at = *positions.begin();
  }
}

std::string ExplainMarked(const Vocabulary& vocab,
                          const ProgramAnalysis& analysis, uint32_t rule,
                          VariableId var) {
  std::string out;
  std::set<std::pair<uint32_t, VariableId>> visited;
  uint32_t r = rule;
  VariableId v = var;
  for (;;) {
    if (!analysis.marking.IsMarked(r, v)) {
      return out +
             Cat(vocab.VariableName(v), " unmarked in ", RuleRef(analysis, r));
    }
    if (!visited.insert({r, v}).second) return out + "(cycle)";
    const MarkReason& reason = analysis.marking.marked_vars[r].at(v);
    if (reason.kind == MarkReason::Kind::kDropped) {
      return out + Cat(vocab.VariableName(v), " dropped from head atom ",
                       reason.head_atom + 1, " of ", RuleRef(analysis, r));
    }
    out += Cat(vocab.VariableName(v), " of ", RuleRef(analysis, r),
               " flows into marked position ", PositionName(vocab, reason.via),
               " <- ");
    // Chain on to a marked occurrence justifying `via`.
    bool found = false;
    if (analysis.arena != nullptr) {
      for (uint32_t r2 = 0; r2 < analysis.rules.size() && !found; ++r2) {
        for (const auto& [v2, positions] :
             BodyPositions(*analysis.arena, analysis.rules[r2].part)) {
          if (positions.count(reason.via) && analysis.marking.IsMarked(r2, v2)) {
            r = r2;
            v = v2;
            found = true;
            break;
          }
        }
      }
    }
    if (!found) return out + "(marked occurrence)";
  }
}

std::string WitnessToString(const TermArena& arena, const Vocabulary& vocab,
                            const ProgramAnalysis& analysis,
                            const CriterionVerdict& verdict) {
  if (verdict.holds) return "";
  if (const auto* w = std::get_if<FullWitness>(&verdict.witness)) {
    if (w->equality) {
      return Cat(RuleRef(analysis, w->rule), ": body carries an equality");
    }
    const Atom& atom = analysis.rules[w->rule].part.head[w->head_atom];
    return Cat(RuleRef(analysis, w->rule), ": functional term ",
               arena.ToString(w->term, vocab), " at ",
               PositionName(vocab, {atom.relation, w->head_arg}));
  }
  if (const auto* w = std::get_if<LinearWitness>(&verdict.witness)) {
    return Cat(RuleRef(analysis, w->rule), ": body has ", w->body_atoms,
               " atoms (linear needs exactly 1)");
  }
  if (const auto* w = std::get_if<GuardWitness>(&verdict.witness)) {
    const SoPart& part = analysis.rules[w->rule].part;
    std::string vars = JoinMapped(w->required, ", ", [&](VariableId v) {
      return vocab.VariableName(v);
    });
    std::string out = Cat(RuleRef(analysis, w->rule),
                          ": no body atom covers {", vars, "}");
    for (uint32_t a = 0; a < w->missing.size() && a < part.body.size(); ++a) {
      out += Cat("; ", ToString(arena, vocab, part.body[a]), " misses ",
                 vocab.VariableName(w->missing[a]));
    }
    return out;
  }
  if (const auto* w = std::get_if<CycleWitness>(&verdict.witness)) {
    std::string out = Cat("cycle ", WalkToString(vocab, analysis, w->edges));
    std::set<std::string> labels;
    for (uint32_t e : w->edges) {
      labels.insert(analysis.rules[analysis.graph.edges[e].rule].label);
    }
    out += Cat(" (rules ", JoinMapped(labels, ", ", [](const std::string& l) {
                 return l;
               }),
               ")");
    return out;
  }
  if (const auto* w = std::get_if<StickyWitness>(&verdict.witness)) {
    const SoPart& part = analysis.rules[w->rule].part;
    return Cat(RuleRef(analysis, w->rule), ": marked variable ",
               vocab.VariableName(w->var), " joins ",
               PositionName(vocab,
                            {part.body[w->atom1].relation, w->arg1}),
               " and ",
               PositionName(vocab,
                            {part.body[w->atom2].relation, w->arg2}),
               " (", ExplainMarked(vocab, analysis, w->rule, w->var), ")");
  }
  if (const auto* w = std::get_if<TriangleWitness>(&verdict.witness)) {
    std::string nodes = JoinMapped(w->component, ", ", [&](uint32_t n) {
      return PositionName(vocab, analysis.graph.nodes[n]);
    });
    // Render the two discipline failures by reusing the guard and sticky
    // printers through synthetic negative verdicts.
    CriterionVerdict guard{Criterion::kWeaklyGuarded, false, w->guard};
    CriterionVerdict join{Criterion::kStickyJoin, false, w->join};
    return Cat("triangular component {", nodes, "} with cycle ",
               WalkToString(vocab, analysis, w->cycle), "; unguarded: ",
               WitnessToString(arena, vocab, analysis, guard),
               "; unsticky: ",
               WitnessToString(arena, vocab, analysis, join));
  }
  return "";
}

std::string ComplexityToString(const Vocabulary& vocab,
                               const ProgramAnalysis& analysis) {
  const ComplexityBound& c = analysis.complexity;
  switch (c.tier) {
    case ComplexityTier::kPolynomial: {
      if (c.rank_path.empty()) return Cat("polynomial (rank ", c.rank, ")");
      std::string path = JoinMapped(c.rank_path, " => ", [&](uint32_t e) {
        const PositionEdge& edge = analysis.graph.edges[e];
        return Cat(PositionName(vocab, analysis.graph.nodes[edge.from]),
                   " -*-> ",
                   PositionName(vocab, analysis.graph.nodes[edge.to]));
      });
      return Cat("polynomial (rank ", c.rank, ": ", path, ")");
    }
    case ComplexityTier::kExponential:
      return Cat("exponential (generating cycle ",
                 WalkToString(vocab, analysis, c.cycle), ")");
    case ComplexityTier::kNonElementary:
      return Cat("non-elementary (generating cycle ",
                 WalkToString(vocab, analysis, c.cycle), " feeds ",
                 WalkToString(vocab, analysis, c.cycle2), " via ",
                 WalkToString(vocab, analysis, c.link), ")");
  }
  return "?";
}

}  // namespace tgdkit
