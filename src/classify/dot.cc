#include "classify/dot.h"

#include <set>
#include <vector>

#include "base/strings.h"

namespace tgdkit {

namespace {

std::string PositionName(const Vocabulary& vocab, const Position& p) {
  return Cat(vocab.RelationName(p.first), ".", p.second);
}

}  // namespace

std::string AnalysisDot(const Vocabulary& vocab,
                        const ProgramAnalysis& analysis) {
  const PositionGraph& graph = analysis.graph;
  std::set<uint32_t> cycle_edges;
  const CriterionVerdict& wa = analysis.verdict(Criterion::kWeaklyAcyclic);
  if (const auto* w = std::get_if<CycleWitness>(&wa.witness)) {
    cycle_edges.insert(w->edges.begin(), w->edges.end());
  }
  // A failed triangular-guardedness verdict pins an unguarded triangle:
  // its witness cycle joins the red edge set and the component's nodes
  // get a red border.
  std::set<uint32_t> triangle_nodes;
  const CriterionVerdict& tg =
      analysis.verdict(Criterion::kTriangularlyGuarded);
  if (const auto* w = std::get_if<TriangleWitness>(&tg.witness)) {
    cycle_edges.insert(w->cycle.begin(), w->cycle.end());
    triangle_nodes.insert(w->component.begin(), w->component.end());
  }
  std::string out = "digraph analysis {\n  rankdir=LR;\n";
  for (uint32_t n = 0; n < graph.nodes.size(); ++n) {
    const Position& p = graph.nodes[n];
    out += Cat("  \"", PositionName(vocab, p), "\"");
    std::vector<std::string> attrs;
    if (analysis.affected.affected.count(p)) {
      attrs.push_back("style=filled, fillcolor=lightgray");
    }
    if (triangle_nodes.count(n)) {
      attrs.push_back("penwidth=2, color=red");
    } else if (analysis.marking.marked_positions.count(p)) {
      attrs.push_back("penwidth=2, color=blue");
    }
    if (!attrs.empty()) out += Cat(" [", Join(attrs, ", "), "]");
    out += ";\n";
  }
  for (uint32_t e = 0; e < graph.edges.size(); ++e) {
    const PositionEdge& edge = graph.edges[e];
    out += Cat("  \"", PositionName(vocab, graph.nodes[edge.from]),
               "\" -> \"", PositionName(vocab, graph.nodes[edge.to]),
               "\" [label=\"", analysis.rules[edge.rule].label, "/",
               vocab.VariableName(edge.var), "\"");
    if (edge.special) out += ", style=dashed";
    if (cycle_edges.count(e)) out += ", color=red, penwidth=2";
    out += "];\n";
  }
  out += "}\n";
  return out;
}

std::string Figure2HasseDot(const Figure2Membership& m) {
  std::string out = "digraph hasse {\n  rankdir=BT;\n";
  auto node = [&](const char* name, bool member) {
    out += Cat("  \"", name, "\"");
    if (member) out += " [style=filled, fillcolor=lightgreen]";
    out += ";\n";
  };
  node("full", m.full);
  node("weakly-acyclic", m.weakly_acyclic);
  node("linear", m.linear);
  node("guarded", m.guarded);
  node("weakly-guarded", m.weakly_guarded);
  node("sticky", m.sticky);
  node("sticky-join", m.sticky_join);
  node("triangularly-guarded", m.triangularly_guarded);
  // An edge a -> b reads "a is subsumed by b"; rankdir=BT draws the
  // larger class above, Hasse style.
  const char* edges[][2] = {
      {"full", "weakly-acyclic"},
      {"linear", "guarded"},
      {"guarded", "weakly-guarded"},
      {"sticky", "sticky-join"},
      {"linear", "sticky-join"},
      {"weakly-acyclic", "triangularly-guarded"},
      {"weakly-guarded", "triangularly-guarded"},
      {"sticky-join", "triangularly-guarded"},
  };
  for (const auto& edge : edges) {
    out += Cat("  \"", edge[0], "\" -> \"", edge[1], "\";\n");
  }
  out += "}\n";
  return out;
}

std::string PositionGraphDot(const Vocabulary& vocab,
                             const ProgramAnalysis& analysis) {
  const PositionGraph& graph = analysis.graph;
  // Drawn: every top-level body-variable position and every edge target,
  // with parallel edges collapsed to one (from, to, special) triple.
  std::set<Position> nodes;
  for (const AnalyzedRule& rule : analysis.rules) {
    for (const Atom& atom : rule.part.body) {
      for (uint32_t i = 0; i < atom.args.size(); ++i) {
        if (analysis.arena->IsVariable(atom.args[i])) {
          nodes.insert({atom.relation, i});
        }
      }
    }
  }
  std::set<std::tuple<Position, Position, bool>> edges;
  for (const PositionEdge& edge : graph.edges) {
    nodes.insert(graph.nodes[edge.to]);
    edges.insert({graph.nodes[edge.from], graph.nodes[edge.to], edge.special});
  }

  std::string out = "digraph positions {\n  rankdir=LR;\n";
  for (const Position& p : nodes) {
    out += Cat("  \"", PositionName(vocab, p), "\"");
    if (analysis.affected.affected.count(p)) {
      out += " [style=filled, fillcolor=lightgray]";
    }
    out += ";\n";
  }
  for (const auto& [from, to, special] : edges) {
    out += Cat("  \"", PositionName(vocab, from), "\" -> \"",
               PositionName(vocab, to), "\"");
    if (special) out += " [style=dashed, label=\"*\"]";
    out += ";\n";
  }
  out += "}\n";
  return out;
}

std::string QuantifierDot(const Vocabulary& vocab,
                          const HenkinQuantifier& quantifier) {
  std::string out = "digraph quantifier {\n";
  for (VariableId x : quantifier.universals()) {
    out += Cat("  \"", vocab.VariableName(x), "\" [shape=box];\n");
  }
  for (VariableId y : quantifier.existentials()) {
    out += Cat("  \"", vocab.VariableName(y),
               "\" [shape=ellipse, style=filled, fillcolor=lightblue];\n");
  }
  for (const auto& [a, b] : quantifier.order()) {
    out += Cat("  \"", vocab.VariableName(a), "\" -> \"",
               vocab.VariableName(b), "\";\n");
  }
  out += "}\n";
  return out;
}

namespace {

void NestingNodeDot(const TermArena& arena, const Vocabulary& vocab,
                    const NestedNode& node, int* counter, int parent,
                    std::string* out) {
  int id = (*counter)++;
  std::string label = JoinMapped(node.body, " & ", [&](const Atom& a) {
    return ToString(arena, vocab, a);
  });
  label += " ->";
  if (!node.exist_vars.empty()) {
    label += " exists ";
    label += JoinMapped(node.exist_vars, ",", [&](VariableId v) {
      return vocab.VariableName(v);
    });
  }
  for (const Atom& atom : node.head_atoms) {
    label += " ";
    label += ToString(arena, vocab, atom);
  }
  *out += Cat("  n", id, " [shape=box, label=\"", label, "\"];\n");
  if (parent >= 0) {
    *out += Cat("  n", parent, " -> n", id, ";\n");
  }
  for (const NestedNode& child : node.children) {
    NestingNodeDot(arena, vocab, child, counter, id, out);
  }
}

}  // namespace

std::string NestingTreeDot(const TermArena& arena, const Vocabulary& vocab,
                           const NestedTgd& nested) {
  std::string out = "digraph nesting {\n";
  int counter = 0;
  NestingNodeDot(arena, vocab, nested.root, &counter, -1, &out);
  out += "}\n";
  return out;
}

}  // namespace tgdkit
