#include "analyze/lint.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "base/strings.h"
#include "supervise/jsonl.h"

namespace tgdkit {

namespace {

/// Body and head atoms of a statement in its original (pre-Skolemization)
/// form, plus equality terms, for the purely syntactic checks.
struct StatementAtoms {
  std::vector<const Atom*> body;
  std::vector<const Atom*> head;
  std::vector<TermId> extra_terms;  // equality sides (count as body use)
};

void CollectNested(const NestedNode& node, StatementAtoms* out) {
  for (const Atom& a : node.body) out->body.push_back(&a);
  for (const Atom& a : node.head_atoms) out->head.push_back(&a);
  for (const NestedNode& child : node.children) CollectNested(child, out);
}

StatementAtoms CollectAtoms(const ParsedDependency& dep) {
  StatementAtoms out;
  switch (dep.kind) {
    case ParsedDependency::Kind::kTgd:
      for (const Atom& a : dep.tgd.body) out.body.push_back(&a);
      for (const Atom& a : dep.tgd.head) out.head.push_back(&a);
      break;
    case ParsedDependency::Kind::kSo:
      for (const SoPart& part : dep.so.parts) {
        for (const Atom& a : part.body) out.body.push_back(&a);
        for (const Atom& a : part.head) out.head.push_back(&a);
        for (const SoEquality& eq : part.equalities) {
          out.extra_terms.push_back(eq.lhs);
          out.extra_terms.push_back(eq.rhs);
        }
      }
      break;
    case ParsedDependency::Kind::kNested:
      CollectNested(dep.nested.root, &out);
      break;
    case ParsedDependency::Kind::kHenkin:
      for (const Atom& a : dep.henkin.body) out.body.push_back(&a);
      for (const Atom& a : dep.henkin.head) out.head.push_back(&a);
      break;
  }
  return out;
}

void CollectFunctions(const TermArena& arena, TermId t,
                      std::set<FunctionId>* out) {
  if (!arena.IsFunction(t)) return;
  out->insert(arena.symbol(t));
  for (TermId a : arena.args(t)) CollectFunctions(arena, a, out);
}

// --- per-statement syntactic checks ----------------------------------------

void CheckUnusedAndDuplicates(const TermArena& arena, const Vocabulary& vocab,
                              const DependencyProgram& program,
                              std::vector<LintDiagnostic>* out) {
  for (size_t s = 0; s < program.dependencies.size(); ++s) {
    const ParsedDependency& dep = program.dependencies[s];
    StatementAtoms atoms = CollectAtoms(dep);
    // Unused body variables: exactly one occurrence, all of them in the
    // body. (Counts nested occurrences inside head terms as uses.)
    std::map<VariableId, int> body_occurrences;
    for (const Atom* atom : atoms.body) {
      for (TermId t : atom->args) {
        std::vector<VariableId> vars;
        arena.CollectVariables(t, &vars);
        for (VariableId v : vars) body_occurrences[v] += 1;
      }
    }
    std::set<VariableId> used_elsewhere;
    for (const Atom* atom : atoms.head) {
      for (TermId t : atom->args) {
        std::vector<VariableId> vars;
        arena.CollectVariables(t, &vars);
        used_elsewhere.insert(vars.begin(), vars.end());
      }
    }
    for (TermId t : atoms.extra_terms) {
      std::vector<VariableId> vars;
      arena.CollectVariables(t, &vars);
      used_elsewhere.insert(vars.begin(), vars.end());
    }
    for (const auto& [var, count] : body_occurrences) {
      if (count == 1 && !used_elsewhere.count(var)) {
        out->push_back({LintSeverity::kNote, "unused-body-variable",
                        Cat("variable ", vocab.VariableName(var),
                            " of statement ", StatementLabel(dep, s),
                            " occurs once and never reaches the head"),
                        dep.line, dep.column});
      }
    }
    // Exact duplicate atoms (hash-consing makes TermId equality exact).
    auto report_duplicates = [&](const std::vector<const Atom*>& list,
                                 const char* where) {
      std::set<std::pair<RelationId, std::vector<TermId>>> seen;
      for (const Atom* atom : list) {
        if (!seen.insert({atom->relation, atom->args}).second) {
          out->push_back({LintSeverity::kNote, "duplicate-atom",
                          Cat("duplicate ", where, " atom ",
                              ToString(arena, vocab, *atom),
                              " in statement ", StatementLabel(dep, s)),
                          dep.line, dep.column});
        }
      }
    };
    report_duplicates(atoms.body, "body");
    report_duplicates(atoms.head, "head");
  }
}

void CheckSharedSkolems(const TermArena& arena, const Vocabulary& vocab,
                        const DependencyProgram& program,
                        std::vector<LintDiagnostic>* out) {
  // Only literal `so` statements can share function symbols: Skolemization
  // of the other kinds always draws fresh ones. Sharing silently couples
  // the statements' existential choices, which is almost never intended.
  std::map<FunctionId, size_t> first_use;
  std::set<FunctionId> reported;
  for (size_t s = 0; s < program.dependencies.size(); ++s) {
    const ParsedDependency& dep = program.dependencies[s];
    if (dep.kind != ParsedDependency::Kind::kSo) continue;
    std::set<FunctionId> functions;
    for (const SoPart& part : dep.so.parts) {
      for (const Atom& atom : part.head) {
        for (TermId t : atom.args) CollectFunctions(arena, t, &functions);
      }
      for (const SoEquality& eq : part.equalities) {
        CollectFunctions(arena, eq.lhs, &functions);
        CollectFunctions(arena, eq.rhs, &functions);
      }
    }
    for (FunctionId f : functions) {
      auto [it, inserted] = first_use.emplace(f, s);
      if (inserted || it->second == s || !reported.insert(f).second) continue;
      const ParsedDependency& first = program.dependencies[it->second];
      out->push_back({LintSeverity::kWarning, "shared-skolem-function",
                      Cat("function ", vocab.FunctionName(f),
                          " is existentially quantified by both statement ",
                          StatementLabel(first, it->second), " and statement ",
                          StatementLabel(dep, s),
                          "; their choices are silently coupled"),
                      dep.line, dep.column});
    }
  }
}

void CheckValidity(const TermArena& arena, const Vocabulary& vocab,
                   const DependencyProgram& program,
                   const ProgramAnalysis& analysis,
                   std::vector<LintDiagnostic>* out) {
  // Range restriction, on the Skolemized rules: every head variable must
  // occur in the body (nested occurrences inside Skolem terms included).
  std::set<size_t> range_flagged;
  for (const AnalyzedRule& rule : analysis.rules) {
    std::set<VariableId> body_vars;
    for (const Atom& atom : rule.part.body) {
      for (TermId t : atom.args) {
        std::vector<VariableId> vars;
        arena.CollectVariables(t, &vars);
        body_vars.insert(vars.begin(), vars.end());
      }
    }
    for (const Atom& atom : rule.part.head) {
      for (TermId t : atom.args) {
        std::vector<VariableId> vars;
        arena.CollectVariables(t, &vars);
        for (VariableId v : vars) {
          if (body_vars.count(v)) continue;
          if (!range_flagged.insert(rule.dep_index).second) break;
          out->push_back({LintSeverity::kError, "non-range-restricted-head",
                          Cat("head variable ", vocab.VariableName(v),
                              " of statement ", rule.label,
                              " does not occur in the body"),
                          rule.line, rule.column});
          break;
        }
      }
    }
  }
  // Anything else the validators reject (arity is grammar-level; this
  // catches Henkin dependency-list and nesting-structure errors).
  for (size_t s = 0; s < program.dependencies.size(); ++s) {
    if (range_flagged.count(s)) continue;
    const ParsedDependency& dep = program.dependencies[s];
    Status status = Status::Ok();
    switch (dep.kind) {
      case ParsedDependency::Kind::kTgd:
        status = ValidateTgd(arena, dep.tgd);
        break;
      case ParsedDependency::Kind::kSo:
        status = ValidateSoTgd(arena, dep.so);
        break;
      case ParsedDependency::Kind::kNested:
        status = ValidateNestedTgd(arena, dep.nested);
        break;
      case ParsedDependency::Kind::kHenkin:
        status = ValidateHenkinTgd(arena, dep.henkin);
        break;
    }
    if (!status.ok()) {
      out->push_back({LintSeverity::kError, "invalid-statement",
                      Cat("statement ", StatementLabel(dep, s), ": ",
                          status.message()),
                      dep.line, dep.column});
    }
  }
}

void CheckDecidableClass(const TermArena& arena, const Vocabulary& vocab,
                         const ProgramAnalysis& analysis,
                         std::vector<LintDiagnostic>* out) {
  if (analysis.rules.empty()) return;
  const CriterionVerdict& wa = analysis.verdict(Criterion::kWeaklyAcyclic);
  const CriterionVerdict& wg = analysis.verdict(Criterion::kWeaklyGuarded);
  const CriterionVerdict& sj = analysis.verdict(Criterion::kStickyJoin);
  const CriterionVerdict& tg =
      analysis.verdict(Criterion::kTriangularlyGuarded);
  if (wa.holds || wg.holds || sj.holds) return;
  std::string message =
      "no classic Figure 2 class applies: "
      "not weakly acyclic (";
  message += WitnessToString(arena, vocab, analysis, wa);
  message += "); not weakly guarded (";
  message += WitnessToString(arena, vocab, analysis, wg);
  message += "); not sticky-join (";
  message += WitnessToString(arena, vocab, analysis, sj);
  message += ")";
  // Pin to the rule the weakly-guarded witness indicts (an arbitrary but
  // deterministic choice among the three).
  uint32_t line = 0, column = 0;
  if (const auto* w = std::get_if<GuardWitness>(&wg.witness)) {
    line = analysis.rules[w->rule].line;
    column = analysis.rules[w->rule].column;
  }
  if (tg.holds) {
    // Triangular guardedness rescues decidability: downgrade to a note.
    message +=
        "; still decidable: every triangular component is guarded or "
        "sticky (triangularly-guarded)";
    out->push_back({LintSeverity::kNote, "no-decidable-class",
                    std::move(message), line, column});
    return;
  }
  message += "; not triangularly guarded (";
  message += WitnessToString(arena, vocab, analysis, tg);
  message += ")";
  out->push_back({LintSeverity::kWarning, "no-decidable-class",
                  std::move(message), line, column});
}

void CheckChaseComplexity(const Vocabulary& vocab,
                          const ProgramAnalysis& analysis,
                          std::vector<LintDiagnostic>* out) {
  // Only worth a note when the program mints nulls at all: a program
  // without special edges chases in one round per fact and should stay
  // diagnostic-free.
  const PositionGraph& graph = analysis.graph;
  const PositionEdge* special = nullptr;
  for (const PositionEdge& edge : graph.edges) {
    if (edge.special) {
      special = &edge;
      break;
    }
  }
  if (special == nullptr) return;
  // Pin to the rule owning the first special edge — the first null mint.
  out->push_back({LintSeverity::kNote, "chase-complexity",
                  Cat("Skolem chase complexity: ",
                      ComplexityToString(vocab, analysis)),
                  analysis.rules[special->rule].line,
                  analysis.rules[special->rule].column});
}

}  // namespace

const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kNote:
      return "note";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "?";
}

bool ParseLintSeverity(const std::string& text, LintSeverity* out) {
  if (text == "note") {
    *out = LintSeverity::kNote;
  } else if (text == "warning") {
    *out = LintSeverity::kWarning;
  } else if (text == "error") {
    *out = LintSeverity::kError;
  } else {
    return false;
  }
  return true;
}

bool LintReport::HasAtLeast(LintSeverity threshold) const {
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity >= threshold) return true;
  }
  return false;
}

LintReport LintProgram(TermArena* arena, Vocabulary* vocab,
                       const DependencyProgram& program) {
  LintReport report;
  report.analysis = AnalyzeProgram(arena, vocab, program);
  CheckValidity(*arena, *vocab, program, report.analysis,
                &report.diagnostics);
  CheckDecidableClass(*arena, *vocab, report.analysis, &report.diagnostics);
  CheckChaseComplexity(*vocab, report.analysis, &report.diagnostics);
  CheckSharedSkolems(*arena, *vocab, program, &report.diagnostics);
  CheckUnusedAndDuplicates(*arena, *vocab, program, &report.diagnostics);
  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tie(a.line, a.column, a.check, a.message) <
                     std::tie(b.line, b.column, b.check, b.message);
            });
  return report;
}

// ---------------------------------------------------------------------------
// Rendering

std::string RenderLintText(const std::string& file, const LintReport& report) {
  std::string out;
  for (const LintDiagnostic& d : report.diagnostics) {
    out += file;
    if (d.line > 0) out += Cat(":", d.line, ":", d.column);
    out += Cat(": ", LintSeverityName(d.severity), " [", d.check, "] ",
               d.message, "\n");
  }
  return out;
}

std::string RenderLintJson(const std::string& file, const LintReport& report) {
  std::string out = Cat("{\"file\": \"", JsonEscape(file),
                        "\", \"diagnostics\": [");
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const LintDiagnostic& d = report.diagnostics[i];
    if (i > 0) out += ", ";
    out += Cat("{\"line\": ", d.line, ", \"column\": ", d.column,
               ", \"severity\": \"", LintSeverityName(d.severity),
               "\", \"check\": \"", JsonEscape(d.check),
               "\", \"message\": \"", JsonEscape(d.message), "\"}");
  }
  out += "]}\n";
  return out;
}

std::string RenderLintSarif(const std::string& file,
                            const LintReport& report) {
  // SARIF wants "note"/"warning"/"error" too, conveniently.
  std::vector<std::string> rule_ids;
  for (const LintDiagnostic& d : report.diagnostics) {
    if (std::find(rule_ids.begin(), rule_ids.end(), d.check) ==
        rule_ids.end()) {
      rule_ids.push_back(d.check);
    }
  }
  std::string out =
      "{\"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\", "
      "\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": "
      "{\"name\": \"tgdkit-lint\", \"rules\": [";
  for (size_t i = 0; i < rule_ids.size(); ++i) {
    if (i > 0) out += ", ";
    out += Cat("{\"id\": \"", JsonEscape(rule_ids[i]), "\"}");
  }
  out += "]}}, \"results\": [";
  for (size_t i = 0; i < report.diagnostics.size(); ++i) {
    const LintDiagnostic& d = report.diagnostics[i];
    if (i > 0) out += ", ";
    out += Cat("{\"ruleId\": \"", JsonEscape(d.check), "\", \"level\": \"",
               LintSeverityName(d.severity),
               "\", \"message\": {\"text\": \"", JsonEscape(d.message),
               "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \"",
               JsonEscape(file), "\"}");
    if (d.line > 0) {
      out += Cat(", \"region\": {\"startLine\": ", d.line,
                 ", \"startColumn\": ", d.column, "}");
    }
    out += "}}]}";
  }
  out += "]}]}\n";
  return out;
}

}  // namespace tgdkit
