// Tests for the witness-producing static analyzer (src/analyze): the
// artifacts themselves (position graph, affected fixpoint, marking table),
// the per-criterion witnesses — each replayed against the structure it
// indicts — and the randomized differential suite checking the analyzer's
// positive termination verdicts against the critical-instance chase.
#include <gtest/gtest.h>

#include <algorithm>

#include "analyze/analysis.h"
#include "base/rng.h"
#include "classify/dot.h"
#include "dep/skolem.h"
#include "gen/generators.h"
#include "oracle/tg_oracle.h"
#include "parse/parser.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class AnalyzeTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;

  DependencyProgram Parse(const std::string& text) {
    Parser p(&ws_.arena, &ws_.vocab);
    auto program = p.ParseDependencies(text);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return std::move(*program);
  }

  ProgramAnalysis Analyze(const std::string& text) {
    DependencyProgram program = Parse(text);
    return AnalyzeProgram(&ws_.arena, &ws_.vocab, program);
  }

  Position Pos(const std::string& relation, uint32_t arg) {
    return {ws_.vocab.FindRelation(relation), arg};
  }
};

// --- artifacts -------------------------------------------------------------

TEST_F(AnalyzeTest, PositionGraphCarriesEdgeProvenance) {
  ProgramAnalysis a = Analyze("R(x, y) -> exists z . S(y, z) .");
  // Nodes: R.0, R.1, S.0, S.1 (isolated positions included).
  EXPECT_EQ(a.graph.nodes.size(), 4u);
  ASSERT_TRUE(a.graph.HasNode(Pos("R", 0)));
  // One regular edge R.1 -> S.0 (y), and special edges into S.1 from both
  // body positions (the Skolem term depends on all universals).
  int regular = 0, special = 0;
  for (const PositionEdge& e : a.graph.edges) {
    EXPECT_EQ(e.rule, 0u);
    EXPECT_EQ(e.head_atom, 0u);
    if (e.special) {
      ++special;
      EXPECT_EQ(a.graph.nodes[e.to], Pos("S", 1));
    } else {
      ++regular;
      EXPECT_EQ(a.graph.nodes[e.from], Pos("R", 1));
      EXPECT_EQ(a.graph.nodes[e.to], Pos("S", 0));
      EXPECT_EQ(e.var, ws_.vocab.InternVariable("y"));
    }
  }
  EXPECT_EQ(regular, 1);
  EXPECT_EQ(special, 2);
  // out_edges indexes are consistent.
  for (uint32_t n = 0; n < a.graph.nodes.size(); ++n) {
    for (uint32_t e : a.graph.out_edges[n]) {
      EXPECT_EQ(a.graph.edges[e].from, n);
    }
  }
}

TEST_F(AnalyzeTest, AffectedReasonsChainToAFunctionalHead) {
  ProgramAnalysis a = Analyze(
      "P(x) -> exists y . R(y) .\n"
      "R(x) -> S(x) .\n"
      "S(x) & P(x) -> T(x) .");
  EXPECT_TRUE(a.affected.affected.count(Pos("R", 0)));
  EXPECT_TRUE(a.affected.affected.count(Pos("S", 0)));
  EXPECT_FALSE(a.affected.affected.count(Pos("T", 0)));
  // R.0 is the base case; S.0 is propagated through x of rule 2.
  const AffectedReason& base = a.affected.reasons.at(Pos("R", 0));
  EXPECT_EQ(base.kind, AffectedReason::Kind::kFunctionalHead);
  EXPECT_EQ(base.rule, 0u);
  const AffectedReason& step = a.affected.reasons.at(Pos("S", 0));
  EXPECT_EQ(step.kind, AffectedReason::Kind::kPropagated);
  EXPECT_EQ(step.rule, 1u);
  EXPECT_EQ(step.var, ws_.vocab.InternVariable("x"));
  // Every propagated reason only cites affected positions (well-founded).
  for (const auto& [pos, reason] : a.affected.reasons) {
    EXPECT_TRUE(a.affected.affected.count(pos));
  }
  std::string chain = ExplainAffected(ws_.vocab, a, Pos("S", 0));
  EXPECT_NE(chain.find("functional term"), std::string::npos) << chain;
}

TEST_F(AnalyzeTest, StickyMarkingIsPerRule) {
  // x is dropped by rule 1 (marking R.0); u of rule 2 sits at R.0 and
  // R.1 but is NOT marked — the table is per-(rule, variable), not a
  // global position predicate.
  ProgramAnalysis a = Analyze(
      "R(x, y) -> S(y) .\n"
      "R(u, u) -> T(u, u) .");
  VariableId x = ws_.vocab.InternVariable("x");
  VariableId u = ws_.vocab.InternVariable("u");
  EXPECT_TRUE(a.marking.IsMarked(0, x));
  EXPECT_FALSE(a.marking.IsMarked(1, u));
  EXPECT_TRUE(a.marking.marked_positions.count(Pos("R", 0)));
  EXPECT_TRUE(a.verdict(Criterion::kSticky).holds);
}

TEST_F(AnalyzeTest, MarkReasonsRecordDropAndPropagation) {
  ProgramAnalysis a = Analyze(
      "P(x, y) & Q(y, z) -> R(x, y, z) .\n"
      "R(x, y, z) -> S(x, z) .");
  VariableId y = ws_.vocab.InternVariable("y");
  // Rule 2 drops y; rule 1's y is marked by propagation through R.1.
  ASSERT_TRUE(a.marking.IsMarked(1, y));
  EXPECT_EQ(a.marking.marked_vars[1].at(y).kind, MarkReason::Kind::kDropped);
  ASSERT_TRUE(a.marking.IsMarked(0, y));
  const MarkReason& prop = a.marking.marked_vars[0].at(y);
  EXPECT_EQ(prop.kind, MarkReason::Kind::kPropagated);
  EXPECT_EQ(prop.via, Pos("R", 1));
  EXPECT_FALSE(a.verdict(Criterion::kSticky).holds);
  std::string chain = ExplainMarked(ws_.vocab, a, 0, y);
  EXPECT_NE(chain.find("dropped"), std::string::npos) << chain;
}

// --- witnesses and replay ---------------------------------------------------

TEST_F(AnalyzeTest, EveryNegativeVerdictReplays) {
  // A program failing every Figure 2 criterion at once.
  ProgramAnalysis a = Analyze("E(x, y) & E(y, z) -> exists w . E(z, w) .");
  for (const CriterionVerdict& v : a.verdicts) {
    EXPECT_FALSE(v.holds) << CriterionName(v.criterion);
    EXPECT_FALSE(std::holds_alternative<std::monostate>(v.witness));
    EXPECT_FALSE(
        WitnessToString(ws_.arena, ws_.vocab, a, v).empty());
  }
  Status replay = ReplayAllWitnesses(ws_.arena, a);
  EXPECT_TRUE(replay.ok()) << replay.ToString();
}

TEST_F(AnalyzeTest, CycleWitnessChainsAndClosesThroughASpecialEdge) {
  ProgramAnalysis a = Analyze("R(x, y) -> exists z . R(y, z) .");
  const CriterionVerdict& v = a.verdict(Criterion::kWeaklyAcyclic);
  ASSERT_FALSE(v.holds);
  const auto& w = std::get<CycleWitness>(v.witness);
  ASSERT_FALSE(w.edges.empty());
  bool special = false;
  for (size_t i = 0; i < w.edges.size(); ++i) {
    const PositionEdge& e = a.graph.edges[w.edges[i]];
    const PositionEdge& next = a.graph.edges[w.edges[(i + 1) % w.edges.size()]];
    EXPECT_EQ(e.to, next.from);  // chained, and closed at the wrap-around
    special |= e.special;
  }
  EXPECT_TRUE(special);
}

TEST_F(AnalyzeTest, GuardWitnessNamesAMissingVariablePerBodyAtom) {
  ProgramAnalysis a = Analyze("P(x, y) & Q(y, z) -> R(x, z) .");
  const CriterionVerdict& v = a.verdict(Criterion::kGuarded);
  ASSERT_FALSE(v.holds);
  const auto& w = std::get<GuardWitness>(v.witness);
  EXPECT_EQ(w.rule, 0u);
  EXPECT_EQ(w.required.size(), 3u);
  ASSERT_EQ(w.missing.size(), 2u);  // one per body atom
  // P(x, y) misses z; Q(y, z) misses x.
  EXPECT_EQ(w.missing[0], ws_.vocab.InternVariable("z"));
  EXPECT_EQ(w.missing[1], ws_.vocab.InternVariable("x"));
}

TEST_F(AnalyzeTest, StickyJoinWitnessSpansTwoAtoms) {
  // Marked x repeats within ONE atom: sticky fails, sticky-join holds.
  ProgramAnalysis within = Analyze("P(x, x, y) & Q(y, z) -> R(y, z) .");
  EXPECT_FALSE(within.verdict(Criterion::kSticky).holds);
  EXPECT_TRUE(within.verdict(Criterion::kStickyJoin).holds);
  // Marked y spans two atoms: both fail, and the sticky-join witness
  // cites occurrences in distinct atoms.
  ProgramAnalysis across = Analyze("P2(x, y) & Q2(y, z) -> R2(x, z) .");
  const CriterionVerdict& v = across.verdict(Criterion::kStickyJoin);
  ASSERT_FALSE(v.holds);
  const auto& w = std::get<StickyWitness>(v.witness);
  EXPECT_NE(w.atom1, w.atom2);
  EXPECT_EQ(w.var, ws_.vocab.InternVariable("y"));
}

TEST_F(AnalyzeTest, TamperedWitnessesFailReplay) {
  ProgramAnalysis a = Analyze("E(x, y) & E(y, z) -> exists w . E(z, w) .");
  // A cycle whose edges do not chain.
  CriterionVerdict bad_cycle = a.verdict(Criterion::kWeaklyAcyclic);
  auto& cw = std::get<CycleWitness>(bad_cycle.witness);
  ASSERT_FALSE(cw.edges.empty());
  cw.edges.push_back(cw.edges.front());
  if (cw.edges.size() >= 2 &&
      a.graph.edges[cw.edges[cw.edges.size() - 2]].to !=
          a.graph.edges[cw.edges.back()].from) {
    EXPECT_FALSE(ReplayWitness(ws_.arena, a, bad_cycle).ok());
  }
  // A sticky witness pointing at an unmarked variable's occurrences.
  CriterionVerdict bad_sticky = a.verdict(Criterion::kSticky);
  std::get<StickyWitness>(bad_sticky.witness).var =
      ws_.vocab.InternVariable("nonexistent_var");
  EXPECT_FALSE(ReplayWitness(ws_.arena, a, bad_sticky).ok());
  // A guard witness citing a variable that the atom does contain.
  CriterionVerdict bad_guard = a.verdict(Criterion::kGuarded);
  auto& gw = std::get<GuardWitness>(bad_guard.witness);
  gw.missing[0] = ws_.vocab.InternVariable("x");  // E(x, y) contains x
  EXPECT_FALSE(ReplayWitness(ws_.arena, a, bad_guard).ok());
  // A full witness pointing at a non-functional head argument.
  ProgramAnalysis b = Analyze("P(v) -> exists q . S2(v, q) .");
  CriterionVerdict bad_full = b.verdict(Criterion::kFull);
  auto& fw = std::get<FullWitness>(bad_full.witness);
  ASSERT_EQ(fw.head_arg, 1u);
  fw.head_arg = 0;  // S2.0 holds the plain variable v
  EXPECT_FALSE(ReplayWitness(ws_.arena, b, bad_full).ok());
}

// The decidability-frontier program: triangularly guarded but in no
// other Figure 2 class. Part 1 is a special cycle (breaks weak
// acyclicity) whose component is guarded by ga(x, y); part 2 makes both
// link positions affected; part 3 joins two link atoms on a dangerous
// variable and drops it from the head (breaking weakly-guarded, sticky
// and sticky-join) — but never touches the triangular component.
constexpr const char* kFrontierProgram =
    "frontier: so exists fv, fp, fq {"
    " ga(x, y) -> ga(y, fv(x, y)) ;"
    " hub(x) -> link(fp(x), fq(x)) ;"
    " link(x, u) & link(u, y) -> out(x, y) } .";

TEST_F(AnalyzeTest, TriangularGuardednessCertifiesTheFrontierProgram) {
  ProgramAnalysis a = Analyze(kFrontierProgram);
  EXPECT_TRUE(a.verdict(Criterion::kTriangularlyGuarded).holds);
  EXPECT_FALSE(a.verdict(Criterion::kWeaklyAcyclic).holds);
  EXPECT_FALSE(a.verdict(Criterion::kWeaklyGuarded).holds);
  EXPECT_FALSE(a.verdict(Criterion::kStickyJoin).holds);
  // One generating component that feeds no second one: exponential tier.
  EXPECT_EQ(a.complexity.tier, ComplexityTier::kExponential);
  EXPECT_TRUE(ReplayAllWitnesses(ws_.arena, a).ok());
}

TEST_F(AnalyzeTest, TriangleWitnessPinsComponentCycleAndBothDisciplines) {
  ProgramAnalysis a = Analyze("bad : E(x, y) & E(y, z) -> exists w . E(z, w) .");
  const CriterionVerdict& v = a.verdict(Criterion::kTriangularlyGuarded);
  ASSERT_FALSE(v.holds);
  const auto& w = std::get<TriangleWitness>(v.witness);
  // The component is exactly {E.0, E.1}, sorted.
  ASSERT_EQ(w.component.size(), 2u);
  EXPECT_EQ(a.graph.nodes[w.component[0]], Pos("E", 0));
  EXPECT_EQ(a.graph.nodes[w.component[1]], Pos("E", 1));
  // Both repair disciplines failed on the single rule.
  EXPECT_EQ(w.guard.rule, 0u);
  EXPECT_EQ(w.join.rule, 0u);
  EXPECT_NE(w.join.atom1, w.join.atom2);
  EXPECT_TRUE(ReplayWitness(ws_.arena, a, v).ok());
  // The rendering names the component and both failures, and the witness
  // pins to the statement's label and span through the indicted rules.
  std::string text = WitnessToString(ws_.arena, ws_.vocab, a, v);
  EXPECT_NE(text.find("triangular component"), std::string::npos) << text;
  EXPECT_NE(text.find("unguarded"), std::string::npos) << text;
  EXPECT_NE(text.find("unsticky"), std::string::npos) << text;
  EXPECT_EQ(a.rules[w.guard.rule].label, "bad");
  EXPECT_EQ(a.rules[w.guard.rule].line, 1u);
}

TEST_F(AnalyzeTest, TamperedTriangleWitnessFailsReplay) {
  ProgramAnalysis a = Analyze("E(x, y) & E(y, z) -> exists w . E(z, w) .");
  const CriterionVerdict& good =
      a.verdict(Criterion::kTriangularlyGuarded);
  ASSERT_FALSE(good.holds);
  // Dropping a node leaves a strict subset of the component.
  CriterionVerdict bad = good;
  std::get<TriangleWitness>(bad.witness).component.pop_back();
  EXPECT_FALSE(ReplayWitness(ws_.arena, a, bad).ok());
  // A cycle that no longer chains.
  bad = good;
  auto& cycle = std::get<TriangleWitness>(bad.witness).cycle;
  std::reverse(cycle.begin(), cycle.end());
  cycle.push_back(cycle.front());
  EXPECT_FALSE(ReplayWitness(ws_.arena, a, bad).ok());
  // A guard failure citing a variable the atom does contain.
  bad = good;
  std::get<TriangleWitness>(bad.witness).guard.missing[0] =
      ws_.vocab.InternVariable("x");  // E(x, y) contains x
  EXPECT_FALSE(ReplayWitness(ws_.arena, a, bad).ok());
  // A join citing an unmarked variable.
  bad = good;
  std::get<TriangleWitness>(bad.witness).join.var =
      ws_.vocab.InternVariable("phantom");
  EXPECT_FALSE(ReplayWitness(ws_.arena, a, bad).ok());
}

TEST_F(AnalyzeTest, ComplexityTiersMatchTheGeneratingComponents) {
  // No special cycle, two chained special edges: polynomial of rank 2.
  ProgramAnalysis poly = Analyze(
      "a(x) -> exists u . b(x, u) .\n"
      "b(x, u) -> exists v . c(u, v) .");
  EXPECT_EQ(poly.complexity.tier, ComplexityTier::kPolynomial);
  EXPECT_EQ(poly.complexity.rank, 2u);
  ASSERT_EQ(poly.complexity.rank_path.size(), 2u);
  EXPECT_TRUE(ReplayComplexity(poly).ok());
  // One generating component: exponential, witnessed by its cycle.
  ProgramAnalysis expo = Analyze("e(x, y) -> exists z . e(y, z) .");
  EXPECT_EQ(expo.complexity.tier, ComplexityTier::kExponential);
  EXPECT_FALSE(expo.complexity.cycle.empty());
  EXPECT_TRUE(ReplayComplexity(expo).ok());
  // A generating component reaching a second one: non-elementary.
  ProgramAnalysis tower = Analyze(
      "p(x, y) -> exists z . p(y, z) .\n"
      "p(x, y) -> q(x, y) .\n"
      "q(x, y) -> exists z . q(y, z) .");
  EXPECT_EQ(tower.complexity.tier, ComplexityTier::kNonElementary);
  EXPECT_FALSE(tower.complexity.cycle.empty());
  EXPECT_FALSE(tower.complexity.link.empty());
  EXPECT_FALSE(tower.complexity.cycle2.empty());
  EXPECT_TRUE(ReplayComplexity(tower).ok());
  // Rendering carries the tier and the provenance walks.
  EXPECT_NE(ComplexityToString(ws_.vocab, tower).find("non-elementary"),
            std::string::npos);
}

TEST_F(AnalyzeTest, TamperedComplexityBoundFailsReplay) {
  ProgramAnalysis a = Analyze("e(x, y) -> exists z . e(y, z) .");
  ASSERT_EQ(a.complexity.tier, ComplexityTier::kExponential);
  // A downgraded tier disagrees with the graph.
  ProgramAnalysis tampered = a;
  tampered.complexity.tier = ComplexityTier::kPolynomial;
  tampered.complexity.rank = 0;
  tampered.complexity.cycle.clear();
  EXPECT_FALSE(ReplayComplexity(tampered).ok());
  // A witness cycle missing its closing edge.
  tampered = a;
  tampered.complexity.cycle.pop_back();
  EXPECT_FALSE(ReplayComplexity(tampered).ok());
  // An inflated polynomial rank.
  ProgramAnalysis poly = Analyze("a(x) -> exists u . b(x, u) .");
  ASSERT_EQ(poly.complexity.tier, ComplexityTier::kPolynomial);
  tampered = poly;
  tampered.complexity.rank += 1;
  EXPECT_FALSE(ReplayComplexity(tampered).ok());
}

TEST_F(AnalyzeTest, PositiveVerdictsCarryNoWitness) {
  ProgramAnalysis a = Analyze("E(x, y) & E(y, z) -> E(x, z) .");
  EXPECT_TRUE(a.verdict(Criterion::kFull).holds);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(
      a.verdict(Criterion::kFull).witness));
  EXPECT_TRUE(ReplayAllWitnesses(ws_.arena, a).ok());
}

// --- origin tracking --------------------------------------------------------

TEST_F(AnalyzeTest, RulesCarryLabelsAndSourceSpans) {
  DependencyProgram program = Parse(
      "first : P(x) -> Q(x) .\n"
      "R(x, y) -> exists z . R(y, z) .");
  EXPECT_EQ(program.dependencies[0].line, 1u);
  EXPECT_EQ(program.dependencies[0].column, 1u);
  EXPECT_EQ(program.dependencies[1].line, 2u);
  ProgramAnalysis a = AnalyzeProgram(&ws_.arena, &ws_.vocab, program);
  ASSERT_EQ(a.rules.size(), 2u);
  EXPECT_EQ(a.rules[0].label, "first");
  EXPECT_EQ(a.rules[1].label, "#2");
  EXPECT_EQ(a.rules[1].dep_index, 1u);
  EXPECT_EQ(a.rules[1].line, 2u);
  // The weak-acyclicity witness indicts the second statement.
  const CriterionVerdict& v = a.verdict(Criterion::kWeaklyAcyclic);
  ASSERT_FALSE(v.holds);
  const auto& w = std::get<CycleWitness>(v.witness);
  EXPECT_EQ(a.graph.edges[w.edges.front()].rule, 1u);
}

TEST_F(AnalyzeTest, AnalysisDotRendersGraphWithWitnessCycle) {
  ProgramAnalysis a = Analyze("loop : R(x, y) -> exists z . R(y, z) .");
  std::string dot = AnalysisDot(ws_.vocab, a);
  EXPECT_NE(dot.find("digraph analysis"), std::string::npos);
  EXPECT_NE(dot.find("\"R.0\""), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // special edge
  EXPECT_NE(dot.find("color=red"), std::string::npos);     // witness cycle
  EXPECT_NE(dot.find("loop/"), std::string::npos);         // provenance label
}

// --- differential suite: analyzer vs critical-instance oracle ---------------

class AnalyzeDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalyzeDifferentialTest, WeaklyAcyclicVerdictImpliesChaseFixpoint) {
  // Marnette 2009: the Skolem chase terminates on every instance iff it
  // terminates on the critical instance. Weak acyclicity is a sound
  // termination criterion, so a positive analyzer verdict must be
  // confirmed by a critical-instance fixpoint. Witnesses of negative
  // verdicts must replay on every generated program, whatever the class.
  TestWorkspace ws;
  Rng rng(GetParam() * 31 + 12);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  std::vector<Tgd> tgds;
  for (int i = 0; i < 3; ++i) {
    tgds.push_back(
        GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  ProgramAnalysis analysis = AnalyzeSo(ws.arena, so);
  Status replay = ReplayAllWitnesses(ws.arena, analysis);
  EXPECT_TRUE(replay.ok()) << replay.ToString();
  if (!analysis.verdict(Criterion::kWeaklyAcyclic).holds) return;
  ChaseLimits limits;
  limits.max_rounds = 100000;
  limits.max_facts = 500000;
  limits.max_term_depth = 10000;
  CriticalInstanceReport report = TerminatesOnCriticalInstance(
      &ws.arena, &ws.vocab, so, relations, limits);
  EXPECT_TRUE(report.terminated)
      << "analyzer says weakly acyclic but the critical-instance chase "
         "found no fixpoint";
}

TEST_P(AnalyzeDifferentialTest, TriangularGuardednessSubsumesEveryClass) {
  // TG must hold whenever any of the three maximal classic classes does
  // (weakly acyclic: no triangular components; weakly guarded: the global
  // guard covers every component-dangerous subset; sticky-join: no
  // cross-atom marked join at all). A single disagreement on a random
  // ruleset falsifies the construction.
  TestWorkspace ws;
  Rng rng(GetParam() * 57 + 5);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  std::vector<Tgd> tgds;
  for (int i = 0; i < 3; ++i) {
    tgds.push_back(
        GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  ProgramAnalysis analysis = AnalyzeSo(ws.arena, so);
  bool tg = analysis.verdict(Criterion::kTriangularlyGuarded).holds;
  if (analysis.verdict(Criterion::kWeaklyAcyclic).holds ||
      analysis.verdict(Criterion::kWeaklyGuarded).holds ||
      analysis.verdict(Criterion::kStickyJoin).holds) {
    EXPECT_TRUE(tg) << "a classic class holds but TG disagrees";
  }
  // Exact cross-check against the brute-force oracle, both polarities:
  // subsumption alone can only catch false negatives on rulesets that
  // happen to be in a classic class; the naive reimplementation of the
  // TG definition agrees or disagrees on every ruleset.
  EXPECT_EQ(tg, BruteForceTriangularlyGuarded(ws.arena, so))
      << "analyzer and brute-force TG oracle disagree";
  // The complexity artifact must agree with the weak-acyclicity verdict
  // (polynomial ⟺ no generating component ⟺ weakly acyclic), and its
  // provenance must replay.
  EXPECT_EQ(analysis.complexity.tier == ComplexityTier::kPolynomial,
            analysis.verdict(Criterion::kWeaklyAcyclic).holds);
  Status replay = ReplayComplexity(analysis);
  EXPECT_TRUE(replay.ok()) << replay.ToString();
}

TEST_P(AnalyzeDifferentialTest, PolynomialTierImpliesChaseFixpoint) {
  // The polynomial tier coincides with weak acyclicity, so it is a sound
  // termination certificate: cross-check against the critical-instance
  // semi-decision oracle (Marnette 2009).
  TestWorkspace ws;
  Rng rng(GetParam() * 91 + 17);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  std::vector<Tgd> tgds;
  for (int i = 0; i < 3; ++i) {
    tgds.push_back(
        GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  ProgramAnalysis analysis = AnalyzeSo(ws.arena, so);
  if (analysis.complexity.tier != ComplexityTier::kPolynomial) return;
  ChaseLimits limits;
  limits.max_rounds = 100000;
  limits.max_facts = 500000;
  limits.max_term_depth = 10000;
  CriticalInstanceReport report = TerminatesOnCriticalInstance(
      &ws.arena, &ws.vocab, so, relations, limits);
  EXPECT_TRUE(report.terminated)
      << "polynomial tier but the critical-instance chase found no "
         "fixpoint";
}

/// Reference BFS: the edges of the first path found from `from` to `to`,
/// scanning each node's out-edges in order. False when unreachable.
bool NaiveEdgePath(const PositionGraph& graph, uint32_t from, uint32_t to,
                   std::vector<uint32_t>* path) {
  std::vector<int64_t> via(graph.nodes.size(), -1);
  std::vector<bool> seen(graph.nodes.size(), false);
  std::vector<uint32_t> queue{from};
  seen[from] = true;
  for (size_t q = 0; q < queue.size() && !seen[to]; ++q) {
    for (uint32_t e : graph.out_edges[queue[q]]) {
      uint32_t next = graph.edges[e].to;
      if (seen[next]) continue;
      seen[next] = true;
      via[next] = e;
      queue.push_back(next);
    }
  }
  if (!seen[to]) return false;
  path->clear();
  for (uint32_t at = to; at != from; at = graph.edges[via[at]].from) {
    path->insert(path->begin(), static_cast<uint32_t>(via[at]));
  }
  return true;
}

/// Reference rank: the most special edges on a simple path starting at
/// `node`, by exhaustive depth-first search.
uint32_t MostSpecialEdges(const PositionGraph& graph, uint32_t node,
                          std::vector<bool>* on_path) {
  (*on_path)[node] = true;
  uint32_t best = 0;
  for (uint32_t e : graph.out_edges[node]) {
    const PositionEdge& edge = graph.edges[e];
    if ((*on_path)[edge.to]) continue;
    best = std::max(best, (edge.special ? 1u : 0u) +
                              MostSpecialEdges(graph, edge.to, on_path));
  }
  (*on_path)[node] = false;
  return best;
}

TEST_P(AnalyzeDifferentialTest, WeakAcyclicityAndRankMatchNaiveReferences) {
  // The analyzer decides weak acyclicity and the rank from its strongly
  // connected components. The references below know nothing of them:
  // weak acyclicity fails iff some special edge's head reaches its tail
  // (one BFS per special edge, whose first hit is the witness walk), and
  // the rank is the most special edges on any path.
  TestWorkspace ws;
  Rng rng(GetParam() * 73 + 9);
  std::vector<RelationId> relations =
      GenerateSchema(&ws.vocab, &rng, SchemaConfig{});
  for (int program = 0; program < 8; ++program) {
    std::vector<Tgd> tgds;
    for (int i = 0; i < 3; ++i) {
      tgds.push_back(
          GenerateTgd(&ws.arena, &ws.vocab, &rng, relations, TgdConfig{}));
    }
    ProgramAnalysis analysis =
        AnalyzeSo(ws.arena, TgdsToSo(&ws.arena, &ws.vocab, tgds));
    const PositionGraph& graph = analysis.graph;
    std::vector<uint32_t> walk;
    for (uint32_t se = 0; se < graph.edges.size() && walk.empty(); ++se) {
      std::vector<uint32_t> back;
      if (!graph.edges[se].special ||
          !NaiveEdgePath(graph, graph.edges[se].to, graph.edges[se].from,
                         &back)) {
        continue;
      }
      walk.push_back(se);
      walk.insert(walk.end(), back.begin(), back.end());
    }
    const CriterionVerdict& wa = analysis.verdict(Criterion::kWeaklyAcyclic);
    ASSERT_EQ(wa.holds, walk.empty()) << "program " << program;
    EXPECT_EQ(analysis.complexity.tier == ComplexityTier::kPolynomial,
              wa.holds);
    if (!wa.holds) {
      EXPECT_EQ(std::get<CycleWitness>(wa.witness).edges, walk);
      continue;
    }
    uint32_t rank = 0;
    std::vector<bool> on_path(graph.nodes.size(), false);
    for (uint32_t n = 0; n < graph.nodes.size(); ++n) {
      rank = std::max(rank, MostSpecialEdges(graph, n, &on_path));
    }
    EXPECT_EQ(analysis.complexity.rank, rank) << "program " << program;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzeDifferentialTest,
                         ::testing::Values(3, 13, 29, 41, 53, 67, 79, 101,
                                           113, 127, 139, 151));

}  // namespace
}  // namespace tgdkit
