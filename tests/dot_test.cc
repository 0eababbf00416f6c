// Tests for the GraphViz exports and the `tgdkit dot` CLI command.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "classify/dot.h"
#include "cli/cli.h"
#include "dep/skolem.h"
#include "parse/parser.h"
#include "reduce/pcp.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class DotTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;
};

TEST_F(DotTest, PositionGraphShowsSpecialEdges) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies("P(x) -> exists y . R(x, y) .");
  ASSERT_TRUE(program.ok());
  std::vector<Tgd> tgds = program->Tgds();
  SoTgd so = TgdsToSo(&ws_.arena, &ws_.vocab, tgds);
  std::string dot = PositionGraphDot(ws_.vocab, AnalyzeSo(ws_.arena, so));
  EXPECT_NE(dot.find("digraph positions"), std::string::npos);
  // Regular edge P.0 -> R.0, special edge P.0 -> R.1.
  EXPECT_NE(dot.find("\"P.0\" -> \"R.0\";"), std::string::npos);
  EXPECT_NE(dot.find("\"P.0\" -> \"R.1\" [style=dashed"), std::string::npos);
  // The affected position R.1 is shaded.
  EXPECT_NE(dot.find("\"R.1\" [style=filled"), std::string::npos);
  EXPECT_EQ(dot.find("\"R.0\" [style=filled"), std::string::npos);
}

TEST_F(DotTest, QuantifierGraphShapes) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies(
      "henkin { forall e, d ; exists eid(e) ; exists dm(d) }"
      " Emp(e, d) -> Pair(e, d, eid, dm) .");
  ASSERT_TRUE(program.ok());
  std::string dot =
      QuantifierDot(ws_.vocab, program->dependencies[0].henkin.quantifier);
  EXPECT_NE(dot.find("\"e\" [shape=box]"), std::string::npos);
  EXPECT_NE(dot.find("\"eid\" [shape=ellipse"), std::string::npos);
  EXPECT_NE(dot.find("\"e\" -> \"eid\";"), std::string::npos);
  EXPECT_NE(dot.find("\"d\" -> \"dm\";"), std::string::npos);
  EXPECT_EQ(dot.find("\"e\" -> \"dm\""), std::string::npos);
}

TEST_F(DotTest, NestingTreeHasOneNodePerPart) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies(
      "nested Dep(d) -> exists u . Dep2(u) &"
      " [ Grp(d, g) -> Grp2(u, g) ] &"
      " [ Emp(e, d) -> Mgr(e, u) ] .");
  ASSERT_TRUE(program.ok());
  std::string dot =
      NestingTreeDot(ws_.arena, ws_.vocab, program->dependencies[0].nested);
  EXPECT_NE(dot.find("n0 "), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n2;"), std::string::npos);
  EXPECT_NE(dot.find("Dep(d)"), std::string::npos);
}

TEST_F(DotTest, PcpPositionGraphHasSpecialCycle) {
  // The PCP encoding's position graph must contain dashed (special)
  // edges — the visual signature of its non-weak-acyclicity.
  PcpInstance pcp{2, {{{1}, {2}}, {{2}, {1}}}};
  PcpEncoding enc = BuildPcpEncoding(&ws_.arena, &ws_.vocab, pcp);
  SoTgd rules = enc.HenkinRuleSet(&ws_.arena, &ws_.vocab);
  std::string dot =
      PositionGraphDot(ws_.vocab, AnalyzeSo(ws_.arena, rules));
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
  // Both term-carrying positions of R are affected (shaded).
  EXPECT_NE(dot.find("\"R.1\" [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("\"R.2\" [style=filled"), std::string::npos);
}

TEST_F(DotTest, HasseDiagramColorsMembersAndDrawsSubsumptions) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto program =
      p.ParseDependencies("Emp(e, d) -> exists m . Mgr(e, m) .");
  ASSERT_TRUE(program.ok());
  SoTgd so = program->Sos().empty()
                 ? TgdsToSo(&ws_.arena, &ws_.vocab, program->Tgds())
                 : program->Sos()[0];
  std::string dot = Figure2HasseDot(ClassifyFigure2(ws_.arena, so));
  EXPECT_NE(dot.find("digraph hasse"), std::string::npos);
  // Members are filled; full (a non-member here) is not.
  EXPECT_NE(dot.find("\"linear\" [style=filled"), std::string::npos);
  EXPECT_NE(dot.find("\"triangularly-guarded\" [style=filled"),
            std::string::npos);
  EXPECT_EQ(dot.find("\"full\" [style=filled"), std::string::npos);
  // The new class sits above all three maximal classic classes.
  EXPECT_NE(dot.find("\"weakly-acyclic\" -> \"triangularly-guarded\";"),
            std::string::npos);
  EXPECT_NE(dot.find("\"weakly-guarded\" -> \"triangularly-guarded\";"),
            std::string::npos);
  EXPECT_NE(dot.find("\"sticky-join\" -> \"triangularly-guarded\";"),
            std::string::npos);
}

TEST_F(DotTest, AnalysisGraphRendersTheWitnessTriangleRed) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies(
      "bad : E(x, y) & E(y, z) -> exists w . E(z, w) .");
  ASSERT_TRUE(program.ok());
  ProgramAnalysis analysis =
      AnalyzeProgram(&ws_.arena, &ws_.vocab, *program);
  ASSERT_FALSE(analysis.verdict(Criterion::kTriangularlyGuarded).holds);
  std::string dot = AnalysisDot(ws_.vocab, analysis);
  // The unguarded component's nodes carry a red border...
  EXPECT_NE(dot.find("\"E.0\" [style=filled, fillcolor=lightgray, "
                     "penwidth=2, color=red]"),
            std::string::npos)
      << dot;
  EXPECT_NE(dot.find("\"E.1\" [style=filled, fillcolor=lightgray, "
                     "penwidth=2, color=red]"),
            std::string::npos)
      << dot;
  // ... and its witness cycle edges are red too.
  EXPECT_NE(dot.find("color=red, penwidth=2"), std::string::npos) << dot;
}

TEST_F(DotTest, CliDotCommand) {
  std::string path = testing::TempDir() + "/dot_cli_deps.tgd";
  {
    std::ofstream out(path);
    out << "henkin { forall x ; exists y(x) } P(x) -> R(x, y) .\n"
        << "nested Q(a) -> exists b . S(a, b) & [ T(a, c) -> U(b, c) ] .\n";
  }
  std::ostringstream out, err;
  int code = RunCli({"dot", path}, out, err);
  std::remove(path.c_str());
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("digraph positions"), std::string::npos);
  EXPECT_NE(out.str().find("digraph quantifier"), std::string::npos);
  EXPECT_NE(out.str().find("digraph nesting"), std::string::npos);
  EXPECT_NE(out.str().find("digraph hasse"), std::string::npos);
}

}  // namespace
}  // namespace tgdkit
