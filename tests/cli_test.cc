// Tests for the command-line driver (src/cli).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/cli.h"

namespace tgdkit {
namespace {

/// Writes `content` to a unique temp file; removed on destruction.
class TempFile {
 public:
  TempFile(const std::string& tag, const std::string& content) {
    static int counter = 0;
    path_ = testing::TempDir() + "/tgdkit_cli_" + tag + "_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter++) +
            ".txt";
    std::ofstream out(path_);
    out << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunTool(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

TEST(CliTest, NoArgsPrintsUsage) {
  CliRun run = RunTool({});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandPrintsUsage) {
  CliRun run = RunTool({"frobnicate"});
  EXPECT_EQ(run.code, 1);
}

TEST(CliTest, MissingFileReportsError) {
  CliRun run = RunTool({"classify", "/nonexistent/deps.tgd"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("cannot open"), std::string::npos);
}

TEST(CliTest, ClassifyReportsBothFigures) {
  TempFile deps("classify",
                "mine: Emp(e, d) -> exists m . Mgr(e, m) .\n"
                "so exists fdm { Emp(e, d) -> DM(e, fdm(d)) } .\n");
  CliRun run = RunTool({"classify", deps.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("mine (tgd)"), std::string::npos);
  EXPECT_NE(run.out.find("figure-1: tgd,"), std::string::npos);
  EXPECT_NE(run.out.find("figure-2:"), std::string::npos);
  EXPECT_NE(run.out.find("#2 (so-tgd)"), std::string::npos);
  EXPECT_NE(run.out.find("chase termination (critical instance): PROVEN"),
            std::string::npos);
}

TEST(CliTest, ClassifyMembershipRowsArePrefixStableByteForByte) {
  // The membership row only ever APPENDS new classes: adding
  // triangularly-guarded must leave the pre-extension row a byte-exact
  // prefix of the new one. Pin the full rows for the old corpus shapes.
  TempFile deps("rows",
                "mine: Emp(e, d) -> exists m . Mgr(e, m) .\n"
                "full: E(x, y) & E(y, z) -> E(x, z) .\n"
                "none: E(x, y) & E(y, z) -> exists w . E(z, w) .\n");
  CliRun run = RunTool({"classify", deps.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("  figure-2: weakly-acyclic,linear,guarded,"
                         "weakly-guarded,sticky,sticky-join,"
                         "triangularly-guarded\n"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("  figure-2: full,weakly-acyclic,weakly-guarded,"
                         "triangularly-guarded\n"),
            std::string::npos)
      << run.out;
  // A member of nothing renders an empty row, exactly as before.
  EXPECT_NE(run.out.find("  figure-2: \n"), std::string::npos) << run.out;
  // Per-statement complexity lines ride along as '#' annotations.
  EXPECT_NE(run.out.find("  # complexity: polynomial (rank 1:"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("  # complexity: exponential (generating cycle "
                         "E.0 -*-> E.1 -> E.0)"),
            std::string::npos)
      << run.out;
  // ... and the merged program gets a structural complexity line.
  EXPECT_NE(run.out.find("chase complexity (structural): "),
            std::string::npos)
      << run.out;
}

TEST(CliTest, ClassifyCertifiesTheTriangularFrontierEndToEnd) {
  // Formerly "no decidable class": every classic criterion fails, the
  // row holds exactly the new class, and each failure still carries a
  // replayable witness line.
  TempFile deps("frontier",
                "frontier: so exists fv, fp, fq {"
                " ga(x, y) -> ga(y, fv(x, y)) ;"
                " hub(x) -> link(fp(x), fq(x)) ;"
                " link(x, u) & link(u, y) -> out(x, y) } .\n");
  CliRun run = RunTool({"classify", deps.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("  figure-2: triangularly-guarded\n"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("# witness: not weakly-acyclic:"),
            std::string::npos);
  EXPECT_NE(run.out.find("# witness: not weakly-guarded:"),
            std::string::npos);
  EXPECT_NE(run.out.find("# witness: not sticky-join:"), std::string::npos);
  EXPECT_NE(run.out.find("# complexity: exponential"), std::string::npos);
}

TEST(CliTest, ClassifyFlagsNonTerminatingRules) {
  TempFile deps("diverge", "so exists f { P(x) -> P(f(x)) } .\n");
  CliRun run = RunTool({"classify", deps.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("no fixpoint within budget"), std::string::npos);
}

TEST(CliTest, ChaseProducesModel) {
  TempFile deps("chase", "Emp(e) -> exists m . Mgr(e, m) .\n");
  TempFile inst("chase", "Emp(alice). Emp(bob).\n");
  CliRun run = RunTool({"chase", deps.path(), inst.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("# chase fixpoint"), std::string::npos);
  EXPECT_NE(run.out.find("Mgr(alice,"), std::string::npos);
  EXPECT_NE(run.out.find("Mgr(bob,"), std::string::npos);
}

TEST(CliTest, ChaseHonorsBudgetOptions) {
  TempFile deps("budget", "so exists f { P(x) -> P(f(x)) } .\n");
  TempFile inst("budget", "P(zero).\n");
  CliRun run = RunTool({"chase", deps.path(), inst.path(), "--max-depth", "5"});
  // A budget stop is a resource exit (docs/FORMAT.md), partial result on
  // stdout.
  EXPECT_EQ(run.code, 4) << run.err;
  EXPECT_NE(run.out.find("depth-limit"), std::string::npos);
}

TEST(CliTest, CheckReportsViolationWitness) {
  TempFile deps("check", "every: Emp(e) -> exists m . Mgr(e, m) .\n");
  TempFile inst("check", "Emp(alice). Emp(bob). Mgr(alice, boss).\n");
  CliRun run = RunTool({"check", deps.path(), inst.path()});
  EXPECT_EQ(run.code, 3);  // violated
  EXPECT_NE(run.out.find("VIOLATED at e=bob"), std::string::npos);
}

TEST(CliTest, CheckSatisfiedModel) {
  TempFile deps("check2",
                "Emp(e) -> exists m . Mgr(e, m) .\n"
                "henkin { forall e ; exists m(e) } Emp(e) -> Mgr(e, m) .\n");
  TempFile inst("check2", "Emp(alice). Mgr(alice, boss).\n");
  CliRun run = RunTool({"check", deps.path(), inst.path()});
  EXPECT_EQ(run.code, 0) << run.out;
  EXPECT_EQ(run.out.find("VIOLATED"), std::string::npos);
}

TEST(CliTest, CertainAnswersQuery) {
  TempFile deps("certain",
                "Takes(s, c) -> exists k . Enrolled(s, k) .\n"
                "Enrolled(s, k) -> Student(s) .\n");
  TempFile inst("certain", "Takes(ada, logic). Takes(bob, algebra).\n");
  CliRun run = RunTool(
      {"certain", deps.path(), inst.path(), "ans(s) :- Student(s)."});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("# complete"), std::string::npos);
  EXPECT_NE(run.out.find("ada"), std::string::npos);
  EXPECT_NE(run.out.find("bob"), std::string::npos);
}

TEST(CliTest, CertainBooleanQuery) {
  TempFile deps("bool", "P(x) -> Q(x) .\n");
  TempFile inst("bool", "P(a).\n");
  CliRun yes = RunTool({"certain", deps.path(), inst.path(), "ans() :- Q(x)."});
  EXPECT_EQ(yes.code, 0);
  EXPECT_NE(yes.out.find("true"), std::string::npos);
  CliRun no = RunTool({"certain", deps.path(), inst.path(), "ans() :- R(x)."});
  EXPECT_EQ(no.code, 0);
  EXPECT_NE(no.out.find("false"), std::string::npos);
}

TEST(CliTest, NormalizePrintsBothAlgorithms) {
  TempFile deps("norm",
                "tau: nested Dep(d) -> exists u . Dep2(u) &"
                " [ Grp(d, g) -> Grp2(u, g) ] .\n");
  CliRun run = RunTool({"normalize", deps.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("nested-to-so: so exists"), std::string::npos);
  EXPECT_NE(run.out.find("nested-to-henkin (2 rules)"), std::string::npos);
}

TEST(CliTest, BadQuerySyntaxReported) {
  TempFile deps("badq", "P(x) -> Q(x) .\n");
  TempFile inst("badq", "P(a).\n");
  CliRun run = RunTool({"certain", deps.path(), inst.path(), "not a query"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("query"), std::string::npos);
}

TEST(CliTest, BadDependencySyntaxReported) {
  TempFile deps("bad", "P(x) -> -> Q(x) .\n");
  CliRun run = RunTool({"classify", deps.path()});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("ParseError"), std::string::npos);
}

}  // namespace
}  // namespace tgdkit
