// Tests for the lint checks (src/analyze/lint) and the `tgdkit lint`
// command: each check firing on a crafted program, severity gating of the
// exit code, and the three output formats.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analyze/lint.h"
#include "cli/cli.h"
#include "parse/parser.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class LintTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;

  LintReport Lint(const std::string& text) {
    Parser p(&ws_.arena, &ws_.vocab);
    auto program = p.ParseDependenciesLenient(text);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    return LintProgram(&ws_.arena, &ws_.vocab, *program);
  }

  static const LintDiagnostic* Find(const LintReport& report,
                                    const std::string& check) {
    for (const LintDiagnostic& d : report.diagnostics) {
      if (d.check == check) return &d;
    }
    return nullptr;
  }
};

TEST_F(LintTest, CleanProgramHasNoDiagnostics) {
  LintReport report = Lint("E(x, y) & E(y, z) -> E(x, z) .");
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_FALSE(report.HasAtLeast(LintSeverity::kNote));
}

TEST_F(LintTest, NonRangeRestrictedHeadIsAnError) {
  LintReport report = Lint("P(a) -> Q(a, b) .");
  const LintDiagnostic* d = Find(report, "non-range-restricted-head");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kError);
  EXPECT_EQ(d->line, 1u);
  EXPECT_NE(d->message.find("b"), std::string::npos);
  // The underlying validation failure is folded into this diagnostic, not
  // reported twice.
  EXPECT_EQ(Find(report, "invalid-statement"), nullptr);
  EXPECT_TRUE(report.HasAtLeast(LintSeverity::kError));
}

TEST_F(LintTest, NoDecidableClassWarningEmbedsAllThreeWitnesses) {
  LintReport report =
      Lint("bad : E(x, y) & E(y, z) -> exists w . E(z, w) .");
  const LintDiagnostic* d = Find(report, "no-decidable-class");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_NE(d->message.find("cycle"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("no body atom covers"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("marked variable"), std::string::npos)
      << d->message;
}

TEST_F(LintTest, TriangularGuardednessDowngradesTheWarningToANote) {
  // Every classic class fails, but TG certifies decidability: the
  // diagnostic survives (with all three witnesses) at note severity.
  LintReport report = Lint(
      "frontier: so exists fv, fp, fq {"
      " ga(x, y) -> ga(y, fv(x, y)) ;"
      " hub(x) -> link(fp(x), fq(x)) ;"
      " link(x, u) & link(u, y) -> out(x, y) } .");
  const LintDiagnostic* d = Find(report, "no-decidable-class");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kNote);
  EXPECT_NE(d->message.find("still decidable"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("triangularly-guarded"), std::string::npos)
      << d->message;
  EXPECT_FALSE(report.HasAtLeast(LintSeverity::kWarning));
}

TEST_F(LintTest, UndecidableProgramsAlsoCarryTheTriangleWitness) {
  LintReport report =
      Lint("bad : E(x, y) & E(y, z) -> exists w . E(z, w) .");
  const LintDiagnostic* d = Find(report, "no-decidable-class");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_NE(d->message.find("not triangularly guarded"), std::string::npos)
      << d->message;
  EXPECT_NE(d->message.find("triangular component"), std::string::npos)
      << d->message;
}

TEST_F(LintTest, ChaseComplexityNoteOnlyWhenNullsAreMinted) {
  // A null-minting program gets the tier note, pinned to the rule that
  // owns the first special edge.
  LintReport report = Lint("grow : e(x, y) -> exists z . e(y, z) .");
  const LintDiagnostic* d = Find(report, "chase-complexity");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kNote);
  EXPECT_EQ(d->line, 1u);
  EXPECT_NE(d->message.find("exponential"), std::string::npos)
      << d->message;
  // A full program never mints nulls: no note (and no diagnostics at all
  // — pinned by CleanProgramHasNoDiagnostics above).
  LintReport full = Lint("E(x, y) & E(y, z) -> E(x, z) .");
  EXPECT_EQ(Find(full, "chase-complexity"), nullptr);
}

TEST_F(LintTest, DecidableProgramsDoNotWarn) {
  // Not weakly acyclic, but weakly guarded — one decidable class suffices.
  LintReport report = Lint("P(x) -> exists y . P(y) & R(x, y) .");
  EXPECT_EQ(Find(report, "no-decidable-class"), nullptr);
}

TEST_F(LintTest, SharedSkolemFunctionAcrossStatements) {
  LintReport report = Lint(
      "so exists f { P(x) -> Q(f(x)) } .\n"
      "so exists f { R(x) -> S(f(x)) } .");
  const LintDiagnostic* d = Find(report, "shared-skolem-function");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kWarning);
  EXPECT_EQ(d->line, 2u);  // pinned to the second statement
  EXPECT_NE(d->message.find("f"), std::string::npos);
}

TEST_F(LintTest, UnusedBodyVariableIsANote) {
  LintReport report = Lint("Emp(e, d) -> exists m . Mgr(e, m) .");
  const LintDiagnostic* d = Find(report, "unused-body-variable");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kNote);
  EXPECT_NE(d->message.find("d"), std::string::npos);
  EXPECT_TRUE(report.HasAtLeast(LintSeverity::kNote));
  EXPECT_FALSE(report.HasAtLeast(LintSeverity::kWarning));
}

TEST_F(LintTest, JoinedVariablesAreNotUnused) {
  LintReport report = Lint("P(x, y) & Q(y, z) -> R(x, z) .");
  EXPECT_EQ(Find(report, "unused-body-variable"), nullptr);
}

TEST_F(LintTest, DuplicateAtomIsANote) {
  LintReport report = Lint("P(x, y) & P(x, y) -> R(x, y) .");
  const LintDiagnostic* d = Find(report, "duplicate-atom");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, LintSeverity::kNote);
}

TEST_F(LintTest, DiagnosticsSortedBySpan) {
  LintReport report = Lint(
      "P(a) -> Q(a, b) .\n"
      "R(x, y) & R(x, y) -> S(x, y) .");
  ASSERT_GE(report.diagnostics.size(), 2u);
  for (size_t i = 1; i < report.diagnostics.size(); ++i) {
    EXPECT_LE(report.diagnostics[i - 1].line, report.diagnostics[i].line);
  }
}

TEST_F(LintTest, RenderedFormatsCarryTheDiagnostic) {
  LintReport report = Lint("P(a) -> Q(a, b) .");
  std::string text = RenderLintText("deps.tgd", report);
  EXPECT_NE(text.find("deps.tgd:1:1: error [non-range-restricted-head]"),
            std::string::npos)
      << text;
  std::string json = RenderLintJson("deps.tgd", report);
  EXPECT_NE(json.find("\"check\": \"non-range-restricted-head\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  std::string sarif = RenderLintSarif("deps.tgd", report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("\"ruleId\": \"non-range-restricted-head\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

TEST_F(LintTest, JsonEscapesSpecialCharacters) {
  // Relation names cannot carry quotes, but messages embed ToString'd
  // statements; make sure the renderer survives a program whose witness
  // text is nontrivial, producing balanced quotes.
  LintReport report = Lint("bad : E(x, y) & E(y, z) -> exists w . E(z, w) .");
  std::string json = RenderLintJson("d.tgd", report);
  int quotes = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '"' && (i == 0 || json[i - 1] != '\\')) ++quotes;
  }
  EXPECT_EQ(quotes % 2, 0) << json;
}

// --- CLI integration --------------------------------------------------------

class LintCliTempFile {
 public:
  LintCliTempFile(const std::string& tag, const std::string& content) {
    static int counter = 0;
    path_ = testing::TempDir() + "/tgdkit_lint_" + tag + "_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter++) +
            ".tgd";
    std::ofstream out(path_);
    out << content;
  }
  ~LintCliTempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct LintCliRun {
  int code;
  std::string out;
  std::string err;
};

LintCliRun RunLint(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

constexpr char kBadProgram[] =
    "bad : E(x, y) & E(y, z) -> exists w . E(z, w) .\n"
    "orphan : P(a) -> Q(a, b) .\n";

TEST(LintCliTest, CleanProgramExitsZero) {
  LintCliTempFile deps("clean", "E(x, y) & E(y, z) -> E(x, z) .\n");
  LintCliRun run = RunLint({"lint", deps.path()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_TRUE(run.out.empty()) << run.out;
}

TEST(LintCliTest, SeverityGatesTheExitCode) {
  LintCliTempFile deps("gate", kBadProgram);
  // Default --fail-on=error: the range error alone trips it. Findings at
  // or above the gate are a negative verdict: exit 3 (docs/FORMAT.md).
  EXPECT_EQ(RunLint({"lint", deps.path()}).code, 3);
  EXPECT_EQ(RunLint({"lint", deps.path(), "--fail-on=warning"}).code, 3);
  EXPECT_EQ(RunLint({"lint", deps.path(), "--fail-on", "note"}).code, 3);
  // Notes alone pass --fail-on=warning but trip --fail-on=note.
  LintCliTempFile notes("notes", "Emp(e, d) -> exists m . Mgr(e, m) .\n");
  EXPECT_EQ(RunLint({"lint", notes.path(), "--fail-on=warning"}).code, 0);
  EXPECT_EQ(RunLint({"lint", notes.path(), "--fail-on=note"}).code, 3);
}

TEST(LintCliTest, TextFormatPinsFileLineColumn) {
  LintCliTempFile deps("text", kBadProgram);
  LintCliRun run = RunLint({"lint", deps.path()});
  EXPECT_NE(run.out.find(deps.path() + ":1:1: warning [no-decidable-class]"),
            std::string::npos)
      << run.out;
  EXPECT_NE(
      run.out.find(deps.path() + ":2:1: error [non-range-restricted-head]"),
      std::string::npos)
      << run.out;
}

TEST(LintCliTest, JsonAndSarifFormats) {
  LintCliTempFile deps("fmt", kBadProgram);
  LintCliRun json = RunLint({"lint", deps.path(), "--format=json"});
  EXPECT_EQ(json.code, 3);
  EXPECT_NE(json.out.find("\"diagnostics\""), std::string::npos) << json.out;
  LintCliRun sarif = RunLint({"lint", deps.path(), "--format", "sarif"});
  EXPECT_EQ(sarif.code, 3);
  EXPECT_NE(sarif.out.find("\"$schema\""), std::string::npos) << sarif.out;
  EXPECT_NE(sarif.out.find("\"results\""), std::string::npos);
  LintCliRun bad = RunLint({"lint", deps.path(), "--format=yaml"});
  EXPECT_NE(bad.code, 0);
  EXPECT_NE(bad.err.find("must be text, json or sarif"), std::string::npos);
}

TEST(LintCliTest, MissingFileExitsTwo) {
  LintCliRun run = RunLint({"lint", "/nonexistent/deps.tgd"});
  EXPECT_EQ(run.code, 2);
}

}  // namespace
}  // namespace tgdkit
