// Exit-code contract audit (docs/FORMAT.md, "Exit codes"): every
// subcommand must map its outcome onto the shared table in src/cli/cli.h
// — 0 ok, 1 usage, 2 input, 3 negative verdict, 4 resource-stopped,
// 5 internal. The batch supervisor's retry policy keys off these values,
// so a drift here silently turns "retry with a bigger budget" into
// "quarantine as misconfigured".
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"

namespace tgdkit {
namespace {

class ExitCodeTempFile {
 public:
  ExitCodeTempFile(const std::string& tag, const std::string& content) {
    static int counter = 0;
    path_ = testing::TempDir() + "/tgdkit_exit_" + tag + "_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter++) +
            ".txt";
    std::ofstream out(path_);
    out << content;
  }
  ~ExitCodeTempFile() { std::remove(path_.c_str()); }
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

// An infinite chase (fresh successor forever) and a finite one.
constexpr char kInfinite[] = "succ: N(x) -> exists y . N(y) & E(x, y) .\n";
constexpr char kFinite[] = "t: E(x, y) & E(y, z) -> E(x, z) .\n";

TEST(ExitCodeTest, StatusAndStopMappersFollowTheTable) {
  EXPECT_EQ(ExitCodeForStop(StopReason::kFixpoint), kExitOk);
  EXPECT_EQ(ExitCodeForStop(StopReason::kDeadline), kExitResource);
  EXPECT_EQ(ExitCodeForStop(StopReason::kStepLimit), kExitResource);
  EXPECT_EQ(ExitCodeForStop(StopReason::kCancelled), kExitResource);
  EXPECT_EQ(ExitCodeForStatus(Status::Ok()), kExitOk);
  EXPECT_EQ(ExitCodeForStatus(Status::NotFound("x")), kExitInput);
  EXPECT_EQ(ExitCodeForStatus(Status::ParseError("x")), kExitInput);
  EXPECT_EQ(ExitCodeForStatus(Status::DataLoss("x")), kExitInput);
  EXPECT_EQ(ExitCodeForStatus(Status::InvalidArgument("x")), kExitInput);
  EXPECT_EQ(ExitCodeForStatus(Status::ResourceExhausted("x")),
            kExitResource);
  EXPECT_EQ(ExitCodeForStatus(Status::Internal("x")), kExitInternal);
}

TEST(ExitCodeTest, UsageErrorsExitOne) {
  EXPECT_EQ(RunTool({}).code, kExitUsage);
  EXPECT_EQ(RunTool({"frobnicate"}).code, kExitUsage);
  EXPECT_EQ(RunTool({"chase", "--not-an-option"}).code, kExitUsage);
  EXPECT_EQ(RunTool({"chase", "only-one-positional"}).code, kExitUsage);
  EXPECT_EQ(RunTool({"chase", "a", "b", "--max-steps", "NaN"}).code,
            kExitUsage);
  // --checkpoint/--resume are chase-only.
  EXPECT_EQ(RunTool({"lint", "x.tgd", "--checkpoint", "s.snap"}).code,
            kExitUsage);
  EXPECT_EQ(RunTool({"batch", "--not-an-option", "m"}).code, kExitUsage);
  EXPECT_EQ(RunTool({"batch"}).code, kExitUsage);
  // An empty value is refused by name, whatever the command.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"batch", "--run-dir", "", "/nonexistent/m"},
        std::vector<std::string>{"fuzz", "--corpus-dir", ""},
        std::vector<std::string>{"serve", "--socket", ""}}) {
    CliRun empty = RunTool(args);
    EXPECT_EQ(empty.code, kExitUsage) << args[0];
    EXPECT_NE(empty.err.find(args[1]), std::string::npos) << empty.err;
  }
  // batch --max-parallel takes the manifest's bounds, 1-256; the
  // missing manifest would exit 2.
  EXPECT_EQ(
      RunTool({"batch", "--max-parallel", "0", "/nonexistent/m"}).code,
      kExitUsage);
  EXPECT_EQ(
      RunTool({"batch", "--max-parallel", "257", "/nonexistent/m"}).code,
      kExitUsage);
  // Values whose scaled or narrowed form would wrap around: 2^44 MiB,
  // 2^32, 2^54 KiB. The largest value that fits still parses (the
  // missing input files then exit 2).
  EXPECT_EQ(RunTool({"chase", "a", "b", "--max-memory-mb", "17592186044416"})
                .code,
            kExitUsage);
  EXPECT_EQ(RunTool({"chase", "a", "b", "--max-memory-mb", "17592186044415"})
                .code,
            kExitInput);
  EXPECT_EQ(RunTool({"chase", "a", "b", "--max-depth", "4294967296"}).code,
            kExitUsage);
  EXPECT_EQ(RunTool({"chase", "a", "b", "--max-depth", "4294967295"}).code,
            kExitInput);
  EXPECT_EQ(RunTool({"chase", "a", "b", "--spill-segment-kb",
                     "18014398509481984"})
                .code,
            kExitUsage);
  // serve rejects them before it binds anything.
  CliRun frame = RunTool({"serve", "--max-frame-kb", "18014398509481984"});
  EXPECT_EQ(frame.code, kExitUsage);
  EXPECT_NE(frame.err.find("--max-frame-kb"), std::string::npos) << frame.err;
  EXPECT_EQ(RunTool({"serve", "--max-inflight", "4294967296"}).code,
            kExitUsage);
  EXPECT_EQ(RunTool({"serve", "--quarantine-after", "4294967296"}).code,
            kExitUsage);
  // serve has no response cache to size.
  EXPECT_EQ(RunTool({"serve", "--cache-mb", "64"}).code, kExitUsage);
  // batch, fuzz and selftest read their numbers like every other command:
  // digits only, no overflow, and narrowed values bounded.
  EXPECT_EQ(RunTool({"batch", "--max-parallel", "99999999999999999999999",
                     "/nonexistent/m"})
                .code,
            kExitUsage);
  EXPECT_EQ(
      RunTool({"fuzz", "--shrink-rounds", "4294967296", "--seeds", "0"}).code,
      kExitUsage);
  EXPECT_EQ(RunTool({"selftest", "--spin-ms", "12x"}).code, kExitUsage);
  EXPECT_EQ(RunTool({"selftest", "--die-exit", "256"}).code, kExitUsage);
  // A signal number is below NSIG; std::raise would reject a larger one
  // and return.
  CliRun signal = RunTool({"selftest", "--die-signal", "99999"});
  EXPECT_EQ(signal.code, kExitUsage);
  EXPECT_NE(signal.err.find("--die-signal"), std::string::npos) << signal.err;
  EXPECT_EQ(RunTool({"selftest", "--die-signal", std::to_string(NSIG)}).code,
            kExitUsage);
}

TEST(ExitCodeTest, MissingOrUnparseableInputsExitTwo) {
  ExitCodeTempFile inst("inst", "N(a) .\n");
  for (const char* cmd : {"classify", "lint", "normalize", "dot"}) {
    EXPECT_EQ(RunTool({cmd, "/nonexistent/deps.tgd"}).code, kExitInput) << cmd;
  }
  for (const char* cmd : {"chase", "check", "explain", "solve"}) {
    EXPECT_EQ(RunTool({cmd, "/nonexistent/deps.tgd", inst.path()}).code,
              kExitInput)
        << cmd;
  }
  ExitCodeTempFile garbage("garbage", "this is not a dependency @@@\n");
  EXPECT_EQ(RunTool({"classify", garbage.path()}).code, kExitInput);
  // 0-ary atoms and facts are parse errors: storage divides by arity.
  ExitCodeTempFile nullary_head("nullary_head", "P(x) -> R() .\n");
  ExitCodeTempFile p_fact("p_fact", "P(a) .\n");
  ExitCodeTempFile nullary_fact("nullary_fact", "R() .\n");
  ExitCodeTempFile copy("copy", "P(x) -> Q(x) .\n");
  EXPECT_EQ(RunTool({"classify", nullary_head.path()}).code, kExitInput);
  EXPECT_EQ(RunTool({"chase", nullary_head.path(), p_fact.path()}).code,
            kExitInput);
  EXPECT_EQ(RunTool({"chase", copy.path(), nullary_fact.path()}).code,
            kExitInput);
  EXPECT_EQ(RunTool({"chase", "--resume", "/nonexistent/x.snap"}).code,
            kExitInput);
  EXPECT_EQ(RunTool({"batch", "/nonexistent/m.manifest"}).code, kExitInput);
}

TEST(ExitCodeTest, ChaseFixpointExitsZeroBudgetStopExitsFour) {
  ExitCodeTempFile deps("deps", kFinite);
  ExitCodeTempFile inst("inst", "E(a, b) .\nE(b, c) .\n");
  CliRun fix = RunTool({"chase", deps.path(), inst.path()});
  EXPECT_EQ(fix.code, kExitOk) << fix.err;
  EXPECT_NE(fix.out.find("# status: OK"), std::string::npos) << fix.out;

  ExitCodeTempFile inf("inf", kInfinite);
  ExitCodeTempFile seed("seed", "N(a) .\n");
  CliRun stopped = RunTool({"chase", inf.path(), seed.path(), "--max-rounds",
                        "2", "--max-depth", "100000000"});
  EXPECT_EQ(stopped.code, kExitResource) << stopped.err;
  EXPECT_NE(stopped.out.find(
                "# status: ResourceExhausted: chase stopped by round-limit"),
            std::string::npos)
      << stopped.out;
}

TEST(ExitCodeTest, CheckVerdictOutranksUnknown) {
  ExitCodeTempFile deps("deps", "every: Emp(e) -> exists m . Mgr(e, m) .\n");
  ExitCodeTempFile sat("sat", "Emp(a) .\nMgr(a, b) .\n");
  ExitCodeTempFile bad("bad", "Emp(a) .\n");
  CliRun ok = RunTool({"check", deps.path(), sat.path()});
  EXPECT_EQ(ok.code, kExitOk) << ok.out;
  EXPECT_NE(ok.out.find("# status: OK"), std::string::npos);
  CliRun violated = RunTool({"check", deps.path(), bad.path()});
  EXPECT_EQ(violated.code, kExitVerdict) << violated.out;

  // Starved of budget the verdict is UNKNOWN: a resource exit.
  std::string chain;
  for (int i = 0; i < 40; ++i) {
    chain += "Emp(a" + std::to_string(i) + ") .\nMgr(a" +
             std::to_string(i) + ", m) .\n";
  }
  ExitCodeTempFile big("big", chain);
  CliRun unknown =
      RunTool({"check", deps.path(), big.path(), "--max-steps", "1"});
  EXPECT_EQ(unknown.code, kExitResource) << unknown.out;
  EXPECT_NE(unknown.out.find("# status: ResourceExhausted"),
            std::string::npos)
      << unknown.out;

  // A definite violation stands even when other rules are starved: the
  // cheap first rule is VIOLATED before the budget runs out on the big
  // second one.
  ExitCodeTempFile two("two",
                       "v: P(x) -> Q(x) .\n"
                       "every: Emp(e) -> exists m . Mgr(e, m) .\n");
  ExitCodeTempFile mixed("mixed", "P(a) .\n" + chain);
  CliRun both =
      RunTool({"check", two.path(), mixed.path(), "--max-steps", "2"});
  EXPECT_EQ(both.code, kExitVerdict) << both.out;
  EXPECT_NE(both.out.find("UNKNOWN (step-limit)"), std::string::npos)
      << both.out;
}

TEST(ExitCodeTest, CertainAndExplainFollowTheChaseStop) {
  ExitCodeTempFile inf("inf", kInfinite);
  ExitCodeTempFile seed("seed", "N(a) .\n");
  CliRun truncated = RunTool({"certain", inf.path(), seed.path(),
                          "ans(x) :- N(x).", "--max-rounds", "2",
                          "--max-depth", "100000000"});
  EXPECT_EQ(truncated.code, kExitResource) << truncated.out;
  EXPECT_NE(truncated.out.find("# status: ResourceExhausted"),
            std::string::npos)
      << truncated.out;

  ExitCodeTempFile fin("fin", kFinite);
  ExitCodeTempFile edges("edges", "E(a, b) .\nE(b, c) .\n");
  CliRun complete = RunTool({"certain", fin.path(), edges.path(),
                         "ans(x, z) :- E(x, z)."});
  EXPECT_EQ(complete.code, kExitOk) << complete.out;
  EXPECT_NE(complete.out.find("# status: OK"), std::string::npos);

  CliRun explain_ok = RunTool({"explain", fin.path(), edges.path()});
  EXPECT_EQ(explain_ok.code, kExitOk) << explain_ok.out;
  CliRun explain_cut = RunTool({"explain", inf.path(), seed.path(),
                            "--max-rounds", "2", "--max-depth",
                            "100000000"});
  EXPECT_EQ(explain_cut.code, kExitResource) << explain_cut.out;
}

TEST(ExitCodeTest, SolveEmitsStatusAndExitsZeroOnUniversalSolution) {
  ExitCodeTempFile deps("deps", "st: S(x, y) -> exists z . T(x, z) .\n");
  ExitCodeTempFile inst("inst", "S(a, b) .\n");
  CliRun run = RunTool({"solve", deps.path(), inst.path()});
  EXPECT_EQ(run.code, kExitOk) << run.err;
  EXPECT_NE(run.out.find("# status: OK"), std::string::npos) << run.out;
}

TEST(ExitCodeTest, LintFindingsAreAVerdictNotAnError) {
  ExitCodeTempFile clean("clean", "E(x, y) & E(y, z) -> E(x, z) .\n");
  EXPECT_EQ(RunTool({"lint", clean.path()}).code, kExitOk);
  ExitCodeTempFile noisy("noisy", "P(x) -> Q(x, y) .\n");
  EXPECT_EQ(RunTool({"lint", noisy.path()}).code, kExitVerdict);
  EXPECT_EQ(RunTool({"lint", noisy.path(), "--format=yaml"}).code, kExitUsage);
}

TEST(ExitCodeTest, FailedCheckpointIsAnInternalError) {
  ExitCodeTempFile deps("deps", kFinite);
  ExitCodeTempFile inst("inst", "E(a, b) .\nE(b, c) .\n");
  // Snapshots to a directory that cannot exist: the chase itself still
  // completes (the result is on stdout) but the durability promise broke.
  CliRun run = RunTool({"chase", deps.path(), inst.path(), "--checkpoint",
                    "/nonexistent-dir/x.snap"});
  EXPECT_EQ(run.code, kExitInternal) << run.err;
  EXPECT_NE(run.err.find("tgdkit: checkpoint:"), std::string::npos)
      << run.err;
  EXPECT_NE(run.out.find("# chase fixpoint"), std::string::npos);
}

TEST(ExitCodeTest, SelftestDiesExactlyAsInstructed) {
  EXPECT_EQ(RunTool({"selftest"}).code, kExitOk);
  EXPECT_EQ(RunTool({"selftest", "--die-exit", "7"}).code, 7);
  // SIGCHLD is ignored by default, so raising it returns: a task meant to
  // crash must then fail, not report OK.
  CliRun survived =
      RunTool({"selftest", "--die-signal", std::to_string(SIGCHLD)});
  EXPECT_EQ(survived.code, kExitInternal);
  EXPECT_EQ(survived.out.find("# status: OK"), std::string::npos)
      << survived.out;
  EXPECT_NE(survived.err.find("tgdkit: selftest:"), std::string::npos)
      << survived.err;
  EXPECT_EQ(RunTool({"selftest", "--bogus"}).code, kExitUsage);
  CliRun noisy = RunTool({"selftest", "--stdout-lines", "2", "--stderr-lines",
                      "1"});
  EXPECT_EQ(noisy.code, kExitOk);
  EXPECT_NE(noisy.out.find("selftest stdout line 1"), std::string::npos);
  EXPECT_NE(noisy.err.find("selftest stderr line 0"), std::string::npos);
}

TEST(ExitCodeTest, DiagnosticsGoToStderrPayloadToStdout) {
  // Stream hygiene: every failing invocation above must put its
  // diagnostic on stderr and nothing non-machine-readable on stdout.
  ExitCodeTempFile inst("inst", "N(a) .\n");
  for (auto args : std::vector<std::vector<std::string>>{
           {"chase", "/nonexistent/deps.tgd", inst.path()},
           {"classify", "/nonexistent/deps.tgd"},
           {"chase", "--not-an-option"},
           {"batch", "/nonexistent/m.manifest"},
       }) {
    CliRun run = RunTool(args);
    EXPECT_NE(run.code, kExitOk);
    EXPECT_TRUE(run.out.empty()) << "stdout polluted: " << run.out;
    EXPECT_FALSE(run.err.empty()) << "diagnostic missing on stderr";
  }
}

}  // namespace
}  // namespace tgdkit
