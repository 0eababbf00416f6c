// CLI contract of `tgdkit fuzz` (docs/FUZZING.md) and of --auto-budget
// (docs/BUDGETS.md): exit codes, same-seed determinism of the verdict
// log, the seeded-defect reproducer corpus, the --replay regression
// gate, and the budget echo on '# status:' lines.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"

namespace tgdkit {
namespace {

namespace fs = std::filesystem;

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

class FuzzCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = testing::TempDir() + "/tgdkit_fuzz_cli_" +
           std::to_string(getpid()) + "_" + std::to_string(counter++);
    fs::create_directories(dir_);
    scratch_ = dir_ + "/scratch";
    corpus_ = dir_ + "/corpus";
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir_, scratch_, corpus_;
};

TEST_F(FuzzCliTest, CleanCampaignExitsZeroWithSummary) {
  CliRun run = RunTool({"fuzz", "--seeds", "3", "--scratch-dir", scratch_});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("# fuzz summary seeds=3 violations=0"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("# status: OK"), std::string::npos);
  // One verdict line per seed, each naming its shape and fault schedule.
  EXPECT_NE(run.out.find("# fuzz seed=1 shape="), std::string::npos);
  EXPECT_NE(run.out.find("# fuzz seed=3 shape="), std::string::npos);
}

TEST_F(FuzzCliTest, SameSeedsSameVerdictLog) {
  std::vector<std::string> args = {"fuzz",        "--seeds",   "4",
                                   "--seed-start", "11",        "--scratch-dir",
                                   scratch_};
  CliRun one = RunTool(args);
  CliRun two = RunTool(args);
  EXPECT_EQ(one.code, two.code);
  EXPECT_EQ(one.out, two.out);
}

TEST_F(FuzzCliTest, ShapeFilterRestrictsTheCampaign) {
  CliRun run = RunTool({"fuzz", "--seeds", "3", "--shape", "skolem-tower",
                        "--scratch-dir", scratch_});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("shape=skolem-tower"), std::string::npos);
  EXPECT_EQ(run.out.find("shape=wide-guard"), std::string::npos);
}

TEST_F(FuzzCliTest, BadFlagsAreUsageErrors) {
  EXPECT_EQ(RunTool({"fuzz", "--shape", "moebius-strip"}).code, 1);
  EXPECT_EQ(RunTool({"fuzz", "--seeds"}).code, 1);
  EXPECT_EQ(RunTool({"fuzz", "--seeds", "xyz"}).code, 1);
  EXPECT_EQ(RunTool({"fuzz", "--inject-bug", "imaginary"}).code, 1);
  EXPECT_EQ(RunTool({"fuzz", "stray-positional"}).code, 1);
}

TEST_F(FuzzCliTest, SeededDefectIsCaughtShrunkAndGatesReplay) {
  // The deliberately seeded analyzer defect must be caught, shrunk to a
  // reproducer, and keep failing when the corpus is replayed.
  CliRun campaign =
      RunTool({"fuzz", "--seeds", "2", "--inject-bug", "tamper-witness",
               "--corpus-dir", corpus_, "--scratch-dir", scratch_});
  EXPECT_EQ(campaign.code, 3) << campaign.out;
  EXPECT_NE(campaign.out.find("verdict=FAIL invariant=witness-replay"),
            std::string::npos)
      << campaign.out;
  EXPECT_NE(campaign.out.find("# fuzz shrunk seed="), std::string::npos);
  EXPECT_NE(campaign.out.find("# fuzz reproducer: "), std::string::npos);
  ASSERT_TRUE(fs::exists(corpus_));
  bool has_repro = false;
  for (const auto& entry : fs::directory_iterator(corpus_)) {
    has_repro |= entry.path().extension() == ".repro";
  }
  ASSERT_TRUE(has_repro);

  CliRun replay = RunTool({"fuzz", "--replay", corpus_});
  EXPECT_EQ(replay.code, 3) << replay.out;
  EXPECT_NE(replay.out.find("verdict=FAIL"), std::string::npos);
}

TEST_F(FuzzCliTest, ReplayOfMissingCorpusPasses) {
  CliRun run = RunTool({"fuzz", "--replay", dir_ + "/no-such-dir"});
  EXPECT_EQ(run.code, 0);
  EXPECT_NE(run.out.find("no reproducers"), std::string::npos);
}

TEST_F(FuzzCliTest, ReplayOfMissingFileIsAnInputError) {
  CliRun run = RunTool({"fuzz", "--replay", dir_ + "/no-such.repro"});
  EXPECT_EQ(run.code, 2);
}

TEST_F(FuzzCliTest, ReplayOfMalformedReproducerIsAnInputError) {
  std::string bad = dir_ + "/bad.repro";
  std::ofstream(bad) << "this is not a reproducer\n";
  CliRun run = RunTool({"fuzz", "--replay", bad});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("reproducer"), std::string::npos);
}

// --- --auto-budget --------------------------------------------------------

class AutoBudgetTest : public FuzzCliTest {
 protected:
  std::string WriteFile(const std::string& name, const std::string& text) {
    std::string path = dir_ + "/" + name;
    std::ofstream(path) << text;
    return path;
  }
};

TEST_F(AutoBudgetTest, ChaseEchoesDerivedBudgetForPolynomialTier) {
  std::string rules = WriteFile("wa.tgd", "r: P(x) -> exists u . Q(x, u) .\n");
  std::string inst = WriteFile("wa.inst", "P(a) .\n");
  CliRun run = RunTool({"chase", rules, inst, "--auto-budget"});
  EXPECT_EQ(run.code, 0) << run.err;
  // Rank 1 (one special edge): (rank + 1) * 2M steps.
  EXPECT_NE(
      run.out.find(
          "auto_budget=polynomial:max-steps=4000000:deadline-ms=120000"),
      std::string::npos)
      << run.out;
}

TEST_F(AutoBudgetTest, WithoutTheFlagOutputIsUnchanged) {
  std::string rules = WriteFile("wa.tgd", "r: P(x) -> exists u . Q(x, u) .\n");
  std::string inst = WriteFile("wa.inst", "P(a) .\n");
  CliRun run = RunTool({"chase", rules, inst});
  EXPECT_EQ(run.code, 0);
  EXPECT_EQ(run.out.find("auto_budget"), std::string::npos);
}

TEST_F(AutoBudgetTest, ExplicitFlagsOutrankTheDerivedBudget) {
  std::string rules = WriteFile("wa.tgd", "r: P(x) -> exists u . Q(x, u) .\n");
  std::string inst = WriteFile("wa.inst", "P(a) .\n");
  CliRun run = RunTool(
      {"chase", rules, inst, "--auto-budget", "--max-steps", "12345"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("auto_budget=polynomial:max-steps=12345"),
            std::string::npos)
      << run.out;
}

TEST_F(AutoBudgetTest, HigherTiersGetTighterBudgets) {
  // A generating cycle: Q's existential feeds back into P, so the tier
  // is exponential and the derived step budget drops accordingly.
  std::string rules = WriteFile(
      "exp.tgd",
      "r: P(x) -> exists u . P(u) .\n");
  std::string inst = WriteFile("exp.inst", "P(a) .\n");
  CliRun run = RunTool({"chase", rules, inst, "--auto-budget",
                        "--max-rounds", "5"});
  EXPECT_NE(run.out.find("auto_budget=exponential:max-steps=1000000"),
            std::string::npos)
      << run.out;
}

TEST_F(AutoBudgetTest, CertainAndExplainEchoTheBudgetToo) {
  std::string rules = WriteFile("wa.tgd", "r: P(x) -> exists u . Q(x, u) .\n");
  std::string inst = WriteFile("wa.inst", "P(a) .\n");
  CliRun certain =
      RunTool({"certain", rules, inst, "ans(x) :- P(x).", "--auto-budget"});
  EXPECT_EQ(certain.code, 0) << certain.err;
  EXPECT_NE(certain.out.find("auto_budget=polynomial"), std::string::npos)
      << certain.out;
  CliRun explain = RunTool({"explain", rules, inst, "--auto-budget"});
  EXPECT_EQ(explain.code, 0) << explain.err;
  EXPECT_NE(explain.out.find("auto_budget=polynomial"), std::string::npos)
      << explain.out;
}

TEST_F(AutoBudgetTest, CertainTakesItsTierFromTheQueryParts) {
  // university.tgd plus a divergent successor rule the query cannot
  // reach: chased whole, the program is exponential and stops by depth;
  // pruned to the query's parts it is polynomial and completes.
  auto read = [](const std::string& name) {
    std::ifstream in(std::string(TGDKIT_SOURCE_DIR) + "/corpus/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  std::string rules = WriteFile(
      "div.tgd", read("university.tgd") +
                     "succ: N(x) -> exists y . N(y) & E(x, y) .\n");
  std::string inst =
      WriteFile("div.facts", read("university.facts") + "N(a) .\n");
  CliRun run = RunTool(
      {"certain", rules, inst, "ans(s) :- Attends(s).", "--auto-budget"});
  EXPECT_EQ(run.code, 0) << run.out << run.err;
  EXPECT_EQ(run.out.rfind("# complete (chase 3 rounds)\n", 0), 0u)
      << run.out;
  EXPECT_NE(run.out.find("auto_budget=polynomial"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("\nada\nbob\neve\n"), std::string::npos)
      << run.out;
}

}  // namespace
}  // namespace tgdkit
