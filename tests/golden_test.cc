// Golden bytes for the null-numbering contract. The chase numbers a null
// at the first trigger that builds its Skolem term, so every change to
// how triggers are enumerated (semi-naive windows) or instantiated
// (compiled heads) must keep each trigger's first occurrence in place.
// tests/golden/ pins the `chase` and `explain` stdout of three inputs as
// committed bytes; they were produced before the windows and compiled
// heads existed and must never be regenerated to make this test pass:
//
//   closure   the perfbench closure rules (a 2-way and a 3-way join and a
//             Skolem null per match) over a small fixed digraph, where
//             many triggers touch several delta facts;
//   exchange  university + paper_intro over a small seeded source;
//   innull    rules over input nulls, so explain prints the @innull
//             provenance that every trigger gives the input nulls it
//             binds, including one bound only by a body variable.
//
// Each is checked at --threads 1, at --threads 4 (ignoring the threads=
// echo) and under --spill-dir with 1 KiB segments (ignoring the spill
// status fields).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"

namespace tgdkit {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(TGDKIT_SOURCE_DIR) + "/tests/golden/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Drops the deliberate ` threads=N` echo and the ` spill_segments=...
/// spill_bytes=...` telemetry from the `# status:` line.
std::string StripRunFields(std::string text) {
  for (const char* field : {" threads=", " spill_segments=", " spill_bytes="}) {
    size_t pos = text.find(field);
    if (pos == std::string::npos) continue;
    size_t end = text.find_first_of(" \n", pos + 1);
    text.erase(pos, end - pos);
  }
  return text;
}

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spill_dir_ = testing::TempDir() + "/tgdkit_golden_" +
                 std::to_string(::getpid());
  }
  void TearDown() override {
    ASSERT_EQ(::system(("rm -rf " + spill_dir_).c_str()), 0);
  }

  std::string Run(std::vector<std::string> args) {
    std::ostringstream out, err;
    int code = RunCli(args, out, err);
    EXPECT_EQ(code, 0) << err.str();
    return out.str();
  }

  void ExpectGoldenBytes(const std::string& name) {
    std::string rules = GoldenPath(name + ".tgd");
    std::string facts = GoldenPath(name + ".inst");
    for (const std::string command : {"chase", "explain"}) {
      SCOPED_TRACE(name + " " + command);
      std::string golden = ReadFile(GoldenPath(name + "." + command + ".out"));
      ASSERT_FALSE(golden.empty());
      EXPECT_EQ(Run({command, rules, facts, "--threads", "1"}), golden);
      EXPECT_EQ(StripRunFields(Run({command, rules, facts, "--threads", "4"})),
                StripRunFields(golden));
      ASSERT_EQ(::system(("rm -rf " + spill_dir_).c_str()), 0);
      std::string spilled = Run({command, rules, facts, "--spill-dir",
                                 spill_dir_, "--spill-segment-kb", "1"});
      EXPECT_EQ(StripRunFields(spilled), StripRunFields(golden));
    }
  }

  std::string spill_dir_;
};

TEST_F(GoldenTest, ClosureChaseAndExplainBytes) { ExpectGoldenBytes("closure"); }

TEST_F(GoldenTest, ExchangeChaseAndExplainBytes) {
  ExpectGoldenBytes("exchange");
}

TEST_F(GoldenTest, InputNullsChaseAndExplainBytes) {
  ExpectGoldenBytes("innull");
}

}  // namespace
}  // namespace tgdkit
