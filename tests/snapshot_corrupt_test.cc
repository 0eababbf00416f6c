// Corruption robustness for the snapshot loader: every file in
// corpus/snapshots/ and every programmatic mutilation of a valid snapshot
// must be rejected with a clean typed Status — never a crash, never an
// engine restored from half a file.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "base/fileio.h"
#include "snapshot/snapshot.h"

namespace tgdkit {
namespace {

std::string CorpusPath(const std::string& name) {
  return std::string(TGDKIT_SOURCE_DIR) + "/corpus/snapshots/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(SnapshotCorruptTest, ValidBaselineParses) {
  auto snap = ParseChaseSnapshot(ReadAll(CorpusPath("valid_chase_v1.snap")));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_GT(snap->state->rounds, 0u);
  EXPECT_GT(snap->state->instance.NumFacts(), 0u);
}

// One corpus file and the status its load must fail with. Printed as the
// quoted file name alone: a `const char*` nested in a pair would print
// with its runtime address, giving the test a different name per run.
struct RejectionCase {
  const char* file;
  Status::Code code;
};

void PrintTo(const RejectionCase& c, std::ostream* os) {
  *os << '"' << c.file << '"';
}

class CorpusRejectionTest : public ::testing::TestWithParam<RejectionCase> {};

INSTANTIATE_TEST_SUITE_P(
    Files, CorpusRejectionTest,
    ::testing::Values(
        RejectionCase{"truncated_half.snap", Status::Code::kDataLoss},
        RejectionCase{"truncated_envelope.snap", Status::Code::kDataLoss},
        RejectionCase{"bitflip_payload.snap", Status::Code::kDataLoss},
        RejectionCase{"torn_write.snap", Status::Code::kDataLoss},
        RejectionCase{"future_version.snap", Status::Code::kUnsupported},
        RejectionCase{"wrong_magic.snap", Status::Code::kDataLoss},
        RejectionCase{"empty.snap", Status::Code::kDataLoss},
        RejectionCase{"garbage.snap", Status::Code::kDataLoss},
        RejectionCase{"null_index_past_count.snap",
                      Status::Code::kDataLoss},
        RejectionCase{"null_count_past_provenance.snap",
                      Status::Code::kDataLoss}));

TEST_P(CorpusRejectionTest, RejectedWithTypedStatus) {
  auto [name, code] = GetParam();
  std::string bytes = ReadAll(CorpusPath(name));
  auto snap = ParseChaseSnapshot(bytes);
  ASSERT_FALSE(snap.ok()) << name;
  EXPECT_EQ(snap.status().code(), code) << name << ": "
                                        << snap.status().ToString();
  EXPECT_FALSE(snap.status().message().empty()) << name;
}

TEST(SnapshotCorruptTest, LoadOfMissingFileIsNotFound) {
  auto snap = LoadChaseSnapshot(CorpusPath("does_not_exist.snap"));
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), Status::Code::kNotFound);
}

TEST(SnapshotCorruptTest, EveryPrefixTruncationRejectedCleanly) {
  std::string valid = ReadAll(CorpusPath("valid_chase_v1.snap"));
  ASSERT_TRUE(ParseChaseSnapshot(valid).ok());
  // No proper prefix of a valid snapshot may parse: the envelope pins the
  // exact payload length, so anything shorter is reported as data loss.
  for (size_t len = 0; len < valid.size(); ++len) {
    auto snap = ParseChaseSnapshot(std::string_view(valid).substr(0, len));
    ASSERT_FALSE(snap.ok()) << "prefix of length " << len << " parsed";
    EXPECT_EQ(snap.status().code(), Status::Code::kDataLoss) << "len " << len;
  }
}

TEST(SnapshotCorruptTest, SingleByteFlipsRejectedCleanly) {
  std::string valid = ReadAll(CorpusPath("valid_chase_v1.snap"));
  // Flip one bit in every position: either the envelope stops matching or
  // the CRC does. Nothing may crash, and nothing may parse. The envelope
  // header is not CRC-covered, so a flip there may surface as the typed
  // header error instead of DataLoss: Unsupported (version digit) or
  // InvalidArgument (kind word); everything else must be DataLoss.
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    std::string flipped = valid;
    flipped[pos] ^= 0x10;
    auto snap = ParseChaseSnapshot(flipped);
    ASSERT_FALSE(snap.ok()) << "flip at " << pos << " parsed";
    EXPECT_TRUE(snap.status().code() == Status::Code::kDataLoss ||
                snap.status().code() == Status::Code::kUnsupported ||
                snap.status().code() == Status::Code::kInvalidArgument)
        << "flip at " << pos << ": " << snap.status().ToString();
  }
}

TEST(SnapshotCorruptTest, NullaryRuleAtomRejected) {
  // A CRC-valid payload whose rule head gains an atom over a 0-ary
  // relation: the chase would divide by that arity, so loading refuses it.
  std::string valid = ReadAll(CorpusPath("valid_chase_v1.snap"));
  std::string payload =
      valid.substr(valid.find('\n', valid.find('\n') + 1) + 1);
  for (auto [from, to] : {std::pair<std::string, std::string>{
                              "relations 2 2 1:E 2 1:M",
                              "relations 3 2 1:E 2 1:M 0 1:Z"},
                          {"head 1 1 2 0 4", "head 2 1 2 0 4 2 0"}}) {
    ASSERT_NE(payload.find(from), std::string::npos) << from;
    payload.replace(payload.find(from), from.size(), to);
  }
  char crc[9];
  std::snprintf(crc, sizeof crc, "%08x", Crc32(payload));
  auto snap = ParseChaseSnapshot("tgdkit-snapshot v1 chase\npayload " +
                                 std::to_string(payload.size()) + " crc32 " +
                                 crc + "\n" + payload);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), Status::Code::kDataLoss);
  EXPECT_NE(snap.status().message().find("atom arity mismatch"),
            std::string::npos)
      << snap.status().ToString();
}

TEST(SnapshotCorruptTest, TrailingJunkAfterPayloadRejected) {
  std::string valid = ReadAll(CorpusPath("valid_chase_v1.snap"));
  auto snap = ParseChaseSnapshot(valid + "extra");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), Status::Code::kDataLoss);
}

}  // namespace
}  // namespace tgdkit
