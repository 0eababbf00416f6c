#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "homo/matcher.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;
};

TEST_F(MatcherTest, SingleAtomEnumeration) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("Emp", {"alice", "cs"}));
  inst.AddFact(ws_.Fc("Emp", {"bob", "cs"}));
  std::vector<Atom> atoms{ws_.A("Emp", {ws_.V("e"), ws_.V("d")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  size_t count = matcher.ForEach({}, [](std::span<const Value>) { return true; });
  EXPECT_EQ(count, 2u);
}

TEST_F(MatcherTest, ConstantInAtomFilters) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("Emp", {"alice", "cs"}));
  inst.AddFact(ws_.Fc("Emp", {"bob", "math"}));
  std::vector<Atom> atoms{ws_.A("Emp", {ws_.V("e"), ws_.C("cs")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  std::vector<Value> found;
  ASSERT_TRUE(matcher.FindOne(&found));
  EXPECT_EQ(found[matcher.Slot(ws_.Vid("e"))], ws_.Cv("alice"));
  EXPECT_EQ(matcher.ForEach({}, [](std::span<const Value>) { return true; }), 1u);
}

TEST_F(MatcherTest, JoinAcrossAtoms) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  inst.AddFact(ws_.Fc("R", {"b", "c"}));
  inst.AddFact(ws_.Fc("R", {"c", "d"}));
  // Two-step paths: x -> y -> z.
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")}),
                          ws_.A("R", {ws_.V("y"), ws_.V("z")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  size_t count = matcher.ForEach({}, [](std::span<const Value>) { return true; });
  EXPECT_EQ(count, 2u);  // a->b->c and b->c->d
}

TEST_F(MatcherTest, RepeatedVariableWithinAtom) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "a"}));
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  EXPECT_EQ(matcher.ForEach({}, [](std::span<const Value>) { return true; }), 1u);
}

TEST_F(MatcherTest, SeedRestrictsSearch) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  inst.AddFact(ws_.Fc("R", {"c", "d"}));
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  std::vector<Value> seed(matcher.variables().size());
  seed[matcher.Slot(ws_.Vid("x"))] = ws_.Cv("c");
  ASSERT_TRUE(matcher.FindOne(&seed));
  EXPECT_EQ(seed[matcher.Slot(ws_.Vid("y"))], ws_.Cv("d"));
}

TEST_F(MatcherTest, SeedPreservedInCallbackAssignments) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "k"}));
  inst.AddFact(ws_.Fc("R", {"b", "k"}));
  inst.AddFact(ws_.Fc("R", {"a", "j"}));
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  EXPECT_EQ(matcher.Slot(ws_.Vid("unrelated")), -1);
  // A seeded slot keeps its value in every emitted row.
  std::vector<Value> seed(matcher.variables().size());
  seed[matcher.Slot(ws_.Vid("y"))] = ws_.Cv("k");
  size_t count = matcher.ForEach(seed, [&](std::span<const Value> row) {
    EXPECT_EQ(row.size(), 2u);
    EXPECT_EQ(row[matcher.Slot(ws_.Vid("y"))], ws_.Cv("k"));
    EXPECT_TRUE(row[matcher.Slot(ws_.Vid("x"))].valid());
    return true;
  });
  EXPECT_EQ(count, 2u);
}

TEST_F(MatcherTest, NoMatchReturnsFalse) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  std::vector<Atom> atoms{ws_.A("S", {ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  std::vector<Value> a;
  EXPECT_FALSE(matcher.FindOne(&a));
}

TEST_F(MatcherTest, EarlyStopViaCallback) {
  Instance inst(&ws_.vocab);
  for (int i = 0; i < 10; ++i) {
    inst.AddFact(ws_.Fc("R", {"c" + std::to_string(i)}));
  }
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  int seen = 0;
  matcher.ForEach({}, [&](std::span<const Value>) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST_F(MatcherTest, TriangleQuery) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("E", {"1", "2"}));
  inst.AddFact(ws_.Fc("E", {"2", "3"}));
  inst.AddFact(ws_.Fc("E", {"3", "1"}));
  inst.AddFact(ws_.Fc("E", {"1", "3"}));  // chord, no triangle through it
  std::vector<Atom> atoms{ws_.A("E", {ws_.V("x"), ws_.V("y")}),
                          ws_.A("E", {ws_.V("y"), ws_.V("z")}),
                          ws_.A("E", {ws_.V("z"), ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  size_t count = matcher.ForEach({}, [](std::span<const Value>) { return true; });
  EXPECT_EQ(count, 3u);  // the directed triangle counted from 3 rotations
}

TEST_F(MatcherTest, MatchesNullValues) {
  Instance inst(&ws_.vocab);
  Value n = inst.FreshNull();
  RelationId r = ws_.vocab.InternRelation("R", 2);
  inst.AddFact(r, std::vector<Value>{ws_.Cv("a"), n});
  std::vector<Atom> atoms{ws_.A("R", {ws_.C("a"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  std::vector<Value> a;
  ASSERT_TRUE(matcher.FindOne(&a));
  EXPECT_TRUE(a[matcher.Slot(ws_.Vid("y"))].is_null());
}

TEST_F(MatcherTest, EmptyQueryMatchesOnce) {
  Instance inst(&ws_.vocab);
  Matcher matcher(&ws_.arena, &inst, std::vector<Atom>{});
  EXPECT_EQ(matcher.ForEach({}, [](std::span<const Value>) { return true; }), 1u);
}

TEST_F(MatcherTest, CrossProductCount) {
  Instance inst(&ws_.vocab);
  for (int i = 0; i < 4; ++i) inst.AddFact(ws_.Fc("A", {"a" + std::to_string(i)}));
  for (int i = 0; i < 5; ++i) inst.AddFact(ws_.Fc("B", {"b" + std::to_string(i)}));
  std::vector<Atom> atoms{ws_.A("A", {ws_.V("x")}), ws_.A("B", {ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  EXPECT_EQ(matcher.ForEach({}, [](std::span<const Value>) { return true; }), 20u);
}

// ---------------------------------------------------------------------------
// RootSplit: the sharding contract used by parallel chase rounds.
// ForEach(seed, cb) must emit exactly the concatenation, in order, of
// ForEachFromRoot over the planned root candidates — same bindings,
// same emission order, same probe count.

namespace rootsplit {

/// Every emitted binding, in emission order.
std::vector<std::vector<Value>> Emissions(
    const Matcher& matcher, std::span<const Value> seed,
    const SearchControls& controls) {
  std::vector<std::vector<Value>> out;
  matcher.ForEach(
      seed,
      [&](std::span<const Value> row) {
        out.emplace_back(row.begin(), row.end());
        return true;
      },
      controls);
  return out;
}

std::vector<std::vector<Value>> ShardedEmissions(
    const Matcher& matcher, std::span<const Value> seed,
    const SearchControls& controls) {
  Matcher::RootSplit split = matcher.PlanRoot(seed);
  EXPECT_GE(split.atom, 0);
  std::vector<std::vector<Value>> out;
  for (size_t i = 0; i < split.NumCandidates(); ++i) {
    uint32_t row = split.Row(i);
    matcher.ForEachFromRoot(
        seed, split.atom, {&row, 1},
        [&](std::span<const Value> binding) {
          out.emplace_back(binding.begin(), binding.end());
          return true;
        },
        controls);
  }
  return out;
}

}  // namespace rootsplit

TEST_F(MatcherTest, RootSplitConcatenationEqualsForEach) {
  Instance inst(&ws_.vocab);
  // A dense-ish random-looking digraph with several triangles.
  const char* edges[][2] = {{"1", "2"}, {"2", "3"}, {"3", "1"}, {"1", "3"},
                            {"3", "4"}, {"4", "1"}, {"4", "2"}, {"2", "4"},
                            {"4", "5"}, {"5", "1"}, {"5", "5"}};
  for (auto& e : edges) inst.AddFact(ws_.Fc("E", {e[0], e[1]}));
  std::vector<Atom> atoms{ws_.A("E", {ws_.V("x"), ws_.V("y")}),
                          ws_.A("E", {ws_.V("y"), ws_.V("z")}),
                          ws_.A("E", {ws_.V("z"), ws_.V("x")})};
  Matcher matcher(&ws_.arena, &inst, atoms);

  uint64_t whole_probes = 0, shard_probes = 0;
  SearchControls whole;
  whole.probe_counter = &whole_probes;
  SearchControls shard;
  shard.probe_counter = &shard_probes;
  auto full = rootsplit::Emissions(matcher, {}, whole);
  auto sharded = rootsplit::ShardedEmissions(matcher, {}, shard);
  ASSERT_GT(full.size(), 3u);
  EXPECT_EQ(full, sharded);
  EXPECT_EQ(whole_probes, shard_probes)
      << "sharded enumeration must pay exactly the serial probe count";
}

TEST_F(MatcherTest, RootSplitScanFallbackStillSharded) {
  // A single atom with no bound position plans a full-scan root: the
  // split enumerates row ids [0, n) and must still reproduce ForEach.
  Instance inst(&ws_.vocab);
  for (int i = 0; i < 7; ++i) {
    inst.AddFact(ws_.Fc("R", {"a" + std::to_string(i), "b"}));
  }
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  Matcher::RootSplit split = matcher.PlanRoot({});
  EXPECT_EQ(split.NumCandidates(), 7u);
  SearchControls none;
  EXPECT_EQ(rootsplit::Emissions(matcher, {}, none),
            rootsplit::ShardedEmissions(matcher, {}, none));
}

TEST_F(MatcherTest, RootSplitRespectsSeed) {
  Instance inst(&ws_.vocab);
  inst.AddFact(ws_.Fc("R", {"a", "b"}));
  inst.AddFact(ws_.Fc("R", {"a", "c"}));
  inst.AddFact(ws_.Fc("R", {"d", "e"}));
  std::vector<Atom> atoms{ws_.A("R", {ws_.V("x"), ws_.V("y")})};
  Matcher matcher(&ws_.arena, &inst, atoms);
  std::vector<Value> seed(matcher.variables().size());
  seed[matcher.Slot(ws_.Vid("x"))] = ws_.Cv("a");
  SearchControls none;
  auto full = rootsplit::Emissions(matcher, seed, none);
  EXPECT_EQ(full.size(), 2u);
  EXPECT_EQ(full, rootsplit::ShardedEmissions(matcher, seed, none));
}

TEST_F(MatcherTest, RootSplitEmptyQueryHasNoShards) {
  Instance inst(&ws_.vocab);
  Matcher matcher(&ws_.arena, &inst, std::vector<Atom>{});
  Matcher::RootSplit split = matcher.PlanRoot({});
  EXPECT_EQ(split.atom, -1);
}

// ---------------------------------------------------------------------------
// Row windows: the semi-naive chase cuts atoms to row prefixes. A windowed
// search must emit exactly the unwindowed match sequence with every match
// that uses an out-of-window row removed, in the same order.

namespace windows {

/// T(a, b, c) over a six-value domain: ~20 rows per posting list, so the
/// third query atom (two bound positions) takes the intersection path.
void AddTernaryFacts(TestWorkspace* ws, Instance* inst) {
  uint32_t state = 12345;
  for (int i = 0; i < 150; ++i) {
    std::vector<std::string> args;
    for (int k = 0; k < 3; ++k) {
      state = state * 1103515245u + 12345u;
      args.push_back("v" + std::to_string((state >> 16) % 6));
    }
    inst->AddFact(ws->Fc("T", args));
  }
}

std::vector<Atom> ChainQuery(TestWorkspace* ws) {
  return {ws->A("T", {ws->V("x"), ws->V("y"), ws->V("z")}),
          ws->A("T", {ws->V("z"), ws->V("y"), ws->V("w")}),
          ws->A("T", {ws->V("x"), ws->V("w"), ws->V("v")})};
}

/// The row atom `atom` maps to under `binding` (facts are unique, so the
/// image tuple names one row).
uint32_t ImageRow(const TestWorkspace& ws, const Instance& inst,
                  const Matcher& matcher, const Atom& atom,
                  std::span<const Value> binding) {
  std::vector<Value> tuple;
  for (TermId t : atom.args) {
    tuple.push_back(binding[matcher.Slot(ws.arena.symbol(t))]);
  }
  for (uint32_t row = 0; row < inst.NumTuples(atom.relation); ++row) {
    std::span<const Value> candidate = inst.Tuple(atom.relation, row);
    if (std::equal(candidate.begin(), candidate.end(), tuple.begin())) {
      return row;
    }
  }
  ADD_FAILURE() << "emitted binding maps an atom outside the instance";
  return UINT32_MAX;
}

/// Also appends each window's probe count to `probes` when it is given.
void ExpectWindowsFilterTheSequence(const TestWorkspace& ws,
                                    const Instance& inst,
                                    std::span<const Atom> atoms,
                                    std::vector<uint64_t>* probes = nullptr) {
  Matcher matcher(&ws.arena, &inst, atoms);
  SearchControls none;
  std::vector<std::vector<Value>> full =
      rootsplit::Emissions(matcher, {}, none);
  ASSERT_GT(full.size(), 50u);
  constexpr uint32_t kAll = SearchControls::kNoRowLimit;
  const std::vector<std::vector<uint32_t>> windows = {
      {kAll, kAll, kAll}, {60, kAll, kAll}, {kAll, 50, 90},
      {30, 70, 40},       {0, kAll, kAll},  {149, 1, kAll},
      {kAll, kAll, 75}};
  size_t strict_cuts = 0;
  for (const std::vector<uint32_t>& window : windows) {
    std::vector<std::vector<Value>> expected;
    for (const std::vector<Value>& binding : full) {
      bool inside = true;
      for (size_t i = 0; i < atoms.size(); ++i) {
        inside &= ImageRow(ws, inst, matcher, atoms[i], binding) < window[i];
      }
      if (inside) expected.push_back(binding);
    }
    if (!expected.empty() && expected.size() < full.size()) ++strict_cuts;
    SearchControls windowed;
    windowed.row_limits = window;
    uint64_t window_probes = 0;
    windowed.probe_counter = &window_probes;
    EXPECT_EQ(rootsplit::Emissions(matcher, {}, windowed), expected)
        << "window " << window[0] << "," << window[1] << "," << window[2];
    if (probes != nullptr) probes->push_back(window_probes);
  }
  EXPECT_GE(strict_cuts, 4u) << "windows must both keep and drop matches";
}

}  // namespace windows

TEST_F(MatcherTest, WindowedSearchEmitsTheFilteredSequenceInCore) {
  Instance inst(&ws_.vocab);
  windows::AddTernaryFacts(&ws_, &inst);
  windows::ExpectWindowsFilterTheSequence(ws_, inst, windows::ChainQuery(&ws_));
}

TEST_F(MatcherTest, WindowedSearchEmitsTheFilteredSequenceSpilled) {
  std::string dir = testing::TempDir() + "/tgdkit_matcher_windows_" +
                    std::to_string(::getpid());
  ASSERT_EQ(::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);
  Instance inst(&ws_.vocab);
  SpillConfig config;
  config.dir = dir;
  config.segment_bytes = 8 * 3 * sizeof(Value);  // 8 rows per segment
  ASSERT_TRUE(inst.EnableSpill(config).ok());
  windows::AddTernaryFacts(&ws_, &inst);
  ASSERT_GT(inst.spill_stats().sealed_segments, 10u);
  std::vector<uint64_t> spilled_probes;
  windows::ExpectWindowsFilterTheSequence(ws_, inst, windows::ChainQuery(&ws_),
                                          &spilled_probes);
  // Probes are steps under a budget, so the sealed segments must offer
  // exactly the in-core candidates, runner-up intersection included.
  Instance in_core(&ws_.vocab);
  windows::AddTernaryFacts(&ws_, &in_core);
  std::vector<uint64_t> in_core_probes;
  windows::ExpectWindowsFilterTheSequence(
      ws_, in_core, windows::ChainQuery(&ws_), &in_core_probes);
  EXPECT_EQ(spilled_probes, in_core_probes);
  ASSERT_EQ(::system(("rm -rf " + dir).c_str()), 0);
}

}  // namespace
}  // namespace tgdkit
