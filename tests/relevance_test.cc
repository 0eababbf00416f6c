// Query-relevant certain answers and the chase's input handover.
//
// `certain` chases only the rule parts that reach the query
// (PartsReaching): its answers must be the full chase's whenever both
// reach a fixpoint, and the pruned chase may stop later or not at all.
// An in-core engine takes its input over instead of copying it: what it
// prints must not depend on whether the caller moved the input in or kept
// it, in-core or spilled.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "analyze/analysis.h"
#include "base/strings.h"
#include "chase/chase.h"
#include "fuzz/fuzz.h"
#include "parse/parser.h"
#include "query/query.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

std::string ReadSource(const std::string& relative) {
  std::ifstream in(std::string(TGDKIT_SOURCE_DIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << relative;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// One parse of (program, instance, query) in its own workspace, so runs
/// never share an arena or a vocabulary.
struct Case {
  TestWorkspace ws;
  SoTgd rules;
  Instance input{&ws.vocab};
  ConjunctiveQuery query;

  void Load(const std::string& program, const std::string& facts,
            const std::string& query_text) {
    Parser parser(&ws.arena, &ws.vocab);
    Result<DependencyProgram> parsed = parser.ParseDependencies(program);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_TRUE(parser.ParseInstanceInto(facts, &input).ok());
    if (!query_text.empty()) {
      Result<ConjunctiveQuery> q = parser.ParseQuery(query_text);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      query = std::move(*q);
    }
    rules = SkolemizeProgram(&ws.arena, &ws.vocab, *parsed);
  }
};

/// Certain answers without pruning: every part chased, then the null-free
/// answer tuples.
CertainAnswers FullCertainAnswers(Case* c, ChaseLimits limits) {
  ChaseResult chased =
      Chase(&c->ws.arena, &c->ws.vocab, c->rules, c->input, limits);
  CertainAnswers out;
  out.chase_stop = chased.stop_reason;
  out.chase_rounds = chased.rounds;
  out.chase_facts = chased.facts_created;
  for (std::vector<Value>& tuple :
       Evaluate(c->ws.arena, chased.instance, c->query)) {
    if (std::all_of(tuple.begin(), tuple.end(),
                    [](Value v) { return v.is_constant(); })) {
      out.answers.push_back(std::move(tuple));
    }
  }
  return out;
}

/// Pruned and full certain answers of one case, each over a fresh parse.
/// Returns true when both reached a fixpoint (and so were compared).
bool ExpectPrunedMatchesFull(const std::string& program,
                             const std::string& facts,
                             const std::string& query, ChaseLimits limits) {
  Case pruned, full;
  pruned.Load(program, facts, query);
  full.Load(program, facts, query);
  CertainAnswers a =
      ComputeCertainAnswers(&pruned.ws.arena, &pruned.ws.vocab, pruned.rules,
                            std::move(pruned.input), pruned.query, limits);
  CertainAnswers b = FullCertainAnswers(&full, limits);
  // The kept relations get the same facts in the same rounds, so the
  // pruned chase ends no later than the full one.
  if (b.Complete()) {
    EXPECT_TRUE(a.Complete()) << query << "\n" << program;
    EXPECT_LE(a.chase_rounds, b.chase_rounds) << query << "\n" << program;
  }
  if (!a.Complete() || !b.Complete()) return false;
  // Constant ids are fixed at parse time: same answers, same order.
  EXPECT_EQ(a.answers, b.answers) << query << "\n" << program;
  return true;
}

// --- PartsReaching ---------------------------------------------------------

TEST(PartsReachingTest, KeepsReachingPartsInOrderAndClosesOverBodies) {
  Case c;
  c.Load(
      "a: S(x) -> T(x) .\n"
      "b: U(x) -> V(x) .\n"
      "c: T(x) -> Q(x) .\n"
      "d: Q(x) -> exists y . W(x, y) .\n"
      "e: V(x) & T(x) -> Q(x) .\n",
      "", "");
  RelationId q = c.ws.vocab.FindRelation("Q");
  SoTgd kept = PartsReaching(c.rules, std::span<const RelationId>(&q, 1));
  // c and e derive Q; e reads V (from b) and T (from a). d reads Q but
  // derives only W, which nothing asked for.
  ASSERT_EQ(kept.parts.size(), 4u);
  EXPECT_EQ(kept.parts[0].head[0].relation, c.ws.vocab.FindRelation("T"));
  EXPECT_EQ(kept.parts[1].head[0].relation, c.ws.vocab.FindRelation("V"));
  EXPECT_EQ(kept.parts[2].body[0].relation, c.ws.vocab.FindRelation("T"));
  EXPECT_EQ(kept.parts[3].body[0].relation, c.ws.vocab.FindRelation("V"));
  EXPECT_EQ(kept.functions, c.rules.functions);
  // Pruning a pruned set keeps it whole.
  EXPECT_EQ(PartsReaching(kept, std::span<const RelationId>(&q, 1))
                .parts.size(),
            kept.parts.size());
}

// --- edge cases --------------------------------------------------------------

TEST(QueryRelevanceTest, SkolemFunctionSharedByAKeptAndADroppedPart) {
  // `drop` mints f(x) before `keep` does, so the two chases number the
  // nulls differently; the answers, which are null-free, do not move.
  const std::string program =
      "so exists f {\n"
      "  P(x) -> Dropped(x, f(x)) ;\n"
      "  P(x) -> Kept(x, f(x)) ;\n"
      "  Kept(x, y) & Kept(z, y) -> Same(x, z)\n"
      "} .\n";
  const std::string facts = "P(a) .\nP(b) .\n";
  Case c;
  c.Load(program, facts, "ans(x, z) :- Same(x, z).");
  RelationId same = c.ws.vocab.FindRelation("Same");
  SoTgd kept = PartsReaching(c.rules, std::span<const RelationId>(&same, 1));
  ASSERT_EQ(kept.parts.size(), 2u);
  EXPECT_EQ(kept.functions, c.rules.functions);
  EXPECT_TRUE(ExpectPrunedMatchesFull(program, facts,
                                      "ans(x, z) :- Same(x, z).", {}));
  EXPECT_TRUE(ExpectPrunedMatchesFull(program, facts,
                                      "ans(x) :- Kept(x, y).", {}));
  CertainAnswers answers =
      ComputeCertainAnswers(&c.ws.arena, &c.ws.vocab, c.rules,
                            std::move(c.input), c.query);
  EXPECT_EQ(answers.answers.size(), 2u);  // (a, a), (b, b)
}

TEST(QueryRelevanceTest, SoPartWithAnEquality) {
  // Under the free interpretation f(x) = f(y) holds iff x = y; `mint`
  // builds the same terms but is dropped.
  const std::string program =
      "so exists f {\n"
      "  A(x) -> Minted(f(x)) ;\n"
      "  A(x) & A(y) & f(x) = f(y) -> E(x, y)\n"
      "} .\n";
  const std::string facts = "A(a) .\nA(b) .\nA(c) .\n";
  Case c;
  c.Load(program, facts, "ans(x, y) :- E(x, y).");
  RelationId e = c.ws.vocab.FindRelation("E");
  EXPECT_EQ(PartsReaching(c.rules, std::span<const RelationId>(&e, 1))
                .parts.size(),
            1u);
  EXPECT_TRUE(
      ExpectPrunedMatchesFull(program, facts, "ans(x, y) :- E(x, y).", {}));
  CertainAnswers answers =
      ComputeCertainAnswers(&c.ws.arena, &c.ws.vocab, c.rules,
                            std::move(c.input), c.query);
  EXPECT_EQ(answers.answers.size(), 3u);
}

TEST(QueryRelevanceTest, QueryOverRelationsNoPartDerivesKeepsNoPart) {
  // The divergent part never reaches Input, so no part is kept: the
  // chase runs one empty round and the answers are the input's.
  const std::string program =
      "grow: N(x) -> exists y . N(y) & E(x, y) .\n"
      "copy: Input(x) -> Output(x) .\n";
  const std::string facts = "N(a) .\nInput(b) .\nInput(c) .\n";
  Case c;
  c.Load(program, facts, "ans(x) :- Input(x).");
  RelationId input = c.ws.vocab.FindRelation("Input");
  EXPECT_TRUE(PartsReaching(c.rules, std::span<const RelationId>(&input, 1))
                  .parts.empty());
  ChaseLimits limits;
  limits.max_term_depth = 8;
  CertainAnswers answers =
      ComputeCertainAnswers(&c.ws.arena, &c.ws.vocab, c.rules,
                            std::move(c.input), c.query, limits);
  EXPECT_TRUE(answers.Complete());
  EXPECT_EQ(answers.chase_rounds, 1u);
  EXPECT_EQ(answers.chase_facts, 0u);
  ASSERT_EQ(answers.answers.size(), 2u);
  EXPECT_EQ(answers.answers[0][0], c.ws.Cv("b"));
  EXPECT_EQ(answers.answers[1][0], c.ws.Cv("c"));
  // The full chase of the same program stops by depth and is truncated.
  Case full;
  full.Load(program, facts, "ans(x) :- Input(x).");
  EXPECT_FALSE(FullCertainAnswers(&full, limits).Complete());
}

TEST(QueryRelevanceTest, CertainlyHoldsWithAGoalOutsideADivergentComponent) {
  // `grow` doubles N every round; the goal needs six rounds of the copy
  // chain. Chased whole, the fact cap stops the run before the goal
  // appears; pruned to the chain, the goal is found.
  const std::string program =
      "so exists f, g { N(x) -> N(f(x)) & N(g(x)) } .\n"
      "c0: Q0(x) -> Q1(x) .\n"
      "c1: Q1(x) -> Q2(x) .\n"
      "c2: Q2(x) -> Q3(x) .\n"
      "c3: Q3(x) -> Q4(x) .\n"
      "c4: Q4(x) -> Q5(x) .\n"
      "c5: Q5(x) -> Goal(x) .\n";
  const std::string facts = "N(zero) .\nQ0(a) .\n";
  ChaseLimits limits;
  limits.max_facts = 40;
  Case c;
  c.Load(program, facts, "");
  Fact goal = c.ws.Fc("Goal", {"a"});
  EXPECT_TRUE(
      CertainlyHolds(&c.ws.arena, &c.ws.vocab, c.rules, c.input, goal,
                     limits));
  ChaseResult full = Chase(&c.ws.arena, &c.ws.vocab, c.rules, c.input, limits);
  EXPECT_EQ(full.stop_reason, StopReason::kFactLimit);
  EXPECT_FALSE(full.instance.Contains(goal.relation, goal.args));
}

// --- differential: pruned vs full ------------------------------------------

TEST(QueryRelevanceDifferentialTest, FuzzScenariosWithAQuery) {
  // The fuzz campaign's seeded programs that carry a query, under the
  // campaign's own caps.
  FuzzOptions options;
  ChaseLimits limits;
  limits.max_rounds = options.max_rounds;
  limits.max_facts = options.max_facts;
  limits.budget.max_steps = options.max_steps;
  int with_query = 0, compared = 0;
  for (uint64_t seed = 1; seed <= 96; ++seed) {
    FuzzScenario scenario = MakeScenario(seed, options);
    if (scenario.query.empty()) continue;
    ++with_query;
    compared += ExpectPrunedMatchesFull(scenario.program, scenario.instance,
                                        scenario.query, limits);
  }
  EXPECT_GT(with_query, 0);
  EXPECT_GT(compared, with_query / 2);
}

TEST(QueryRelevanceDifferentialTest, CorpusProgramsOverUniversityFacts) {
  // serve-mix's five certain queries over every corpus program.
  const char* kPrograms[] = {
      "paper_intro.tgd",         "paper_selfmgr.tgd",
      "paper_tau.tgd",           "paper_theorem41.tgd",
      "university.tgd",          "triangular_frontier.tgd",
      "tier_polynomial.tgd",     "tier_exponential.tgd",
      "tier_nonelementary.tgd"};
  const char* kQueries[] = {
      "ans(s) :- Attends(s).", "ans(s, c) :- Enrollment(s, c, r).",
      "ans(c) :- Offered(c).", "ans(s) :- Seated(x, s).",
      "ans(s, a) :- Advised(s, a)."};
  const std::string facts = ReadSource("corpus/university.facts");
  ChaseLimits limits;
  limits.max_rounds = 64;
  limits.max_facts = 20000;
  limits.max_term_depth = 16;
  int compared = 0;
  for (const char* program : kPrograms) {
    std::string text = ReadSource(std::string("corpus/") + program);
    for (const char* query : kQueries) {
      compared += ExpectPrunedMatchesFull(text, facts, query, limits);
    }
  }
  EXPECT_EQ(compared, 45);
}

// --- the input handover ----------------------------------------------------

class ChaseHandoverTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = testing::TempDir() + "/tgdkit_handover_" +
           std::to_string(getpid()) + "_" + std::to_string(counter++);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// The run's limits: in-core, or spilled into a fresh directory.
  ChaseLimits Limits(const std::string& name) {
    ChaseLimits limits;
    if (GetParam()) {
      limits.spill_dir = dir_ + "/" + name;
      limits.spill_segment_kb = 1;
    }
    return limits;
  }

  /// What `chase` and `explain` print of a result: the canonical facts,
  /// then each null with its Skolem term.
  static std::string Render(const Case& c, const ChaseResult& result) {
    std::string out = Cat(ToString(result.stop_reason), " ", result.rounds,
                          " ", result.facts_created, " ",
                          result.budget_steps, "\n");
    out += result.instance.ToString();
    for (uint32_t i = 0; i < result.instance.num_nulls(); ++i) {
      Value null = Value::Null(i);
      out += result.instance.ValueToString(null) + " = " +
             result.ExplainValue(c.ws.arena, c.ws.vocab, null) + "\n";
    }
    return out;
  }

  std::string dir_;
};

TEST_P(ChaseHandoverTest, LabeledNullInputPrintsTheSameMovedOrCopied) {
  const std::string program = ReadSource("tests/golden/innull.tgd");
  const std::string facts = ReadSource("tests/golden/innull.inst");
  const std::string query = "ans(p) :- Linked(p, t).";
  Case moved, copied;
  moved.Load(program, facts, query);
  copied.Load(program, facts, query);
  ASSERT_GT(copied.input.num_nulls(), 0u);
  ASSERT_EQ(copied.input.ValueToString(Value::Null(0)), "_x");

  ChaseResult by_move = Chase(&moved.ws.arena, &moved.ws.vocab, moved.rules,
                              std::move(moved.input), Limits("move"));
  ChaseResult by_copy = Chase(&copied.ws.arena, &copied.ws.vocab,
                              copied.rules, copied.input, Limits("copy"));
  EXPECT_EQ(Render(moved, by_move), Render(copied, by_copy));
  // Input nulls print by index either way; the caller's copy keeps its
  // labels.
  EXPECT_EQ(by_move.instance.ValueToString(Value::Null(0)), "_N0");
  EXPECT_EQ(copied.input.ValueToString(Value::Null(0)), "_x");

  Case moved_q, copied_q;
  moved_q.Load(program, facts, query);
  copied_q.Load(program, facts, query);
  CertainAnswers a = ComputeCertainAnswers(
      &moved_q.ws.arena, &moved_q.ws.vocab, moved_q.rules,
      std::move(moved_q.input), moved_q.query, Limits("move_q"));
  CertainAnswers b = ComputeCertainAnswers(
      &copied_q.ws.arena, &copied_q.ws.vocab, copied_q.rules, copied_q.input,
      copied_q.query, Limits("copy_q"));
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.chase_rounds, b.chase_rounds);
  EXPECT_EQ(a.chase_facts, b.chase_facts);
  EXPECT_EQ(a.answers.size(), 3u);  // alice, bob, carol
}

INSTANTIATE_TEST_SUITE_P(Storage, ChaseHandoverTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Spilled")
                                             : std::string("InCore");
                         });

}  // namespace
}  // namespace tgdkit
