// Tests for the unified resource governor (base/budget.h) and
// fault-injection stress for the engines that poll it: the chase, the
// second-order model checker, and the brute-force oracles are each run
// against Figure 4 style non-terminating / exponential workloads under
// progressively tighter budgets, asserting a clean, deterministic,
// machine-readable stop every time.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "analyze/analysis.h"
#include "base/budget.h"
#include "base/strings.h"
#include "chase/chase.h"
#include "cli/cli.h"
#include "dep/skolem.h"
#include "mc/model_check.h"
#include "oracle/oracle.h"
#include "parse/parser.h"
#include "reduce/pcp.h"
#include "tests/test_util.h"

namespace tgdkit {
namespace {

// ---------------------------------------------------------------------------
// ResourceGovernor unit tests

TEST(ResourceGovernorTest, UnlimitedGovernorOnlyCounts) {
  ResourceGovernor governor;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(governor.Poll());
  }
  EXPECT_FALSE(governor.exhausted());
  EXPECT_EQ(governor.reason(), StopReason::kFixpoint);
  EXPECT_EQ(governor.steps(), 5000u);
  EXPECT_TRUE(governor.ToStatus("work").ok());
}

TEST(ResourceGovernorTest, StepLimitStopsExactlyAtTheLimit) {
  // Both below and above kCheckInterval, Poll() must return false for the
  // first time exactly on the max_steps-th call — a deterministic stop.
  for (uint64_t limit : {7ull, 1000ull, 5000ull}) {
    ExecutionBudget budget;
    budget.max_steps = limit;
    ResourceGovernor governor(budget);
    uint64_t granted = 0;
    while (governor.Poll()) ++granted;
    EXPECT_EQ(granted, limit - 1) << "limit " << limit;
    EXPECT_EQ(governor.steps(), limit);
    EXPECT_TRUE(governor.exhausted());
    EXPECT_EQ(governor.reason(), StopReason::kStepLimit);
    // Once exhausted, always exhausted.
    EXPECT_FALSE(governor.Poll());
    EXPECT_EQ(governor.steps(), limit);
  }
}

TEST(ResourceGovernorTest, DeadlineStops) {
  ExecutionBudget budget;
  budget.deadline_ms = 20;
  ResourceGovernor governor(budget);
  // Busy-poll until the deadline trips; bound the loop so a broken
  // governor fails instead of hanging.
  uint64_t polls = 0;
  while (governor.Poll() && polls < (1ull << 40)) ++polls;
  EXPECT_TRUE(governor.exhausted());
  EXPECT_EQ(governor.reason(), StopReason::kDeadline);
  EXPECT_GE(governor.elapsed_ms(), 20.0);
  EXPECT_EQ(governor.ToStatus("chase").code(), Status::Code::kResourceExhausted);
}

TEST(ResourceGovernorTest, MemorySourceTripsTheByteBudget) {
  ExecutionBudget budget;
  budget.max_memory_bytes = 1000;
  ResourceGovernor governor(budget);
  uint64_t bytes = 0;
  governor.AddMemorySource([&bytes] { return bytes; });
  ASSERT_TRUE(governor.CheckNow());
  bytes = 4096;
  EXPECT_FALSE(governor.CheckNow());
  EXPECT_EQ(governor.reason(), StopReason::kMemoryLimit);
  EXPECT_GE(governor.memory_bytes(), 4096u);
}

TEST(ResourceGovernorTest, ChargedBytesCountAgainstTheBudget) {
  ExecutionBudget budget;
  budget.max_memory_bytes = 1000;
  ResourceGovernor governor(budget);
  governor.ChargeBytes(512);
  ASSERT_TRUE(governor.CheckNow());
  governor.ChargeBytes(512);
  EXPECT_FALSE(governor.CheckNow());
  EXPECT_EQ(governor.reason(), StopReason::kMemoryLimit);
}

TEST(ResourceGovernorTest, CancellationFromAnotherThread) {
  ExecutionBudget budget;
  ResourceGovernor governor(budget);
  std::thread canceller([&budget] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    budget.cancel.Cancel();
  });
  uint64_t polls = 0;
  while (governor.Poll() && polls < (1ull << 40)) ++polls;
  canceller.join();
  EXPECT_TRUE(governor.exhausted());
  EXPECT_EQ(governor.reason(), StopReason::kCancelled);
}

TEST(ResourceGovernorTest, FirstRecordedStopReasonWins) {
  ResourceGovernor governor;
  governor.MarkExhausted(StopReason::kFixpoint);  // not a stop: ignored
  EXPECT_FALSE(governor.exhausted());
  governor.MarkExhausted(StopReason::kFactLimit);
  governor.MarkExhausted(StopReason::kDeadline);
  EXPECT_EQ(governor.reason(), StopReason::kFactLimit);
  EXPECT_FALSE(governor.Poll());
}

TEST(StopReasonTest, StatusMapping) {
  EXPECT_TRUE(StopReasonToStatus(StopReason::kFixpoint, "x").ok());
  for (StopReason stop :
       {StopReason::kRoundLimit, StopReason::kFactLimit,
        StopReason::kDepthLimit, StopReason::kStepLimit,
        StopReason::kDeadline, StopReason::kMemoryLimit,
        StopReason::kCancelled}) {
    Status status = StopReasonToStatus(stop, "engine");
    EXPECT_EQ(status.code(), Status::Code::kResourceExhausted);
    EXPECT_NE(status.ToString().find(ToString(stop)), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Chase under budgets (Figure 4: the chase may legitimately run forever)

class BudgetedChaseTest : public ::testing::Test {
 protected:
  /// A non-terminating Skolem chase: N(x) -> N(f(x)), E(x, f(x)).
  SoTgd ForeverRules() {
    FunctionId f = ws_.vocab.InternFunction("f", 1);
    SoTgd so;
    so.functions = {f};
    SoPart part;
    part.body = {ws_.A("N", {ws_.V("x")})};
    part.head = {ws_.A("N", {ws_.F("f", {ws_.V("x")})}),
                 ws_.A("E", {ws_.V("x"), ws_.F("f", {ws_.V("x")})})};
    so.parts = {part};
    return so;
  }

  Instance Seed() {
    Instance input(&ws_.vocab);
    input.AddFact(ws_.Fc("N", {"c"}));
    return input;
  }

  /// Structural caps opened wide so only the governed budget can stop it.
  ChaseLimits OpenLimits() {
    ChaseLimits limits;
    limits.max_rounds = 1ull << 40;
    limits.max_facts = 1ull << 40;
    limits.max_term_depth = 1u << 30;
    return limits;
  }

  TestWorkspace ws_;
};

TEST_F(BudgetedChaseTest, StepLimitStopsDeterministically) {
  ChaseLimits limits = OpenLimits();
  limits.budget.max_steps = 3000;
  ChaseResult first = Chase(&ws_.arena, &ws_.vocab, ForeverRules(), Seed(),
                            limits);
  EXPECT_EQ(first.stop_reason, StopReason::kStepLimit);
  EXPECT_EQ(first.ToStatus().code(), Status::Code::kResourceExhausted);
  EXPECT_GT(first.instance.NumFacts(), 0u);

  // Same budget, fresh workspace: byte-identical outcome.
  TestWorkspace ws2;
  Instance seed2(&ws2.vocab);
  seed2.AddFact(ws2.Fc("N", {"c"}));
  FunctionId f = ws2.vocab.InternFunction("f", 1);
  SoTgd so;
  so.functions = {f};
  SoPart part;
  part.body = {ws2.A("N", {ws2.V("x")})};
  part.head = {ws2.A("N", {ws2.F("f", {ws2.V("x")})}),
               ws2.A("E", {ws2.V("x"), ws2.F("f", {ws2.V("x")})})};
  so.parts = {part};
  ChaseResult second = Chase(&ws2.arena, &ws2.vocab, so, seed2, limits);
  EXPECT_EQ(second.stop_reason, first.stop_reason);
  EXPECT_EQ(second.rounds, first.rounds);
  EXPECT_EQ(second.facts_created, first.facts_created);
  EXPECT_EQ(second.budget_steps, first.budget_steps);
}

TEST_F(BudgetedChaseTest, DeadlineStopsTheForeverChase) {
  ChaseLimits limits = OpenLimits();
  limits.budget.deadline_ms = 50;
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, ForeverRules(), Seed(),
                             limits);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
  EXPECT_EQ(result.ToStatus().code(), Status::Code::kResourceExhausted);
  EXPECT_GT(result.facts_created, 0u);
}

TEST_F(BudgetedChaseTest, MemoryBudgetStopsTheForeverChase) {
  ChaseLimits limits = OpenLimits();
  limits.budget.max_memory_bytes = 256 * 1024;
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, ForeverRules(), Seed(),
                             limits);
  EXPECT_EQ(result.stop_reason, StopReason::kMemoryLimit);
  EXPECT_GE(result.budget_bytes, 256u * 1024u);
}

/// A program whose rounds stage a three-way cross product: by round 7
/// one round's matches run to hundreds of megabytes while the instance
/// holds a few hundred facts.
SoTgd CrossProductRules(TestWorkspace* ws) {
  Parser parser(&ws->arena, &ws->vocab);
  Result<DependencyProgram> program = parser.ParseDependencies(
      "s0: R0(x0) -> exists e0 . R1(e0) & R0(e0) .\n"
      "s1: R1(x2) -> exists e0, e1 . R1(e0) & R0(x2) .\n"
      "s2: so exists f0 { R1(x3) & R0(x1) & R1(x2) -> "
      "R1(f0(x3)) & R1(x2) } .\n"
      "s3: R0(x0) & R1(x3) -> R0(x3) .\n");
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return SkolemizeProgram(&ws->arena, &ws->vocab, *program);
}

TEST_F(BudgetedChaseTest, MemoryBudgetBoundsARoundsStaging) {
  // The memory budget is checked against the round's staged rows and
  // pending heads, so the run stops by memory-limit at the same point
  // whatever the lane count: the round is discarded whole.
  std::string first;
  for (uint32_t threads : {1u, 4u}) {
    TestWorkspace ws;
    SoTgd rules = CrossProductRules(&ws);
    Instance input(&ws.vocab);
    input.AddFact(ws.Fc("R0", {"a"}));
    input.AddFact(ws.Fc("R1", {"a"}));
    ChaseLimits limits;
    limits.max_facts = 3000;
    limits.max_term_depth = 32;
    limits.budget.max_memory_bytes = 16 << 20;
    limits.threads = threads;
    ChaseResult result =
        Chase(&ws.arena, &ws.vocab, rules, std::move(input), limits);
    EXPECT_EQ(result.stop_reason, StopReason::kMemoryLimit);
    // The instance itself stays far below the budget.
    EXPECT_LT(result.budget_bytes, 4u << 20);
    std::string outcome = Cat(result.rounds, " ", result.facts_created, " ",
                              result.budget_steps, "\n",
                              result.instance.ToString());
    if (first.empty()) {
      first = outcome;
    } else {
      EXPECT_EQ(outcome, first) << "threads " << threads;
    }
  }
}

TEST_F(BudgetedChaseTest, MemoryBudgetBoundsARoundsPendingHeads) {
  // One value staged per match, 128 head values per trigger: the round's
  // matches fit the budget and its pending heads do not, so the merge
  // stops the round before anything commits.
  std::string head;
  for (int a = 0; a < 4; ++a) {
    head += Cat(a == 0 ? "" : " & ", "W", a, "(x");
    for (int i = 1; i < 32; ++i) head += ", x";
    head += ")";
  }
  Parser parser(&ws_.arena, &ws_.vocab);
  Result<DependencyProgram> program =
      parser.ParseDependencies("wide: P(x) -> " + head + " .\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  SoTgd rules = SkolemizeProgram(&ws_.arena, &ws_.vocab, *program);
  Instance input(&ws_.vocab);
  for (int i = 0; i < 2000; ++i) {
    input.AddFact(ws_.Fc("P", {Cat("p", i)}));
  }
  const size_t input_facts = input.NumFacts();
  ChaseLimits limits;
  limits.budget.max_memory_bytes = 768 << 10;
  ChaseResult result =
      Chase(&ws_.arena, &ws_.vocab, rules, std::move(input), limits);
  EXPECT_EQ(result.stop_reason, StopReason::kMemoryLimit);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.facts_created, 0u);
  EXPECT_EQ(result.instance.NumFacts(), input_facts);
}

TEST_F(BudgetedChaseTest, MemoryBudgetCountsEverySlicesRows) {
  // Each P row joins the 30 Q rows of its key, so a slice of 64 P rows
  // stages 53,760 bytes, less than one charge chunk: the round's rows
  // (840,000 bytes) pass the budget only summed over the slices, and its
  // pending heads (600,000 bytes) alone do not.
  Parser parser(&ws_.arena, &ws_.vocab);
  Result<DependencyProgram> program = parser.ParseDependencies(
      "pair: P(k, i, c1, c2, c3, c4) & Q(k, y) -> H(i) .\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  SoTgd rules = SkolemizeProgram(&ws_.arena, &ws_.vocab, *program);
  Instance input(&ws_.vocab);
  for (int i = 0; i < 1000; ++i) {
    input.AddFact(ws_.Fc("P", {Cat("k", i / 20), Cat("i", i), "c", "c", "c",
                               "c"}));
  }
  for (int i = 0; i < 1500; ++i) {
    input.AddFact(ws_.Fc("Q", {Cat("k", i / 30), Cat("y", i)}));
  }
  ChaseLimits limits;
  limits.budget.max_memory_bytes = 700 << 10;
  ASSERT_LT(input.ApproxBytes(), limits.budget.max_memory_bytes);
  ChaseResult result =
      Chase(&ws_.arena, &ws_.vocab, rules, std::move(input), limits);
  EXPECT_EQ(result.stop_reason, StopReason::kMemoryLimit);
  EXPECT_EQ(result.rounds, 1u);
  EXPECT_EQ(result.facts_created, 0u);
}

TEST_F(BudgetedChaseTest, StagingUnderTheMemoryBudgetChangesNothing) {
  // The same program stopped by the fact cap before any round stages
  // much: with and without a memory budget, the same run step for step.
  std::string outcomes[2];
  for (int budgeted = 0; budgeted < 2; ++budgeted) {
    TestWorkspace ws;
    SoTgd rules = CrossProductRules(&ws);
    Instance input(&ws.vocab);
    input.AddFact(ws.Fc("R0", {"a"}));
    input.AddFact(ws.Fc("R1", {"a"}));
    ChaseLimits limits;
    limits.max_facts = 100;
    limits.max_term_depth = 32;
    if (budgeted) limits.budget.max_memory_bytes = 64 << 20;
    ChaseResult result =
        Chase(&ws.arena, &ws.vocab, rules, std::move(input), limits);
    EXPECT_EQ(result.stop_reason, StopReason::kFactLimit);
    outcomes[budgeted] = Cat(result.rounds, " ", result.facts_created, " ",
                             result.budget_steps, "\n",
                             result.instance.ToString());
  }
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

TEST_F(BudgetedChaseTest, PreCancelledBudgetStopsImmediately) {
  ChaseLimits limits = OpenLimits();
  limits.budget.cancel.Cancel();
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, ForeverRules(), Seed(),
                             limits);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
}

TEST_F(BudgetedChaseTest, CancellationFromAnotherThreadStopsTheChase) {
  ChaseLimits limits = OpenLimits();
  CancellationToken token = limits.budget.cancel;
  std::thread canceller([token]() mutable {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.Cancel();
  });
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, ForeverRules(), Seed(),
                             limits);
  canceller.join();
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(result.ToStatus().code(), Status::Code::kResourceExhausted);
}

TEST_F(BudgetedChaseTest, RestrictedChaseHonorsTheBudget) {
  // N(x) -> ∃y E(x,y) ∧ N(y): non-terminating under the restricted chase.
  Tgd tgd;
  tgd.body = {ws_.A("N", {ws_.V("x")})};
  tgd.head = {ws_.A("E", {ws_.V("x"), ws_.V("y")}),
              ws_.A("N", {ws_.V("y")})};
  tgd.exist_vars = {ws_.Vid("y")};
  std::vector<Tgd> tgds = {tgd};

  ChaseLimits limits = OpenLimits();
  limits.budget.max_steps = 2000;
  ChaseResult result = RestrictedChaseTgds(&ws_.arena, tgds, Seed(), limits);
  EXPECT_EQ(result.stop_reason, StopReason::kStepLimit);
  EXPECT_GT(result.facts_created, 0u);

  ChaseLimits timed = OpenLimits();
  timed.budget.deadline_ms = 50;
  ChaseResult by_time = RestrictedChaseTgds(&ws_.arena, tgds, Seed(), timed);
  EXPECT_EQ(by_time.stop_reason, StopReason::kDeadline);
}

TEST_F(BudgetedChaseTest, RestrictedChaseBoundsItsStagedTriggers) {
  // A(x) & B(y) -> ∃z C(x, y, z) over 200 A and 200 B facts: the first
  // round stages 40,000 active triggers, two 4-byte values each, so
  // 320,000 bytes from an instance a small fraction of that. A budget in
  // between stops the round with memory-limit before anything fires,
  // while every governor sample stays under it.
  Tgd tgd;
  tgd.body = {ws_.A("A", {ws_.V("x")}), ws_.A("B", {ws_.V("y")})};
  tgd.head = {ws_.A("C", {ws_.V("x"), ws_.V("y"), ws_.V("z")})};
  tgd.exist_vars = {ws_.Vid("z")};
  std::vector<Tgd> tgds = {tgd};
  Instance input(&ws_.vocab);
  for (int i = 0; i < 200; ++i) {
    input.AddFact(ws_.Fc("A", {Cat("a", i)}));
    input.AddFact(ws_.Fc("B", {Cat("b", i)}));
  }

  ChaseLimits limits = OpenLimits();
  limits.budget.max_memory_bytes = 200000;
  ChaseResult bounded = RestrictedChaseTgds(&ws_.arena, tgds, input, limits);
  EXPECT_EQ(bounded.stop_reason, StopReason::kMemoryLimit);
  EXPECT_EQ(bounded.rounds, 1u);
  EXPECT_EQ(bounded.facts_created, 0u);
  EXPECT_LT(bounded.budget_bytes, limits.budget.max_memory_bytes);

  ChaseResult unbounded = RestrictedChaseTgds(&ws_.arena, tgds, input,
                                              OpenLimits());
  EXPECT_EQ(unbounded.stop_reason, StopReason::kFixpoint);
  EXPECT_EQ(unbounded.facts_created, 40000u);
}

TEST_F(BudgetedChaseTest, DepthLimitCommitsNoPartialHead) {
  // Regression: a trigger whose head overflows the depth budget midway
  // must contribute nothing. Head order P(x), N(f(x)) means the depth
  // overflow strikes after P(x) was staged; P for the aborted trigger
  // must still be absent.
  FunctionId f = ws_.vocab.InternFunction("f", 1);
  SoTgd so;
  so.functions = {f};
  SoPart part;
  part.body = {ws_.A("N", {ws_.V("x")})};
  part.head = {ws_.A("P", {ws_.V("x")}),
               ws_.A("N", {ws_.F("f", {ws_.V("x")})})};
  so.parts = {part};

  ChaseLimits limits;
  limits.max_rounds = 1ull << 40;
  limits.max_facts = 1ull << 40;
  limits.max_term_depth = 5;
  ChaseResult result = Chase(&ws_.arena, &ws_.vocab, so, Seed(), limits);
  EXPECT_EQ(result.stop_reason, StopReason::kDepthLimit);
  RelationId p = ws_.vocab.FindRelation("P");
  RelationId n = ws_.vocab.FindRelation("N");
  // Terms of depth 0..5 exist in N (seed + 5 successors); the trigger on
  // the depth-5 term aborts, so exactly the depth-0..4 triggers committed
  // their P facts: one fewer than the N tuples.
  EXPECT_EQ(result.instance.NumTuples(n),
            result.instance.NumTuples(p) + 1);
}

// ---------------------------------------------------------------------------
// PCP semi-decision under budgets (Figure 4 encodings)

class BudgetedPcpTest : public ::testing::Test {
 protected:
  PcpInstance Unsolvable() {
    PcpInstance pcp;
    pcp.alphabet_size = 2;
    pcp.pairs = {{{1}, {2}}, {{2}, {1}}};
    return pcp;
  }

  PcpChaseOutcome RunWith(ExecutionBudget budget) {
    TestWorkspace ws;
    PcpEncoding enc = BuildPcpEncoding(&ws.arena, &ws.vocab, Unsolvable());
    SoTgd rules = enc.HenkinRuleSet(&ws.arena, &ws.vocab);
    ChaseLimits limits;
    limits.max_rounds = 1ull << 40;
    limits.max_facts = 1ull << 40;
    limits.max_term_depth = 1u << 30;
    limits.budget = budget;
    return SemiDecidePcp(&ws.arena, &ws.vocab, enc, rules, limits);
  }
};

TEST_F(BudgetedPcpTest, ProgressivelyTighterDeadlinesAlwaysStopCleanly) {
  for (uint64_t deadline : {200ull, 50ull, 10ull, 1ull}) {
    ExecutionBudget budget;
    budget.deadline_ms = deadline;
    PcpChaseOutcome outcome = RunWith(budget);
    EXPECT_FALSE(outcome.solved) << "deadline " << deadline;
    EXPECT_EQ(outcome.stop, StopReason::kDeadline);
    EXPECT_EQ(outcome.ToStatus().code(), Status::Code::kResourceExhausted);
  }
}

TEST_F(BudgetedPcpTest, ProgressivelyTighterStepBudgetsAreDeterministic) {
  for (uint64_t steps : {50000ull, 5000ull, 500ull, 1ull}) {
    ExecutionBudget budget;
    budget.max_steps = steps;
    PcpChaseOutcome first = RunWith(budget);
    PcpChaseOutcome second = RunWith(budget);
    EXPECT_EQ(first.stop, StopReason::kStepLimit) << "steps " << steps;
    EXPECT_EQ(first.rounds, second.rounds);
    EXPECT_EQ(first.facts, second.facts);
    EXPECT_EQ(first.budget_steps, second.budget_steps);
  }
}

TEST_F(BudgetedPcpTest, MemoryBudgetStopsTheEncodingChase) {
  ExecutionBudget budget;
  budget.max_memory_bytes = 512 * 1024;
  PcpChaseOutcome outcome = RunWith(budget);
  EXPECT_EQ(outcome.stop, StopReason::kMemoryLimit);
  EXPECT_FALSE(outcome.solved);
}

TEST_F(BudgetedPcpTest, CancellationStopsTheEncodingChase) {
  ExecutionBudget budget;
  budget.cancel.Cancel();
  PcpChaseOutcome outcome = RunWith(budget);
  EXPECT_EQ(outcome.stop, StopReason::kCancelled);
}

TEST_F(BudgetedPcpTest, SolvableInstanceStillSolvesUnderAmpleBudget) {
  TestWorkspace ws;
  PcpInstance pcp;
  pcp.alphabet_size = 2;
  pcp.pairs = {{{1, 2}, {1}}, {{2}, {2, 2}}};
  PcpEncoding enc = BuildPcpEncoding(&ws.arena, &ws.vocab, pcp);
  SoTgd rules = enc.HenkinRuleSet(&ws.arena, &ws.vocab);
  ChaseLimits limits;
  limits.budget.deadline_ms = 60000;  // ample: only a safety net
  PcpChaseOutcome outcome =
      SemiDecidePcp(&ws.arena, &ws.vocab, enc, rules, limits);
  EXPECT_TRUE(outcome.solved);
  EXPECT_TRUE(outcome.ToStatus().ok());
}

// ---------------------------------------------------------------------------
// Model checking under budgets

class BudgetedMcTest : public ::testing::Test {
 protected:
  TestWorkspace ws_;
};

TEST_F(BudgetedMcTest, SoCheckReportsStructuredStepLimitStop) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies("so exists f { P(x) -> R(x, f(x)) } .");
  ASSERT_TRUE(program.ok());
  Instance inst(&ws_.vocab);
  ASSERT_TRUE(p.ParseInstanceInto("P(a). P(b). R(a, a2). R(b, b2).", &inst)
                  .ok());
  McOptions options;
  options.budget.max_steps = 1;
  McResult result = CheckSo(ws_.arena, inst, program->dependencies[0].so,
                            options);
  EXPECT_TRUE(result.budget_exceeded);
  EXPECT_EQ(result.stop, StopReason::kStepLimit);
  EXPECT_EQ(result.ToStatus().code(), Status::Code::kResourceExhausted);
  // Untouched budget: the same check completes and reports kFixpoint.
  McResult ok = CheckSo(ws_.arena, inst, program->dependencies[0].so);
  EXPECT_TRUE(ok.satisfied);
  EXPECT_EQ(ok.stop, StopReason::kFixpoint);
  EXPECT_TRUE(ok.ToStatus().ok());
}

TEST_F(BudgetedMcTest, SoCheckHonorsCancellation) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies("so exists f { P(x) -> R(x, f(x)) } .");
  ASSERT_TRUE(program.ok());
  Instance inst(&ws_.vocab);
  ASSERT_TRUE(p.ParseInstanceInto("P(a). P(b). R(a, a2). R(b, b2).", &inst)
                  .ok());
  McOptions options;
  options.budget.cancel.Cancel();
  McResult result = CheckSo(ws_.arena, inst, program->dependencies[0].so,
                            options);
  EXPECT_TRUE(result.budget_exceeded);
  EXPECT_EQ(result.stop, StopReason::kCancelled);
}

TEST_F(BudgetedMcTest, HenkinCheckPropagatesTheStopReason) {
  Parser p(&ws_.arena, &ws_.vocab);
  auto program = p.ParseDependencies(
      "henkin { forall e ; exists m(e) } Emp(e) -> Mgr(e, m) .");
  ASSERT_TRUE(program.ok());
  Instance inst(&ws_.vocab);
  ASSERT_TRUE(
      p.ParseInstanceInto("Emp(a). Emp(b). Mgr(a, x). Mgr(b, y).", &inst)
          .ok());
  McOptions options;
  options.budget.max_steps = 1;
  McResult result = CheckHenkin(&ws_.arena, &ws_.vocab, inst,
                                program->dependencies[0].henkin, options);
  EXPECT_TRUE(result.budget_exceeded);
  EXPECT_EQ(result.stop, StopReason::kStepLimit);
}

TEST_F(BudgetedMcTest, TgdViolationSearchStopsOnBudget) {
  Tgd tgd;
  tgd.body = {ws_.A("E", {ws_.V("x"), ws_.V("y")})};
  tgd.head = {ws_.A("E", {ws_.V("y"), ws_.V("z")})};
  tgd.exist_vars = {ws_.Vid("z")};
  Instance inst(&ws_.vocab);
  for (int i = 0; i < 40; ++i) {
    inst.AddFact(ws_.Fc("E", {"a" + std::to_string(i),
                              "a" + std::to_string(i + 1)}));
  }
  ExecutionBudget budget;
  budget.max_steps = 1;
  ResourceGovernor governor(budget);
  auto violation = FindTgdViolation(ws_.arena, inst, tgd, &governor);
  EXPECT_TRUE(governor.exhausted());
  EXPECT_EQ(governor.reason(), StopReason::kStepLimit);
  // nullopt here means "none found within budget", not "satisfied".
  EXPECT_FALSE(violation.has_value());
}

// ---------------------------------------------------------------------------
// Oracles under budgets

TEST(BudgetedOracleTest, ThreeColoringStopsOnStepBudget) {
  // Odd wheel: not 3-colorable, forcing a full exponential refutation.
  Graph graph;
  graph.num_vertices = 12;
  for (uint32_t i = 1; i < graph.num_vertices; ++i) {
    graph.edges.push_back({0, i});
    uint32_t next = (i % (graph.num_vertices - 1)) + 1;
    graph.edges.push_back({i, next});
  }
  ExecutionBudget budget;
  budget.max_steps = 1;
  ResourceGovernor governor(budget);
  EXPECT_EQ(ThreeColorableBudgeted(graph, &governor), std::nullopt);
  EXPECT_EQ(governor.reason(), StopReason::kStepLimit);

  // Unlimited governor and the unbudgeted overload agree.
  ResourceGovernor unlimited;
  EXPECT_EQ(ThreeColorableBudgeted(graph, &unlimited),
            std::optional<bool>(ThreeColorable(graph)));
}

TEST(BudgetedOracleTest, QbfEvaluationStopsOnStepBudget) {
  // ∀x₁∃y₁ ∀x₂∃y₂ … with clauses (xᵢ ∨ yᵢ ∨ ¬yᵢ): trivially true but the
  // evaluator still walks the quantifier tree.
  Qbf qbf;
  qbf.num_pairs = 10;
  for (uint32_t i = 0; i < qbf.num_pairs; ++i) {
    qbf.clauses.push_back(
        {QbfLiteral{QbfLiteral::Kind::kUniversal, i, false},
         QbfLiteral{QbfLiteral::Kind::kExistential, i, false},
         QbfLiteral{QbfLiteral::Kind::kExistential, i, true}});
  }
  ExecutionBudget budget;
  budget.max_steps = 1;
  ResourceGovernor governor(budget);
  EXPECT_EQ(EvaluateQbfBudgeted(qbf, &governor), std::nullopt);
  EXPECT_EQ(governor.reason(), StopReason::kStepLimit);

  ResourceGovernor unlimited;
  EXPECT_EQ(EvaluateQbfBudgeted(qbf, &unlimited),
            std::optional<bool>(EvaluateQbf(qbf)));
}

TEST(BudgetedOracleTest, PcpSearchStopsOnStepBudget) {
  // (11, 1): the overhang grows forever; only the length bound or the
  // budget ends the BFS.
  PcpInstance pcp;
  pcp.alphabet_size = 1;
  pcp.pairs = {{{1, 1}, {1}}};
  ExecutionBudget budget;
  budget.max_steps = 100;
  ResourceGovernor governor(budget);
  PcpSearchOutcome outcome = SolvePcpBudgeted(pcp, 1u << 20, &governor);
  EXPECT_FALSE(outcome.witness.has_value());
  EXPECT_FALSE(outcome.Complete());
  EXPECT_EQ(outcome.stop, StopReason::kStepLimit);
  EXPECT_GT(outcome.configs, 0u);
}

TEST(BudgetedOracleTest, PcpSearchStopsOnMemoryBudget) {
  PcpInstance pcp;
  pcp.alphabet_size = 1;
  pcp.pairs = {{{1, 1}, {1}}};
  ExecutionBudget budget;
  budget.max_memory_bytes = 4096;
  ResourceGovernor governor(budget);
  PcpSearchOutcome outcome = SolvePcpBudgeted(pcp, 1u << 20, &governor);
  EXPECT_FALSE(outcome.Complete());
  EXPECT_EQ(outcome.stop, StopReason::kMemoryLimit);
}

// ---------------------------------------------------------------------------
// End-to-end: the CLI surface of the budget

class BudgetTempFile {
 public:
  BudgetTempFile(const std::string& tag, const std::string& content) {
    static int counter = 0;
    path_ = testing::TempDir() + "/tgdkit_budget_" + tag + "_" +
            std::to_string(::getpid()) + "_" + std::to_string(counter++) +
            ".txt";
    std::ofstream out(path_);
    out << content;
  }
  ~BudgetTempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(BudgetCliTest, DeadlineStopsNonTerminatingChaseWithCleanStatus) {
  // A chase that runs forever must stop cleanly under --deadline-ms with
  // a partial instance, a machine-readable ResourceExhausted status, and
  // the resource exit code (docs/FORMAT.md).
  BudgetTempFile deps("deps", "succ: N(x) -> exists y . N(y) & E(x, y) .\n");
  BudgetTempFile inst("inst", "N(a) .\n");
  std::ostringstream out, err;
  int code = RunCli({"chase", deps.path(), inst.path(), "--deadline-ms",
                     "200", "--max-depth", "100000000", "--max-rounds",
                     "100000000", "--max-facts", "1000000000"},
                    out, err);
  EXPECT_EQ(code, 4) << err.str();
  EXPECT_NE(out.str().find("# chase deadline"), std::string::npos)
      << out.str();
  EXPECT_NE(out.str().find(
                "# status: ResourceExhausted: chase stopped by deadline"),
            std::string::npos)
      << out.str();
  // The partial instance is printed after the status lines.
  EXPECT_NE(out.str().find("N(a)"), std::string::npos);
}

TEST(BudgetCliTest, StepBudgetIsDeterministicThroughTheCli) {
  BudgetTempFile deps("deps", "succ: N(x) -> exists y . N(y) & E(x, y) .\n");
  BudgetTempFile inst("inst", "N(a) .\n");
  std::vector<std::string> args = {
      "chase",       deps.path(), inst.path(),  "--max-steps",
      "5000",        "--max-depth", "100000000", "--max-rounds",
      "100000000"};
  std::ostringstream out1, out2, err;
  EXPECT_EQ(RunCli(args, out1, err), 4);
  EXPECT_EQ(RunCli(args, out2, err), 4);
  EXPECT_NE(out1.str().find("chase stopped by step-limit"),
            std::string::npos)
      << out1.str();
  EXPECT_EQ(out1.str(), out2.str());
}

TEST(BudgetCliTest, CheckReportsUnknownWhenTheBudgetRunsOut) {
  BudgetTempFile deps("deps", "t: E(x, y) -> exists z . E(y, z) .\n");
  std::string facts;
  for (int i = 0; i < 30; ++i) {
    facts += "E(a" + std::to_string(i) + ", a" + std::to_string(i + 1) +
             ") .\n";
  }
  BudgetTempFile inst("inst", facts);
  std::ostringstream out, err;
  int code = RunCli({"check", deps.path(), inst.path(), "--max-steps", "1"},
                    out, err);
  EXPECT_NE(out.str().find("UNKNOWN (step-limit)"), std::string::npos)
      << out.str();
  EXPECT_NE(code, 0);  // not everything verified satisfied
}

TEST(BudgetCliTest, GlobalCancellationTokenStopsTheChase) {
  GlobalCancellationToken().Cancel();
  BudgetTempFile deps("deps", "succ: N(x) -> exists y . N(y) & E(x, y) .\n");
  BudgetTempFile inst("inst", "N(a) .\n");
  std::ostringstream out, err;
  int code = RunCli({"chase", deps.path(), inst.path(), "--max-rounds",
                     "100000000", "--max-depth", "100000000"},
                    out, err);
  GlobalCancellationToken().Reset();
  EXPECT_EQ(code, 4);
  EXPECT_NE(out.str().find("chase stopped by cancelled"), std::string::npos)
      << out.str();
}

/// Discards what is written to it but counts the bytes and keeps the last
/// whole line (up to 4 KiB of it), so a test can watch an unbounded render
/// without holding it. Only the byte count may be read from another
/// thread while the render writes.
class CountingTailBuf : public std::streambuf {
 public:
  uint64_t bytes() const { return bytes_.load(); }
  const std::string& last_line() const { return last_; }

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) {
      char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

  std::streamsize xsputn(const char* text, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (text[i] == '\n') {
        last_.swap(current_);
        current_.clear();
      } else if (current_.size() < 4096) {
        current_ += text[i];
      }
    }
    bytes_ += static_cast<uint64_t>(n);
    return n;
  }

 private:
  std::atomic<uint64_t> bytes_{0};
  std::string current_, last_;
};

// `dup` shares its Skolem subterms: the null minted in round k is
// f(t, t) over the last round's term, so its explanation has 2^k leaves
// and explaining all 256 nulls of the depth-limited chase never ends.
constexpr const char* kDupRules = "dup: R(x, y) -> exists z . R(z, z) .\n";

TEST(BudgetCliTest, ExplainRenderStopsAtTheDeadline) {
  BudgetTempFile deps("deps", kDupRules);
  BudgetTempFile inst("inst", "R(a, b) .\n");
  CountingTailBuf sink;
  std::ostream out(&sink);
  std::ostringstream err;
  auto start = std::chrono::steady_clock::now();
  int code = RunCli({"explain", deps.path(), inst.path(), "--deadline-ms",
                     "200"},
                    out, err);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_EQ(code, 4) << err.str();
  EXPECT_LT(seconds, 10.0);
  EXPECT_GT(sink.bytes(), 0u);
  EXPECT_EQ(sink.last_line(),
            "# status: ResourceExhausted: explain stopped by deadline");
}

TEST(BudgetCliTest, CancellationFromAnotherThreadStopsTheRender) {
  BudgetTempFile deps("deps", kDupRules);
  BudgetTempFile inst("inst", "R(a, b) .\n");
  CountingTailBuf sink;
  std::ostream out(&sink);
  std::ostringstream err;
  ApiOptions options;
  // Cancel once the render is well under way, so it is the render and
  // not the chase that the token stops.
  std::atomic<bool> returned{false};
  std::thread canceller([&sink, &returned, token = options.cancel]() mutable {
    while (!returned && sink.bytes() < (1u << 20)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    token.Cancel();
  });
  int code = RunCommand({"explain", deps.path(), inst.path()}, out, err,
                        options);
  returned = true;
  canceller.join();
  EXPECT_EQ(code, 4) << err.str();
  EXPECT_EQ(sink.last_line(),
            "# status: ResourceExhausted: explain stopped by cancelled");
}

TEST(BudgetCliTest, FailedStreamStopsTheRenderPromptly) {
  BudgetTempFile deps("deps", kDupRules);
  BudgetTempFile inst("inst", "R(a, b) .\n");
  std::ostringstream out, err;
  out.setstate(std::ios::badbit);
  auto start = std::chrono::steady_clock::now();
  RunCli({"explain", deps.path(), inst.path()}, out, err);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(seconds, 10.0);
  EXPECT_TRUE(out.fail());
}

TEST(BudgetedOracleTest, PcpSearchAgreesWithUnbudgetedSolver) {
  PcpInstance solvable;
  solvable.alphabet_size = 2;
  solvable.pairs = {{{1, 2}, {1}}, {{2}, {2, 2}}};
  ResourceGovernor unlimited;
  PcpSearchOutcome outcome = SolvePcpBudgeted(solvable, 12, &unlimited);
  EXPECT_TRUE(outcome.Complete());
  ASSERT_TRUE(outcome.witness.has_value());
  EXPECT_TRUE(CheckPcpSolution(solvable, *outcome.witness));
  EXPECT_EQ(outcome.witness, SolvePcp(solvable, 12));

  PcpInstance unsolvable;
  unsolvable.alphabet_size = 2;
  unsolvable.pairs = {{{1}, {2}}, {{2}, {1}}};
  ResourceGovernor unlimited2;
  PcpSearchOutcome no = SolvePcpBudgeted(unsolvable, 12, &unlimited2);
  EXPECT_TRUE(no.Complete());
  EXPECT_FALSE(no.witness.has_value());
}

}  // namespace
}  // namespace tgdkit
