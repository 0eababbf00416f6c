// Concurrency stress for the parallel chase path, written to be run
// under ThreadSanitizer (the CI tsan leg runs the whole suite, but this
// file concentrates the racy shapes): worker-side aborts from external
// cancellation and deadlines, memory-budget stops, and repeated 4-lane
// runs whose scheduling jitter must never leak into results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase.h"
#include "data/instance.h"
#include "dep/skolem.h"
#include "test_util.h"

namespace tgdkit {
namespace {

/// A non-terminating Skolem chase with *wide* rounds: every edge spawns
/// a fresh successor edge while transitive closure keeps relating them,
/// so rounds grow without bound (and term depth stays shallow — one
/// nesting level per round). Keeps all lanes busy mid-round until a
/// time-based stop aborts the workers.
SoTgd DivergingRules(TestWorkspace* ws) {
  SoTgd so;
  FunctionId f = ws->vocab.InternFunction("f", 2);
  so.functions = {f};
  SoPart trans;
  trans.body = {ws->A("E", {ws->V("x"), ws->V("y")}),
                ws->A("E", {ws->V("y"), ws->V("z")})};
  trans.head = {ws->A("E", {ws->V("x"), ws->V("z")})};
  SoPart grow;
  grow.body = {ws->A("E", {ws->V("x"), ws->V("y")})};
  grow.head = {
      ws->A("E", {ws->V("y"), ws->F("f", {ws->V("x"), ws->V("y")})})};
  so.parts = {trans, grow};
  return so;
}

/// Wide terminating workload: transitive closure over a path.
std::vector<Tgd> ClosureRules(TestWorkspace* ws) {
  Tgd trans;
  trans.body = {ws->A("E", {ws->V("x"), ws->V("y")}),
                ws->A("E", {ws->V("y"), ws->V("z")})};
  trans.head = {ws->A("E", {ws->V("x"), ws->V("z")})};
  return {trans};
}

Instance PathInstance(TestWorkspace* ws, int nodes) {
  Instance input(&ws->vocab);
  for (int i = 0; i + 1 < nodes; ++i) {
    input.AddFact(ws->Fc("E", {"n" + std::to_string(i),
                               "n" + std::to_string(i + 1)}));
  }
  return input;
}

TEST(ParallelStressTest, ExternalCancellationStopsParallelRound) {
  // Cancel() is called from another thread while 4 lanes are matching;
  // the engine must halt with kCancelled and stay a consistent partial
  // model (the aborted round is discarded wholesale).
  TestWorkspace ws;
  SoTgd so = DivergingRules(&ws);
  Instance input = PathInstance(&ws, 12);
  ChaseLimits limits;
  limits.threads = 4;
  limits.max_rounds = ~0ull;
  limits.max_facts = ~0ull;
  limits.max_term_depth = ~0u;
  CancellationToken cancel;
  limits.budget.cancel = cancel;
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.Cancel();
  });
  engine.Run();
  canceller.join();
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.stop_reason(), StopReason::kCancelled);
  EXPECT_GT(engine.facts_created(), 0u);
}

TEST(ParallelStressTest, DeadlineAbortsWorkersMidRound) {
  TestWorkspace ws;
  SoTgd so = DivergingRules(&ws);
  Instance input = PathInstance(&ws, 12);
  ChaseLimits limits;
  limits.threads = 4;
  limits.max_rounds = ~0ull;
  limits.max_facts = ~0ull;
  limits.max_term_depth = ~0u;
  limits.budget.deadline_ms = 50;
  ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
  engine.Run();
  EXPECT_TRUE(engine.done());
  EXPECT_EQ(engine.stop_reason(), StopReason::kDeadline);
}

TEST(ParallelStressTest, MemoryBudgetStopsParallelRun) {
  // The byte budget now includes the fact store's index bytes; a tight
  // budget must stop a 4-lane run deterministically (memory is only
  // checked on the serial path, never from workers).
  auto run = [](uint32_t threads) {
    TestWorkspace ws;
    std::vector<Tgd> tgds = ClosureRules(&ws);
    SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
    Instance input = PathInstance(&ws, 64);
    ChaseLimits limits;
    limits.threads = threads;
    limits.budget.max_memory_bytes = 96 * 1024;
    ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
    engine.Run();
    EXPECT_TRUE(engine.done());
    EXPECT_EQ(engine.stop_reason(), StopReason::kMemoryLimit);
    return engine.instance().ToExactText();
  };
  std::string serial = run(1);
  std::string parallel = run(4);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelStressTest, RepeatedParallelRunsAreJitterFree) {
  // The same 4-lane run, many times: scheduling differences across runs
  // must never change the result or the step count. Under TSan this also
  // hammers the pool handoff and the per-slice result slots.
  auto run = [] {
    TestWorkspace ws;
    std::vector<Tgd> tgds = ClosureRules(&ws);
    SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
    Instance input = PathInstance(&ws, 28);
    ChaseLimits limits;
    limits.threads = 4;
    ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
    engine.Run();
    EXPECT_EQ(engine.stop_reason(), StopReason::kFixpoint);
    return std::make_pair(engine.instance().ToExactText(),
                          engine.governor().total_steps());
  };
  auto first = run();
  for (int i = 0; i < 8; ++i) {
    auto again = run();
    ASSERT_EQ(again.first, first.first) << "iteration " << i;
    ASSERT_EQ(again.second, first.second) << "iteration " << i;
  }
}

}  // namespace
}  // namespace tgdkit
