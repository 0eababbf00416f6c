// E11 — parallel chase rounds: staged trigger matching over indexed
// candidate slices, fanned across a thread pool with a deterministic
// merge (docs/PARALLELISM.md). Prints the determinism spot-check (the
// 4-lane run must be byte-identical to the serial run), then benchmarks
// the Skolem chase at 1 and 4 lanes, the serial restricted chase, and the
// matcher micro-kernel the rounds are built from. CI gates on these timings via
// tools/bench_gate.py (BENCH_chase.json).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "dep/skolem.h"
#include "homo/matcher.h"
#include "reduce/pcp.h"

namespace tgdkit {
namespace {

using bench::Workspace;

/// Transitive closure over a path: wide, regular rounds (the blow-up is
/// quadratic, the matching cost dominated by the two-atom join).
std::vector<Tgd> ClosureRules(Workspace* ws) {
  auto V = [&](const char* n) {
    return ws->arena.MakeVariable(ws->vocab.InternVariable(n));
  };
  RelationId e = ws->vocab.InternRelation("E", 2);
  Tgd trans;
  trans.body = {Atom{e, {V("x"), V("y")}}, Atom{e, {V("y"), V("z")}}};
  trans.head = {Atom{e, {V("x"), V("z")}}};
  return {trans};
}

/// Diverging blow-up: every edge spawns a fresh successor edge while
/// transitive closure keeps relating them; capped by max_rounds so each
/// iteration does a fixed amount of work.
SoTgd BlowupRules(Workspace* ws) {
  auto V = [&](const char* n) {
    return ws->arena.MakeVariable(ws->vocab.InternVariable(n));
  };
  RelationId e = ws->vocab.InternRelation("E", 2);
  FunctionId f = ws->vocab.InternFunction("succ", 2);
  SoTgd so;
  so.functions = {f};
  SoPart trans;
  trans.body = {Atom{e, {V("x"), V("y")}}, Atom{e, {V("y"), V("z")}}};
  trans.head = {Atom{e, {V("x"), V("z")}}};
  SoPart grow;
  grow.body = {Atom{e, {V("x"), V("y")}}};
  std::vector<TermId> succ_args = {V("x"), V("y")};
  grow.head = {Atom{e, {V("y"), ws->arena.MakeFunction(f, succ_args)}}};
  so.parts = {trans, grow};
  return so;
}

Instance PathInstance(Workspace* ws, int nodes) {
  Instance input(&ws->vocab);
  RelationId e = ws->vocab.InternRelation("E", 2);
  for (int i = 0; i + 1 < nodes; ++i) {
    input.AddFact(e, std::vector<Value>{
                         Value::Constant(ws->vocab.InternConstant(
                             "n" + std::to_string(i))),
                         Value::Constant(ws->vocab.InternConstant(
                             "n" + std::to_string(i + 1)))});
  }
  return input;
}

/// The Figure 4 unsolvable showcase (1,2)(2,1): the chase never reaches
/// a fixpoint, so a term-depth budget fixes the work per iteration.
PcpInstance UnsolvablePcp() {
  return PcpInstance{2, {{{1}, {2}}, {{2}, {1}}}};
}

void PrintParallelTable() {
  bench::Banner(
      "E11 — parallel chase rounds, deterministic merge",
      "any --threads value is byte-identical; lanes only change wall-clock");
  std::printf("\n%-22s | %7s | %8s | %10s | %s\n", "workload", "threads",
              "rounds", "facts", "identical to serial");
  std::printf("-----------------------+---------+----------+------------+---"
              "-----------------\n");
  for (uint32_t threads : {1u, 4u}) {
    Workspace ws;
    SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, ClosureRules(&ws));
    Instance input = PathInstance(&ws, 64);
    ChaseLimits limits;
    limits.threads = threads;
    ChaseEngine engine(&ws.arena, &ws.vocab, so, input, limits);
    engine.Run();
    static std::string serial_text;
    std::string text = engine.instance().ToExactText();
    if (threads == 1) serial_text = text;
    std::printf("%-22s | %7u | %8llu | %10llu | %s\n", "closure/path64",
                threads, static_cast<unsigned long long>(engine.rounds()),
                static_cast<unsigned long long>(engine.facts_created()),
                text == serial_text ? "yes" : "NO — BUG");
  }
}

void BM_ChaseClosure(benchmark::State& state) {
  for (auto _ : state) {
    Workspace ws;
    SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, ClosureRules(&ws));
    Instance input = PathInstance(&ws, 96);
    ChaseLimits limits;
    limits.threads = static_cast<uint32_t>(state.range(0));
    ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input, limits);
    benchmark::DoNotOptimize(result.facts_created);
  }
}
BENCHMARK(BM_ChaseClosure)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ChaseBlowup(benchmark::State& state) {
  for (auto _ : state) {
    Workspace ws;
    SoTgd so = BlowupRules(&ws);
    Instance input = PathInstance(&ws, 12);
    ChaseLimits limits;
    limits.threads = static_cast<uint32_t>(state.range(0));
    limits.max_rounds = 7;
    limits.max_facts = 2000000;
    ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input, limits);
    benchmark::DoNotOptimize(result.facts_created);
  }
}
BENCHMARK(BM_ChaseBlowup)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ChasePcp(benchmark::State& state) {
  // Fixed-budget semi-decision run on an unsolvable instance (the chase
  // always burns the full round budget — constant work per iteration).
  PcpInstance pcp = UnsolvablePcp();
  for (auto _ : state) {
    Workspace ws;
    PcpEncoding enc = BuildPcpEncoding(&ws.arena, &ws.vocab, pcp);
    SoTgd rules = enc.HenkinRuleSet(&ws.arena, &ws.vocab);
    ChaseLimits limits;
    limits.threads = static_cast<uint32_t>(state.range(0));
    limits.max_rounds = 60;
    limits.max_facts = 500000;
    limits.max_term_depth = 80;
    PcpChaseOutcome outcome =
        SemiDecidePcp(&ws.arena, &ws.vocab, enc, rules, limits);
    benchmark::DoNotOptimize(outcome.facts);
  }
}
BENCHMARK(BM_ChasePcp)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ChaseRestricted(benchmark::State& state) {
  for (auto _ : state) {
    Workspace ws;
    std::vector<Tgd> tgds = ClosureRules(&ws);
    Instance input = PathInstance(&ws, 72);
    ChaseResult result = RestrictedChaseTgds(&ws.arena, tgds, input);
    benchmark::DoNotOptimize(result.facts_created);
  }
}
// The restricted chase runs serially; Arg(1) keeps the gated row's name.
BENCHMARK(BM_ChaseRestricted)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_MatcherTriangleJoin(benchmark::State& state) {
  // The micro-kernel under every round: a three-way join through the
  // per-position posting lists (with intersection) on a random digraph.
  Workspace ws;
  Instance inst(&ws.vocab);
  RelationId e = ws.vocab.InternRelation("E", 2);
  Rng rng(4242);
  const uint32_t kNodes = 160, kEdges = 2000;
  for (uint32_t i = 0; i < kEdges; ++i) {
    std::string a = "v" + std::to_string(rng.Below(kNodes));
    std::string b = "v" + std::to_string(rng.Below(kNodes));
    inst.AddFact(e, std::vector<Value>{
                        Value::Constant(ws.vocab.InternConstant(a)),
                        Value::Constant(ws.vocab.InternConstant(b))});
  }
  auto V = [&](const char* n) {
    return ws.arena.MakeVariable(ws.vocab.InternVariable(n));
  };
  std::vector<Atom> atoms{Atom{e, {V("x"), V("y")}},
                          Atom{e, {V("y"), V("z")}},
                          Atom{e, {V("z"), V("x")}}};
  Matcher matcher(&ws.arena, &inst, atoms);
  for (auto _ : state) {
    size_t count =
        matcher.ForEach({}, [](std::span<const Value>) { return true; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_MatcherTriangleJoin)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tgdkit

int main(int argc, char** argv) {
  tgdkit::PrintParallelTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
