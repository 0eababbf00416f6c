// E10 — data-exchange engineering baseline: universal-solution and
// core-solution materialization and target certain answers under a mixed
// mapping (tgds + SO tgd + nested tgd), scaling in the source size.
// Prints a size table, then benchmark timings.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "dep/skolem.h"
#include "exchange/exchange.h"
#include "parse/parser.h"
#include "query/query.h"
#include "transform/nested.h"

namespace tgdkit {
namespace {

using bench::Workspace;

struct Setup {
  Workspace ws;
  SchemaMapping mapping;
  Instance source;

  Setup() : source(&ws.vocab) {}
};

/// Builds the university mapping over a synthetic source with `students`
/// students taking 2 courses each (out of 10).
std::unique_ptr<Setup> MakeSetup(uint32_t students) {
  auto setup = std::make_unique<Setup>();
  Workspace& ws = setup->ws;
  Parser parser(&ws.arena, &ws.vocab);
  auto program = parser.ParseDependencies(R"(
    Takes(s, c) -> exists r . Enrollment(s, c, r) .
    Enrollment(s, c, r) -> Attends(s) .
    so exists advisor { Takes(s, c) -> Advised(s, advisor(s)) } .
    nested Takes(s, c) -> exists sec . Section(c, sec) .
  )");
  if (!program.ok()) std::abort();
  std::vector<SoTgd> pieces;
  std::vector<Tgd> tgds = program->Tgds();
  pieces.push_back(TgdsToSo(&ws.arena, &ws.vocab, tgds));
  pieces.push_back(program->Sos()[0]);
  for (const NestedTgd& nested : program->Nesteds()) {
    pieces.push_back(NestedToSo(&ws.arena, &ws.vocab, nested));
  }
  setup->mapping.rules = MergeSo(pieces);
  setup->mapping.source_relations = {ws.vocab.FindRelation("Takes")};
  setup->mapping.target_relations = {
      ws.vocab.FindRelation("Enrollment"), ws.vocab.FindRelation("Attends"),
      ws.vocab.FindRelation("Advised"), ws.vocab.FindRelation("Section")};

  setup->source = Instance(&ws.vocab);
  RelationId takes = ws.vocab.FindRelation("Takes");
  for (uint32_t i = 0; i < students; ++i) {
    Value s = Value::Constant(
        ws.vocab.InternConstant("s" + std::to_string(i)));
    for (uint32_t j = 0; j < 2; ++j) {
      Value c = Value::Constant(ws.vocab.InternConstant(
          "course" + std::to_string((i + j * 3) % 10)));
      setup->source.AddFact(takes, std::vector<Value>{s, c});
    }
  }
  return setup;
}

void PrintExchangeTable() {
  bench::Banner(
      "E10 — data exchange baseline (engineering, not a paper artifact)",
      "universal and core solutions scale linearly in the source; the "
      "core removes only genuinely redundant nulls");
  std::printf("\n%9s | %13s | %10s | %10s\n", "students", "source facts",
              "solution", "core");
  for (uint32_t n : {5u, 20u, 80u}) {
    auto setup = MakeSetup(n);
    ExchangeResult solution = Solve(&setup->ws.arena, &setup->ws.vocab,
                                    setup->mapping, setup->source);
    Instance core = CoreSolution(&setup->ws.arena, &setup->ws.vocab,
                                 solution.solution);
    std::printf("%9u | %13zu | %10zu | %10zu\n", n,
                setup->source.NumFacts(), solution.solution.NumFacts(),
                core.NumFacts());
  }
}

void BM_Solve(benchmark::State& state) {
  auto setup = MakeSetup(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    ExchangeResult result = Solve(&setup->ws.arena, &setup->ws.vocab,
                                  setup->mapping, setup->source);
    benchmark::DoNotOptimize(result.solution.NumFacts());
  }
}
BENCHMARK(BM_Solve)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

void BM_CoreSolution(benchmark::State& state) {
  // Times the fold alone: the solution is materialized once, outside the
  // loop (BM_Solve times that).
  auto setup = MakeSetup(static_cast<uint32_t>(state.range(0)));
  ExchangeResult solved = Solve(&setup->ws.arena, &setup->ws.vocab,
                                setup->mapping, setup->source);
  for (auto _ : state) {
    Instance core = CoreSolution(&setup->ws.arena, &setup->ws.vocab,
                                 solved.solution);
    benchmark::DoNotOptimize(core.NumFacts());
  }
}
BENCHMARK(BM_CoreSolution)->Arg(5)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_TargetCertain(benchmark::State& state) {
  auto setup = MakeSetup(static_cast<uint32_t>(state.range(0)));
  Parser parser(&setup->ws.arena, &setup->ws.vocab);
  auto query = parser.ParseQuery("ans(s) :- Attends(s).");
  if (!query.ok()) std::abort();
  for (auto _ : state) {
    CertainAnswers answers =
        TargetCertainAnswers(&setup->ws.arena, &setup->ws.vocab,
                             setup->mapping, setup->source, *query);
    benchmark::DoNotOptimize(answers.answers.size());
  }
}
BENCHMARK(BM_TargetCertain)->Arg(10)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tgdkit

int main(int argc, char** argv) {
  tgdkit::PrintExchangeTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
