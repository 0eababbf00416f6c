// E16 companion — the decidability-frontier analyzers:
//  * triangular-guardedness membership over a random tgd corpus, with
//    the share of rulesets rescued beyond the classic Figure 2 classes;
//  * chase-complexity tier distribution (polynomial / exponential /
//    non-elementary) over the same corpus;
//  * full verdict + witness-replay round trips, since `tgdkit classify`
//    and `tgdkit lint` both pay for replay on every negative verdict.
#include <benchmark/benchmark.h>

#include "analyze/analysis.h"
#include "bench/bench_util.h"
#include "classify/criteria.h"
#include "dep/skolem.h"
#include "gen/generators.h"

namespace tgdkit {
namespace {

using bench::Workspace;

/// A deterministic corpus of random 3-tgd rulesets, one SoTgd each.
std::vector<SoTgd> BuildCorpus(Workspace* ws, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<SoTgd> corpus;
  corpus.reserve(count);
  for (int i = 0; i < count; ++i) {
    auto relations = GenerateSchema(&ws->vocab, &rng, SchemaConfig{});
    std::vector<Tgd> tgds;
    for (int j = 0; j < 3; ++j) {
      tgds.push_back(GenerateTgd(&ws->arena, &ws->vocab, &rng, relations,
                                 TgdConfig{}));
    }
    corpus.push_back(TgdsToSo(&ws->arena, &ws->vocab, tgds));
  }
  return corpus;
}

void PrintFrontierTable() {
  bench::Banner(
      "E16 / decidability frontier — triangular guardedness + chase tiers",
      "how often triangular guardedness certifies decidability where no "
      "classic Figure 2 class applies, and where the chase tiers land");

  Workspace ws;
  std::vector<SoTgd> corpus = BuildCorpus(&ws, 400, 1616);
  int classic = 0, rescued = 0, undecided = 0;
  int tiers[3] = {0, 0, 0};
  for (const SoTgd& so : corpus) {
    bool any_classic = IsWeaklyAcyclic(ws.arena, so) ||
                       IsWeaklyGuarded(ws.arena, so) ||
                       IsStickyJoin(ws.arena, so);
    bool tg = IsTriangularlyGuarded(ws.arena, so);
    if (any_classic) {
      ++classic;
    } else if (tg) {
      ++rescued;
    } else {
      ++undecided;
    }
    tiers[static_cast<int>(ChaseComplexityTier(ws.arena, so))]++;
  }
  std::printf("\n%zu random 3-tgd rulesets:\n", corpus.size());
  std::printf("  classic Figure 2 class applies : %d\n", classic);
  std::printf("  rescued by triangular guard    : %d\n", rescued);
  std::printf("  no decidability certificate    : %d\n", undecided);
  std::printf("chase-complexity tiers: %d polynomial, %d exponential, "
              "%d non-elementary\n",
              tiers[0], tiers[1], tiers[2]);
}

void BM_AnalyzeTriangularGuard(benchmark::State& state) {
  // The raw membership check, as `classify` runs it per statement.
  Workspace ws;
  std::vector<SoTgd> corpus = BuildCorpus(&ws, 64, 7001);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        IsTriangularlyGuarded(ws.arena, corpus[i++ % corpus.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeTriangularGuard);

void BM_AnalyzeComplexityTier(benchmark::State& state) {
  Workspace ws;
  std::vector<SoTgd> corpus = BuildCorpus(&ws, 64, 7002);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ChaseComplexityTier(ws.arena, corpus[i++ % corpus.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeComplexityTier);

void BM_AnalyzeVerdicts(benchmark::State& state) {
  // All eight criteria + witnesses + complexity bound in one pass — the
  // cost `classify`, `lint`, and `serve` pay per ruleset.
  Workspace ws;
  std::vector<SoTgd> corpus = BuildCorpus(&ws, 64, 7003);
  size_t i = 0;
  for (auto _ : state) {
    ProgramAnalysis analysis = AnalyzeSo(ws.arena, corpus[i++ % corpus.size()]);
    benchmark::DoNotOptimize(analysis.verdicts.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeVerdicts);

void BM_AnalyzeWitnessReplay(benchmark::State& state) {
  // Independent re-validation of every witness and the complexity bound.
  Workspace ws;
  std::vector<SoTgd> corpus = BuildCorpus(&ws, 64, 7004);
  std::vector<ProgramAnalysis> analyses;
  analyses.reserve(corpus.size());
  for (const SoTgd& so : corpus) analyses.push_back(AnalyzeSo(ws.arena, so));
  size_t i = 0;
  for (auto _ : state) {
    const ProgramAnalysis& analysis = analyses[i++ % analyses.size()];
    benchmark::DoNotOptimize(ReplayAllWitnesses(ws.arena, analysis).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeWitnessReplay);

void BM_AnalyzeScaling(benchmark::State& state) {
  // Full analysis on one ruleset whose size scales with the argument:
  // a chain of existential steps plus a join rule per link.
  uint32_t links = static_cast<uint32_t>(state.range(0));
  Workspace ws;
  std::vector<Tgd> tgds;
  VariableId xv = ws.vocab.InternVariable("x");
  VariableId yv = ws.vocab.InternVariable("y");
  VariableId zv = ws.vocab.InternVariable("z");
  TermId x = ws.arena.MakeVariable(xv);
  TermId y = ws.arena.MakeVariable(yv);
  TermId z = ws.arena.MakeVariable(zv);
  for (uint32_t i = 0; i < links; ++i) {
    RelationId cur =
        ws.vocab.InternRelation("Hop" + std::to_string(i), 2);
    RelationId next =
        ws.vocab.InternRelation("Hop" + std::to_string(i + 1), 2);
    Tgd step;
    step.body = {Atom{cur, {x, y}}};
    step.head = {Atom{next, {y, z}}};
    step.exist_vars = {zv};
    tgds.push_back(step);
    Tgd join;
    join.body = {Atom{cur, {x, y}}, Atom{cur, {y, z}}};
    join.head = {Atom{cur, {x, z}}};
    tgds.push_back(join);
  }
  SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
  for (auto _ : state) {
    ProgramAnalysis analysis = AnalyzeSo(ws.arena, so);
    benchmark::DoNotOptimize(analysis.complexity.tier);
  }
  state.SetItemsProcessed(state.iterations() * links);
}
BENCHMARK(BM_AnalyzeScaling)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tgdkit

int main(int argc, char** argv) {
  tgdkit::PrintFrontierTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
