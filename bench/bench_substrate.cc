// E9 — substrate performance baselines (not a paper artifact): chase
// throughput, homomorphism search, core computation, term interning and
// parsing. These keep the engineering honest and make regressions in the
// shared machinery visible.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "chase/chase.h"
#include "dep/skolem.h"
#include "gen/generators.h"
#include "homo/core.h"
#include "homo/matcher.h"
#include "parse/parser.h"

namespace tgdkit {
namespace {

using bench::Workspace;

void BM_TermInterning(benchmark::State& state) {
  Workspace ws;
  FunctionId f = ws.vocab.InternFunction("f", 1);
  ConstantId c = ws.vocab.InternConstant("c");
  for (auto _ : state) {
    TermId t = ws.arena.MakeConstant(c);
    for (int i = 0; i < 64; ++i) {
      t = ws.arena.MakeFunction(f, std::vector<TermId>{t});
    }
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TermInterning);

void BM_InstanceInsert(benchmark::State& state) {
  Workspace ws;
  RelationId r = ws.vocab.InternRelation("R", 3);
  uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    Instance inst(&ws.vocab);
    for (uint32_t i = 0; i < n; ++i) {
      std::vector<Value> args{
          Value::Constant(i % 17), Value::Constant(i % 31),
          Value::Constant(i % 13)};
      inst.AddFact(r, args);
    }
    benchmark::DoNotOptimize(inst.NumFacts());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InstanceInsert)->Arg(1000)->Arg(10000);

void BM_TriangleMatcher(benchmark::State& state) {
  Workspace ws;
  Rng rng(9090);
  RelationId e = ws.vocab.InternRelation("E", 2);
  Instance inst(&ws.vocab);
  uint32_t n = static_cast<uint32_t>(state.range(0));
  for (uint32_t i = 0; i < 4 * n; ++i) {
    std::vector<Value> args{Value::Constant(uint32_t(rng.Below(n))),
                            Value::Constant(uint32_t(rng.Below(n)))};
    inst.AddFact(e, args);
  }
  TermId x = ws.arena.MakeVariable(ws.vocab.InternVariable("x"));
  TermId y = ws.arena.MakeVariable(ws.vocab.InternVariable("y"));
  TermId z = ws.arena.MakeVariable(ws.vocab.InternVariable("z"));
  std::vector<Atom> triangle{Atom{e, {x, y}}, Atom{e, {y, z}},
                             Atom{e, {z, x}}};
  Matcher matcher(&ws.arena, &inst, triangle);
  for (auto _ : state) {
    size_t count =
        matcher.ForEach({}, [](std::span<const Value>) { return true; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_TriangleMatcher)->Arg(50)->Arg(200)->Arg(800)
    ->Unit(benchmark::kMicrosecond);

void BM_TransitiveClosureChase(benchmark::State& state) {
  uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    Workspace ws;
    RelationId e = ws.vocab.InternRelation("E", 2);
    VariableId xv = ws.vocab.InternVariable("x");
    VariableId yv = ws.vocab.InternVariable("y");
    VariableId zv = ws.vocab.InternVariable("z");
    Tgd trans;
    trans.body = {Atom{e, {ws.arena.MakeVariable(xv),
                           ws.arena.MakeVariable(yv)}},
                  Atom{e, {ws.arena.MakeVariable(yv),
                           ws.arena.MakeVariable(zv)}}};
    trans.head = {Atom{e, {ws.arena.MakeVariable(xv),
                           ws.arena.MakeVariable(zv)}}};
    std::vector<Tgd> tgds{trans};
    SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
    Instance input(&ws.vocab);
    for (uint32_t i = 0; i + 1 < n; ++i) {
      std::vector<Value> args{Value::Constant(i), Value::Constant(i + 1)};
      input.AddFact(e, args);
    }
    ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input);
    benchmark::DoNotOptimize(result.instance.NumFacts());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_TransitiveClosureChase)->Arg(16)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_CoreComputation(benchmark::State& state) {
  Workspace ws;
  Rng rng(9091);
  SchemaConfig schema_config;
  schema_config.num_relations = 3;
  schema_config.max_arity = 2;
  auto relations = GenerateSchema(&ws.vocab, &rng, schema_config);
  Instance inst(&ws.vocab);
  GenerateInstance(&ws.vocab, &rng, relations,
                   static_cast<uint32_t>(state.range(0)), 3, 5, &inst);
  for (auto _ : state) {
    Instance core = ComputeCore(&ws.arena, &ws.vocab, inst);
    benchmark::DoNotOptimize(core.NumFacts());
  }
}
BENCHMARK(BM_CoreComputation)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_ParseDependencies(benchmark::State& state) {
  const std::string text =
      "Emp(e, d) -> exists m . Mgr(e, m) .\n"
      "so exists fmgr { Emp2(e) -> Mgr(e, fmgr(e)) ;"
      " Emp2(e) & e = fmgr(e) -> SelfMgr(e) } .\n"
      "henkin { forall e, d ; exists eid(e) ; exists dm(d) }"
      " Emp(e, d) -> Pair(e, d, eid, dm) .\n"
      "nested Dep(d) -> exists u . Dep2(u) & [ Grp(d, g) -> Grp2(u, g) ] .\n";
  for (auto _ : state) {
    Workspace ws;
    Parser parser(&ws.arena, &ws.vocab);
    auto program = parser.ParseDependencies(text);
    benchmark::DoNotOptimize(program.ok());
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_ParseDependencies);

void BM_SemiNaiveAblation(benchmark::State& state) {
  // Ablation (DESIGN.md E9): semi-naive vs naive chase evaluation on
  // transitive closure over a path — the classic quadratic-fixpoint case.
  bool semi_naive = state.range(0) == 1;
  uint32_t n = static_cast<uint32_t>(state.range(1));
  for (auto _ : state) {
    Workspace ws;
    RelationId e = ws.vocab.InternRelation("E", 2);
    VariableId xv = ws.vocab.InternVariable("x");
    VariableId yv = ws.vocab.InternVariable("y");
    VariableId zv = ws.vocab.InternVariable("z");
    Tgd trans;
    trans.body = {Atom{e, {ws.arena.MakeVariable(xv),
                           ws.arena.MakeVariable(yv)}},
                  Atom{e, {ws.arena.MakeVariable(yv),
                           ws.arena.MakeVariable(zv)}}};
    trans.head = {Atom{e, {ws.arena.MakeVariable(xv),
                           ws.arena.MakeVariable(zv)}}};
    std::vector<Tgd> tgds{trans};
    SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
    Instance input(&ws.vocab);
    for (uint32_t i = 0; i + 1 < n; ++i) {
      std::vector<Value> args{Value::Constant(i), Value::Constant(i + 1)};
      input.AddFact(e, args);
    }
    ChaseLimits limits;
    limits.semi_naive = semi_naive;
    ChaseResult result = Chase(&ws.arena, &ws.vocab, so, input, limits);
    benchmark::DoNotOptimize(result.instance.NumFacts());
  }
}
BENCHMARK(BM_SemiNaiveAblation)
    ->Args({0, 32})->Args({1, 32})->Args({0, 64})->Args({1, 64})
    ->Unit(benchmark::kMillisecond);

void BM_RestrictedVsSkolemChase(benchmark::State& state) {
  // Same weakly-acyclic rules, alternating engines by Arg: 0 = Skolem,
  // 1 = restricted.
  bool restricted = state.range(0) == 1;
  for (auto _ : state) {
    Workspace ws;
    RelationId p = ws.vocab.InternRelation("P", 1);
    RelationId r = ws.vocab.InternRelation("R", 2);
    VariableId xv = ws.vocab.InternVariable("x");
    VariableId yv = ws.vocab.InternVariable("y");
    Tgd tgd;
    tgd.body = {Atom{p, {ws.arena.MakeVariable(xv)}}};
    tgd.head = {Atom{r, {ws.arena.MakeVariable(xv),
                         ws.arena.MakeVariable(yv)}}};
    tgd.exist_vars = {yv};
    std::vector<Tgd> tgds{tgd};
    Instance input(&ws.vocab);
    for (uint32_t i = 0; i < 500; ++i) {
      std::vector<Value> args{Value::Constant(i)};
      input.AddFact(p, args);
    }
    if (restricted) {
      benchmark::DoNotOptimize(RestrictedChaseTgds(&ws.arena, tgds, input));
    } else {
      SoTgd so = TgdsToSo(&ws.arena, &ws.vocab, tgds);
      benchmark::DoNotOptimize(Chase(&ws.arena, &ws.vocab, so, input));
    }
  }
}
BENCHMARK(BM_RestrictedVsSkolemChase)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tgdkit

BENCHMARK_MAIN();
