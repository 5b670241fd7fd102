//===- bench/perf_scaling.cpp - Runtime scaling with program size -------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Extension experiment (the paper reports no measurements): how the
/// pipeline scales with program size. One google-benchmark counter per
/// stage — parsing+analysis, the conventional slice, Figure 7, and the
/// two dominator algorithms on the same flowgraphs.
///
//===----------------------------------------------------------------------===//

#include "gen/ProgramGenerator.h"
#include "jslice/jslice.h"

#include <benchmark/benchmark.h>

using namespace jslice;

namespace {

std::string sourceOfSize(unsigned Stmts, bool Gotos) {
  GenOptions Opts;
  Opts.Seed = 20260705 + Stmts;
  Opts.TargetStmts = Stmts;
  Opts.AllowGotos = Gotos;
  Opts.NumVars = 8;
  return generateProgram(Opts);
}

const Analysis &analysisOfSize(unsigned Stmts) {
  static std::map<unsigned, Analysis> Cache;
  auto It = Cache.find(Stmts);
  if (It == Cache.end()) {
    ErrorOr<Analysis> A =
        Analysis::fromSource(sourceOfSize(Stmts, /*Gotos=*/true));
    assert(A.hasValue() && "generated program must analyze");
    It = Cache.emplace(Stmts, std::move(*A)).first;
  }
  return It->second;
}

void BM_AnalysisPipeline(benchmark::State &State) {
  std::string Source =
      sourceOfSize(static_cast<unsigned>(State.range(0)), true);
  for (auto _ : State) {
    ErrorOr<Analysis> A = Analysis::fromSource(Source);
    benchmark::DoNotOptimize(A.hasValue());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_AnalysisPipeline)->Range(50, 3200)->Complexity();

void BM_ConventionalSlice(benchmark::State &State) {
  const Analysis &A = analysisOfSize(static_cast<unsigned>(State.range(0)));
  ResolvedCriterion RC =
      *resolveCriterion(A, reachableWriteCriteria(A).front());
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeSlice(A, RC, SliceAlgorithm::Conventional).Nodes.size());
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_ConventionalSlice)->Range(50, 3200)->Complexity();

void BM_AgrawalSlice(benchmark::State &State) {
  const Analysis &A = analysisOfSize(static_cast<unsigned>(State.range(0)));
  ResolvedCriterion RC =
      *resolveCriterion(A, reachableWriteCriteria(A).front());
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeSlice(A, RC, SliceAlgorithm::Agrawal).Nodes.size());
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_AgrawalSlice)->Range(50, 3200)->Complexity();

void BM_BallHorwitzSlice(benchmark::State &State) {
  const Analysis &A = analysisOfSize(static_cast<unsigned>(State.range(0)));
  ResolvedCriterion RC =
      *resolveCriterion(A, reachableWriteCriteria(A).front());
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeSlice(A, RC, SliceAlgorithm::BallHorwitz).Nodes.size());
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_BallHorwitzSlice)->Range(50, 3200)->Complexity();

void BM_DominatorsIterative(benchmark::State &State) {
  const Analysis &A = analysisOfSize(static_cast<unsigned>(State.range(0)));
  Digraph Reversed = A.cfg().graph().reversed();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeDominatorsIterative(Reversed, A.cfg().exit()).numNodes());
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_DominatorsIterative)->Range(50, 3200)->Complexity();

void BM_DominatorsLengauerTarjan(benchmark::State &State) {
  const Analysis &A = analysisOfSize(static_cast<unsigned>(State.range(0)));
  Digraph Reversed = A.cfg().graph().reversed();
  for (auto _ : State)
    benchmark::DoNotOptimize(
        computeDominatorsLengauerTarjan(Reversed, A.cfg().exit())
            .numNodes());
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_DominatorsLengauerTarjan)->Range(50, 3200)->Complexity();

} // namespace

BENCHMARK_MAIN();
