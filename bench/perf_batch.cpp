//===- bench/perf_batch.cpp - Batch engine vs single-shot throughput ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Extension experiment (the paper reports no measurements): throughput
/// of slicing EVERY line criterion of one generated program, single-shot
/// (one full PDG traversal per criterion) versus the batch engine
/// (shared SCC condensation + memoized dependence closures, optionally
/// threaded). Emits BENCH_batch.json with criteria/sec for both and for
/// a ladder of thread counts.
///
/// Construction (condensation + closure bitsets) is single-threaded
/// and timed separately from the queries: the thread-ladder rows
/// measure pure query scaling over one shared, immutable engine, and
/// `build_seconds` reports the one-time cost a cold caller (or an
/// analysis-cache miss) pays on top. Earlier revisions folded the
/// build into the first ladder row, which made thread scaling look
/// flat — the build dominated and never parallelizes. The JSON also
/// records the machine's hardware_concurrency so a flat ladder on a
/// 1-core box reads as expected, not as a regression.
///
/// Usage: perf_batch [--smoke] [--out FILE.json]
///
/// --smoke shrinks the program to ~120 statements and the thread ladder
/// to {1,2}, and additionally cross-checks every batch slice against
/// its single-shot twin — that mode backs the `bench-smoke` ctest
/// label. The full run uses a ~2000-statement goto-dialect program and
/// threads {1,2,4,8}; single-shot cost is measured on a sample of the
/// criteria and extrapolated, because slicing thousands of criteria
/// one PDG walk at a time is exactly the cost this engine removes.
///
//===----------------------------------------------------------------------===//

#include "gen/ProgramGenerator.h"
#include "jslice/jslice.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace jslice;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

std::string generateSource(unsigned Stmts) {
  GenOptions Opts;
  Opts.Seed = 20260806;
  Opts.TargetStmts = Stmts;
  Opts.AllowGotos = true;
  Opts.NumVars = 8;
  return generateProgram(Opts);
}

struct BatchSample {
  unsigned Threads = 1;
  double Seconds = 0;
  double CriteriaPerSec = 0;
};

int run(bool Smoke, const std::string &OutPath) {
  const unsigned Stmts = Smoke ? 120 : 2000;
  const SliceAlgorithm Algo = SliceAlgorithm::Agrawal;

  std::string Source = generateSource(Stmts);
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  if (!A) {
    std::fprintf(stderr, "generated program failed to analyze:\n%s\n",
                 A.diags().str().c_str());
    return 1;
  }

  std::vector<Criterion> Crits = allLineCriteria(*A);
  if (Crits.empty()) {
    std::fprintf(stderr, "no criteria on the generated program\n");
    return 1;
  }

  // Single-shot baseline: resolve + slice per criterion, like a caller
  // looping over the one-criterion API. Sampled in the full run.
  const size_t Sample =
      Smoke ? Crits.size() : std::min<size_t>(Crits.size(), 64);
  const size_t Stride = Crits.size() / Sample;
  std::vector<SliceResult> SingleResults;
  auto SingleStart = std::chrono::steady_clock::now();
  size_t SingleRan = 0;
  for (size_t I = 0; I < Crits.size(); I += Stride) {
    ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, Crits[I]);
    if (!RC)
      continue;
    SingleResults.push_back(computeSlice(*A, *RC, Algo));
    ++SingleRan;
  }
  double SingleSecs = secondsSince(SingleStart);
  double SinglePerSec = SingleRan ? SingleRan / SingleSecs : 0;

  // Construction (condensation + closures) timed once, on its own: it
  // is single-threaded and shared by every ladder row, so folding it
  // into a row's timing would flatten the apparent thread scaling.
  // The engine builds its closures on first use; closures() forces it.
  auto BuildStart = std::chrono::steady_clock::now();
  BatchSlicer Engine(*A);
  Engine.closures();
  double BuildSecs = secondsSince(BuildStart);

  // Query ladder over the one immutable engine: pure fan-out scaling.
  std::vector<unsigned> ThreadLadder =
      Smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  std::vector<BatchSample> Samples;
  std::vector<BatchEntry> FirstRun;
  for (unsigned Threads : ThreadLadder) {
    auto Start = std::chrono::steady_clock::now();
    BatchOptions Opts;
    Opts.Algorithm = Algo;
    Opts.Threads = Threads;
    std::vector<BatchEntry> Entries = Engine.runAll(Crits, Opts);
    BatchSample S;
    S.Threads = Threads;
    S.Seconds = secondsSince(Start);
    S.CriteriaPerSec = Entries.size() / S.Seconds;
    Samples.push_back(S);
    if (FirstRun.empty())
      FirstRun = std::move(Entries);
  }

  int Failures = 0;
  if (Smoke) {
    // Spot check: the smoke baseline sliced every criterion, so every
    // batch entry has a single-shot twin to compare against.
    size_t SingleIdx = 0;
    for (size_t I = 0; I < Crits.size(); I += Stride) {
      const BatchEntry &E = FirstRun[I];
      if (!E.Ok)
        continue;
      if (SingleIdx >= SingleResults.size())
        break;
      if (E.Result.Nodes != SingleResults[SingleIdx].Nodes ||
          E.Result.ReassociatedLabels !=
              SingleResults[SingleIdx].ReassociatedLabels) {
        std::fprintf(stderr,
                     "smoke check: batch slice for criterion line %u "
                     "differs from single-shot\n",
                     E.Crit.Line);
        ++Failures;
      }
      ++SingleIdx;
    }
  }

  double Speedup1 =
      SinglePerSec > 0 ? Samples.front().CriteriaPerSec / SinglePerSec : 0;

  FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n");
  std::fprintf(Out, "  \"benchmark\": \"batch_vs_single_shot\",\n");
  std::fprintf(Out, "  \"mode\": \"%s\",\n", Smoke ? "smoke" : "full");
  std::fprintf(Out, "  \"algorithm\": \"agrawal\",\n");
  std::fprintf(Out, "  \"program_stmts\": %u,\n", Stmts);
  std::fprintf(Out, "  \"criteria\": %zu,\n", Crits.size());
  std::fprintf(Out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(Out,
               "  \"single_shot\": {\"sampled_criteria\": %zu, "
               "\"seconds\": %.6f, \"criteria_per_sec\": %.2f},\n",
               SingleRan, SingleSecs, SinglePerSec);
  std::fprintf(Out, "  \"build_seconds\": %.6f,\n", BuildSecs);
  std::fprintf(Out, "  \"batch\": [\n");
  for (size_t I = 0; I < Samples.size(); ++I) {
    const BatchSample &S = Samples[I];
    std::fprintf(Out,
                 "    {\"threads\": %u, \"query_seconds\": %.6f, "
                 "\"criteria_per_sec\": %.2f, "
                 "\"criteria_per_sec_incl_build\": %.2f, "
                 "\"speedup_vs_single_shot\": %.2f}%s\n",
                 S.Threads, S.Seconds, S.CriteriaPerSec,
                 Crits.size() / (S.Seconds + BuildSecs),
                 SinglePerSec > 0 ? S.CriteriaPerSec / SinglePerSec : 0,
                 I + 1 == Samples.size() ? "" : ",");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);

  std::printf("%u stmts, %zu criteria: single-shot %.1f criteria/sec, "
              "batch build %.3fs + queries(1 thread) %.1f criteria/sec "
              "(%.1fx)\n",
              Stmts, Crits.size(), SinglePerSec, BuildSecs,
              Samples.front().CriteriaPerSec, Speedup1);
  for (const BatchSample &S : Samples)
    std::printf("  threads=%u  %.3fs  %.1f criteria/sec\n", S.Threads,
                S.Seconds, S.CriteriaPerSec);
  std::printf("wrote %s\n", OutPath.c_str());
  if (Smoke)
    std::printf("smoke cross-check: %s\n",
                Failures == 0 ? "batch == single-shot" : "DIVERGED");
  return Failures == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  std::string OutPath = "BENCH_batch.json";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke") {
      Smoke = true;
    } else if (Arg == "--out" && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: perf_batch [--smoke] [--out FILE.json]\n");
      return 2;
    }
  }
  return run(Smoke, OutPath);
}
