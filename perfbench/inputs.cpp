//===- perfbench/inputs.cpp - Seeded workload inputs ----------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input a run sends is a pure function of (workload, --seed,
/// --seconds). The seed changes program *content*; program *sizes* are
/// stratified (a fixed size schedule, or a low-discrepancy sequence over
/// the log-uniform range) so that two seeds offer the same amount of
/// work and run-to-run spread measures the program, not the draw.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "cfg/Cfg.h"
#include "corpus/PaperPrograms.h"
#include "gen/ProgramGenerator.h"
#include "graph/Digraph.h"
#include "lang/Parser.h"
#include "slicer/BatchSlicer.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <cmath>
#include <random>

using namespace jslice;
using namespace perfbench;

namespace {

// Saturated closed-loop throughput the pools are sized for: about twice
// what the program served when the benchmark was defined, so a faster
// program still finds distinct inputs. A used-up pool starts over, which
// the provenance flags as closed_loop_pool_wrapped.
constexpr double ColdPoolRps = 1200;
constexpr double ZipfPoolRps = 9000;

/// One corpus request in every CorpusEvery slots of the closed-loop
/// pool. The 7 paper programs then recur every 7*16 requests — more than
/// the default 64-entry cache holds on cold_unique, so they miss there
/// like every other request. The open-loop requests hold none: the two
/// phases alternate, and each open segment would bring paper programs
/// back while the closed segment's were still cached.
constexpr size_t CorpusEvery = 16;

bool isCorpusSlot(size_t I, size_t ClosedPool) {
  return I < ClosedPool && I % CorpusEvery == CorpusEvery - 1;
}

struct CorpusVariant {
  SliceAlgorithm Algo;
  std::set<unsigned> Lines;
};

/// The (algorithm, paper line set) pairs a workload can ask of example
/// \p Ex, restricted to \p Mix.
std::vector<CorpusVariant>
corpusVariants(const PaperExample &Ex, const std::vector<SliceAlgorithm> &Mix) {
  std::vector<CorpusVariant> Out;
  for (SliceAlgorithm A : Mix) {
    switch (A) {
    case SliceAlgorithm::Agrawal:
    case SliceAlgorithm::AgrawalLst:
    case SliceAlgorithm::BallHorwitz: // Equal precision to Figure 7.
      Out.push_back({A, Ex.AgrawalLines});
      break;
    case SliceAlgorithm::Structured:
      if (Ex.StructuredLines)
        Out.push_back({A, *Ex.StructuredLines});
      break;
    case SliceAlgorithm::Conservative:
      if (Ex.ConservativeLines)
        Out.push_back({A, *Ex.ConservativeLines});
      break;
    default:
      break;
    }
  }
  return Out;
}

unsigned lineCount(const std::string &S) {
  return static_cast<unsigned>(std::count(S.begin(), S.end(), '\n'));
}

ProgramSpec genProgramOnce(uint64_t Seed, unsigned Stmts, bool Unstructured,
                           unsigned NumVars) {
  GenOptions G;
  G.Seed = Seed;
  G.TargetStmts = Stmts;
  G.AllowGotos = Unstructured;
  G.NumVars = NumVars;
  ProgramSpec P;
  P.Source = generateProgram(G);
  P.Lines = lineCount(P.Source);
  ErrorOr<std::unique_ptr<jslice::Program>> Parsed = parseProgram(P.Source);
  if (!Parsed)
    return P;
  ErrorOr<Cfg> C = Cfg::build(**Parsed);
  if (!C)
    return P;
  std::vector<bool> Reach = reachableFrom(C->graph(), C->entry());
  for (const Criterion &Crit : writeCriteria(**Parsed)) {
    bool Live = false;
    for (unsigned Node : C->nodesOnLine(Crit.Line))
      Live = Live || Reach[Node];
    if (Live)
      P.Crits.push_back(Crit);
  }
  return P;
}

/// Generates one program and its reachable write criteria (parse + CFG
/// only; the full analysis is the server's job). A draw whose writes are
/// all dead is redrawn, so every program has a criterion to ask for, and
/// so is one cut short by an early top-level jump (the generator stops
/// there), so a program has about the size asked for.
ProgramSpec genProgram(uint64_t Seed, unsigned Stmts, bool Unstructured,
                       unsigned NumVars) {
  ProgramSpec P;
  for (uint64_t Attempt = 0; Attempt != 32; ++Attempt) {
    P = genProgramOnce(mix64(Seed + Attempt), Stmts, Unstructured, NumVars);
    if (!P.Crits.empty() && P.Lines >= Stmts)
      break;
  }
  return P;
}

/// Fractional part of a low-discrepancy additive sequence.
double lowDiscrepancy(double Start, size_t I, double Step) {
  double V = Start + static_cast<double>(I) * Step;
  return V - std::floor(V);
}

double unitFromSeed(uint64_t S) {
  return static_cast<double>(mix64(S) >> 11) * 0x1.0p-53;
}

/// Poisson due times at \p Rate over \p Seconds (ms from phase start).
std::vector<double> poissonSchedule(uint64_t Seed, double Rate,
                                    double Seconds) {
  std::mt19937_64 Rng(mix64(Seed ^ 0x9e3779b97f4a7c15ull));
  std::exponential_distribution<double> Gap(Rate / 1000.0);
  std::vector<double> Due;
  for (double T = Gap(Rng); T < Seconds * 1000.0; T += Gap(Rng))
    Due.push_back(T);
  return Due;
}

/// The open-loop rate (requests/s): about half the saturated closed-loop
/// throughput the program had when the benchmark was defined.
double openLoopRate(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::ColdUnique:
    return 260;
  case WorkloadKind::ZipfHot:
    return 2000;
  case WorkloadKind::BatchLarge:
    return 0;
  }
  return 0;
}

/// Appends the paper programs to \p W.Programs; returns their indices.
std::vector<unsigned> addCorpus(Workload &W) {
  std::vector<unsigned> Idx;
  const std::vector<PaperExample> &Ex = paperExamples();
  for (size_t I = 0; I != Ex.size(); ++I) {
    ProgramSpec P;
    P.Source = Ex[I].Source;
    P.Lines = lineCount(P.Source);
    P.Corpus = static_cast<int>(I);
    P.Crits.push_back(Ex[I].Crit);
    Idx.push_back(static_cast<unsigned>(W.Programs.size()));
    W.Programs.push_back(std::move(P));
  }
  return Idx;
}

/// The CorpusSlot-th corpus request: examples cycle in the outer
/// position so one example recurs as far apart as possible.
Request corpusRequest(const std::vector<unsigned> &CorpusIdx, size_t Slot,
                      const std::vector<SliceAlgorithm> &Mix) {
  const std::vector<PaperExample> &Ex = paperExamples();
  size_t E = Slot % Ex.size();
  std::vector<CorpusVariant> Vs = corpusVariants(Ex[E], Mix);
  const CorpusVariant &V = Vs[(Slot / Ex.size()) % Vs.size()];
  Request R;
  R.Prog = CorpusIdx[E];
  R.Crit = Ex[E].Crit;
  R.Algo = V.Algo;
  R.PaperLines = V.Lines;
  return R;
}

void makeColdUnique(const Options &O, Workload &W) {
  double Half = O.Seconds / 2.0;
  W.OpenRate = openLoopRate(W.Kind);
  W.OpenDueMs = poissonSchedule(O.Seed, W.OpenRate, Half);
  size_t Closed = static_cast<size_t>(std::ceil(ColdPoolRps * Half));
  size_t Total = Closed + W.OpenDueMs.size();
  W.OpenBegin = Closed;

  std::vector<unsigned> CorpusIdx = addCorpus(W);
  const std::vector<SliceAlgorithm> Mix = {
      SliceAlgorithm::Agrawal, SliceAlgorithm::Structured,
      SliceAlgorithm::Conservative, SliceAlgorithm::BallHorwitz};

  // Slot layout first (cheap), then generate the programs in parallel.
  W.Requests.resize(Total);
  std::vector<size_t> GenSlots;
  for (size_t I = 0; I != Total; ++I) {
    if (isCorpusSlot(I, Closed))
      W.Requests[I] = corpusRequest(CorpusIdx, I / CorpusEvery, Mix);
    else
      GenSlots.push_back(I);
  }
  size_t Base = W.Programs.size();
  W.Programs.resize(Base + GenSlots.size());
  double SizeStart = unitFromSeed(O.Seed ^ 0x51ull);
  double AlgoStart = unitFromSeed(O.Seed ^ 0xa190ull);
  WorkerPool::parallelFor(O.Nproc, GenSlots.size(), [&](size_t K) {
    // Log-uniform 100..800 statements, stratified over the stream.
    double U = lowDiscrepancy(SizeStart, K, 0.6180339887498949);
    unsigned Stmts =
        static_cast<unsigned>(std::lround(100.0 * std::pow(8.0, U)));
    uint64_t PSeed = mix64(O.Seed * 0x100000001b3ull + K + 1);
    W.Programs[Base + K] = genProgram(PSeed, Stmts, K % 2 == 1, 6);
  });
  for (size_t K = 0; K != GenSlots.size(); ++K) {
    const ProgramSpec &P = W.Programs[Base + K];
    Request &R = W.Requests[GenSlots[K]];
    R.Prog = static_cast<unsigned>(Base + K);
    uint64_t Pick = mix64(O.Seed ^ (K * 0x2545f4914f6cdd1dull));
    if (!P.Crits.empty())
      R.Crit = P.Crits[Pick % P.Crits.size()];
    // Mostly Figure 7: 70% agrawal, 10% each of the other three.
    double V = lowDiscrepancy(AlgoStart, K, 0.7548776662466927);
    R.Algo = V < 0.7 ? Mix[0] : V < 0.8 ? Mix[1] : V < 0.9 ? Mix[2] : Mix[3];
  }
}

void makeZipfHot(const Options &O, Workload &W) {
  double Half = O.Seconds / 2.0;
  W.OpenRate = openLoopRate(W.Kind);
  W.OpenDueMs = poissonSchedule(O.Seed, W.OpenRate, Half);
  size_t Closed = static_cast<size_t>(std::ceil(ZipfPoolRps * Half));
  size_t Total = Closed + W.OpenDueMs.size();
  W.OpenBegin = Closed;

  // 32 programs, 100..400 statements on a fixed log-spaced schedule;
  // rank r gets the size of slot bitreverse5(r), so popular and rare
  // ranks both span the range whatever the seed.
  constexpr unsigned NumHot = 32;
  W.Programs.resize(NumHot);
  WorkerPool::parallelFor(O.Nproc, NumHot, [&](size_t R) {
    unsigned Rev = 0;
    for (unsigned B = 0; B != 5; ++B)
      Rev |= ((R >> B) & 1u) << (4 - B);
    unsigned Stmts = static_cast<unsigned>(
        std::lround(100.0 * std::pow(4.0, (Rev + 0.5) / NumHot)));
    W.Programs[R] =
        genProgram(mix64(O.Seed * 31 + R + 1), Stmts, R % 2 == 1, 6);
  });
  std::vector<unsigned> CorpusIdx = addCorpus(W);

  // Cache-served sound tiers (Weiser bypasses the cache).
  const std::vector<SliceAlgorithm> Tiers = {
      SliceAlgorithm::Agrawal,      SliceAlgorithm::AgrawalLst,
      SliceAlgorithm::Structured,   SliceAlgorithm::Conservative,
      SliceAlgorithm::BallHorwitz,  SliceAlgorithm::Lyle};

  std::vector<double> Cdf(NumHot);
  double Sum = 0;
  for (unsigned R = 0; R != NumHot; ++R)
    Cdf[R] = (Sum += 1.0 / (R + 1));
  for (double &C : Cdf)
    C /= Sum;

  std::mt19937_64 Rng(mix64(O.Seed ^ 0x21bfull));
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  std::vector<uint64_t> Turn(NumHot, 0);
  W.Requests.resize(Total);
  for (size_t I = 0; I != Total; ++I) {
    if (isCorpusSlot(I, Closed)) {
      W.Requests[I] = corpusRequest(CorpusIdx, I / CorpusEvery, Tiers);
      continue;
    }
    unsigned R = static_cast<unsigned>(
        std::lower_bound(Cdf.begin(), Cdf.end(), Unit(Rng)) - Cdf.begin());
    R = std::min(R, NumHot - 1);
    const ProgramSpec &P = W.Programs[R];
    Request &Q = W.Requests[I];
    Q.Prog = R;
    uint64_t T = Turn[R]++;
    size_t NC = std::max<size_t>(P.Crits.size(), 1);
    if (!P.Crits.empty())
      Q.Crit = P.Crits[T % NC];
    Q.Algo = Tiers[(T / NC + T) % Tiers.size()];
  }
}

/// Sum over line criteria of the dependence-closure sizes: the work a
/// runAll over the program does, within a small factor.
uint64_t closureVolume(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  if (!A)
    return 0;
  BatchSlicer BS(*A);
  uint64_t V = 0;
  for (const Criterion &C : allLineCriteria(*A))
    if (ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, C))
      V += BS.closures().closureOf(RC->Node).count();
  return V;
}

void makeBatchLarge(const Options &O, Workload &W) {
  // Four unstructured programs spanning 2000..3200 statements. Programs
  // of one size still differ several-fold in how much their slices
  // share, so each slot takes, of a few seeded candidates, the one whose
  // closure volume is nearest the typical 0.27 * statements^2: the seed
  // changes the programs, not the amount of work.
  const unsigned Sizes[] = {2000, 2400, 2800, 3200};
  constexpr unsigned Candidates = 6;
  std::vector<ProgramSpec> Cands(4 * Candidates);
  std::vector<uint64_t> Volume(Cands.size());
  WorkerPool::parallelFor(O.Nproc, Cands.size(), [&](size_t I) {
    Cands[I] = genProgram(mix64(O.Seed * 131 + I + 1), Sizes[I / Candidates],
                          /*Unstructured=*/true, 8);
    Volume[I] = closureVolume(Cands[I].Source);
  });
  for (unsigned Slot = 0; Slot != 4; ++Slot) {
    double Target = 0.27 * double(Sizes[Slot]) * double(Sizes[Slot]);
    size_t Best = Slot * Candidates;
    for (size_t I = Best; I != (Slot + 1) * Candidates; ++I)
      if (std::abs(double(Volume[I]) - Target) <
          std::abs(double(Volume[Best]) - Target))
        Best = I;
    W.Programs.push_back(std::move(Cands[Best]));
  }
}

} // namespace

std::optional<Workload> perfbench::makeWorkload(const Options &O) {
  Workload W;
  W.Name = O.WorkloadName;
  if (W.Name == "cold_unique") {
    W.Kind = WorkloadKind::ColdUnique;
    makeColdUnique(O, W);
  } else if (W.Name == "zipf_hot") {
    W.Kind = WorkloadKind::ZipfHot;
    makeZipfHot(O, W);
  } else if (W.Name == "batch_large") {
    W.Kind = WorkloadKind::BatchLarge;
    makeBatchLarge(O, W);
  } else {
    return std::nullopt;
  }
  return W;
}
