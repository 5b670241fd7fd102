//===- perfbench/oracle.cpp - The correctness gate behind wrong_slices ----===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every ok response is recomputed, outside the timed phases, with the
/// slice engine that did *not* serve it: responses served from the
/// analysis cache (BatchSlicer's closures) against the single-shot
/// slicers, cold responses (single-shot) against BatchSlicer. Corpus
/// requests must also reproduce the paper's figure line sets. A seeded
/// sample of sound slices is then run through the projection
/// interpreter, the behavioural oracle: the slice must reproduce the
/// original's criterion values on every input where the original
/// terminates.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "interp/Interpreter.h"
#include "service/Ladder.h"
#include "slicer/BatchSlicer.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <random>

using namespace jslice;
using namespace perfbench;

namespace {

constexpr size_t BehaviouralSamples = 24;
constexpr size_t MaxNotes = 8;

/// Interpreter inputs (the shapes the repository's ladder tests use).
const std::vector<std::vector<int64_t>> &oracleInputs() {
  static const std::vector<std::vector<int64_t>> In = {
      {}, {1}, {3, -2}, {0, 5, -7, 2}, {-1, -1, 4, 9, 10}};
  return In;
}

/// Whether \p Algo is behaviour-preserving on \p A's program.
bool soundHere(const Analysis &A, SliceAlgorithm Algo) {
  switch (Algo) {
  case SliceAlgorithm::Agrawal:
  case SliceAlgorithm::AgrawalLst:
  case SliceAlgorithm::BallHorwitz:
  case SliceAlgorithm::Lyle:
    return true;
  case SliceAlgorithm::Structured:
  case SliceAlgorithm::Conservative:
    return conservativeTierEligible(A);
  default:
    return false;
  }
}

/// True when the projection matches the original on every input where
/// the original terminates; \p Ran counts the inputs compared.
bool projectionAgrees(const Analysis &A, const ResolvedCriterion &RC,
                      const SliceResult &S, unsigned &Ran) {
  std::set<unsigned> Kept = S.Nodes;
  Kept.insert(A.cfg().exit());
  for (const std::vector<int64_t> &Input : oracleInputs()) {
    ExecOptions Exec;
    Exec.Input = Input;
    Exec.MaxSteps = 100000;
    ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Exec);
    if (!Orig.Completed)
      continue;
    ++Ran;
    ExecResult Sliced = runProjection(A, Kept, RC.Node, RC.VarIds, Exec);
    if (!Sliced.Completed || Sliced.CriterionValues != Orig.CriterionValues)
      return false;
  }
  return true;
}

std::string describe(const Workload &W, const Request &Q, const char *What) {
  const ProgramSpec &P = W.Programs[Q.Prog];
  std::string D = std::string(What) + ": " + algorithmName(Q.Algo) + " line " +
                  std::to_string(Q.Crit.Line) + " of ";
  D += P.Corpus >= 0
           ? "paper program #" + std::to_string(P.Corpus)
           : "generated program (" + std::to_string(P.Lines) + " lines)";
  return D;
}

} // namespace

GateResult perfbench::checkResponses(const Workload &W,
                                     const std::vector<Served> &Rs,
                                     uint64_t Seed, unsigned Threads) {
  GateResult G;
  std::mutex M;
  auto note = [&](std::string S) {
    if (G.Notes.size() < MaxNotes)
      G.Notes.push_back(std::move(S));
  };

  // Group ok responses by program, so each program is analysed once.
  std::map<unsigned, std::vector<const Served *>> ByProg;
  for (const Served &S : Rs) {
    if (!S.Ok)
      continue;
    if (S.Req >= W.Requests.size()) {
      std::lock_guard<std::mutex> L(M);
      ++G.WrongSlices;
      note("response for an unknown request id");
      continue;
    }
    ByProg[W.Requests[S.Req].Prog].push_back(&S);
  }

  // The behavioural sample: seeded choice among ok responses.
  std::vector<const Served *> Pool;
  for (const auto &[P, V] : ByProg)
    Pool.insert(Pool.end(), V.begin(), V.end());
  std::mt19937_64 Rng(mix64(Seed ^ 0xbe4a710ull));
  std::shuffle(Pool.begin(), Pool.end(), Rng);
  std::set<const Served *> Sampled(
      Pool.begin(),
      Pool.begin() + std::min(Pool.size(), BehaviouralSamples * 4));

  std::vector<std::pair<const unsigned, std::vector<const Served *>> *> Groups;
  for (auto &E : ByProg)
    Groups.push_back(&E);

  WorkerPool::parallelFor(Threads, Groups.size(), [&](size_t GI) {
    const ProgramSpec &P = W.Programs[Groups[GI]->first];
    ErrorOr<Analysis> A = Analysis::fromSource(P.Source);
    if (!A) {
      std::lock_guard<std::mutex> L(M);
      G.WrongSlices += Groups[GI]->second.size();
      note("reference analysis failed on a served program");
      return;
    }
    std::unique_ptr<BatchSlicer> BS;
    // (line, vars, algorithm, engine) -> reference lines.
    std::map<std::tuple<unsigned, std::vector<std::string>, int, bool>,
             std::vector<unsigned>>
        Memo;
    uint64_t Checked = 0, Wrong = 0, Paper = 0, Beh = 0, BehWrong = 0;
    std::vector<std::string> Notes;
    bool Repro = false;
    std::string ReproWhat;
    for (const Served *S : Groups[GI]->second) {
      const Request &Q = W.Requests[S->Req];
      bool SingleShot = S->Cached; // The engine that did *not* serve it.
      auto Key = std::make_tuple(Q.Crit.Line, Q.Crit.Vars,
                                 static_cast<int>(Q.Algo), SingleShot);
      auto It = Memo.find(Key);
      if (It == Memo.end()) {
        ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, Q.Crit);
        std::set<unsigned> Ref;
        if (RC) {
          if (SingleShot) {
            Ref = computeSlice(*A, *RC, Q.Algo).lineSet(A->cfg());
          } else {
            if (!BS)
              BS = std::make_unique<BatchSlicer>(*A);
            Ref = BS->slice(*RC, Q.Algo).lineSet(A->cfg());
          }
        }
        It = Memo.emplace(Key, std::vector<unsigned>(Ref.begin(), Ref.end()))
                 .first;
      }
      ++Checked;
      if (It->second != S->Lines) {
        ++Wrong;
        Notes.push_back(describe(W, Q,
                                 SingleShot
                                     ? "cached slice differs from single-shot"
                                     : "cold slice differs from BatchSlicer"));
        Repro = true;
        ReproWhat = Notes.back();
      }
      if (Q.PaperLines) {
        ++Paper;
        if (std::vector<unsigned>(Q.PaperLines->begin(), Q.PaperLines->end()) !=
            S->Lines) {
          ++Wrong;
          Notes.push_back(
              describe(W, Q, "slice differs from the paper's figure"));
          Repro = true;
          ReproWhat = Notes.back();
        }
      }
      if (Sampled.count(S) && soundHere(*A, Q.Algo) &&
          A->cfg().unreachableNodes().empty()) {
        ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, Q.Crit);
        if (RC) {
          SliceResult SR = computeSlice(*A, *RC, Q.Algo);
          unsigned Ran = 0;
          bool Agrees = projectionAgrees(*A, *RC, SR, Ran);
          if (Ran) {
            ++Beh;
            if (!Agrees) {
              ++BehWrong;
              Notes.push_back(
                  describe(W, Q, "projection diverges from the original"));
              Repro = true;
              ReproWhat = Notes.back();
            }
          }
        }
      }
    }
    std::lock_guard<std::mutex> L(M);
    G.Checked += Checked;
    G.WrongSlices += Wrong + BehWrong;
    G.PaperChecked += Paper;
    G.Behavioural += Beh;
    G.BehaviouralWrong += BehWrong;
    for (std::string &N : Notes)
      note(std::move(N));
    if (Repro && G.Repros.size() < MaxNotes)
      G.Repros.emplace_back(ReproWhat, P.Source);
  });
  return G;
}
