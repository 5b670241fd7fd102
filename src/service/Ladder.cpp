//===- service/Ladder.cpp - Precision-degradation ladder -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Ladder.h"

#include <algorithm>

using namespace jslice;

namespace {

/// Cost rank of a tier on the ladder: 0 = precise (or otherwise not a
/// fallback), 1 = Figure 13, 2 = Lyle. Fallbacks only ever walk to a
/// strictly higher rank.
unsigned tierRank(SliceAlgorithm A) {
  switch (A) {
  case SliceAlgorithm::Conservative:
    return 1;
  case SliceAlgorithm::Lyle:
    return 2;
  default:
    return 0;
  }
}

/// Budget for rung \p Rung (0-based): a fresh full step budget, but the
/// deadline halved per rung (see LadderOptions for why the dimensions
/// differ), floored at 1 so "halved" never turns into the budget code's
/// 0 == unlimited.
Budget rungBudget(const Budget &First, unsigned Rung) {
  Budget B = First;
  if (B.DeadlineMs)
    B.DeadlineMs = std::max<uint64_t>(1, B.DeadlineMs >> Rung);
  return B;
}

} // namespace

std::vector<SliceAlgorithm> jslice::ladderTiers(SliceAlgorithm Requested) {
  std::vector<SliceAlgorithm> Tiers{Requested};
  if (tierRank(Requested) < tierRank(SliceAlgorithm::Conservative))
    Tiers.push_back(SliceAlgorithm::Conservative);
  if (tierRank(Requested) < tierRank(SliceAlgorithm::Lyle))
    Tiers.push_back(SliceAlgorithm::Lyle);
  return Tiers;
}

bool jslice::conservativeTierEligible(const Analysis &A) {
  if (!isStructuredProgram(A.cfg(), A.lst()))
    return false;
  if (!A.cfg().unreachableNodes().empty())
    return false;
  for (unsigned Node = 0, E = A.cfg().numNodes(); Node != E; ++Node) {
    const Stmt *S = A.cfg().node(Node).S;
    if (S && S->getKind() == StmtKind::Return)
      return false;
  }
  return true;
}

LadderResult jslice::runLadder(const std::string &Source,
                               const Criterion &Crit,
                               SliceAlgorithm Requested,
                               const LadderOptions &Opts) {
  return runLadder(Analysis(Source), Crit, Requested, Opts);
}

LadderResult jslice::runLadder(Analysis A, const Criterion &Crit,
                               SliceAlgorithm Requested,
                               const LadderOptions &Opts) {
  LadderResult Out;
  Out.Requested = Requested;

  std::vector<SliceAlgorithm> Tiers =
      Opts.Degrade ? ladderTiers(Requested)
                   : std::vector<SliceAlgorithm>{Requested};

  DiagList LastExhaustion;
  for (unsigned Rung = 0; Rung != Tiers.size(); ++Rung) {
    SliceAlgorithm Tier = Tiers[Rung];
    LadderAttempt Attempt;
    Attempt.Tier = Tier;

    // A cancellation is a caller's decision, not resource pressure —
    // walking to a cheaper rung would serve a slice nobody wants.
    if (Opts.B.Cancel && Opts.B.Cancel->load(std::memory_order_relaxed)) {
      Out.Diags = LastExhaustion;
      if (Out.Diags.empty())
        Out.Diags.report(SourceLoc(), "cancelled",
                         DiagKind::ResourceExhausted);
      return Out;
    }

    // The rung's fresh guard builds only the stages no earlier rung
    // finished; a trip keeps the stages before it for the next rung.
    DiagList Failed = A.resume(rungBudget(Opts.B, Rung));

    // The cheap rungs only serve where they are sound (header comment);
    // a *requested* unsound tier is the caller's own choice and runs.
    if (Failed.empty() && Rung > 0 && Tier == SliceAlgorithm::Conservative &&
        !conservativeTierEligible(A)) {
      Attempt.Skipped = true;
      Attempt.SkipReason = "figure-13 rung unsound here (unstructured "
                           "jumps, returns, or dead code)";
      Out.Attempts.push_back(std::move(Attempt));
      continue;
    }

    if (Failed.empty()) {
      ErrorOr<SliceResult> R = computeSlice(A, Crit, Tier);
      if (R) {
        Attempt.Served = true;
        Out.Attempts.push_back(std::move(Attempt));
        Out.Ok = true;
        Out.Degraded = Rung > 0;
        Out.Served = Tier;
        Out.Result = std::move(*R);
        Out.Lines = Out.Result.lineSet(A.cfg());
        Out.A.emplace(std::move(A));
        return Out;
      }
      Failed = R.diags();
    }

    if (!Failed.hasKind(DiagKind::ResourceExhausted)) {
      // Malformed input fails the same way on every rung; refuse now.
      Out.Diags = std::move(Failed);
      Out.Attempts.push_back(std::move(Attempt));
      return Out;
    }
    Attempt.Trip = Failed.str();
    LastExhaustion = std::move(Failed);
    Out.Attempts.push_back(std::move(Attempt));
  }

  // Every rung tripped (or was skipped): a deterministic refusal
  // carrying the last trip, classified ResourceExhausted.
  if (LastExhaustion.empty())
    LastExhaustion.report(SourceLoc(), "no eligible ladder tier",
                          DiagKind::ResourceExhausted);
  Out.Diags = LastExhaustion;
  return Out;
}
