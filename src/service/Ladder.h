//===- service/Ladder.h - Precision-degradation ladder ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's answer to a tripped resource budget: the paper itself
/// ranks its algorithms by cost. Figure 7 iterates preorder traversals
/// to a fixpoint; Figure 13 is a single pass needing neither tree; and
/// Lyle's maximally conservative slicer just adds every jump with its
/// dependence closure. Both cheap tiers always terminate in one sweep,
/// so when the requested algorithm exhausts its Budget the ladder
/// retries the request at the next cheaper tier under a fresh guard
/// with a halved deadline, guaranteeing the caller a *sound* slice or
/// a deterministic refusal — never a hang.
///
/// Soundness guards the rungs: Figure 13 is only behaviour-preserving
/// on structured programs without multi-level exits (this repo's
/// Finding 2 — a `return` under a loop defeats the paper's Section-4
/// property 2; tests/FindingsTest.cpp), so the Conservative rung is
/// skipped unless the analyzed program is structured, return-free, and
/// dead-code-free; the ladder then falls through to Lyle, which is
/// sound on every exit-reachable program. tests/LadderTest.cpp holds
/// the behavioural-projection proof over the paper corpus and a
/// generator sweep.
///
/// The ladder owns one Analysis per request and resumes it on every
/// rung under that rung's fresh ResourceGuard (Analysis::resume). A
/// budget tripped during analysis, not just during slicing, also walks
/// the ladder: the next rung resumes at the stage that tripped and
/// keeps every stage before it. A rung that tripped in its slice leaves
/// a finished analysis, so the next rung pays only for its own slice.
/// A caller that already parsed the program (the service keys the cache
/// with the tree) hands the ladder an Analysis whose parse stage is
/// built.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_LADDER_H
#define JSLICE_SERVICE_LADDER_H

#include "slicer/SlicePrinter.h"
#include "slicer/Slicers.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace jslice {

/// Ladder knobs. The rung-1 budget is \p B; rung i+1 runs under a
/// fresh guard with the *full* step budget but half rung i's deadline.
/// The dimensions deliberately differ: a rung that resumes an analysis
/// tripped early still pays for the stages left, and those dominate
/// its cheap slice — measured on a goto-dense program, Lyle's whole
/// pipeline costs ~85% of Figure 7's — so a shrunken step budget would
/// refuse retries the cheap tier could serve. Total work stays bounded
/// at rungs x MaxSteps, and the halving deadline bounds end-to-end
/// latency at twice the first deadline. Node and nesting limits are
/// structural, not progressive, and stay put.
struct LadderOptions {
  Budget B;

  /// When false the ladder is a plain single-rung run (slicer_cli
  /// without --fallback, requests that opt out).
  bool Degrade = true;
};

/// One rung's outcome, for the response's `attempts` report.
struct LadderAttempt {
  SliceAlgorithm Tier;
  bool Served = false;
  bool Skipped = false;  ///< Rung ineligible (soundness precondition).
  std::string Trip;      ///< Guard reason when the rung tripped.
  std::string SkipReason;
};

/// The ladder's verdict on one request.
struct LadderResult {
  bool Ok = false;
  bool Degraded = false; ///< Ok, but below the requested tier.
  SliceAlgorithm Requested = SliceAlgorithm::Agrawal;
  SliceAlgorithm Served = SliceAlgorithm::Agrawal;
  SliceResult Result;          ///< Valid when Ok.
  LineList Lines;              ///< Result as source lines, when Ok.
  std::optional<Analysis> A;   ///< The serving rung's analysis, when Ok.
  DiagList Diags;              ///< Why, when !Ok.
  std::vector<LadderAttempt> Attempts;
};

/// The tier sequence for \p Requested: the request itself, then every
/// strictly cheaper tier (Conservative, then Lyle). Requesting a cheap
/// tier starts the ladder there.
std::vector<SliceAlgorithm> ladderTiers(SliceAlgorithm Requested);

/// Whether the Conservative (Figure 13) rung may soundly serve \p A:
/// structured jumps only, no return statements, no dead code.
bool conservativeTierEligible(const Analysis &A);

/// Runs the ladder for (\p A, \p Crit, \p Requested), resuming \p A's
/// stages on each rung. \p A may have any prefix of its stages built.
LadderResult runLadder(Analysis A, const Criterion &Crit,
                       SliceAlgorithm Requested, const LadderOptions &Opts);

/// As above, for \p Source with no stage built.
LadderResult runLadder(const std::string &Source, const Criterion &Crit,
                       SliceAlgorithm Requested, const LadderOptions &Opts);

} // namespace jslice

#endif // JSLICE_SERVICE_LADDER_H
