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
/// with a shrunken deadline (and a bounded backoff), guaranteeing the
/// caller a *sound* slice or a deterministic refusal — never a hang.
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
/// Each rung re-runs the *whole* pipeline (parse → analyze → slice)
/// under its own ResourceGuard: a budget tripped during analysis, not
/// just during slicing, also walks the ladder — a cheaper algorithm
/// won't save it, but the smaller rung budgets keep the total latency
/// bounded and the refusal deterministic. The one exception is a tree
/// the caller already parsed (the service keys the cache with it): the
/// first rung analyzes that tree instead of parsing again.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_LADDER_H
#define JSLICE_SERVICE_LADDER_H

#include "slicer/SlicePrinter.h"
#include "slicer/Slicers.h"

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace jslice {

/// Ladder knobs. The rung-1 budget is \p B; rung i+1 runs under a
/// fresh guard with the *full* step budget but a deadline scaled by
/// (ScalePercent/100)^i. The dimensions deliberately differ: every
/// rung re-pays the same analysis cost before its (cheap) slice, so a
/// shrunken step budget would refuse retries the cheap tier could
/// serve — measured on a goto-dense program, Lyle's whole pipeline
/// costs ~85% of Figure 7's, so even a 50% cut starves every rung.
/// Total work stays bounded at rungs x MaxSteps; the shrinking
/// deadline is what bounds end-to-end latency. Node and nesting
/// limits are structural, not progressive, and stay put.
struct LadderOptions {
  Budget B;

  /// Per-rung *deadline* scale, percent (clamped to [1, 100]). 50
  /// halves each retry's deadline, so total latency is bounded by 2x
  /// the first deadline (plus backoff).
  unsigned ScalePercent = 50;

  /// Sleep before each retry rung, doubling per rung but capped at
  /// 100ms — enough to let a transient deadline overrun clear, bounded
  /// so a refusal stays prompt. 0 disables.
  unsigned BackoffMs = 0;

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

/// Runs the ladder for (\p Source, \p Crit, \p Requested). \p Parsed,
/// when given, must be \p Source's parse under Opts.B; the first rung
/// analyzes it instead of parsing \p Source.
LadderResult runLadder(const std::string &Source, const Criterion &Crit,
                       SliceAlgorithm Requested, const LadderOptions &Opts,
                       std::unique_ptr<Program> Parsed = nullptr);

} // namespace jslice

#endif // JSLICE_SERVICE_LADDER_H
