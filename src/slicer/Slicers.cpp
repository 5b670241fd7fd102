//===- slicer/Slicers.cpp - The paper's slicing algorithms --------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Implements the conventional slicer, the paper's Figure 7 / 12 / 13
/// algorithms, and the Ball–Horwitz / Choi–Ferrante baseline. The
/// related-work baselines (Lyle, Gallagher, Jiang–Zhou–Robson) live in
/// RelatedWork.cpp.
///
//===----------------------------------------------------------------------===//

#include "slicer/Slicers.h"

#include "slicer/SlicerInternal.h"
#include "slicer/WeiserSlicer.h"

using namespace jslice;
using namespace jslice::detail;

//===----------------------------------------------------------------------===//
// SliceResult helpers
//===----------------------------------------------------------------------===//

LineList SliceResult::lineSet(const Cfg &C) const {
  std::vector<unsigned> Lines;
  Lines.reserve(Nodes.size());
  for (unsigned Node : Nodes)
    if (const Stmt *S = C.node(Node).S)
      if (S->getLoc().isValid())
        Lines.push_back(S->getLoc().Line);
  return LineList(std::move(Lines));
}

std::set<unsigned> SliceResult::stmtIds(const Cfg &C) const {
  std::set<unsigned> Ids;
  for (unsigned Node : Nodes)
    if (const Stmt *S = C.node(Node).S)
      Ids.insert(S->getId());
  return Ids;
}

const char *jslice::algorithmName(SliceAlgorithm Algorithm) {
  switch (Algorithm) {
  case SliceAlgorithm::Conventional:
    return "conventional";
  case SliceAlgorithm::Agrawal:
    return "agrawal-fig7";
  case SliceAlgorithm::AgrawalLst:
    return "agrawal-fig7-lst";
  case SliceAlgorithm::Structured:
    return "structured-fig12";
  case SliceAlgorithm::Conservative:
    return "conservative-fig13";
  case SliceAlgorithm::BallHorwitz:
    return "ball-horwitz";
  case SliceAlgorithm::Lyle:
    return "lyle";
  case SliceAlgorithm::Gallagher:
    return "gallagher";
  case SliceAlgorithm::JiangZhouRobson:
    return "jiang-zhou-robson";
  case SliceAlgorithm::Weiser:
    return "weiser";
  }
  return "<unknown>";
}

bool jslice::algorithmIsSound(SliceAlgorithm Algorithm) {
  switch (Algorithm) {
  case SliceAlgorithm::Agrawal:
  case SliceAlgorithm::AgrawalLst:
  case SliceAlgorithm::Structured:
  case SliceAlgorithm::Conservative:
  case SliceAlgorithm::BallHorwitz:
  case SliceAlgorithm::Lyle:
    return true;
  case SliceAlgorithm::Conventional:
  case SliceAlgorithm::Gallagher:
  case SliceAlgorithm::JiangZhouRobson:
  case SliceAlgorithm::Weiser:
    return false;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// The paper's traversals, over a bitset slice
//===----------------------------------------------------------------------===//

namespace {

/// Figure 7: preorder passes over a tree of \p TreeNodes nodes, whose
/// preorder holds the jumps \p Jumps, until one adds no jump. A pass
/// adds, with its closure, every jump whose nearest postdominator and
/// nearest lexical successor in the slice differ. It visits only the
/// jumps (nothing else can be added), yet is charged one step per tree
/// node up front plus a checkpoint per jump it tests. A tripped guard
/// stops the traversal (partial slice).
void figure7(const Analysis &A, const ClosureSource &Close,
             size_t TreeNodes, const std::vector<unsigned> &Jumps,
             BitVector &Slice, SliceResult &R) {
  NearestInSlice Near(A, Slice);
  for (bool Ok = true; Ok;) {
    ++R.Traversals;
    std::vector<unsigned> Added;
    Ok = Close.guard().charge(TreeNodes, "slicer.traversal");
    for (auto J = Jumps.begin(); Ok && J != Jumps.end(); ++J) {
      if (Slice.test(*J))
        continue;
      Ok = Close.guard().checkpoint("slicer.traversal");
      if (!Ok || !Near.jumpNeeded(*J))
        continue;
      Added.push_back(*J);
      Near.sliceGrew();
      Ok = closeWithAdaptation(A, Close, Slice, {*J});
    }
    if (Added.empty())
      break;
    ++R.ProductiveTraversals;
    R.TraversalAdditions.push_back(std::move(Added));
  }
}

/// True when \p Node has a direct control-dependence parent in
/// \p Slice (Entry — the dummy predicate — counts).
bool hasControllingPredicateInSlice(const Analysis &A, unsigned Node,
                                    const BitVector &Slice) {
  for (unsigned Pred : A.pdg().Control.preds(Node))
    if (Slice.test(Pred))
      return true;
  return false;
}

/// Figure 12: a single PDT traversal for structured programs, adding
/// only jumps directly control dependent on an in-slice predicate.
void figure12(const Analysis &A, BitVector &Slice, SliceResult &R) {
  R.Traversals = 1;
  NearestInSlice Near(A, Slice);
  for (unsigned J : A.pdtJumpOrder()) {
    if (Slice.test(J) || !hasControllingPredicateInSlice(A, J, Slice) ||
        !Near.jumpNeeded(J))
      continue;
    // For structured programs the jump's dependences are already in the
    // slice (Section 4, property 2) — insert the jump alone.
    Slice.set(J);
    Near.sliceGrew();
    R.ProductiveTraversals = 1;
  }
}

/// Figure 13: conservative and tree-free — every jump directly control
/// dependent on an in-slice predicate.
void figure13(const Analysis &A, BitVector &Slice) {
  for (unsigned J : A.jumps())
    if (hasControllingPredicateInSlice(A, J, Slice))
      Slice.set(J);
}

} // namespace

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

SliceResult detail::computeSlice(const Analysis &A,
                                 const ResolvedCriterion &RC,
                                 SliceAlgorithm Algorithm,
                                 const ClosureSource &Close) {
  if (Algorithm == SliceAlgorithm::Weiser)
    return sliceWeiser(A, RC);
  SliceResult R;
  R.CriterionNode = RC.Node;
  BitVector Slice(A.cfg().numNodes());
  // Every algorithm starts from the conventional slice. A tripped guard
  // leaves it partial; the ErrorOr layer reports the trip.
  if (closeWithAdaptation(A, Close, Slice, RC.Seeds)) {
    switch (Algorithm) {
    case SliceAlgorithm::Conventional:
    case SliceAlgorithm::BallHorwitz: // Jumps enter through augmented CD.
    case SliceAlgorithm::Weiser:
      break;
    case SliceAlgorithm::Agrawal:
      figure7(A, Close, A.pdt().preorder().size(), A.pdtJumpOrder(), Slice,
              R);
      break;
    case SliceAlgorithm::AgrawalLst:
      figure7(A, Close, A.lst().preorder().size(), A.lstJumpOrder(), Slice,
              R);
      break;
    case SliceAlgorithm::Structured:
      figure12(A, Slice, R);
      break;
    case SliceAlgorithm::Conservative:
      figure13(A, Slice);
      break;
    case SliceAlgorithm::Lyle:
      addLyleJumps(A, Close, Slice);
      break;
    case SliceAlgorithm::Gallagher:
      addGallagherJumps(A, Close, Slice);
      break;
    case SliceAlgorithm::JiangZhouRobson:
      addJiangZhouRobsonJumps(A, Slice);
      break;
    }
  }
  finishResult(A, std::move(Slice), R);
  return R;
}

SliceResult jslice::computeSlice(const Analysis &A,
                                 const ResolvedCriterion &RC,
                                 SliceAlgorithm Algorithm) {
  // One query: walk the dependence graphs instead of building the
  // closure cache (BatchSlicer) that only pays off over many.
  GuardRef Guard(A.guard());
  if (Algorithm != SliceAlgorithm::BallHorwitz)
    return detail::computeSlice(A, RC, Algorithm,
                                ClosureSource(A.pdg(), Guard));
  if (const Analysis::Augmented *Aug = A.augmented())
    return detail::computeSlice(A, RC, Algorithm,
                                ClosureSource(A.augPdg(*Aug), Guard));
  // The guard tripped building the augmented bundle; the ErrorOr
  // dispatch layer reports that, as for any other partial slice.
  SliceResult R;
  R.CriterionNode = RC.Node;
  return R;
}

ErrorOr<SliceResult> jslice::computeSlice(const Analysis &A,
                                          const Criterion &Crit,
                                          SliceAlgorithm Algorithm) {
  // A budget already exhausted (by an earlier slice on this Analysis)
  // degrades deterministically rather than returning a partial slice.
  if (A.guard().exhausted())
    return A.guard().toDiag();
  ErrorOr<ResolvedCriterion> RC = resolveCriterion(A, Crit);
  if (!RC)
    return RC.diags();
  SliceResult R = computeSlice(A, *RC, Algorithm);
  if (A.guard().exhausted())
    return A.guard().toDiag();
  return R;
}
