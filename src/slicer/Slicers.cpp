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

std::set<unsigned> SliceResult::lineSet(const Cfg &C) const {
  std::set<unsigned> Lines;
  for (unsigned Node : Nodes)
    if (const Stmt *S = C.node(Node).S)
      if (S->getLoc().isValid())
        Lines.insert(S->getLoc().Line);
  return Lines;
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
// Conventional slicing (with the conditional-jump adaptation)
//===----------------------------------------------------------------------===//

SliceResult jslice::sliceConventional(const Analysis &A,
                                      const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  closeWithAdaptation(A, A.pdg(), R.Nodes, RC.Seeds);
  R.ReassociatedLabels = reassociateLabels(A, R.Nodes);
  return R;
}

//===----------------------------------------------------------------------===//
// Figure 7: the paper's general algorithm
//===----------------------------------------------------------------------===//

SliceResult jslice::sliceAgrawal(const Analysis &A,
                                 const ResolvedCriterion &RC,
                                 TraversalTree Tree) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  closeWithAdaptation(A, A.pdg(), R.Nodes, RC.Seeds);

  const std::vector<unsigned> &Order = Tree == TraversalTree::PostDominator
                                           ? A.pdt().preorder()
                                           : A.lst().preorder();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++R.Traversals;
    std::vector<unsigned> AddedThisPass;
    for (unsigned J : Order) {
      if (!A.guard().checkpoint("slicer.traversal")) {
        // Budget exhausted mid-traversal: stop growing the slice. The
        // ErrorOr dispatch layer reports the tripped guard.
        R.ReassociatedLabels = reassociateLabels(A, R.Nodes);
        return R;
      }
      if (!A.cfg().node(J).isJump() || R.contains(J))
        continue;
      // The decisive test: a jump is needed exactly when deleting it
      // would change where control falls relative to the slice.
      unsigned NearestPd = nearestPostdomInSlice(A, J, R.Nodes);
      unsigned NearestLs = nearestLexSuccInSlice(A, J, R.Nodes);
      if (NearestPd == NearestLs)
        continue;
      closeWithAdaptation(A, A.pdg(), R.Nodes, {J});
      AddedThisPass.push_back(J);
      Changed = true;
    }
    if (Changed) {
      ++R.ProductiveTraversals;
      R.TraversalAdditions.push_back(std::move(AddedThisPass));
    }
  }

  R.ReassociatedLabels = reassociateLabels(A, R.Nodes);
  return R;
}

//===----------------------------------------------------------------------===//
// Figure 12: single traversal for structured programs
//===----------------------------------------------------------------------===//

SliceResult jslice::sliceStructured(const Analysis &A,
                                    const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  closeWithAdaptation(A, A.pdg(), R.Nodes, RC.Seeds);

  R.Traversals = 1;
  for (unsigned J : A.pdt().preorder()) {
    if (!A.cfg().node(J).isJump() || R.contains(J))
      continue;
    if (!hasControllingPredicateInSlice(A.pdg(), J, R.Nodes))
      continue;
    unsigned NearestPd = nearestPostdomInSlice(A, J, R.Nodes);
    unsigned NearestLs = nearestLexSuccInSlice(A, J, R.Nodes);
    if (NearestPd == NearestLs)
      continue;
    // For structured programs the jump's dependences are already in the
    // slice (Section 4, property 2) — insert the jump alone.
    R.Nodes.insert(J);
    R.ProductiveTraversals = 1;
  }

  R.ReassociatedLabels = reassociateLabels(A, R.Nodes);
  return R;
}

//===----------------------------------------------------------------------===//
// Figure 13: conservative, tree-free
//===----------------------------------------------------------------------===//

SliceResult jslice::sliceConservative(const Analysis &A,
                                      const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  closeWithAdaptation(A, A.pdg(), R.Nodes, RC.Seeds);

  for (unsigned J : jumpNodes(A.cfg())) {
    if (R.contains(J))
      continue;
    if (hasControllingPredicateInSlice(A.pdg(), J, R.Nodes))
      R.Nodes.insert(J);
  }

  R.ReassociatedLabels = reassociateLabels(A, R.Nodes);
  return R;
}

//===----------------------------------------------------------------------===//
// Ball–Horwitz / Choi–Ferrante: augmented-flowgraph baseline
//===----------------------------------------------------------------------===//

SliceResult jslice::sliceBallHorwitz(const Analysis &A,
                                     const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  // Plain backward reachability over the augmented PDG; jumps enter the
  // slice through augmented control dependence, so no adaptation pass is
  // needed — but running it is harmless and keeps conditional jumps
  // attached to their predicates in degenerate cases.
  // A null bundle means the guard tripped building it; the ErrorOr
  // dispatch layer reports that, as for any other partial slice.
  if (const Analysis::Augmented *Aug = A.augmented())
    closeWithAdaptation(A, A.augPdg(*Aug), R.Nodes, RC.Seeds);
  R.ReassociatedLabels = reassociateLabels(A, R.Nodes);
  return R;
}

//===----------------------------------------------------------------------===//
// Dispatch
//===----------------------------------------------------------------------===//

SliceResult jslice::computeSlice(const Analysis &A,
                                 const ResolvedCriterion &RC,
                                 SliceAlgorithm Algorithm) {
  switch (Algorithm) {
  case SliceAlgorithm::Conventional:
    return sliceConventional(A, RC);
  case SliceAlgorithm::Agrawal:
    return sliceAgrawal(A, RC, TraversalTree::PostDominator);
  case SliceAlgorithm::AgrawalLst:
    return sliceAgrawal(A, RC, TraversalTree::LexicalSuccessor);
  case SliceAlgorithm::Structured:
    return sliceStructured(A, RC);
  case SliceAlgorithm::Conservative:
    return sliceConservative(A, RC);
  case SliceAlgorithm::BallHorwitz:
    return sliceBallHorwitz(A, RC);
  case SliceAlgorithm::Lyle:
    return sliceLyle(A, RC);
  case SliceAlgorithm::Gallagher:
    return sliceGallagher(A, RC);
  case SliceAlgorithm::JiangZhouRobson:
    return sliceJiangZhouRobson(A, RC);
  case SliceAlgorithm::Weiser:
    return sliceWeiser(A, RC);
  }
  assert(false && "unknown slicing algorithm");
  return SliceResult();
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
