//===- slicer/SlicerInternal.cpp - Shared slicer machinery -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "slicer/SlicerInternal.h"

using namespace jslice;
using namespace jslice::detail;

void detail::closeWithAdaptation(const Analysis &A, PdgView P,
                                 std::set<unsigned> &Slice,
                                 std::vector<unsigned> Seeds) {
  std::vector<unsigned> Worklist;
  for (unsigned Seed : Seeds)
    if (Slice.insert(Seed).second)
      Worklist.push_back(Seed);

  for (;;) {
    while (!Worklist.empty()) {
      if (!A.guard().checkpoint("slicer.close"))
        return; // Partial closure; the ErrorOr layer reports it.
      unsigned Node = Worklist.back();
      Worklist.pop_back();
      for (unsigned Dep : P.Control.preds(Node))
        if (Slice.insert(Dep).second)
          Worklist.push_back(Dep);
      for (unsigned Dep : P.Data.preds(Node))
        if (Slice.insert(Dep).second)
          Worklist.push_back(Dep);
    }

    // Conditional-jump adaptation: a conditional-jump predicate in the
    // slice drags in the jump it guards (the predicate is useless in
    // the slice without it). New jumps re-enter the closure loop.
    bool Adapted = false;
    for (auto [Pred, Jump] : A.condJumpPairs()) {
      if (Slice.count(Pred) && Slice.insert(Jump).second) {
        Worklist.push_back(Jump);
        Adapted = true;
      }
    }
    if (!Adapted)
      return;
  }
}

unsigned detail::nearestPostdomInSlice(const Analysis &A, unsigned Node,
                                       const std::set<unsigned> &Slice) {
  int Cur = A.pdt().idom(Node);
  while (Cur >= 0) {
    unsigned N = static_cast<unsigned>(Cur);
    if (N == A.cfg().exit() || Slice.count(N))
      return N;
    Cur = A.pdt().idom(N);
  }
  return A.cfg().exit();
}

unsigned detail::nearestLexSuccInSlice(const Analysis &A, unsigned Node,
                                       const std::set<unsigned> &Slice) {
  int Cur = A.lst().parent(Node);
  while (Cur >= 0) {
    unsigned N = static_cast<unsigned>(Cur);
    if (N == A.cfg().exit() || Slice.count(N))
      return N;
    Cur = A.lst().parent(N);
  }
  return A.cfg().exit();
}

unsigned
detail::nearestPostdomInSliceInclusive(const Analysis &A, unsigned Node,
                                       const std::set<unsigned> &Slice) {
  if (Node == A.cfg().exit() || Slice.count(Node))
    return Node;
  return nearestPostdomInSlice(A, Node, Slice);
}

std::map<std::string, unsigned>
detail::reassociateLabels(const Analysis &A,
                          const std::set<unsigned> &Slice) {
  std::map<std::string, unsigned> Out;
  for (unsigned Node : Slice) {
    const CfgNode &Info = A.cfg().node(Node);
    if (!Info.S)
      continue;
    const auto *Goto = dyn_cast<GotoStmt>(Info.S);
    if (!Goto)
      continue;
    std::optional<unsigned> Target = A.cfg().jumpTarget(Node);
    assert(Target && "goto in slice without resolved target");
    if (Slice.count(*Target))
      continue; // The labeled statement survived; no re-association.
    Out[Goto->getTargetLabel()] =
        nearestPostdomInSliceInclusive(A, *Target, Slice);
  }
  return Out;
}

bool detail::hasControllingPredicateInSlice(const Pdg &P, unsigned Node,
                                            const std::set<unsigned> &Slice) {
  for (unsigned Pred : P.Control.preds(Node))
    if (Slice.count(Pred))
      return true;
  return false;
}

bool detail::allControllingPredicatesInSlice(
    const Pdg &P, unsigned Node, const std::set<unsigned> &Slice) {
  for (unsigned Pred : P.Control.preds(Node))
    if (!Slice.count(Pred))
      return false;
  return true;
}

std::vector<unsigned> detail::jumpNodes(const Cfg &C) {
  std::vector<unsigned> Out;
  for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node)
    if (C.node(Node).isJump())
      Out.push_back(Node);
  return Out;
}
