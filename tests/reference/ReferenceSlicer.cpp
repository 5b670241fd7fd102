//===- tests/reference/ReferenceSlicer.cpp - std::set test oracle -------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSlicer.h"

#include "slicer/WeiserSlicer.h"

#include <cassert>

using namespace jslice;

namespace {

/// The oracle's working slice (independent of the engine's bitsets).
using NodeIds = std::set<unsigned>;

/// Extends \p Slice with the backward dependence closure of \p Seeds
/// and applies the conditional-jump adaptation (a predicate in the
/// slice drags in its accompanying jump) until a fixpoint.
void closeWithAdaptation(const Analysis &A, PdgView P, NodeIds &Slice,
                         const std::vector<unsigned> &Seeds) {
  std::vector<unsigned> Worklist;
  for (unsigned Seed : Seeds)
    if (Slice.insert(Seed).second)
      Worklist.push_back(Seed);
  for (;;) {
    while (!Worklist.empty()) {
      unsigned Node = Worklist.back();
      Worklist.pop_back();
      for (const Digraph *G : {&P.Control, &P.Data})
        for (unsigned Dep : G->preds(Node))
          if (Slice.insert(Dep).second)
            Worklist.push_back(Dep);
    }
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

/// Nearest proper PDT (\p Postdom) or LST ancestor of \p Node in
/// \p Slice; Exit terminates every walk.
unsigned nearestInSlice(const Analysis &A, unsigned Node,
                        const NodeIds &Slice, bool Postdom) {
  auto Up = [&](unsigned N) {
    return Postdom ? A.pdt().idom(N) : A.lst().parent(N);
  };
  for (int Cur = Up(Node); Cur >= 0; Cur = Up(unsigned(Cur)))
    if (unsigned(Cur) == A.cfg().exit() || Slice.count(unsigned(Cur)))
      return unsigned(Cur);
  return A.cfg().exit();
}

/// Figure 7's test: deleting jump \p J would change where control
/// falls relative to \p Slice.
bool jumpNeeded(const Analysis &A, unsigned J, const NodeIds &Slice) {
  return nearestInSlice(A, J, Slice, true) !=
         nearestInSlice(A, J, Slice, false);
}

std::map<std::string, unsigned> reassociateLabels(const Analysis &A,
                                                  const NodeIds &Slice) {
  std::map<std::string, unsigned> Out;
  for (unsigned Node : Slice) {
    const auto *Goto = dyn_cast_if_present<GotoStmt>(A.cfg().node(Node).S);
    if (!Goto)
      continue;
    unsigned Target = *A.cfg().jumpTarget(Node);
    if (Slice.count(Target))
      continue;
    Out[Goto->getTargetLabel()] = Target == A.cfg().exit()
                                      ? Target
                                      : nearestInSlice(A, Target, Slice, true);
  }
  return Out;
}

/// How many of \p Node's direct control-dependence parents are in
/// \p Slice, and how many it has.
std::pair<size_t, size_t> controllersInSlice(const Analysis &A, unsigned Node,
                                             const NodeIds &Slice) {
  const auto &Preds = A.pdg().Control.preds(Node);
  size_t In = 0;
  for (unsigned Pred : Preds)
    In += Slice.count(Pred);
  return {In, Preds.size()};
}

std::vector<unsigned> jumps(const Cfg &C) {
  std::vector<unsigned> Out;
  for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node)
    if (C.node(Node).isJump())
      Out.push_back(Node);
  return Out;
}

/// Figure 7 over the tree whose preorder is \p Order.
void agrawal(const Analysis &A, const std::vector<unsigned> &Order,
             NodeIds &Slice, SliceResult &R) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++R.Traversals;
    std::vector<unsigned> AddedThisPass;
    for (unsigned J : Order) {
      if (!A.cfg().node(J).isJump() || Slice.count(J))
        continue;
      if (!jumpNeeded(A, J, Slice))
        continue;
      closeWithAdaptation(A, A.pdg(), Slice, {J});
      AddedThisPass.push_back(J);
      Changed = true;
    }
    if (Changed) {
      ++R.ProductiveTraversals;
      R.TraversalAdditions.push_back(std::move(AddedThisPass));
    }
  }
}

/// Figure 12: one PDT pass, bare jumps under an in-slice predicate.
void structured(const Analysis &A, NodeIds &Slice, SliceResult &R) {
  R.Traversals = 1;
  for (unsigned J : A.pdt().preorder()) {
    if (!A.cfg().node(J).isJump() || Slice.count(J) ||
        !controllersInSlice(A, J, Slice).first ||
        !jumpNeeded(A, J, Slice))
      continue;
    Slice.insert(J);
    R.ProductiveTraversals = 1;
  }
}

/// The basic block starting at \p Head (Gallagher's target block).
std::vector<unsigned> basicBlockFrom(const Cfg &C, unsigned Head) {
  std::vector<unsigned> Block;
  for (unsigned Cur = Head; Cur != C.exit() && Cur != C.entry();) {
    Block.push_back(Cur);
    if (C.graph().succs(Cur).size() != 1)
      break;
    unsigned Next = C.graph().succs(Cur).front();
    if (C.graph().preds(Next).size() != 1)
      break;
    Cur = Next;
  }
  return Block;
}

void gallagher(const Analysis &A, NodeIds &Slice) {
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned J : jumps(A.cfg())) {
      if (Slice.count(J))
        continue;
      unsigned Target = *A.cfg().jumpTarget(J);
      bool TargetBlockInSlice = Target == A.cfg().exit();
      for (unsigned Node : basicBlockFrom(A.cfg(), Target))
        TargetBlockInSlice |= Slice.count(Node) != 0;
      auto [In, All] = controllersInSlice(A, J, Slice);
      if (!TargetBlockInSlice || In != All)
        continue;
      closeWithAdaptation(A, A.pdg(), Slice, {J});
      Changed = true;
    }
  }
}

} // namespace

SliceResult reference::computeSlice(const Analysis &A,
                                    const ResolvedCriterion &RC,
                                    SliceAlgorithm Algorithm) {
  if (Algorithm == SliceAlgorithm::Weiser)
    return sliceWeiser(A, RC);

  SliceResult R;
  R.CriterionNode = RC.Node;
  NodeIds Slice;
  std::vector<unsigned> Seeds = RC.Seeds;
  if (Algorithm == SliceAlgorithm::Lyle)
    for (unsigned J : jumps(A.cfg()))
      Seeds.push_back(J);
  if (Algorithm == SliceAlgorithm::BallHorwitz) {
    const Analysis::Augmented *Aug = A.augmented();
    assert(Aug && "the reference runs unmetered");
    closeWithAdaptation(A, A.augPdg(*Aug), Slice, Seeds);
  } else {
    closeWithAdaptation(A, A.pdg(), Slice, Seeds);
  }

  switch (Algorithm) {
  case SliceAlgorithm::Agrawal:
    agrawal(A, A.pdt().preorder(), Slice, R);
    break;
  case SliceAlgorithm::AgrawalLst:
    agrawal(A, A.lst().preorder(), Slice, R);
    break;
  case SliceAlgorithm::Structured:
    structured(A, Slice, R);
    break;
  case SliceAlgorithm::Conservative:
    for (unsigned J : jumps(A.cfg()))
      if (controllersInSlice(A, J, Slice).first)
        Slice.insert(J);
    break;
  case SliceAlgorithm::Gallagher:
    gallagher(A, Slice);
    break;
  case SliceAlgorithm::JiangZhouRobson:
    for (unsigned J : jumps(A.cfg())) {
      unsigned Target = *A.cfg().jumpTarget(J);
      auto [In, All] = controllersInSlice(A, J, Slice);
      if ((Target == A.cfg().exit() || Slice.count(Target)) && In == All)
        Slice.insert(J);
    }
    break;
  case SliceAlgorithm::Conventional:
  case SliceAlgorithm::BallHorwitz:
  case SliceAlgorithm::Lyle:
  case SliceAlgorithm::Weiser:
    break;
  }
  R.ReassociatedLabels = reassociateLabels(A, Slice);
  // The result type is the engine's; build it once, at the end.
  BitVector Bits(A.cfg().numNodes());
  for (unsigned Node : Slice)
    Bits.set(Node);
  R.Nodes = NodeSet(std::move(Bits));
  return R;
}
