//===- slicer/SlicerInternal.cpp - The slice engine's shared machinery -------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "slicer/SlicerInternal.h"

#include "slicer/BatchSlicer.h"

using namespace jslice;
using namespace jslice::detail;

bool GuardRef::exhausted() const {
  if (!Shared)
    return G.exhausted();
  if (Pending)
    flushPending("batch.flush");
  if (Shared->Tripped.load(std::memory_order_relaxed))
    return true;
  std::lock_guard<std::mutex> Lock(Shared->M);
  if (!G.exhausted())
    return false;
  Shared->Tripped.store(true, std::memory_order_relaxed);
  return true;
}

Diag GuardRef::toDiag() const {
  if (!Shared)
    return G.toDiag();
  std::lock_guard<std::mutex> Lock(Shared->M);
  return G.toDiag();
}

bool GuardRef::flushPending(const char *Site) const {
  uint64_t N = Pending;
  Pending = 0;
  std::lock_guard<std::mutex> Lock(Shared->M);
  if (G.charge(N, Site))
    return true;
  Shared->Tripped.store(true, std::memory_order_relaxed);
  return false;
}

bool detail::addDependenceClosure(PdgView P, BitVector &Slice, unsigned Node,
                                  const GuardRef *Guard) {
  if (Slice.test(Node))
    return true;
  Slice.set(Node);
  std::vector<unsigned> Worklist{Node};
  while (!Worklist.empty()) {
    if (Guard && !Guard->checkpoint("slicer.close"))
      return false;
    unsigned Cur = Worklist.back();
    Worklist.pop_back();
    for (const Digraph *G : {&P.Control, &P.Data})
      for (unsigned Dep : G->preds(Cur))
        if (!Slice.test(Dep)) {
          Slice.set(Dep);
          Worklist.push_back(Dep);
        }
  }
  return true;
}

bool ClosureSource::add(BitVector &Slice, unsigned Node) const {
  if (Walk)
    return addDependenceClosure(*Walk, Slice, Node, &Guard);
  if (Slice.test(Node))
    return true; // Closed slice: the closure is already in it.
  if (!Guard.checkpoint("slicer.close"))
    return false;
  Slice |= Cache->closureOf(Node);
  return true;
}

bool detail::closeWithAdaptation(const Analysis &A, const ClosureSource &Close,
                                 BitVector &Slice,
                                 const std::vector<unsigned> &Seeds) {
  for (unsigned Seed : Seeds)
    if (!Close.add(Slice, Seed))
      return false;
  // Conditional-jump adaptation: a conditional-jump predicate in the
  // slice drags in the jump it guards (the predicate is useless in the
  // slice without it), with the jump's closure.
  for (bool Adapted = true; Adapted;) {
    Adapted = false;
    for (auto [Pred, Jump] : A.condJumpPairs()) {
      if (Slice.test(Pred) && !Slice.test(Jump)) {
        if (!Close.add(Slice, Jump))
          return false;
        Adapted = true;
      }
    }
  }
  return true;
}

namespace {

/// Nearest proper ancestor of \p Node in the tree \p Parent describes
/// that is in \p Slice; Exit terminates every walk.
template <typename ParentFn>
unsigned nearestInSlice(const Analysis &A, unsigned Node,
                        const BitVector &Slice, ParentFn Parent) {
  for (int Cur = Parent(Node); Cur >= 0; Cur = Parent(unsigned(Cur))) {
    unsigned N = static_cast<unsigned>(Cur);
    if (N == A.cfg().exit() || Slice.test(N))
      return N;
  }
  return A.cfg().exit();
}

} // namespace

unsigned detail::nearestPostdomInSlice(const Analysis &A, unsigned Node,
                                       const BitVector &Slice) {
  return nearestInSlice(A, Node, Slice,
                        [&](unsigned N) { return A.pdt().idom(N); });
}

unsigned detail::nearestLexSuccInSlice(const Analysis &A, unsigned Node,
                                       const BitVector &Slice) {
  return nearestInSlice(A, Node, Slice,
                        [&](unsigned N) { return A.lst().parent(N); });
}

void detail::finishResult(const Analysis &A, BitVector Slice,
                          SliceResult &R) {
  // Figure 7's final step: every in-slice goto whose target statement
  // left the slice has its label re-associated with the target's
  // nearest postdominator in the slice (Exit: end of program).
  for (unsigned Node : A.jumps()) {
    if (!Slice.test(Node))
      continue;
    const auto *Goto = dyn_cast<GotoStmt>(A.cfg().node(Node).S);
    if (!Goto)
      continue;
    std::optional<unsigned> Target = A.cfg().jumpTarget(Node);
    assert(Target && "goto in slice without resolved target");
    if (Slice.test(*Target))
      continue; // The labeled statement survived; no re-association.
    R.ReassociatedLabels[Goto->getTargetLabel()] =
        *Target == A.cfg().exit() ? *Target
                                  : nearestPostdomInSlice(A, *Target, Slice);
  }
  R.Nodes = NodeSet(std::move(Slice));
}
