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

struct NearestInSlice::Scratch {
  uint64_t Epoch = 0;
  struct Entry {
    unsigned Answer[2]; // Per tree (PDT, LST): the nearest member found,
    uint64_t Stamp[2];  // and the epoch it was found in.
  };
  std::vector<Entry> Memo; // Per node.
};

static thread_local NearestInSlice::Scratch PerThreadScratch;

NearestInSlice::NearestInSlice(const Analysis &A, const BitVector &Slice)
    : A(A), Slice(Slice), S(PerThreadScratch), Epoch(++S.Epoch) {
  if (S.Memo.size() < A.cfg().numNodes())
    S.Memo.resize(A.cfg().numNodes());
}

void NearestInSlice::sliceGrew() { Epoch = ++S.Epoch; }

unsigned NearestInSlice::nearest(unsigned Node, bool Lex) {
  const std::vector<int> &Parent = Lex ? A.lst().parents() : A.pdt().idoms();
  std::vector<Scratch::Entry> &M = S.Memo;
  unsigned Exit = A.cfg().exit();
  int Stop = Parent[Node];
  while (Stop >= 0 && M[Stop].Stamp[Lex] != Epoch && unsigned(Stop) != Exit &&
         !Slice.test(Stop))
    Stop = Parent[Stop];
  unsigned Result = Exit;
  if (Stop >= 0)
    Result = M[Stop].Stamp[Lex] == Epoch ? M[Stop].Answer[Lex] : Stop;
  for (int N = Parent[Node]; N != Stop; N = Parent[N]) {
    M[N].Answer[Lex] = Result;
    M[N].Stamp[Lex] = Epoch;
  }
  return Result;
}

void detail::finishResult(const Analysis &A, BitVector Slice,
                          SliceResult &R) {
  // Figure 7's final step: every in-slice goto whose target statement
  // left the slice has its label re-associated with the target's
  // nearest postdominator in the slice (Exit: end of program).
  NearestInSlice Near(A, Slice);
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
    R.ReassociatedLabels[Goto->getTargetLabel()] = Near.postdom(*Target);
  }
  R.Nodes = NodeSet(std::move(Slice));
}
