//===- slicer/WeiserSlicer.cpp - Weiser's iterative dataflow slicer -----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "slicer/WeiserSlicer.h"

#include "slicer/SlicerInternal.h"
#include "support/BitVector.h"

using namespace jslice;
using namespace jslice::detail;

namespace {

/// One run of the directly-relevant-variables dataflow: propagates
/// relevance backward to a fixpoint, adding every statement that
/// defines a relevant variable to \p Slice. \p Relevant[n] holds the
/// variables relevant at the *entry* of node n.
void propagateRelevance(const Analysis &A, std::vector<BitVector> &Relevant,
                        BitVector &Slice) {
  const Cfg &C = A.cfg();
  const DefUse &DU = A.defUse();
  unsigned NumVars = DU.numVars();

  bool Changed = true;
  BitVector AtExit(NumVars);
  while (Changed) {
    Changed = false;
    for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node) {
      // Relevant at exit of Node: union over successors' entries.
      AtExit.clear();
      for (unsigned Succ : C.graph().succs(Node))
        AtExit |= Relevant[Succ];

      // Through the statement: kill definitions; a definition of a
      // relevant variable makes the statement's uses relevant and the
      // statement part of the slice.
      BitVector AtEntry = AtExit;
      bool DefinesRelevant = false;
      for (unsigned Var : DU.defsOf(Node)) {
        if (AtExit.test(Var))
          DefinesRelevant = true;
        AtEntry.reset(Var);
      }
      if (DefinesRelevant) {
        for (unsigned Var : DU.usesOf(Node))
          AtEntry.set(Var);
        if (!Slice.test(Node))
          Changed = true;
        Slice.set(Node);
      }

      AtEntry |= Relevant[Node]; // Keep criterion/branch seeds.
      if (AtEntry != Relevant[Node]) {
        Relevant[Node] = std::move(AtEntry);
        Changed = true;
      }
    }
  }
}

} // namespace

SliceResult jslice::sliceWeiser(const Analysis &A,
                                const ResolvedCriterion &RC) {
  const Cfg &C = A.cfg();
  const DefUse &DU = A.defUse();

  SliceResult R;
  R.CriterionNode = RC.Node;
  BitVector Slice(C.numNodes());
  Slice.set(RC.Node);
  Slice.set(C.entry());

  std::vector<BitVector> Relevant(C.numNodes(), BitVector(DU.numVars()));
  for (unsigned Var : RC.VarIds)
    Relevant[RC.Node].set(Var);

  // Alternate dataflow and branch inclusion until no branch is added.
  // INFL(b) — the statements whose execution b decides — is exactly
  // b's control-dependence successor set (FOW region between b and its
  // immediate postdominator).
  for (;;) {
    propagateRelevance(A, Relevant, Slice);

    bool AddedBranch = false;
    for (unsigned B = 0, E = C.numNodes(); B != E; ++B) {
      if (C.node(B).Kind != CfgNodeKind::Predicate || Slice.test(B))
        continue;
      bool Influences = false;
      for (unsigned Influenced : A.pdg().Control.succs(B))
        if (Slice.test(Influenced))
          Influences = true;
      if (!Influences)
        continue;
      Slice.set(B);
      // The branch's condition variables become relevant at the branch.
      BitVector WithUses = Relevant[B];
      for (unsigned Var : DU.usesOf(B))
        WithUses.set(Var);
      if (WithUses != Relevant[B]) {
        Relevant[B] = std::move(WithUses);
      }
      AddedBranch = true;
    }
    if (!AddedBranch)
      break;
  }

  finishResult(A, std::move(Slice), R);
  return R;
}
