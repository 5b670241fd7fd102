//===- slicer/RelatedWork.cpp - Lyle / Gallagher / JZR baselines --------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The Section 5 related-work algorithms, reconstructed from the paper's
/// descriptions (the primary sources are theses / proceedings the paper
/// summarizes):
///
///  * Lyle [22]: "except in certain degenerate cases, Lyle's algorithm
///    will include all jump statements that lie between S and loc in
///    the control flowgraph". A literal between-S-and-loc rule is
///    unsound for jumps that *abandon* the criterion path (a `return`
///    never lies "between" anything and loc, yet deleting it resurrects
///    the code after its loop), so this reconstruction takes the
///    maximally conservative reading the paper's Figure 3 discussion
///    describes — every jump statement is included, with its dependence
///    closure. Sound and extremely conservative, as the paper says.
///  * Gallagher [11]: include `goto L` when the basic block labeled L
///    contributes a statement to the slice and the goto's controlling
///    predicates are in the slice (break/continue/return are treated as
///    gotos with implicit labels, as the paper suggests). Iterated to a
///    fixpoint. Unsound: misses the goto on line 4 of Figure 16.
///  * Jiang–Zhou–Robson [18]: rule-based; the exact rules are not given
///    in the paper, so this is the documented approximation from
///    DESIGN.md — include a jump when its target node and all its
///    controlling predicates are already in the slice. Unsound: misses
///    the jumps on lines 11 and 13 of Figure 8, the failure the paper
///    reports.
///
//===----------------------------------------------------------------------===//

#include "slicer/SlicerInternal.h"

using namespace jslice;
using namespace jslice::detail;

namespace {

/// True when every direct control-dependence parent of \p Node is in
/// \p Slice (vacuously true with no parents).
bool allControllingPredicatesInSlice(const Analysis &A, unsigned Node,
                                     const BitVector &Slice) {
  for (unsigned Pred : A.pdg().Control.preds(Node))
    if (!Slice.test(Pred))
      return false;
  return true;
}

/// The basic block starting at \p Head: the maximal straight-line chain
/// of statement/predicate nodes beginning there.
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

} // namespace

void detail::addLyleJumps(const Analysis &A, const ClosureSource &Close,
                          BitVector &Slice) {
  closeWithAdaptation(A, Close, Slice, A.jumps());
}

void detail::addGallagherJumps(const Analysis &A, const ClosureSource &Close,
                               BitVector &Slice) {
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned J : A.jumps()) {
      if (Slice.test(J))
        continue;
      std::optional<unsigned> Target = A.cfg().jumpTarget(J);
      if (!Target)
        continue; // Unresolved (cannot happen post-sema).
      // Returns always "reach" their block.
      bool TargetBlockInSlice = *Target == A.cfg().exit();
      for (unsigned Node : basicBlockFrom(A.cfg(), *Target))
        TargetBlockInSlice |= Slice.test(Node);
      if (!TargetBlockInSlice ||
          !allControllingPredicatesInSlice(A, J, Slice))
        continue;
      Changed = closeWithAdaptation(A, Close, Slice, {J});
      if (!Changed)
        return; // Guard tripped: partial slice, reported by the caller.
    }
  }
}

void detail::addJiangZhouRobsonJumps(const Analysis &A, BitVector &Slice) {
  for (unsigned J : A.jumps()) {
    std::optional<unsigned> Target = A.cfg().jumpTarget(J);
    if (!Target)
      continue;
    bool TargetInSlice = *Target == A.cfg().exit() || Slice.test(*Target);
    if (TargetInSlice && allControllingPredicatesInSlice(A, J, Slice))
      Slice.set(J);
  }
}
