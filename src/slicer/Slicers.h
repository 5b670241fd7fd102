//===- slicer/Slicers.h - All slicing algorithms ------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slicing algorithms this repository reproduces:
///
///  * Conventional — PDG backward reachability [17, 24] plus the paper's
///    conditional-jump adaptation (Section 3). Wrong on programs with
///    unconditional jumps; the base every other algorithm starts from.
///  * Agrawal (Figure 7) — the paper's general algorithm: iterated
///    preorder traversals of the postdominator tree adding every jump
///    whose nearest postdominator in the slice differs from its nearest
///    lexical successor in the slice, plus the jump's dependence
///    closure. Equal precision to Ball–Horwitz / Choi–Ferrante.
///  * AgrawalLst — the same algorithm driven by a preorder traversal of
///    the lexical successor tree (Section 3 notes either tree works;
///    only the traversal count may differ, never the slice).
///  * Structured (Figure 12) — single traversal, only jumps directly
///    control dependent on an in-slice predicate, no closure step.
///    Correct for structured programs without multi-level exits; this
///    reproduction found that `return` statements violate the paper's
///    Section-4 property 2, making Figure 12 (and 13) drop required
///    jumps — see DESIGN.md, "Findings", and tests/FindingsTest.cpp.
///  * Conservative (Figure 13) — adds every jump directly control
///    dependent on an in-slice predicate; needs neither tree. Correct
///    (possibly larger) wherever Figure 12 is.
///  * BallHorwitz — the augmented-flowgraph baseline [5, 8]: control
///    dependence from the augmented CFG, data dependence from the plain
///    CFG, then plain backward reachability.
///  * Lyle — Lyle's extremely conservative behaviour [22] as the paper
///    characterizes it: every jump statement is added, with dependence
///    closure (see RelatedWork.cpp for why the literal between-S-and-loc
///    phrasing is not implementable soundly).
///  * Gallagher — Gallagher's rule [11]: add a jump when its target
///    block already contributes to the slice and its controlling
///    predicates are in the slice. Incorrect on Figure 16 by design.
///  * Weiser — Weiser's original iterative dataflow algorithm [29]
///    (slicer/WeiserSlicer.h): finds the right predicates even around
///    jumps but never includes a jump statement — the defect the paper
///    opens with.
///  * JiangZhouRobson — a rule-based scheme in the spirit of [18] (the
///    paper does not reproduce their exact rules; see DESIGN.md): add a
///    jump when its target and all its controlling predicates are in
///    the slice. Misses the jumps on lines 11 and 13 of Figure 8,
///    matching the failure the paper reports.
///
/// computeSlice is the one entry point. Every algorithm but Weiser is a
/// single traversal (Slicers.cpp, RelatedWork.cpp) shared with the
/// batch engine (BatchSlicer.h); only the source of dependence closures
/// differs.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_SLICERS_H
#define JSLICE_SLICER_SLICERS_H

#include "slicer/Analysis.h"
#include "slicer/Criterion.h"
#include "slicer/LineList.h"
#include "slicer/NodeSet.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace jslice {

/// All implemented algorithms, for table-driven benches and tests.
enum class SliceAlgorithm {
  Conventional,
  Agrawal,
  AgrawalLst,
  Structured,
  Conservative,
  BallHorwitz,
  Lyle,
  Gallagher,
  JiangZhouRobson,
  Weiser,
};

/// Human-readable algorithm name ("agrawal-fig7", ...).
const char *algorithmName(SliceAlgorithm Algorithm);

/// Whether the algorithm yields behaviour-preserving slices on the
/// class of programs it is defined for (Gallagher and JZR do not).
bool algorithmIsSound(SliceAlgorithm Algorithm);

/// The outcome of one slicing run.
struct SliceResult {
  /// CFG nodes in the slice (Entry is always a member — the paper's
  /// dummy predicate node; Exit only when seeded explicitly): the
  /// traversal's own bitset, moved out of the engine.
  NodeSet Nodes;

  unsigned CriterionNode = 0;

  /// Figure 7 statistics: total preorder passes, and passes that added
  /// at least one jump (the count the paper's prose reports).
  unsigned Traversals = 0;
  unsigned ProductiveTraversals = 0;

  /// Figure 7 trace: the jump nodes each traversal added, in visit
  /// order (one inner vector per productive traversal). Drives the
  /// bench that replays the paper's Section 3 walkthroughs.
  std::vector<std::vector<unsigned>> TraversalAdditions;

  /// Labels whose statement fell out of the slice, re-associated with
  /// the target's nearest postdominator in the slice (Figure 7, final
  /// step). Values are CFG node ids; Exit means "end of program".
  std::map<std::string, unsigned> ReassociatedLabels;

  bool contains(unsigned Node) const { return Nodes.contains(Node); }

  /// The slice as source line numbers (paper-figure form): ascending,
  /// each once, in one flat array.
  LineList lineSet(const Cfg &C) const;

  /// The slice as statement ids (what the projection printer keeps).
  std::set<unsigned> stmtIds(const Cfg &C) const;
};

/// \p RC's slice under \p Algorithm. Every PDG-based algorithm runs
/// its one traversal (SlicerInternal.h), taking each dependence closure
/// by walking the dependence graphs — the right trade for a single
/// query; BatchSlicer runs the same traversals over a closure cache. A
/// guard that trips mid-slice leaves a partial result; the overload
/// below reports that as a diagnostic.
SliceResult computeSlice(const Analysis &A, const ResolvedCriterion &RC,
                         SliceAlgorithm Algorithm);

/// Convenience: resolve + slice in one call.
ErrorOr<SliceResult> computeSlice(const Analysis &A, const Criterion &Crit,
                                  SliceAlgorithm Algorithm);

} // namespace jslice

#endif // JSLICE_SLICER_SLICERS_H
