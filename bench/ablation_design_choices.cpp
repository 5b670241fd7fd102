//===- bench/ablation_design_choices.cpp - Ablations of design choices --------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Ablation studies for the design choices DESIGN.md calls out:
///
///  A1. The conditional-jump adaptation of the conventional slicer
///      (Section 2/3): turn it off and observe that the *conventional*
///      slice loses the guarded gotos, while Figure 7's PD-vs-LS test
///      self-heals — it re-discovers exactly those jumps.
///  A2. The tree driving the Figure 7 traversal (PDT vs LST): the final
///      slice is always identical (Section 3), but the traversal counts
///      may differ; measure how often, on a goto-heavy corpus.
///  A3. The Entry->Exit augmentation edge: without it, always-executed
///      statements have no controlling predicate and conventional
///      slices lose their anchor (quantified as lost nodes).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/ProgramGenerator.h"
#include "slicer/SlicerInternal.h"

using namespace jslice;
using namespace jslice::bench;

namespace {

/// Figure 7 without the conditional-jump adaptation: every closure
/// step is the engine's plain walk (addDependenceClosure), which never
/// applies it. \p Traverse false stops at the seeds' plain closure.
std::set<unsigned> fig7WithoutAdaptation(const Analysis &A,
                                         const ResolvedCriterion &RC,
                                         bool Traverse = true) {
  BitVector Slice(A.cfg().numNodes());
  for (unsigned Seed : RC.Seeds)
    detail::addDependenceClosure(A.pdg(), Slice, Seed);
  detail::NearestInSlice Near(A, Slice);
  for (bool Changed = Traverse; Changed;) {
    Changed = false;
    for (unsigned J : A.pdt().preorder()) {
      if (!A.cfg().node(J).isJump() || Slice.test(J) || !Near.jumpNeeded(J))
        continue;
      detail::addDependenceClosure(A.pdg(), Slice, J);
      Near.sliceGrew();
      Changed = true;
    }
  }
  std::set<unsigned> Out;
  Slice.forEachSetBit([&](size_t N) { Out.insert(static_cast<unsigned>(N)); });
  return Out;
}

} // namespace

int main() {
  Report R("Ablations: adaptation, traversal tree, entry edge");

  R.section("A1: conditional-jump adaptation (fig3a)");
  {
    const PaperExample &Ex = paperExample("fig3a");
    Analysis A = analyzeExample(Ex);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);

    std::set<unsigned> NoAdapt =
        fig7WithoutAdaptation(A, RC, /*Traverse=*/false);
    SliceResult WithAdapt = computeSlice(A, RC, SliceAlgorithm::Conventional);
    unsigned LostJumps = 0;
    for (unsigned Node : WithAdapt.Nodes)
      if (A.cfg().node(Node).isJump() && !NoAdapt.count(Node))
        ++LostJumps;
    R.expectValue("guarded gotos lost without adaptation", LostJumps, 2);

    SliceResult Fig7 = computeSlice(A, RC, SliceAlgorithm::Agrawal);
    std::set<unsigned> Fig7NoAdapt = fig7WithoutAdaptation(A, RC);
    R.expectValue("figure 7 self-heals (same final slice)",
                  Fig7NoAdapt == std::set<unsigned>(Fig7.Nodes) ? 1 : 0, 1);
  }

  R.section("A1 on corpus (does figure 7 always self-heal?)");
  {
    unsigned Criteria = 0, Same = 0;
    for (unsigned Seed = 1; Seed <= 60; ++Seed) {
      GenOptions Opts;
      Opts.Seed = Seed;
      Opts.TargetStmts = 50;
      Opts.AllowGotos = true;
      ErrorOr<Analysis> A = Analysis::fromSource(generateProgram(Opts));
      if (!A || !A->cfg().unreachableNodes().empty())
        continue;
      for (const Criterion &Crit : reachableWriteCriteria(*A)) {
        ResolvedCriterion RC = *resolveCriterion(*A, Crit);
        ++Criteria;
        Same += fig7WithoutAdaptation(*A, RC) ==
                std::set<unsigned>(
                    computeSlice(*A, RC, SliceAlgorithm::Agrawal).Nodes);
      }
    }
    R.measured("criteria", std::to_string(Criteria));
    R.measured("identical final slices",
               std::to_string(Same) + "/" + std::to_string(Criteria));
  }

  R.section("A2: PDT- vs LST-driven traversal (goto corpus)");
  {
    unsigned Criteria = 0, SameCount = 0, PdtFewer = 0, LstFewer = 0;
    for (unsigned Seed = 1; Seed <= 60; ++Seed) {
      GenOptions Opts;
      Opts.Seed = Seed + 300;
      Opts.TargetStmts = 50;
      Opts.AllowGotos = true;
      ErrorOr<Analysis> A = Analysis::fromSource(generateProgram(Opts));
      if (!A)
        continue;
      for (const Criterion &Crit : reachableWriteCriteria(*A)) {
        ResolvedCriterion RC = *resolveCriterion(*A, Crit);
        SliceResult Pdt = computeSlice(*A, RC, SliceAlgorithm::Agrawal);
        SliceResult Lst =
            computeSlice(*A, RC, SliceAlgorithm::AgrawalLst);
        ++Criteria;
        if (Pdt.ProductiveTraversals == Lst.ProductiveTraversals)
          ++SameCount;
        else if (Pdt.ProductiveTraversals < Lst.ProductiveTraversals)
          ++PdtFewer;
        else
          ++LstFewer;
      }
    }
    R.measured("criteria", std::to_string(Criteria));
    R.measured("same traversal count", std::to_string(SameCount));
    R.measured("PDT fewer", std::to_string(PdtFewer));
    R.measured("LST fewer", std::to_string(LstFewer));
    R.note("(Section 3: the slice never differs; only the counts may)");

    // Figure 10 is the paper's own multi-traversal witness; show both
    // orders' counts there explicitly.
    const PaperExample &Ex = paperExample("fig10a");
    Analysis A = analyzeExample(Ex);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);
    R.measured("fig10a traversals (PDT order)",
               std::to_string(computeSlice(A, RC, SliceAlgorithm::Agrawal)
                                  .ProductiveTraversals));
    R.measured(
        "fig10a traversals (LST order)",
        std::to_string(
            computeSlice(A, RC, SliceAlgorithm::AgrawalLst)
                .ProductiveTraversals));
  }

  R.section("A3: the Entry->Exit augmentation edge (fig1a)");
  {
    // Rebuild control dependence from a flowgraph without the edge and
    // count conventional-slice nodes that lose their controlling
    // predicate (they fall out of the closure).
    const PaperExample &Ex = paperExample("fig1a");
    Analysis A = analyzeExample(Ex);
    Digraph Stripped(A.cfg().numNodes());
    for (unsigned From = 0; From != A.cfg().numNodes(); ++From)
      for (unsigned To : A.cfg().graph().succs(From))
        if (!(From == A.cfg().entry() && To == A.cfg().exit()))
          Stripped.addEdge(From, To);
    DomTree Pdt = computePostDominators(Stripped, A.cfg().exit());
    Digraph CD = buildControlDependence(Stripped, Pdt);
    unsigned Orphans = 0;
    for (unsigned Node = 2; Node != A.cfg().numNodes(); ++Node)
      if (CD.preds(Node).empty())
        ++Orphans;
    R.measured("statements with no controlling predicate",
               std::to_string(Orphans));
    R.note("(with the edge, every always-executed statement is control "
           "dependent on Entry — the paper's dummy node 0)");
  }
  return R.finish();
}
