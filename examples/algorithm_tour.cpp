//===- examples/algorithm_tour.cpp - All nine slicers, side by side -----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Runs every implemented algorithm over the paper's Figure 8-a program
/// and prints a comparison table: slice size, whether the slice is
/// behaviour-preserving on a random input batch, and how it relates to
/// the Figure 7 reference. A compact demonstration of the paper's whole
/// argument — who is precise, who is conservative, who is wrong.
///
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "jslice/jslice.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <random>

using namespace jslice;

int main() {
  const PaperExample &Ex = paperExample("fig8a");
  ErrorOr<Analysis> A = Analysis::fromSource(Ex.Source);
  if (!A) {
    std::fprintf(stderr, "%s\n", A.diags().str().c_str());
    return 1;
  }
  ResolvedCriterion RC = *resolveCriterion(*A, Ex.Crit);
  SliceResult Reference = computeSlice(*A, RC, SliceAlgorithm::Agrawal);

  std::printf("program: %s\ncriterion: (%s, line %u)\n\n",
              Ex.Caption.c_str(), Ex.Crit.Vars.front().c_str(),
              Ex.Crit.Line);

  const SliceAlgorithm All[] = {
      SliceAlgorithm::Conventional,   SliceAlgorithm::Agrawal,
      SliceAlgorithm::AgrawalLst,     SliceAlgorithm::Structured,
      SliceAlgorithm::Conservative,   SliceAlgorithm::BallHorwitz,
      SliceAlgorithm::Lyle,           SliceAlgorithm::Gallagher,
      SliceAlgorithm::JiangZhouRobson, SliceAlgorithm::Weiser,
  };

  std::printf("%-20s %6s %10s %12s  %s\n", "algorithm", "lines",
              "vs fig-7", "behaviour", "line set");
  std::mt19937_64 Rng(2026);

  for (SliceAlgorithm Algorithm : All) {
    SliceResult R = computeSlice(*A, RC, Algorithm);
    std::set<unsigned> Lines = R.lineSet(A->cfg());

    // Relation to the Figure 7 reference slice.
    bool Subset =
        std::includes(Reference.Nodes.begin(), Reference.Nodes.end(),
                      R.Nodes.begin(), R.Nodes.end());
    bool Superset =
        std::includes(R.Nodes.begin(), R.Nodes.end(),
                      Reference.Nodes.begin(), Reference.Nodes.end());
    const char *Relation = Subset && Superset ? "equal"
                           : Superset         ? "superset"
                           : Subset           ? "SUBSET"
                                              : "mixed";

    // Behavioural check over a batch of random inputs.
    std::set<unsigned> Kept = R.Nodes;
    Kept.insert(A->cfg().exit());
    bool Preserves = true;
    for (unsigned Trial = 0; Trial != 32; ++Trial) {
      ExecOptions Opts;
      unsigned Len = static_cast<unsigned>(Rng() % 7);
      for (unsigned I = 0; I != Len; ++I)
        Opts.Input.push_back(static_cast<int64_t>(Rng() % 19) - 9);
      ExecResult Orig = runOriginal(*A, RC.Node, RC.VarIds, Opts);
      if (!Orig.Completed)
        continue;
      ExecResult Sliced = runProjection(*A, Kept, RC.Node, RC.VarIds, Opts);
      if (!Sliced.Completed || Sliced.CriterionValues != Orig.CriterionValues)
        Preserves = false;
    }

    std::printf("%-20s %6zu %10s %12s  %s\n", algorithmName(Algorithm),
                Lines.size(), Relation,
                Preserves ? "preserved" : "BROKEN",
                formatLineSet(Lines).c_str());
  }

  std::printf("\nexpected per the paper: conventional/gallagher/"
              "jiang-zhou-robson break behaviour on this program; "
              "agrawal == ball-horwitz; lyle is a superset.\n");
  return 0;
}
