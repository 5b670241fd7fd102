//===- bench/fig07_general_algorithm.cpp - Figure 7 reproduction --------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Figure 7 is the paper's general algorithm itself. This bench replays
/// the Section 3 walkthroughs — which jump each traversal adds on the
/// example programs — and quantifies the algorithm on generated
/// corpora: traversal counts, slice growth over the conventional
/// slice, and the PDT- vs LST-driven traversal order.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/ProgramGenerator.h"

using namespace jslice;
using namespace jslice::bench;

namespace {

void traceExample(Report &R, const char *Name) {
  const PaperExample &Ex = paperExample(Name);
  Analysis A = analyzeExample(Ex);
  SliceResult Slice = *computeSlice(A, Ex.Crit, SliceAlgorithm::Agrawal);
  R.section(std::string("trace on ") + Name);
  for (size_t Pass = 0; Pass != Slice.TraversalAdditions.size(); ++Pass) {
    std::string Lines;
    for (unsigned Node : Slice.TraversalAdditions[Pass]) {
      if (!Lines.empty())
        Lines += ", ";
      Lines += A.cfg().labelOf(Node);
    }
    std::printf("traversal %zu adds jumps on lines: %s\n", Pass + 1,
                Lines.c_str());
  }
  R.expectValue("productive traversals", Slice.ProductiveTraversals,
                Ex.ExpectedProductiveTraversals);
  R.expectLines("final slice", Slice.lineSet(A.cfg()), Ex.AgrawalLines);
}

} // namespace

int main() {
  Report R("Figure 7: the general algorithm (traces + corpus study)");

  traceExample(R, "fig3a");
  traceExample(R, "fig8a");
  traceExample(R, "fig10a");

  R.section("corpus study (100 unstructured programs, ~60 stmts)");
  unsigned MaxTraversals = 0;
  unsigned MultiTraversal = 0;
  unsigned Criteria = 0;
  double GrowthSum = 0;
  for (unsigned Seed = 1; Seed <= 100; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.TargetStmts = 60;
    Opts.AllowGotos = true;
    ErrorOr<Analysis> A = Analysis::fromSource(generateProgram(Opts));
    if (!A)
      continue;
    for (const Criterion &Crit : reachableWriteCriteria(*A)) {
      ResolvedCriterion RC = *resolveCriterion(*A, Crit);
      SliceResult Conv = computeSlice(*A, RC, SliceAlgorithm::Conventional);
      SliceResult Full = computeSlice(*A, RC, SliceAlgorithm::Agrawal);
      ++Criteria;
      MaxTraversals = std::max(MaxTraversals, Full.ProductiveTraversals);
      MultiTraversal += Full.ProductiveTraversals > 1;
      GrowthSum += Conv.Nodes.empty()
                       ? 0.0
                       : static_cast<double>(Full.Nodes.size()) /
                             static_cast<double>(Conv.Nodes.size());
    }
  }
  R.measured("criteria sliced", std::to_string(Criteria));
  R.measured("max productive traversals", std::to_string(MaxTraversals));
  R.measured("criteria needing >1 traversal",
             std::to_string(MultiTraversal));
  R.measured("mean slice growth over conventional",
             std::to_string(GrowthSum / std::max(1u, Criteria)));
  R.note("(the paper predicts multiple traversals only for programs with "
         "a postdominates/lexically-succeeds pair — rare in practice)");

  R.section("timing (fig8a, microseconds per slice)");
  {
    const PaperExample &Ex = paperExample("fig8a");
    Analysis A = analyzeExample(Ex);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);
    R.measured("conventional",
               std::to_string(timeMicros(2000, [&] {
                 computeSlice(A, RC, SliceAlgorithm::Conventional);
               })) + " us");
    R.measured("figure 7 (PDT order)",
               std::to_string(timeMicros(2000, [&] {
                 computeSlice(A, RC, SliceAlgorithm::Agrawal);
               })) + " us");
    R.measured(
        "figure 7 (LST order)",
        std::to_string(timeMicros(
            2000,
            [&] { computeSlice(A, RC, SliceAlgorithm::AgrawalLst); })) +
            " us");
  }
  return R.finish();
}
