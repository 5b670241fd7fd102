//===- bench/ext_section5_algorithms.cpp - Section 5 extensions ---------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Extension study for the two Section 5 algorithms implemented beyond
/// the paper's own: Weiser's iterative dataflow slicer and the
/// Choi–Ferrante synthesis algorithm (new jumps instead of original
/// ones). Quantifies the paper's prose claims:
///  * Weiser finds the same predicates but no jumps;
///  * synthesis yields smaller statement sets than Figure 7, at the
///    cost of a changed program structure (synthesized gotos).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/ProgramGenerator.h"

using namespace jslice;
using namespace jslice::bench;

int main() {
  Report R("Section 5 extensions: Weiser and Choi–Ferrante synthesis");

  R.section("Weiser on the paper figures (line sets == conventional)");
  for (const PaperExample &Ex : paperExamples()) {
    Analysis A = analyzeExample(Ex);
    SliceResult W = *computeSlice(A, Ex.Crit, SliceAlgorithm::Weiser);
    R.expectLines(Ex.Name + " weiser slice", W.lineSet(A.cfg()),
                  Ex.ConventionalLines);
  }

  R.section("synthesis vs figure 7 on the paper figures");
  for (const PaperExample &Ex : paperExamples()) {
    Analysis A = analyzeExample(Ex);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);
    SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
    SliceResult Fig7 = computeSlice(A, RC, SliceAlgorithm::Agrawal);
    R.measured(Ex.Name + " stmts: synthesis vs fig7",
               std::to_string(S.Kept.size()) + " vs " +
                   std::to_string(Fig7.Nodes.size()) + " (" +
                   std::to_string(S.SynthesizedJumps) +
                   " synthesized jumps)");
  }

  R.section("flattened emission of fig3a's synthesized slice");
  {
    const PaperExample &Ex = paperExample("fig3a");
    Analysis A = analyzeExample(Ex);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);
    PrintedSynthesis P =
        printSynthesizedSlice(A, sliceChoiFerranteSynthesis(A, RC));
    std::printf("%s", P.Text.c_str());
    ErrorOr<Analysis> Flat = Analysis::fromSource(P.Text);
    R.expectValue("flattened program re-analyzes", Flat.hasValue(), 1);
  }

  R.section("corpus comparison (100 unstructured programs)");
  unsigned Criteria = 0, Smaller = 0;
  double StmtRatio = 0, SynthJumps = 0, OrigJumps = 0;
  for (unsigned Seed = 1; Seed <= 100; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.TargetStmts = 60;
    Opts.AllowGotos = true;
    ErrorOr<Analysis> A = Analysis::fromSource(generateProgram(Opts));
    if (!A || !A->cfg().unreachableNodes().empty())
      continue;
    for (const Criterion &Crit : reachableWriteCriteria(*A)) {
      ResolvedCriterion RC = *resolveCriterion(*A, Crit);
      SynthesizedSlice S = sliceChoiFerranteSynthesis(*A, RC);
      SliceResult Fig7 = computeSlice(*A, RC, SliceAlgorithm::Agrawal);
      ++Criteria;
      Smaller += S.Kept.size() < Fig7.Nodes.size();
      StmtRatio += static_cast<double>(S.Kept.size()) /
                   static_cast<double>(Fig7.Nodes.size());
      SynthJumps += S.SynthesizedJumps;
      for (unsigned Node : Fig7.Nodes)
        OrigJumps += A->cfg().node(Node).isJump();
    }
  }
  R.measured("criteria", std::to_string(Criteria));
  R.measured("synthesis strictly smaller",
             std::to_string(Smaller) + "/" + std::to_string(Criteria));
  R.measured("mean stmt ratio (synthesis/fig7)",
             std::to_string(StmtRatio / std::max(1u, Criteria)));
  R.measured("mean synthesized jumps per slice",
             std::to_string(SynthJumps / std::max(1u, Criteria)));
  R.measured("mean original jumps kept by fig7",
             std::to_string(OrigJumps / std::max(1u, Criteria)));
  R.note("(the paper: synthesis 'may lead to construction of smaller "
         "slices'; the nesting structure may differ)");
  return R.finish();
}
