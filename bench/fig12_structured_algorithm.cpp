//===- bench/fig12_structured_algorithm.cpp - Figure 12 reproduction ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Figure 12 is the simplified single-traversal algorithm for
/// structured programs. This bench verifies it equals Figure 7 on the
/// paper's structured examples and over a generated corpus (break/
/// continue only — see DESIGN.md "Findings" for why returns and
/// fall-through switches are excluded), and measures its speedup.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/ProgramGenerator.h"

using namespace jslice;
using namespace jslice::bench;

int main() {
  Report R("Figure 12: the structured-jump algorithm");

  R.section("paper examples");
  for (const char *Name : {"fig1a", "fig5a", "fig14a", "fig16a"}) {
    const PaperExample &Ex = paperExample(Name);
    Analysis A = analyzeExample(Ex);
    SliceResult Single = *computeSlice(A, Ex.Crit, SliceAlgorithm::Structured);
    R.expectLines(std::string(Name) + " figure-12 slice",
                  Single.lineSet(A.cfg()), *Ex.StructuredLines);
  }

  R.section("corpus equivalence (150 structured programs)");
  unsigned Criteria = 0, Equal = 0;
  for (unsigned Seed = 1; Seed <= 150; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.TargetStmts = 60;
    Opts.AllowGotos = false;
    Opts.AllowReturn = false;
    Opts.AllowSwitch = false;
    ErrorOr<Analysis> A = Analysis::fromSource(generateProgram(Opts));
    if (!A || !A->cfg().unreachableNodes().empty())
      continue;
    for (const Criterion &Crit : reachableWriteCriteria(*A)) {
      ResolvedCriterion RC = *resolveCriterion(*A, Crit);
      ++Criteria;
      Equal += computeSlice(*A, RC, SliceAlgorithm::Structured).Nodes ==
               computeSlice(*A, RC, SliceAlgorithm::Agrawal).Nodes;
    }
  }
  R.expectValue("criteria where figure 12 == figure 7", Equal, Criteria);
  R.measured("criteria checked", std::to_string(Criteria));

  R.section("timing (generated ~400-stmt structured program, us/slice)");
  {
    GenOptions Opts;
    Opts.Seed = 4242;
    Opts.TargetStmts = 400;
    Opts.AllowGotos = false;
    Opts.AllowReturn = false;
    Opts.AllowSwitch = false;
    ErrorOr<Analysis> A = Analysis::fromSource(generateProgram(Opts));
    if (A) {
      ResolvedCriterion RC =
          *resolveCriterion(*A, reachableWriteCriteria(*A).back());
      auto Time = [&](SliceAlgorithm Algo) {
        return timeMicros(500, [&] { computeSlice(*A, RC, Algo); });
      };
      double General = Time(SliceAlgorithm::Agrawal);
      double Single = Time(SliceAlgorithm::Structured);
      R.measured("figure 7", std::to_string(General) + " us");
      R.measured("figure 12", std::to_string(Single) + " us");
      R.measured("speedup", std::to_string(General / Single) + "x");
    }
  }
  return R.finish();
}
