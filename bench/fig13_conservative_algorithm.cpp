//===- bench/fig13_conservative_algorithm.cpp - Figure 13 reproduction --------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Figure 13 is the tree-free conservative adaptation: every jump
/// directly control dependent on an in-slice predicate joins the slice.
/// This bench measures how much larger than Figure 12 its slices get —
/// the cost of skipping both trees — and the speed it buys.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "gen/ProgramGenerator.h"

using namespace jslice;
using namespace jslice::bench;

int main() {
  Report R("Figure 13: the conservative algorithm");

  R.section("paper examples");
  for (const char *Name : {"fig5a", "fig14a", "fig16a"}) {
    const PaperExample &Ex = paperExample(Name);
    Analysis A = analyzeExample(Ex);
    SliceResult Cons =
        *computeSlice(A, Ex.Crit, SliceAlgorithm::Conservative);
    R.expectLines(std::string(Name) + " figure-13 slice",
                  Cons.lineSet(A.cfg()), *Ex.ConservativeLines);
  }

  R.section("slice-size overhead vs figure 12 (150 structured programs)");
  unsigned Criteria = 0, Inflated = 0;
  double ExtraJumps = 0;
  bool SupersetAlways = true;
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
      SliceResult Single = computeSlice(*A, RC, SliceAlgorithm::Structured);
      SliceResult Cons = computeSlice(*A, RC, SliceAlgorithm::Conservative);
      ++Criteria;
      for (unsigned Node : Single.Nodes)
        SupersetAlways = SupersetAlways && Cons.contains(Node);
      if (Cons.Nodes.size() > Single.Nodes.size()) {
        ++Inflated;
        ExtraJumps += static_cast<double>(Cons.Nodes.size() -
                                          Single.Nodes.size());
      }
    }
  }
  R.expectValue("figure 13 always ⊇ figure 12", SupersetAlways ? 1 : 0, 1);
  R.measured("criteria checked", std::to_string(Criteria));
  R.measured("criteria with larger slices", std::to_string(Inflated));
  R.measured("mean extra jumps when larger",
             std::to_string(Inflated ? ExtraJumps / Inflated : 0.0));

  R.section("timing (fig14a, microseconds per slice)");
  {
    const PaperExample &Ex = paperExample("fig14a");
    Analysis A = analyzeExample(Ex);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);
    auto Time = [&](SliceAlgorithm Algo) {
      return timeMicros(2000, [&] { computeSlice(A, RC, Algo); });
    };
    double Single = Time(SliceAlgorithm::Structured);
    double Cons = Time(SliceAlgorithm::Conservative);
    R.measured("figure 12", std::to_string(Single) + " us");
    R.measured("figure 13 (no tree walks)", std::to_string(Cons) + " us");
  }
  return R.finish();
}
