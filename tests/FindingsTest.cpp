//===- tests/FindingsTest.cpp - Reproduction findings as regression tests -----===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Three boundary conditions of the paper's claims surfaced while
/// reproducing it; each is pinned down here as an executable witness
/// (discussion in DESIGN.md, "Findings"):
///
///  1. C's fall-through `switch` breaks the "LST == PDT for jump-free
///     programs" identity of Section 3. The slices it once made unsound
///     (a kept statement that postdominates a deleted switch head) are
///     fixed by a control-dependence edge from the head.
///  2. `return` statements (multi-level exits) violate Section 4's
///     property 2: a structured program exists where Figure 12 and
///     Figure 13 drop a required jump, while Figure 7 keeps it.
///  3. Unreachable jump statements void the Figure 12 == Figure 7
///     equivalence; jslice exposes detection via Cfg::unreachableNodes.
///
//===----------------------------------------------------------------------===//

#include "ReferenceSlicer.h"
#include "jslice/jslice.h"

#include <gtest/gtest.h>

using namespace jslice;

namespace {

Analysis analyzeOk(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  return std::move(*A);
}

//===----------------------------------------------------------------------===//
// Finding 1: switch fall-through vs LST == PDT
//===----------------------------------------------------------------------===//

TEST(FindingsTest, SwitchFallthroughBreaksLstPdtIdentity) {
  // Jump-free (no break), but case 0 falls through into case 1, so the
  // switch head's postdominator dives *into* the clause region while
  // deleting the switch skips *past* it.
  // The default clause makes every dispatch pass through y = 2 (case 0
  // falls through into it), so y = 2 postdominates the switch head.
  Analysis A = analyzeOk("switch (c) { case 0:\n"
                         "x = 1;\n"
                         "default:\n"
                         "y = 2;\n"
                         "}\n"
                         "write(y);\n");
  unsigned Head = A.cfg().nodesOnLine(1).front();
  unsigned Shared = A.cfg().nodesOnLine(4).front(); // y = 2 (both paths)
  unsigned After = A.cfg().nodesOnLine(6).front();
  EXPECT_EQ(A.pdt().idom(Head), static_cast<int>(Shared))
      << "every dispatch passes through the shared fall-through suffix";
  EXPECT_EQ(A.lst().parent(Head), static_cast<int>(After))
      << "deleting the switch skips its whole body";
  EXPECT_NE(A.pdt().idom(Head), A.lst().parent(Head))
      << "LST == PDT fails on a jump-free program with fall-through";

  // y = 2 runs on every dispatch, so FOW gives it no dependence on the
  // head — but deleting the head deletes y = 2 with it. The extra edge
  // keeps the head, and the slice is sound.
  EXPECT_TRUE(A.pdg().Control.hasEdge(Head, Shared));
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(6, {"y"}));
  SliceResult R = computeSlice(A, RC, SliceAlgorithm::Agrawal);
  EXPECT_TRUE(R.contains(Head));
  std::set<unsigned> Kept = R.Nodes;
  Kept.insert(A.cfg().exit());
  ExecOptions Opts;
  ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Opts);
  ExecResult Sliced = runProjection(A, Kept, RC.Node, RC.VarIds, Opts);
  ASSERT_TRUE(Orig.Completed && Sliced.Completed);
  EXPECT_EQ(Sliced.CriterionValues, Orig.CriterionValues);
}

/// The six-line witness: write(x) on line 5 runs on every dispatch, so
/// without the head's edge every sound algorithm dropped the switch and
/// the projection skipped write(x) with it.
TEST(FindingsTest, SwitchHeadJoinsTheSliceOfItsPostdominatingBody) {
  Analysis A = analyzeOk("read(x);\n"
                         "switch (x) { case 0:\n"
                         "y = 1;\n"
                         "default:\n"
                         "write(x);\n"
                         "}\n");
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(5, {"x"}));
  BatchSlicer Batch(A);
  for (SliceAlgorithm Algo :
       {SliceAlgorithm::Agrawal, SliceAlgorithm::AgrawalLst,
        SliceAlgorithm::BallHorwitz, SliceAlgorithm::Lyle}) {
    SliceResult R = computeSlice(A, RC, Algo);
    EXPECT_EQ(R.lineSet(A.cfg()), (std::set<unsigned>{1, 2, 5}))
        << algorithmName(Algo);
    EXPECT_EQ(Batch.slice(RC, Algo).Nodes, R.Nodes) << algorithmName(Algo);
    EXPECT_EQ(reference::computeSlice(A, RC, Algo).Nodes, R.Nodes)
        << algorithmName(Algo);
    std::set<unsigned> Kept = R.Nodes;
    Kept.insert(A.cfg().exit());
    for (int64_t X : {0, 1, 7}) {
      ExecOptions Opts;
      Opts.Input = {X};
      ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Opts);
      ExecResult Sliced = runProjection(A, Kept, RC.Node, RC.VarIds, Opts);
      ASSERT_TRUE(Orig.Completed && Sliced.Completed);
      EXPECT_EQ(Sliced.CriterionValues, Orig.CriterionValues)
          << algorithmName(Algo) << " on input " << X;
    }
  }
}

//===----------------------------------------------------------------------===//
// Finding 2: returns defeat Section 4's property 2
//===----------------------------------------------------------------------===//

/// The minimal counterexample: the return on line 5 is directly control
/// dependent only on the while predicate (line 4), which the
/// conventional slice of (c, line 10) does not contain. Property 2
/// claims such a jump never needs inclusion — yet without it the slice
/// falls from the if straight into write(2), which the original skips
/// whenever c > 0.
const char *PropertyTwoCounterexample = "read(c);\n"
                                        "read(d);\n"
                                        "if (c > 0) {\n"
                                        "while (d > 0) {\n"
                                        "return;\n"
                                        "}\n"
                                        "write(1);\n"
                                        "return;\n"
                                        "}\n"
                                        "write(c);\n";

TEST(FindingsTest, CounterexampleIsStructuredWithNoDeadCode) {
  Analysis A = analyzeOk(PropertyTwoCounterexample);
  EXPECT_TRUE(isStructuredProgram(A.cfg(), A.lst()))
      << "returns are structured jumps by the paper's definition";
  EXPECT_TRUE(A.cfg().unreachableNodes().empty());
}

TEST(FindingsTest, ReturnViolatesPropertyTwo) {
  Analysis A = analyzeOk(PropertyTwoCounterexample);
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(10, {"c"}));

  SliceResult Conv = computeSlice(A, RC, SliceAlgorithm::Conventional);
  unsigned InnerReturn = A.cfg().nodesOnLine(5).front();
  unsigned WhileCond = A.cfg().nodesOnLine(4).front();
  ASSERT_TRUE(A.cfg().node(InnerReturn).isJump());
  EXPECT_FALSE(Conv.contains(WhileCond))
      << "the return's only controlling predicate is outside the slice";

  // Property 2 would keep the return out; Figure 7's nearest-PD vs
  // nearest-LS test correctly pulls it (and its dependences) in.
  SliceResult General = computeSlice(A, RC, SliceAlgorithm::Agrawal);
  EXPECT_TRUE(General.contains(InnerReturn));
  EXPECT_TRUE(General.contains(WhileCond));

  SliceResult Single = computeSlice(A, RC, SliceAlgorithm::Structured);
  SliceResult Cons = computeSlice(A, RC, SliceAlgorithm::Conservative);
  EXPECT_FALSE(Single.contains(InnerReturn))
      << "Figure 12 follows property 2 and drops the required return";
  EXPECT_FALSE(Cons.contains(InnerReturn))
      << "Figure 13 likewise";
  EXPECT_NE(Single.Nodes, General.Nodes)
      << "Figure 12 == Figure 7 fails on this structured program";
}

TEST(FindingsTest, DroppedReturnChangesBehaviourKeptReturnDoesNot) {
  Analysis A = analyzeOk(PropertyTwoCounterexample);
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(10, {"c"}));
  ExecOptions Opts;
  Opts.Input = {1, 1}; // c > 0 and d > 0: the original returns early.

  ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Opts);
  ASSERT_TRUE(Orig.Completed);
  ASSERT_TRUE(Orig.CriterionValues.empty()) << "write(c) never runs";

  auto RunSlice = [&](const SliceResult &R) {
    std::set<unsigned> Kept = R.Nodes;
    Kept.insert(A.cfg().exit());
    return runProjection(A, Kept, RC.Node, RC.VarIds, Opts);
  };

  ExecResult Fig7 = RunSlice(computeSlice(A, RC, SliceAlgorithm::Agrawal));
  ASSERT_TRUE(Fig7.Completed);
  EXPECT_EQ(Fig7.CriterionValues, Orig.CriterionValues)
      << "Figure 7's slice is behaviour-preserving";

  ExecResult Fig12 = RunSlice(computeSlice(A, RC, SliceAlgorithm::Structured));
  ASSERT_TRUE(Fig12.Completed);
  EXPECT_FALSE(Fig12.CriterionValues.empty())
      << "Figure 12's slice reaches write(c), which the original skips "
         "— the unsoundness property 2 was supposed to rule out";
}

TEST(FindingsTest, BallHorwitzAgreesWithFigure7OnTheCounterexample) {
  Analysis A = analyzeOk(PropertyTwoCounterexample);
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(10, {"c"}));
  EXPECT_EQ(computeSlice(A, RC, SliceAlgorithm::Agrawal).Nodes,
            computeSlice(A, RC, SliceAlgorithm::BallHorwitz).Nodes);
}

//===----------------------------------------------------------------------===//
// Finding 3: unreachable jumps void the equivalences
//===----------------------------------------------------------------------===//

TEST(FindingsTest, UnreachableJumpsAreDetected) {
  // write(9) and the return guarding it are dead (both branches jump).
  Analysis A = analyzeOk("while (a > 0) {\n"
                         "if (a > 1) {\n"
                         "break;\n"
                         "} else {\n"
                         "continue;\n"
                         "}\n"
                         "return;\n"
                         "}\n"
                         "write(a);\n");
  std::vector<unsigned> Dead = A.cfg().unreachableNodes();
  ASSERT_FALSE(Dead.empty());
  bool DeadJumpFound = false;
  for (unsigned Node : Dead)
    if (A.cfg().node(Node).isJump())
      DeadJumpFound = true;
  EXPECT_TRUE(DeadJumpFound) << "the stranded return is dead code";
}

//===----------------------------------------------------------------------===//
// Finding 4: switch fall-through defeats the single-traversal claim
//===----------------------------------------------------------------------===//

/// continue sits in a fall-through clause; the break after the switch
/// joins the slice during the first traversal and only then becomes the
/// continue's nearest lexical successor in the slice. No
/// (postdominates, lexically-succeeds) pair exists, yet one traversal
/// is not enough — and Figure 12's single filtered pass misses the
/// continue entirely.
const char *FallthroughCounterexample = "read(c);\n"
                                        "while (!eof()) {\n"
                                        "read(c);\n"
                                        "switch (c) { case 0:\n"
                                        "write(c);\n"
                                        "case 1:\n"
                                        "continue;\n"
                                        "case 2:\n"
                                        "write(77);\n"
                                        "}\n"
                                        "break;\n"
                                        "}\n"
                                        "write(9);\n";

TEST(FindingsTest, FallthroughSwitchNeedsTwoTraversals) {
  Analysis A = analyzeOk(FallthroughCounterexample);
  ASSERT_TRUE(isStructuredProgram(A.cfg(), A.lst()));
  ASSERT_TRUE(A.cfg().unreachableNodes().empty());

  ResolvedCriterion RC = *resolveCriterion(A, Criterion(5, {"c"}));
  SliceResult General = computeSlice(A, RC, SliceAlgorithm::Agrawal);
  unsigned Continue = A.cfg().nodesOnLine(7).front();
  unsigned Break = A.cfg().nodesOnLine(11).front();
  EXPECT_TRUE(General.contains(Break));
  EXPECT_TRUE(General.contains(Continue));
  EXPECT_EQ(General.ProductiveTraversals, 2u)
      << "the break must land in the slice before the continue's test "
         "can fire";

  SliceResult Single = computeSlice(A, RC, SliceAlgorithm::Structured);
  EXPECT_FALSE(Single.contains(Continue))
      << "Figure 12's single pass visits the continue too early";

  // Section 4, property 1 nominally rules this out: verify there is in
  // fact no (postdominates, lexically-succeeds) pair, so the paper's
  // multiple-traversal characterization does not cover this case.
  for (unsigned N1 = 0; N1 != A.cfg().numNodes(); ++N1)
    for (unsigned N2 = 0; N2 != A.cfg().numNodes(); ++N2) {
      if (N1 == N2 || !A.pdt().isReachable(N1) || !A.lst().inTree(N1) ||
          !A.pdt().isReachable(N2) || !A.lst().inTree(N2))
        continue;
      EXPECT_FALSE(A.pdt().dominates(N1, N2) &&
                   A.lst().isLexicalSuccessorOf(N2, N1));
    }
}

TEST(FindingsTest, DroppedContinueChangesBehaviour) {
  Analysis A = analyzeOk(FallthroughCounterexample);
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(5, {"c"}));
  ExecOptions Opts;
  Opts.Input = {0, 0, 0}; // Two loop iterations through case 0.

  ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Opts);
  ASSERT_TRUE(Orig.Completed);
  EXPECT_EQ(Orig.CriterionValues, (std::vector<int64_t>{0, 0}));

  auto RunSlice = [&](const SliceResult &R) {
    std::set<unsigned> Kept = R.Nodes;
    Kept.insert(A.cfg().exit());
    return runProjection(A, Kept, RC.Node, RC.VarIds, Opts);
  };
  ExecResult Fig7 = RunSlice(computeSlice(A, RC, SliceAlgorithm::Agrawal));
  ASSERT_TRUE(Fig7.Completed);
  EXPECT_EQ(Fig7.CriterionValues, Orig.CriterionValues);

  ExecResult Fig12 = RunSlice(computeSlice(A, RC, SliceAlgorithm::Structured));
  ASSERT_TRUE(Fig12.Completed);
  EXPECT_NE(Fig12.CriterionValues, Orig.CriterionValues)
      << "without the continue, the slice breaks out after one visit";
}

TEST(FindingsTest, LiveProgramsReportNoUnreachableNodes) {
  Analysis A = analyzeOk("while (a > 0) {\n"
                         "if (a > 1)\n"
                         "break;\n"
                         "a = a - 1;\n"
                         "}\n"
                         "write(a);\n");
  EXPECT_TRUE(A.cfg().unreachableNodes().empty());
}

} // namespace
