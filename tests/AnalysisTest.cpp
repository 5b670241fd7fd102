//===- tests/AnalysisTest.cpp - Analysis bundle and multi-criteria tests ------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "jslice/jslice.h"

#include <gtest/gtest.h>

using namespace jslice;

namespace {

Analysis analyzeOk(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  return std::move(*A);
}

TEST(AnalysisTest, ParseErrorsPropagate) {
  ErrorOr<Analysis> A = Analysis::fromSource("x = ;");
  ASSERT_FALSE(A.hasValue());
  EXPECT_FALSE(A.diags().empty());
}

TEST(AnalysisTest, SemaErrorsPropagate) {
  ErrorOr<Analysis> A = Analysis::fromSource("goto Nowhere;\n");
  ASSERT_FALSE(A.hasValue());
  EXPECT_NE(A.diags().str().find("undefined label"), std::string::npos);
}

TEST(AnalysisTest, CfgErrorsPropagate) {
  ErrorOr<Analysis> A = Analysis::fromSource("L: goto L;\n");
  ASSERT_FALSE(A.hasValue());
  EXPECT_NE(A.diags().str().find("exit"), std::string::npos);
}

TEST(AnalysisTest, CondJumpPairsDetected) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  // Three conditional-jump statements: lines 3, 5, and 9.
  EXPECT_EQ(A.condJumpPairs().size(), 3u);
  for (auto [Pred, Jump] : A.condJumpPairs()) {
    EXPECT_EQ(A.cfg().node(Pred).Kind, CfgNodeKind::Predicate);
    EXPECT_TRUE(A.cfg().node(Jump).isJump());
    EXPECT_EQ(A.cfg().node(Pred).S->getLoc().Line,
              A.cfg().node(Jump).S->getLoc().Line)
        << "guard and jump share their source line in the corpus";
  }
}

TEST(AnalysisTest, CondJumpPairsSeeThroughBraces) {
  // The adaptation unwraps singleton blocks: `if (c) { { break; } }`
  // still counts as a conditional jump.
  Analysis A = analyzeOk("while (x > 0) {\nif (x == 2) { { break; } }\n"
                         "x = x - 1;\n}\nwrite(x);\n");
  EXPECT_EQ(A.condJumpPairs().size(), 1u);
}

TEST(AnalysisTest, AugmentedGraphOnlyAddsJumpEdges) {
  Analysis A = analyzeOk(paperExample("fig8a").Source);
  size_t Jumps = 0;
  for (unsigned Node = 0; Node != A.cfg().numNodes(); ++Node)
    Jumps += A.cfg().node(Node).isJump();
  const Analysis::Augmented *Aug = A.augmented();
  ASSERT_NE(Aug, nullptr);
  EXPECT_EQ(Aug->Graph.numEdges(), A.cfg().graph().numEdges() + Jumps);
}

TEST(AnalysisTest, AugmentedPdtDiffersOnJumpPrograms) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  const Analysis::Augmented *Aug = A.augmented();
  ASSERT_NE(Aug, nullptr);
  bool AnyDifferent = false;
  for (unsigned Node = 0; Node != A.cfg().numNodes(); ++Node)
    if (A.pdt().idom(Node) != Aug->Pdt.idom(Node))
      AnyDifferent = true;
  EXPECT_TRUE(AnyDifferent)
      << "fall-through edges must change postdominators";
}

TEST(AnalysisTest, MoveSemanticsKeepPointersValid) {
  ErrorOr<Analysis> A = Analysis::fromSource("x = 1;\nwrite(x);\n");
  ASSERT_TRUE(A.hasValue());
  Analysis Moved = std::move(*A);
  // The CFG's statement pointers must still resolve after the move.
  unsigned Node = Moved.cfg().nodesOnLine(2).front();
  EXPECT_TRUE(isa<WriteStmt>(Moved.cfg().node(Node).S));
}

//===----------------------------------------------------------------------===//
// Multi-criterion slicing (Weiser's general criterion)
//===----------------------------------------------------------------------===//

TEST(MultiCriterionTest, UnionOfSeedsCoversBothLocations) {
  Analysis A = analyzeOk("a = 1;\nb = 2;\nwrite(a);\nwrite(b);\n");
  ResolvedCriterion RC =
      *resolveCriteria(A, {Criterion(3, {"a"}), Criterion(4, {"b"})});
  SliceResult R = computeSlice(A, RC, SliceAlgorithm::Agrawal);
  EXPECT_EQ(R.lineSet(A.cfg()), (std::set<unsigned>{1, 2, 3, 4}));
}

TEST(MultiCriterionTest, SupersetOfEachSingleSlice) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  ResolvedCriterion Both = *resolveCriteria(
      A, {Criterion(14, {"sum"}), Criterion(15, {"positives"})});
  SliceResult Union = computeSlice(A, Both, SliceAlgorithm::Agrawal);
  for (const Criterion &One :
       {Criterion(14, {"sum"}), Criterion(15, {"positives"})}) {
    SliceResult Single =
        computeSlice(A, *resolveCriterion(A, One), SliceAlgorithm::Agrawal);
    for (unsigned Node : Single.Nodes)
      EXPECT_TRUE(Union.contains(Node));
  }
}

TEST(MultiCriterionTest, EmptySetIsAnError) {
  Analysis A = analyzeOk("write(1);\n");
  EXPECT_FALSE(resolveCriteria(A, {}).hasValue());
}

TEST(MultiCriterionTest, AnyBadMemberFails) {
  Analysis A = analyzeOk("write(1);\n");
  EXPECT_FALSE(
      resolveCriteria(A, {Criterion(1, {}), Criterion(99, {})}).hasValue());
}

} // namespace
