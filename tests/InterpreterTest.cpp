//===- tests/InterpreterTest.cpp - Projection interpreter tests ---------------===//
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

std::vector<int64_t> outputOf(const Analysis &A,
                              std::vector<int64_t> Input = {}) {
  ExecOptions Opts;
  Opts.Input = std::move(Input);
  ExecResult R = runOriginal(A, /*CriterionNode=*/0, {}, Opts);
  EXPECT_TRUE(R.Completed);
  return R.Output;
}

TEST(InterpreterTest, StraightLineArithmetic) {
  Analysis A = analyzeOk("x = 2 + 3 * 4;\ny = x - 1;\nwrite(x);\nwrite(y);\n");
  EXPECT_EQ(outputOf(A), (std::vector<int64_t>{14, 13}));
}

TEST(InterpreterTest, UninitializedVariablesAreZero) {
  Analysis A = analyzeOk("write(never_set);\n");
  EXPECT_EQ(outputOf(A), (std::vector<int64_t>{0}));
}

TEST(InterpreterTest, DivisionAndRemainderByZeroYieldZero) {
  Analysis A = analyzeOk("write(7 / 0);\nwrite(7 % 0);\nwrite(7 / 2);\n");
  EXPECT_EQ(outputOf(A), (std::vector<int64_t>{0, 0, 3}));
}

TEST(InterpreterTest, UnaryAndLogicalOperators) {
  Analysis A = analyzeOk("write(-5);\nwrite(!0);\nwrite(!7);\n"
                         "write(1 && 2);\nwrite(0 || 0);\nwrite(3 || 0);\n");
  EXPECT_EQ(outputOf(A), (std::vector<int64_t>{-5, 1, 0, 1, 0, 1}));
}

TEST(InterpreterTest, ComparisonOperators) {
  Analysis A = analyzeOk("write(1 < 2);\nwrite(2 <= 1);\nwrite(3 > 2);\n"
                         "write(2 >= 3);\nwrite(4 == 4);\nwrite(4 != 4);\n");
  EXPECT_EQ(outputOf(A), (std::vector<int64_t>{1, 0, 1, 0, 1, 0}));
}

TEST(InterpreterTest, ReadsConsumeInputAndEofTracksIt) {
  Analysis A = analyzeOk("while (!eof()) {\nread(x);\nwrite(x * 2);\n}\n");
  EXPECT_EQ(outputOf(A, {1, 2, 3}), (std::vector<int64_t>{2, 4, 6}));
  EXPECT_EQ(outputOf(A, {}), (std::vector<int64_t>{}));
}

TEST(InterpreterTest, ReadPastEndYieldsZero) {
  Analysis A = analyzeOk("read(x);\nread(y);\nwrite(x);\nwrite(y);\n");
  EXPECT_EQ(outputOf(A, {9}), (std::vector<int64_t>{9, 0}));
}

TEST(InterpreterTest, IntrinsicCallsAreDeterministic) {
  Analysis A = analyzeOk("write(f1(3));\nwrite(f1(3));\nwrite(f2(3));\n");
  std::vector<int64_t> Out = outputOf(A);
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0], Out[1]) << "same intrinsic, same args, same value";
  EXPECT_GE(Out[0], -100);
  EXPECT_LE(Out[0], 100);
}

TEST(InterpreterTest, LoopsAndBreakContinue) {
  Analysis A = analyzeOk("s = 0;\n"
                         "for (i = 1; i <= 10; i = i + 1) {\n"
                         "if (i % 2 == 0) continue;\n"
                         "if (i > 7) break;\n"
                         "s = s + i;\n"
                         "}\n"
                         "write(s);\n"); // 1+3+5+7 = 16
  EXPECT_EQ(outputOf(A), (std::vector<int64_t>{16}));
}

TEST(InterpreterTest, DoWhileRunsBodyAtLeastOnce) {
  Analysis A = analyzeOk("x = 10;\ndo {\nx = x + 1;\n} while (x < 5);\n"
                         "write(x);\n");
  EXPECT_EQ(outputOf(A), (std::vector<int64_t>{11}));
}

TEST(InterpreterTest, SwitchDispatchAndFallthrough) {
  Analysis A = analyzeOk("read(c);\nt = 0;\n"
                         "switch (c) { case 1:\nt = t + 1;\ncase 2:\n"
                         "t = t + 10;\nbreak; default:\nt = t + 100;\n}\n"
                         "write(t);\n");
  EXPECT_EQ(outputOf(A, {1}), (std::vector<int64_t>{11})) << "fall-through";
  EXPECT_EQ(outputOf(A, {2}), (std::vector<int64_t>{10}));
  EXPECT_EQ(outputOf(A, {7}), (std::vector<int64_t>{100})) << "default";
}

TEST(InterpreterTest, GotoControlFlow) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  // Two positive inputs, one non-positive: positives = 2, sum = f1(-1).
  ExecOptions Opts;
  Opts.Input = {5, -1, 7};
  ExecResult R = runOriginal(A, 0, {}, Opts);
  ASSERT_TRUE(R.Completed);
  ASSERT_EQ(R.Output.size(), 2u);
  EXPECT_EQ(R.Output[1], 2) << "positives";
}

TEST(InterpreterTest, ReturnStopsExecutionAndEmitsValue) {
  Analysis A = analyzeOk("write(1);\nreturn 42;\nwrite(2);\n");
  EXPECT_EQ(outputOf(A), (std::vector<int64_t>{1, 42}));
}

TEST(InterpreterTest, StepLimitCatchesInfiniteLoops) {
  Analysis A = analyzeOk("while (1 == 1)\nx = x + 1;\nwrite(x);\n");
  ExecOptions Opts;
  Opts.MaxSteps = 1000;
  ExecResult R = runOriginal(A, 0, {}, Opts);
  EXPECT_FALSE(R.Completed);
  EXPECT_EQ(R.Steps, 1000u);
}

TEST(InterpreterTest, CriterionValuesAreSampledBeforeExecution) {
  Analysis A = analyzeOk("x = 1;\nx = 2;\nwrite(x);\n");
  unsigned Crit = A.cfg().nodesOnLine(3).front();
  int VarX = A.defUse().varId("x");
  ASSERT_GE(VarX, 0);
  ExecResult R =
      runOriginal(A, Crit, {static_cast<unsigned>(VarX)}, ExecOptions());
  EXPECT_EQ(R.CriterionValues, (std::vector<int64_t>{2}));
}

TEST(InterpreterTest, CriterionSampledOncePerVisit) {
  Analysis A = analyzeOk("for (i = 0; i < 3; i = i + 1)\nwrite(i);\n");
  unsigned Crit = A.cfg().nodesOnLine(2).front();
  int VarI = A.defUse().varId("i");
  ExecResult R =
      runOriginal(A, Crit, {static_cast<unsigned>(VarI)}, ExecOptions());
  EXPECT_EQ(R.CriterionValues, (std::vector<int64_t>{0, 1, 2}));
}

//===----------------------------------------------------------------------===//
// Projection semantics
//===----------------------------------------------------------------------===//

TEST(ProjectionTest, DeletedStatementFallsToLexicalSuccessor) {
  Analysis A = analyzeOk("x = 1;\nx = 2;\nwrite(x);\n");
  // Delete line 2: write sees the line-1 value.
  std::set<unsigned> Kept = {A.cfg().entry(), A.cfg().exit(),
                             A.cfg().nodesOnLine(1).front(),
                             A.cfg().nodesOnLine(3).front()};
  ExecResult R = runProjection(A, Kept, 0, {}, ExecOptions());
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, (std::vector<int64_t>{1}));
}

TEST(ProjectionTest, DeletedCompoundSkipsItsWholeBody) {
  Analysis A = analyzeOk("x = 5;\nwhile (x > 0) {\nx = x - 1;\n}\n"
                         "write(x);\n");
  std::set<unsigned> Kept = {A.cfg().entry(), A.cfg().exit(),
                             A.cfg().nodesOnLine(1).front(),
                             A.cfg().nodesOnLine(5).front()};
  ExecResult R = runProjection(A, Kept, 0, {}, ExecOptions());
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.Output, (std::vector<int64_t>{5}))
      << "deleting the while removes the whole loop";
}

TEST(ProjectionTest, GotoToDeletedTargetUsesNearestPostdominator) {
  Analysis A = analyzeOk(paperExample("fig10a").Source);
  // The paper's final slice {1,2,3,4,7,9}: L6 -> 7, L8 -> 9.
  SliceResult R =
      *computeSlice(A, Criterion(9, {"y"}), SliceAlgorithm::Agrawal);
  std::set<unsigned> Kept = R.Nodes;
  Kept.insert(A.cfg().exit());
  ExecResult Slice = runProjection(A, Kept, R.CriterionNode,
                                   {static_cast<unsigned>(
                                       A.defUse().varId("y"))},
                                   ExecOptions());
  ExecResult Orig = runOriginal(A, R.CriterionNode,
                                {static_cast<unsigned>(
                                    A.defUse().varId("y"))},
                                ExecOptions());
  ASSERT_TRUE(Slice.Completed && Orig.Completed);
  EXPECT_EQ(Slice.CriterionValues, Orig.CriterionValues);
}

TEST(ProjectionTest, FullKeptSetEqualsOriginal) {
  Analysis A = analyzeOk(paperExample("fig5a").Source);
  ExecOptions Opts;
  Opts.Input = {3, -4, 8, 5};
  std::set<unsigned> All;
  for (unsigned Node = 0; Node != A.cfg().numNodes(); ++Node)
    All.insert(Node);
  ExecResult Projected = runProjection(A, All, 0, {}, Opts);
  ExecResult Original = runOriginal(A, 0, {}, Opts);
  EXPECT_EQ(Projected.Output, Original.Output);
  EXPECT_EQ(Projected.Steps, Original.Steps);
}

} // namespace
