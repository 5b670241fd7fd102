//===- tests/CfgTest.cpp - CFG builder unit tests -----------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"
#include "corpus/PaperPrograms.h"
#include "gen/ProgramGenerator.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <climits>

using namespace jslice;

namespace {

struct Built {
  std::unique_ptr<Program> Prog;
  Cfg C;
};

Built buildOk(const std::string &Source) {
  ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source);
  EXPECT_TRUE(Prog.hasValue())
      << (Prog.hasValue() ? "" : Prog.diags().str());
  ErrorOr<Cfg> C = Cfg::build(**Prog);
  EXPECT_TRUE(C.hasValue()) << (C.hasValue() ? "" : C.diags().str());
  return {std::move(*Prog), std::move(*C)};
}

/// The unique node on \p Line.
unsigned nodeOn(const Cfg &C, unsigned Line) {
  std::vector<unsigned> Nodes = C.nodesOnLine(Line);
  EXPECT_EQ(Nodes.size(), 1u) << "line " << Line;
  return Nodes.front();
}

TEST(CfgTest, StraightLineProgram) {
  Built B = buildOk("x = 1;\ny = 2;\nwrite(x + y);\n");
  const Cfg &C = B.C;
  // Entry, Exit, three statements.
  EXPECT_EQ(C.numNodes(), 5u);
  unsigned N1 = nodeOn(C, 1), N2 = nodeOn(C, 2), N3 = nodeOn(C, 3);
  EXPECT_TRUE(C.graph().hasEdge(C.entry(), N1));
  EXPECT_TRUE(C.graph().hasEdge(N1, N2));
  EXPECT_TRUE(C.graph().hasEdge(N2, N3));
  EXPECT_TRUE(C.graph().hasEdge(N3, C.exit()));
  // The FOW augmentation edge.
  EXPECT_TRUE(C.graph().hasEdge(C.entry(), C.exit()));
}

TEST(CfgTest, IfElseDiamond) {
  Built B = buildOk("if (x > 0)\ny = 1; else\ny = 2;\nwrite(y);\n");
  const Cfg &C = B.C;
  unsigned Cond = nodeOn(C, 1), Then = nodeOn(C, 2), Else = nodeOn(C, 3),
           After = nodeOn(C, 4);
  EXPECT_EQ(C.node(Cond).Kind, CfgNodeKind::Predicate);
  const BranchTargets *Branch = C.branchTargets(Cond);
  ASSERT_NE(Branch, nullptr);
  EXPECT_EQ(Branch->TrueTarget, Then);
  EXPECT_EQ(Branch->FalseTarget, Else);
  EXPECT_TRUE(C.graph().hasEdge(Then, After));
  EXPECT_TRUE(C.graph().hasEdge(Else, After));
}

TEST(CfgTest, IfWithoutElseFallsThrough) {
  Built B = buildOk("if (x > 0)\ny = 1;\nwrite(y);\n");
  const Cfg &C = B.C;
  unsigned Cond = nodeOn(C, 1), Then = nodeOn(C, 2), After = nodeOn(C, 3);
  const BranchTargets *Branch = C.branchTargets(Cond);
  ASSERT_NE(Branch, nullptr);
  EXPECT_EQ(Branch->TrueTarget, Then);
  EXPECT_EQ(Branch->FalseTarget, After);
}

TEST(CfgTest, WhileLoopShape) {
  Built B = buildOk("while (x > 0)\nx = x - 1;\nwrite(x);\n");
  const Cfg &C = B.C;
  unsigned Cond = nodeOn(C, 1), Body = nodeOn(C, 2), After = nodeOn(C, 3);
  const BranchTargets *Branch = C.branchTargets(Cond);
  ASSERT_NE(Branch, nullptr);
  EXPECT_EQ(Branch->TrueTarget, Body);
  EXPECT_EQ(Branch->FalseTarget, After);
  EXPECT_TRUE(C.graph().hasEdge(Body, Cond)) << "back edge";
}

TEST(CfgTest, DoWhileEntersBodyFirst) {
  // The predicate node carries the do-while statement's location (the
  // `do` keyword, line 1); the body statement starts line 2.
  Built B = buildOk("do\nx = x - 1; while (x > 0);\nwrite(x);\n");
  const Cfg &C = B.C;
  unsigned Cond = nodeOn(C, 1), Body = nodeOn(C, 2);
  const Stmt *Do = B.Prog->topLevel()[0];
  EXPECT_EQ(C.entryOf(Do), Body);
  EXPECT_EQ(C.nodeOf(Do), Cond);
  EXPECT_TRUE(C.graph().hasEdge(C.entry(), Body));
  EXPECT_TRUE(C.graph().hasEdge(Body, Cond));
  EXPECT_TRUE(C.graph().hasEdge(Cond, Body)) << "loop back edge";
}

TEST(CfgTest, ForLoopWiresInitCondStepBody) {
  Built B = buildOk("for (i = 0; i < 3; i = i + 1)\nwrite(i);\nwrite(9);\n");
  const Cfg &C = B.C;
  const auto *For = cast<ForStmt>(B.Prog->topLevel()[0]);
  unsigned Init = C.nodeOf(For->getInit());
  unsigned Cond = C.nodeOf(For);
  unsigned Step = C.nodeOf(For->getStep());
  unsigned Body = nodeOn(C, 2);
  unsigned After = nodeOn(C, 3);
  EXPECT_EQ(C.entryOf(For), Init);
  EXPECT_TRUE(C.graph().hasEdge(Init, Cond));
  const BranchTargets *Branch = C.branchTargets(Cond);
  ASSERT_NE(Branch, nullptr);
  EXPECT_EQ(Branch->TrueTarget, Body);
  EXPECT_EQ(Branch->FalseTarget, After);
  EXPECT_TRUE(C.graph().hasEdge(Body, Step));
  EXPECT_TRUE(C.graph().hasEdge(Step, Cond));
}

TEST(CfgTest, ForeverLoopWithBreakIsExitReachable) {
  Built B = buildOk("for (;;) {\nif (x > 3) break;\nx = x + 1;\n}\n"
                    "write(x);\n");
  const Cfg &C = B.C;
  const auto *For = cast<ForStmt>(B.Prog->topLevel()[0]);
  unsigned Cond = C.nodeOf(For);
  EXPECT_EQ(C.node(Cond).Cond, nullptr) << "constant-true predicate";
  // Only the true edge exists.
  const BranchTargets *Branch = C.branchTargets(Cond);
  ASSERT_NE(Branch, nullptr);
  EXPECT_EQ(Branch->TrueTarget, Branch->FalseTarget);
}

TEST(CfgTest, ForeverLoopWithoutEscapeIsRejected) {
  ErrorOr<std::unique_ptr<Program>> Prog =
      parseProgram("for (;;) x = 1;\nwrite(x);\n");
  ASSERT_TRUE(Prog.hasValue());
  ErrorOr<Cfg> C = Cfg::build(**Prog);
  ASSERT_FALSE(C.hasValue());
  EXPECT_NE(C.diags().diags()[0].Message.find("cannot reach program exit"),
            std::string::npos);
}

TEST(CfgTest, SelfLoopGotoIsRejected) {
  ErrorOr<std::unique_ptr<Program>> Prog = parseProgram("L: goto L;\n");
  ASSERT_TRUE(Prog.hasValue());
  ErrorOr<Cfg> C = Cfg::build(**Prog);
  EXPECT_FALSE(C.hasValue());
}

TEST(CfgTest, BreakAndContinueTargets) {
  Built B = buildOk("while (x > 0) {\nif (x == 1)\nbreak;\ncontinue;\n}\n"
                    "write(x);\n");
  const Cfg &C = B.C;
  unsigned Cond = nodeOn(C, 1), Break = nodeOn(C, 3), Continue = nodeOn(C, 4),
           After = nodeOn(C, 6);
  ASSERT_TRUE(C.jumpTarget(Break).has_value());
  EXPECT_EQ(*C.jumpTarget(Break), After);
  ASSERT_TRUE(C.jumpTarget(Continue).has_value());
  EXPECT_EQ(*C.jumpTarget(Continue), Cond);
}

TEST(CfgTest, ContinueInForTargetsStep) {
  Built B = buildOk("for (i = 0; i < 9; i = i + 1) {\ncontinue;\n}\n"
                    "write(i);\n");
  const Cfg &C = B.C;
  const auto *For = cast<ForStmt>(B.Prog->topLevel()[0]);
  unsigned Continue = nodeOn(C, 2);
  EXPECT_EQ(*C.jumpTarget(Continue), C.nodeOf(For->getStep()));
}

TEST(CfgTest, ReturnTargetsExit) {
  Built B = buildOk("return 3;\nwrite(1);\n");
  const Cfg &C = B.C;
  unsigned Return = nodeOn(C, 1);
  EXPECT_EQ(*C.jumpTarget(Return), C.exit());
}

TEST(CfgTest, SwitchDispatchAndFallthrough) {
  Built B = buildOk("switch (x) { case 1:\ny = 1;\ncase 2:\ny = 2;\n"
                    "break; default:\ny = 3;\n}\nwrite(y);\n");
  const Cfg &C = B.C;
  unsigned Cond = nodeOn(C, 1), Case1 = nodeOn(C, 2), Case2 = nodeOn(C, 4),
           Break = nodeOn(C, 5), Default = nodeOn(C, 6), After = nodeOn(C, 8);
  std::optional<SwitchTargets> Switch = C.switchTargets(Cond);
  ASSERT_TRUE(Switch.has_value());
  ASSERT_EQ(Switch->Cases.size(), 2u);
  EXPECT_EQ(Switch->Cases[0], (std::pair<int64_t, unsigned>{1, Case1}));
  EXPECT_EQ(Switch->Cases[1], (std::pair<int64_t, unsigned>{2, Case2}));
  EXPECT_EQ(Switch->DefaultTarget, Default);
  EXPECT_TRUE(C.graph().hasEdge(Case1, Case2)) << "C fall-through";
  EXPECT_EQ(*C.jumpTarget(Break), After);
}

TEST(CfgTest, SwitchWithoutDefaultFallsPast) {
  Built B = buildOk("switch (x) { case 1:\ny = 1; }\nwrite(y);\n");
  const Cfg &C = B.C;
  unsigned Cond = nodeOn(C, 1), After = nodeOn(C, 3);
  std::optional<SwitchTargets> Switch = C.switchTargets(Cond);
  ASSERT_TRUE(Switch.has_value());
  EXPECT_EQ(Switch->DefaultTarget, After);
}

TEST(CfgTest, GotoEdgesResolveForwardAndBackward) {
  Built B = buildOk("L1: x = x + 1;\nif (x < 3) goto L1;\ngoto L2;\n"
                    "x = 0;\nL2: write(x);\n");
  const Cfg &C = B.C;
  unsigned Target1 = nodeOn(C, 1);
  unsigned Forward = nodeOn(C, 3);
  unsigned Target2 = nodeOn(C, 5);
  std::vector<unsigned> Line2 = C.nodesOnLine(2);
  ASSERT_EQ(Line2.size(), 2u) << "predicate + embedded goto";
  EXPECT_TRUE(C.graph().hasEdge(Forward, Target2));
  bool BackEdgeFound = false;
  for (unsigned Node : Line2)
    if (C.jumpTarget(Node) && *C.jumpTarget(Node) == Target1)
      BackEdgeFound = true;
  EXPECT_TRUE(BackEdgeFound);
}

TEST(CfgTest, AugmentedGraphAddsJumpFallthroughEdges) {
  Built B = buildOk("while (x > 0) {\nbreak;\nx = 1;\n}\nwrite(x);\n");
  const Cfg &C = B.C;
  unsigned Break = nodeOn(C, 2), Next = nodeOn(C, 3);
  std::vector<int> Parent(C.numNodes(), -1);
  // Minimal ILS info: the break falls lexically into line 3.
  Parent[Break] = static_cast<int>(Next);
  Digraph Aug = C.buildAugmentedGraph(Parent);
  EXPECT_FALSE(C.graph().hasEdge(Break, Next));
  EXPECT_TRUE(Aug.hasEdge(Break, Next));
  EXPECT_EQ(Aug.numEdges(), C.graph().numEdges() + 1);
}

TEST(CfgTest, LabelsOfVirtualNodes) {
  Built B = buildOk("write(1);\n");
  EXPECT_EQ(B.C.labelOf(B.C.entry()), "entry");
  EXPECT_EQ(B.C.labelOf(B.C.exit()), "exit");
  EXPECT_EQ(B.C.labelOf(nodeOn(B.C, 1)), "1");
}

TEST(CfgTest, EmptyStatementsGetNodes) {
  Built B = buildOk(";\nwrite(1);\n");
  EXPECT_EQ(B.C.numNodes(), 4u);
  unsigned Empty = nodeOn(B.C, 1);
  EXPECT_EQ(B.C.node(Empty).Kind, CfgNodeKind::Statement);
}

TEST(CfgTest, UnreachableCodeStillBuilds) {
  // Line 2 is unreachable from entry but can reach exit; allowed.
  Built B = buildOk("return;\nwrite(1);\n");
  unsigned Dead = nodeOn(B.C, 2);
  EXPECT_TRUE(B.C.graph().preds(Dead).empty());
}

/// Lines of \p C that hold several nodes and that hold none, while
/// checking the line index against a scan of every node on each line
/// up to one past the last.
std::pair<unsigned, unsigned>
expectLineIndexMatchesScan(const Cfg &C, const std::string &What) {
  unsigned MaxLine = 0;
  for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node)
    if (const Stmt *S = C.node(Node).S)
      MaxLine = std::max(MaxLine, S->getLoc().Line);
  unsigned Several = 0, None = 0;
  for (unsigned Line = 0; Line <= MaxLine + 1; ++Line) {
    std::vector<unsigned> Scan;
    for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node)
      if (C.node(Node).S && C.node(Node).S->getLoc().Line == Line)
        Scan.push_back(Node);
    EXPECT_EQ(C.nodesOnLine(Line), Scan) << What << ", line " << Line;
    Several += Scan.size() > 1;
    None += Scan.empty();
  }
  EXPECT_TRUE(C.nodesOnLine(UINT_MAX).empty()) << What;
  return {Several, None};
}

TEST(CfgTest, LineIndexMatchesAFullScan) {
  unsigned Several = 0, None = 0;
  auto Check = [&](const std::string &Source, const std::string &What) {
    Built B = buildOk(Source);
    auto [S, N] = expectLineIndexMatchesScan(B.C, What);
    Several += S;
    None += N;
  };
  for (const PaperExample &Ex : paperExamples())
    Check(Ex.Source, Ex.Name);
  for (unsigned Seed = 1; Seed <= 200; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.AllowGotos = Seed % 2 == 0;
    Check(generateProgram(Opts), "seed " + std::to_string(Seed));
  }
  // Both shapes occurred: `for` headers put init, condition and step
  // on one line; blank and brace-only lines hold no node.
  EXPECT_GT(Several, 0u);
  EXPECT_GT(None, 0u);
}

} // namespace
