//===- tests/PdgTest.cpp - Control dependence and PDG tests -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "jslice/jslice.h"
#include "slicer/SlicerInternal.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace jslice;

namespace {

Analysis analyzeOk(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  return std::move(*A);
}

unsigned nodeOn(const Analysis &A, unsigned Line) {
  std::vector<unsigned> Nodes = A.cfg().nodesOnLine(Line);
  EXPECT_EQ(Nodes.size(), 1u) << "line " << Line;
  return Nodes.front();
}

/// Lines directly control dependent on the node at \p Line.
std::set<unsigned> controlledLines(const Analysis &A, unsigned CtrlNode) {
  std::set<unsigned> Lines;
  for (unsigned Node : A.pdg().Control.succs(CtrlNode))
    if (const Stmt *S = A.cfg().node(Node).S)
      Lines.insert(S->getLoc().Line);
  return Lines;
}

TEST(ControlDependenceTest, IfBranchesDependOnPredicate) {
  Analysis A = analyzeOk("if (c > 0) {\nx = 1;\n} else {\nx = 2;\n}\n"
                         "write(x);\n");
  unsigned Cond = nodeOn(A, 1);
  EXPECT_EQ(controlledLines(A, Cond), (std::set<unsigned>{2, 4}));
}

TEST(ControlDependenceTest, StatementAfterIfIsNotDependent) {
  Analysis A = analyzeOk("if (c > 0)\nx = 1;\nwrite(x);\n");
  unsigned Cond = nodeOn(A, 1);
  EXPECT_EQ(controlledLines(A, Cond), (std::set<unsigned>{2}));
}

TEST(ControlDependenceTest, WhileBodyAndSelfDependence) {
  Analysis A = analyzeOk("while (x < 3) {\nx = x + 1;\n}\nwrite(x);\n");
  unsigned Cond = nodeOn(A, 1);
  EXPECT_EQ(controlledLines(A, Cond), (std::set<unsigned>{1, 2}))
      << "loop predicates control their body and themselves";
}

TEST(ControlDependenceTest, TopLevelDependsOnEntry) {
  Analysis A = analyzeOk("x = 1;\nwrite(x);\n");
  std::set<unsigned> FromEntry = controlledLines(A, A.cfg().entry());
  EXPECT_EQ(FromEntry, (std::set<unsigned>{1, 2}))
      << "the Entry->Exit edge makes Entry the paper's dummy predicate";
}

TEST(ControlDependenceTest, PaperFigure2Shape) {
  Analysis A = analyzeOk(paperExample("fig1a").Source);
  // Figure 2-c: 3 controls 4,5 (and itself); 5 controls 6,7,8; 8
  // controls 9,10.
  EXPECT_EQ(controlledLines(A, nodeOn(A, 3)), (std::set<unsigned>{3, 4, 5}));
  EXPECT_EQ(controlledLines(A, nodeOn(A, 5)), (std::set<unsigned>{6, 7, 8}));
  EXPECT_EQ(controlledLines(A, nodeOn(A, 8)), (std::set<unsigned>{9, 10}));
}

TEST(ControlDependenceTest, PaperFigure4GotoProgram) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  // Line 3 (`L3: if (eof()) goto L14`) has two nodes; take them apart.
  std::vector<unsigned> OnLine3 = A.cfg().nodesOnLine(3);
  ASSERT_EQ(OnLine3.size(), 2u);
  unsigned Pred3 =
      A.cfg().node(OnLine3[0]).Kind == CfgNodeKind::Predicate ? OnLine3[0]
                                                              : OnLine3[1];
  // Figure 4-c: the loop-entry predicate controls 4, 5, 13, itself, and
  // its embedded goto.
  EXPECT_EQ(controlledLines(A, Pred3), (std::set<unsigned>{3, 4, 5, 13}));
  // Nothing is control dependent on the unconditional jumps.
  for (unsigned Line : {7u, 11u, 13u}) {
    unsigned J = nodeOn(A, Line);
    ASSERT_TRUE(A.cfg().node(J).isJump());
    EXPECT_TRUE(A.pdg().Control.succs(J).empty())
        << "plain CDG: no control dependence on jumps (Section 3)";
  }
}

TEST(ControlDependenceTest, SwitchClausesDependOnPredicate) {
  Analysis A = analyzeOk(paperExample("fig14a").Source);
  unsigned Switch = nodeOn(A, 1);
  // All clause statements and breaks hang off the switch predicate.
  EXPECT_EQ(controlledLines(A, Switch),
            (std::set<unsigned>{2, 3, 4, 5, 6, 7}));
}

TEST(AugmentedControlDependenceTest, JumpsBecomeControllingNodes) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  // In the augmented CDG, statements following a jump's fall-through
  // point are control dependent on the jump (Ball–Horwitz).
  unsigned Goto7 = nodeOn(A, 7);
  ASSERT_TRUE(A.cfg().node(Goto7).isJump());
  const Analysis::Augmented *Aug = A.augmented();
  ASSERT_NE(Aug, nullptr);
  std::set<unsigned> Controlled;
  for (unsigned Node : Aug->Control.succs(Goto7))
    if (const Stmt *S = A.cfg().node(Node).S)
      Controlled.insert(S->getLoc().Line);
  EXPECT_TRUE(Controlled.count(8))
      << "line 8 runs only when the goto on 7 is not taken";
}

TEST(AugmentedControlDependenceTest, PlainAndAugmentedAgreeWithoutJumps) {
  Analysis A = analyzeOk(paperExample("fig1a").Source);
  const Analysis::Augmented *Aug = A.augmented();
  ASSERT_NE(Aug, nullptr);
  for (unsigned Node = 0; Node != A.cfg().numNodes(); ++Node)
    EXPECT_TRUE(std::ranges::equal(A.pdg().Control.succs(Node),
                                   Aug->Control.succs(Node)))
        << "node " << Node;
}

TEST(PdgTest, CombinedGraphMergesBothEdgeKinds) {
  Analysis A = analyzeOk("if (c > 0)\nx = 1;\nwrite(x);\n");
  unsigned Cond = nodeOn(A, 1), Then = nodeOn(A, 2), Write = nodeOn(A, 3);
  Digraph Combined = A.pdg().combined();
  EXPECT_TRUE(Combined.hasEdge(Cond, Then)) << "control edge";
  EXPECT_TRUE(Combined.hasEdge(Then, Write)) << "data edge";
}

TEST(PdgTest, BackwardClosureFollowsBothKinds) {
  Analysis A = analyzeOk("read(c);\nif (c > 0)\nx = 1;\nwrite(x);\n");
  unsigned Write = nodeOn(A, 4);
  BitVector Closure(A.cfg().numNodes());
  ASSERT_TRUE(detail::addDependenceClosure(A.pdg(), Closure, Write));
  std::set<unsigned> Lines;
  Closure.forEachSetBit([&](size_t Node) {
    if (const Stmt *S = A.cfg().node(static_cast<unsigned>(Node)).S)
      Lines.insert(S->getLoc().Line);
  });
  EXPECT_EQ(Lines, (std::set<unsigned>{1, 2, 3, 4}));
}

TEST(PdgTest, GrowClosureReportsOnlyNewNodes) {
  Analysis A = analyzeOk("read(c);\nif (c > 0)\nx = 1;\nwrite(x);\n");
  unsigned Cond = nodeOn(A, 2), Then = nodeOn(A, 3);
  BitVector Slice(A.cfg().numNodes());
  for (unsigned Node : {Cond, nodeOn(A, 1), A.cfg().entry()})
    Slice.set(Node);
  BitVector Added = Slice;
  detail::addDependenceClosure(A.pdg(), Added, Then);
  Added.resetOf(Slice);
  EXPECT_TRUE(Added.test(Then));
  EXPECT_EQ(Added.count(), 1u) << "everything Then depends on was present";
}

} // namespace
