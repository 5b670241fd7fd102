//===- cfg/LexicalSuccessorTree.cpp - The paper's LST -----------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "cfg/LexicalSuccessorTree.h"

using namespace jslice;

LexicalSuccessorTree::LexicalSuccessorTree(unsigned Root,
                                           std::vector<int> Parent)
    : Root(Root), ParentOf(std::move(Parent)), Tree(Root, ParentOf) {}

namespace {

/// Syntax-directed parent assignment. `LexNext` is the node control
/// falls to, at the statement's location, once the statement is deleted.
class LstBuilder {
public:
  LstBuilder(const Cfg &C, std::vector<int> &Parent)
      : C(C), Parent(Parent) {}

  void visitList(const std::vector<const Stmt *> &List, unsigned LexNext) {
    for (size_t I = 0, E = List.size(); I != E; ++I) {
      unsigned Next =
          I + 1 < E ? C.entryOf(List[I + 1]) : LexNext;
      visit(List[I], Next);
    }
  }

  void visit(const Stmt *S, unsigned LexNext) {
    switch (S->getKind()) {
    case StmtKind::Assign:
    case StmtKind::Read:
    case StmtKind::Write:
    case StmtKind::Goto:
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Return:
    case StmtKind::Empty:
      setParent(C.nodeOf(S), LexNext);
      return;

    case StmtKind::Block:
      visitList(cast<BlockStmt>(S)->getBody(), LexNext);
      return;

    case StmtKind::If: {
      const auto *If = cast<IfStmt>(S);
      setParent(C.nodeOf(S), LexNext);
      visit(If->getThen(), LexNext);
      if (If->hasElse())
        visit(If->getElse(), LexNext);
      return;
    }

    case StmtKind::While: {
      const auto *While = cast<WhileStmt>(S);
      unsigned Cond = C.nodeOf(S);
      setParent(Cond, LexNext);
      visit(While->getBody(), Cond);
      return;
    }

    case StmtKind::DoWhile: {
      const auto *Do = cast<DoWhileStmt>(S);
      unsigned Cond = C.nodeOf(S);
      setParent(Cond, LexNext);
      visit(Do->getBody(), Cond);
      return;
    }

    case StmtKind::For: {
      const auto *For = cast<ForStmt>(S);
      unsigned Cond = C.nodeOf(S);
      setParent(Cond, LexNext);
      if (For->getInit())
        setParent(C.nodeOf(For->getInit()), Cond);
      unsigned BodyNext = Cond;
      if (For->getStep()) {
        unsigned Step = C.nodeOf(For->getStep());
        setParent(Step, Cond);
        BodyNext = Step;
      }
      visit(For->getBody(), BodyNext);
      return;
    }

    case StmtKind::Switch: {
      const auto *Switch = cast<SwitchStmt>(S);
      setParent(C.nodeOf(S), LexNext);
      // Each clause's statements fall lexically into the next clause
      // (C fall-through); the last clause falls past the switch.
      const auto &Clauses = Switch->getClauses();
      unsigned Following = LexNext;
      for (size_t I = Clauses.size(); I-- > 0;) {
        visitList(Clauses[I].Body, Following);
        if (!Clauses[I].Body.empty())
          Following = C.entryOf(Clauses[I].Body.front());
      }
      return;
    }
    }
  }

private:
  void setParent(unsigned Node, unsigned ParentNode) {
    assert(Parent[Node] == -1 && "node assigned two lexical successors");
    Parent[Node] = static_cast<int>(ParentNode);
  }

  const Cfg &C;
  std::vector<int> &Parent;
};

} // namespace

LexicalSuccessorTree jslice::buildLexicalSuccessorTree(const Cfg &C) {
  std::vector<int> Parent(C.numNodes(), -1);
  LstBuilder Builder(C, Parent);
  Builder.visitList(C.program().topLevel(), C.exit());
  return LexicalSuccessorTree(C.exit(), std::move(Parent));
}

bool jslice::isStructuredJump(const Cfg &C, const LexicalSuccessorTree &Lst,
                              unsigned JumpNode) {
  assert(C.node(JumpNode).isJump() && "not a jump node");
  std::optional<unsigned> Target = C.jumpTarget(JumpNode);
  assert(Target && "jump without a resolved target");
  return Lst.isLexicalSuccessorOf(*Target, JumpNode);
}

bool jslice::isStructuredProgram(const Cfg &C,
                                 const LexicalSuccessorTree &Lst) {
  for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node)
    if (C.node(Node).isJump() && !isStructuredJump(C, Lst, Node))
      return false;
  return true;
}
