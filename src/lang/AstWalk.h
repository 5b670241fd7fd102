//===- lang/AstWalk.h - Generic AST traversal helpers ----------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small traversal helpers shared by semantic analysis, the CFG builder,
/// dataflow def/use extraction, and the printers. The walks take any
/// callable as a template argument, so a walk neither allocates nor
/// calls through a std::function.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_LANG_ASTWALK_H
#define JSLICE_LANG_ASTWALK_H

#include "lang/Ast.h"

#include <set>
#include <string>

namespace jslice {

/// Invokes \p Fn on every direct child statement of \p S, in lexical
/// order (then-branch before else-branch, for-init before for-step, case
/// clauses in source order).
template <typename Callable>
void forEachChildStmt(const Stmt *S, Callable &&Fn) {
  switch (S->getKind()) {
  case StmtKind::Assign:
  case StmtKind::Read:
  case StmtKind::Write:
  case StmtKind::Goto:
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Return:
  case StmtKind::Empty:
    return;

  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    Fn(If->getThen());
    if (If->hasElse())
      Fn(If->getElse());
    return;
  }
  case StmtKind::While:
    Fn(cast<WhileStmt>(S)->getBody());
    return;
  case StmtKind::DoWhile:
    Fn(cast<DoWhileStmt>(S)->getBody());
    return;
  case StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    if (For->getInit())
      Fn(For->getInit());
    if (For->getStep())
      Fn(For->getStep());
    Fn(For->getBody());
    return;
  }
  case StmtKind::Switch:
    for (const CaseClause &Clause : cast<SwitchStmt>(S)->getClauses())
      for (const Stmt *Child : Clause.Body)
        Fn(Child);
    return;
  case StmtKind::Block:
    for (const Stmt *Child : cast<BlockStmt>(S)->getBody())
      Fn(Child);
    return;
  }
}

/// Invokes \p Fn on \p S and every transitive child, preorder.
template <typename Callable>
void walkStmtTree(const Stmt *S, Callable &&Fn) {
  Fn(S);
  forEachChildStmt(S, [&Fn](const Stmt *Child) { walkStmtTree(Child, Fn); });
}

/// Invokes \p Fn on every expression directly attached to \p S (the
/// condition of an if/while/..., the RHS of an assignment, the operand of
/// write/return). Does not descend into child statements.
template <typename Callable>
void forEachStmtExpr(const Stmt *S, Callable &&Fn) {
  switch (S->getKind()) {
  case StmtKind::Assign:
    Fn(cast<AssignStmt>(S)->getValue());
    return;
  case StmtKind::Write:
    Fn(cast<WriteStmt>(S)->getValue());
    return;
  case StmtKind::If:
    Fn(cast<IfStmt>(S)->getCond());
    return;
  case StmtKind::While:
    Fn(cast<WhileStmt>(S)->getCond());
    return;
  case StmtKind::DoWhile:
    Fn(cast<DoWhileStmt>(S)->getCond());
    return;
  case StmtKind::For:
    if (const Expr *Cond = cast<ForStmt>(S)->getCond())
      Fn(Cond);
    return;
  case StmtKind::Switch:
    Fn(cast<SwitchStmt>(S)->getCond());
    return;
  case StmtKind::Return:
    if (const Expr *Value = cast<ReturnStmt>(S)->getValue())
      Fn(Value);
    return;
  case StmtKind::Read:
  case StmtKind::Goto:
  case StmtKind::Break:
  case StmtKind::Continue:
  case StmtKind::Block:
  case StmtKind::Empty:
    return;
  }
}

/// Invokes \p Fn on \p E and every subexpression, preorder.
template <typename Callable>
void walkExprTree(const Expr *E, Callable &&Fn) {
  Fn(E);
  switch (E->getKind()) {
  case ExprKind::IntLit:
  case ExprKind::VarRef:
    return;
  case ExprKind::Unary:
    walkExprTree(cast<UnaryExpr>(E)->getOperand(), Fn);
    return;
  case ExprKind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    walkExprTree(Bin->getLHS(), Fn);
    walkExprTree(Bin->getRHS(), Fn);
    return;
  }
  case ExprKind::Call:
    for (const Expr *Arg : cast<CallExpr>(E)->getArgs())
      walkExprTree(Arg, Fn);
    return;
  }
}

/// Collects the names of all variables a statement's own expressions use
/// (not descending into child statements).
void collectUsedVars(const Stmt *S, std::set<std::string> &Out);

/// Names of all variables mentioned anywhere in the program, sorted.
std::set<std::string> collectProgramVars(const Program &Prog);

} // namespace jslice

#endif // JSLICE_LANG_ASTWALK_H
