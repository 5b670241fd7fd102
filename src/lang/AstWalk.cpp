//===- lang/AstWalk.cpp - Generic AST traversal helpers --------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "lang/AstWalk.h"

using namespace jslice;

void jslice::collectUsedVars(const Stmt *S, std::set<std::string> &Out) {
  forEachStmtExpr(S, [&](const Expr *Root) {
    walkExprTree(Root, [&](const Expr *E) {
      if (const auto *Var = dyn_cast<VarRefExpr>(E))
        Out.insert(Var->getName());
    });
  });
}

std::set<std::string> jslice::collectProgramVars(const Program &Prog) {
  std::set<std::string> Vars;
  for (const Stmt *Top : Prog.topLevel()) {
    walkStmtTree(Top, [&](const Stmt *S) {
      collectUsedVars(S, Vars);
      if (const auto *Assign = dyn_cast<AssignStmt>(S))
        Vars.insert(Assign->getTarget());
      else if (const auto *Read = dyn_cast<ReadStmt>(S))
        Vars.insert(Read->getTarget());
    });
  }
  return Vars;
}
