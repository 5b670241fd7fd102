//===- dataflow/DefUse.cpp - Per-node definitions and uses ------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "dataflow/DefUse.h"

#include "lang/AstWalk.h"

#include <algorithm>

using namespace jslice;

unsigned DefUse::intern(std::string_view Name) {
  // Look up before inserting: emplace would allocate a node per call.
  auto It = Ids.find(Name);
  if (It != Ids.end())
    return It->second;
  Ids.emplace(Name, numVars());
  Names.emplace_back(Name);
  return numVars() - 1;
}

DefUse DefUse::build(const Cfg &C) {
  DefUse Result;
  unsigned N = C.numNodes();
  Result.DefOff.reserve(size_t(N) + 1);
  Result.UseOff.reserve(size_t(N) + 1);
  Result.DefVars.reserve(2 * size_t(N));
  Result.UseVars.reserve(3 * size_t(N));
  Result.DefOff.push_back(0);
  Result.UseOff.push_back(0);

  // The names one node uses, views into the AST; reused across nodes.
  std::vector<std::string_view> Used;
  Used.reserve(16);
  for (unsigned Node = 0; Node != N; ++Node) {
    const CfgNode &Info = C.node(Node);
    if (Info.S || Info.Cond) { // Entry/Exit have neither.
      Used.clear();
      bool UsesInput = false;
      auto ScanExpr = [&](const Expr *Root) {
        walkExprTree(Root, [&](const Expr *E) {
          if (const auto *Var = dyn_cast<VarRefExpr>(E))
            Used.push_back(Var->getName());
          else if (const auto *Call = dyn_cast<CallExpr>(E))
            if (Call->getCallee() == "eof" && Call->getArgs().empty())
              UsesInput = true;
        });
      };

      // Definitions.
      size_t DefsBegin = Result.DefVars.size();
      if (Info.Kind == CfgNodeKind::Statement) {
        if (const auto *Assign = dyn_cast<AssignStmt>(Info.S)) {
          Result.DefVars.push_back(Result.intern(Assign->getTarget()));
        } else if (const auto *Read = dyn_cast<ReadStmt>(Info.S)) {
          // A read defines its target from the stream, advances the
          // stream, and depends on the stream position set by prior
          // reads.
          Result.DefVars.push_back(Result.intern(Read->getTarget()));
          Result.DefVars.push_back(Result.intern(InputVarName));
          UsesInput = true;
        }
      }

      // Uses: the node's own expression(s). Predicate nodes own the
      // compound's condition; statement nodes own the statement's
      // expressions. Names are interned in sorted order, then $input.
      if (Info.Kind == CfgNodeKind::Predicate) {
        if (Info.Cond)
          ScanExpr(Info.Cond);
      } else {
        forEachStmtExpr(Info.S, ScanExpr);
      }
      std::sort(Used.begin(), Used.end());
      Used.erase(std::unique(Used.begin(), Used.end()), Used.end());
      size_t UsesBegin = Result.UseVars.size();
      for (std::string_view Name : Used)
        Result.UseVars.push_back(Result.intern(Name));
      if (UsesInput)
        Result.UseVars.push_back(Result.intern(InputVarName));
      std::sort(Result.UseVars.begin() + UsesBegin, Result.UseVars.end());
      std::sort(Result.DefVars.begin() + DefsBegin, Result.DefVars.end());
    }
    Result.DefOff.push_back(static_cast<unsigned>(Result.DefVars.size()));
    Result.UseOff.push_back(static_cast<unsigned>(Result.UseVars.size()));
  }
  return Result;
}
