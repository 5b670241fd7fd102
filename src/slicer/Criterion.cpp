//===- slicer/Criterion.cpp - Slicing criteria ---------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "slicer/Criterion.h"

#include <algorithm>

using namespace jslice;

ErrorOr<ResolvedCriterion> jslice::resolveCriterion(const Analysis &A,
                                                    const Criterion &Crit) {
  const Cfg &C = A.cfg();
  std::vector<unsigned> OnLine = C.nodesOnLine(Crit.Line);
  if (OnLine.empty()) {
    DiagList Diags;
    Diags.report(SourceLoc(Crit.Line, 1),
                 "no statement on criterion line " +
                     std::to_string(Crit.Line));
    return Diags;
  }

  // The leftmost node on the line is the criterion statement.
  unsigned Node = *std::min_element(
      OnLine.begin(), OnLine.end(), [&](unsigned L, unsigned R) {
        SourceLoc LocL = C.node(L).S->getLoc();
        SourceLoc LocR = C.node(R).S->getLoc();
        return LocL != LocR ? LocL < LocR : L < R;
      });

  ResolvedCriterion Resolved;
  Resolved.Node = Node;

  if (Crit.Vars.empty()) {
    NodeList Uses = A.defUse().usesOf(Node);
    Resolved.VarIds.assign(Uses.begin(), Uses.end());
  } else {
    for (const std::string &Name : Crit.Vars) {
      int Var = A.defUse().varId(Name);
      if (Var < 0) {
        DiagList Diags;
        Diags.report(SourceLoc(Crit.Line, 1),
                     "criterion variable '" + Name +
                         "' does not occur in the program");
        return Diags;
      }
      Resolved.VarIds.push_back(static_cast<unsigned>(Var));
    }
  }

  Resolved.Seeds.push_back(Node);
  for (unsigned Var : Resolved.VarIds)
    for (unsigned Def : A.reachingDefs().reachingDefNodes(Node, Var))
      Resolved.Seeds.push_back(Def);
  return Resolved;
}

ErrorOr<ResolvedCriterion>
jslice::resolveCriteria(const Analysis &A,
                        const std::vector<Criterion> &Crits) {
  if (Crits.empty()) {
    DiagList Diags;
    Diags.report(SourceLoc(), "a slicing criterion set must not be empty");
    return Diags;
  }
  ResolvedCriterion Merged;
  bool First = true;
  for (const Criterion &Crit : Crits) {
    ErrorOr<ResolvedCriterion> One = resolveCriterion(A, Crit);
    if (!One)
      return One.diags();
    if (First) {
      Merged.Node = One->Node;
      Merged.VarIds = One->VarIds;
      First = false;
    }
    for (unsigned Seed : One->Seeds)
      Merged.Seeds.push_back(Seed);
    // Every criterion node is itself a seed, so the slice contains all
    // of them even though only the first is the nominal node.
  }
  return Merged;
}
