//===- slicer/ChoiFerranteSynthesis.cpp - Executable slices with new jumps ----===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "slicer/ChoiFerranteSynthesis.h"

#include "lang/PrettyPrinter.h"
#include "slicer/SlicerInternal.h"

#include <algorithm>

using namespace jslice;
using namespace jslice::detail;

std::set<unsigned> SynthesizedSlice::lineSet(const Cfg &C) const {
  std::set<unsigned> Lines;
  for (unsigned Node : Kept)
    if (const Stmt *S = C.node(Node).S)
      if (S->getLoc().isValid())
        Lines.insert(S->getLoc().Line);
  return Lines;
}

SynthesizedSlice
jslice::sliceChoiFerranteSynthesis(const Analysis &A,
                                   const ResolvedCriterion &RC) {
  const Cfg &C = A.cfg();
  SynthesizedSlice R;
  R.CriterionNode = RC.Node;

  // The statements the slice must keep: the augmented-PDG closure (so
  // every guard of every behaviour-relevant jump is present), minus the
  // original jump statements themselves — their routing is re-expressed
  // as synthesized transfers below.
  const Analysis::Augmented *Aug = A.augmented();
  if (!Aug)
    return R; // The analysis' guard tripped building the bundle.
  BitVector Kept(C.numNodes());
  for (unsigned Seed : RC.Seeds)
    addDependenceClosure(A.augPdg(*Aug), Kept, Seed);
  for (unsigned Jump : A.jumps())
    Kept.reset(Jump);
  Kept.forEachSetBit(
      [&](size_t Node) { R.Kept.insert(static_cast<unsigned>(Node)); });

  // Destination of a raw control transfer to \p Target: the nearest
  // kept postdominator. Every deleted node on the way is either a
  // non-branching statement, a predicate none of whose outcomes a kept
  // statement distinguishes (else it would be in the closure), or a
  // jump whose routing the postdominator walk absorbs. Its textual
  // fall-through destination — where the printed slice would go without
  // an explicit goto — is the nearest kept lexical successor.
  NearestInSlice Near(A, Kept);
  auto Destination = [&](unsigned T) {
    return Kept.test(T) ? T : Near.postdom(T);
  };
  auto TextualNext = [&](unsigned T) {
    return Kept.test(T) ? T : Near.lexSucc(T);
  };

  for (unsigned Node : R.Kept) {
    if (Node == C.entry())
      continue;
    for (unsigned Target : C.graph().succs(Node)) {
      unsigned Dest = Destination(Target);
      R.Transfers[{Node, Target}] = Dest;
      if (Dest != TextualNext(Target))
        ++R.SynthesizedJumps;
    }
  }
  // Entry's transfer into the program body.
  for (unsigned Target : C.graph().succs(C.entry()))
    if (Target != C.exit())
      R.Transfers[{C.entry(), Target}] = Destination(Target);

  return R;
}

//===----------------------------------------------------------------------===//
// Flattened emission
//===----------------------------------------------------------------------===//

namespace {

/// The source text of one kept simple statement (no label, no newline).
std::string simpleStatementText(const Stmt *S) {
  switch (S->getKind()) {
  case StmtKind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    return Assign->getTarget() + " = " + printExpr(Assign->getValue()) + ";";
  }
  case StmtKind::Read:
    return "read(" + cast<ReadStmt>(S)->getTarget() + ");";
  case StmtKind::Write:
    return "write(" + printExpr(cast<WriteStmt>(S)->getValue()) + ");";
  case StmtKind::Empty:
    return ";";
  default:
    assert(false && "kept statements are simple or predicates");
    return ";";
  }
}

} // namespace

PrintedSynthesis jslice::printSynthesizedSlice(const Analysis &A,
                                               const SynthesizedSlice &S) {
  const Cfg &C = A.cfg();

  // Kept nodes in source order.
  std::vector<unsigned> Order(S.Kept.begin(), S.Kept.end());
  Order.erase(std::remove(Order.begin(), Order.end(), C.entry()),
              Order.end());
  std::sort(Order.begin(), Order.end(), [&](unsigned L, unsigned R) {
    SourceLoc A1 = C.node(L).S->getLoc();
    SourceLoc B1 = C.node(R).S->getLoc();
    return A1 != B1 ? A1 < B1 : L < R;
  });

  std::map<unsigned, std::string> LabelOf;
  for (size_t I = 0; I != Order.size(); ++I)
    LabelOf[Order[I]] = "S" + std::to_string(I);

  // A transfer rendered as a goto/return, or "" when it falls through
  // to the next emitted statement anyway.
  auto TransferText = [&](unsigned Dest, unsigned FallthroughTo,
                          bool AllowElision) -> std::string {
    if (Dest == C.exit())
      return "return;";
    if (AllowElision && Dest == FallthroughTo)
      return "";
    return "goto " + LabelOf.at(Dest) + ";";
  };

  PrintedSynthesis Out;
  unsigned Line = 1;
  auto Emit = [&](const std::string &Text) {
    Out.Text += Text + "\n";
    ++Line;
  };

  // Entry transfer: jump to the first executed kept node if it is not
  // the first emitted one.
  if (!Order.empty()) {
    unsigned Start = C.exit();
    for (unsigned Target : C.graph().succs(C.entry()))
      if (Target != C.exit())
        Start = S.Transfers.at({C.entry(), Target});
    if (Start == C.exit())
      Emit("return;");
    else if (Start != Order.front())
      Emit("goto " + LabelOf.at(Start) + ";");
  }

  for (size_t I = 0; I != Order.size(); ++I) {
    unsigned Node = Order[I];
    unsigned Next = I + 1 < Order.size() ? Order[I + 1] : C.exit();
    const CfgNode &Info = C.node(Node);
    std::string Label = LabelOf.at(Node) + ": ";

    if (Node == S.CriterionNode)
      Out.CriterionLine = Line;

    if (Info.Kind == CfgNodeKind::Statement) {
      unsigned Raw = C.graph().succs(Node).front();
      unsigned Dest = S.Transfers.at({Node, Raw});
      std::string Jump = TransferText(Dest, Next, /*AllowElision=*/true);
      Emit(Label + simpleStatementText(Info.S) +
           (Jump.empty() ? "" : " " + Jump));
      continue;
    }

    assert(Info.Kind == CfgNodeKind::Predicate && "unexpected kept node");
    if (std::optional<SwitchTargets> Switch = C.switchTargets(Node)) {
      std::string Head =
          Label + "switch (" + printExpr(Info.Cond) + ") {";
      for (auto [Value, Target] : Switch->Cases)
        Head += " case " + std::to_string(Value) + ": " +
                TransferText(S.Transfers.at({Node, Target}), Next,
                             /*AllowElision=*/false);
      Head += " default: " +
              TransferText(S.Transfers.at({Node, Switch->DefaultTarget}),
                           Next, /*AllowElision=*/false) +
              " }";
      Emit(Head);
      continue;
    }

    const BranchTargets *Branch = C.branchTargets(Node);
    assert(Branch && "predicate without branch targets");
    std::string Cond = Info.Cond ? printExpr(Info.Cond) : "1";
    unsigned TrueDest = S.Transfers.at({Node, Branch->TrueTarget});
    unsigned FalseDest = S.Transfers.at({Node, Branch->FalseTarget});
    std::string TrueJump =
        TransferText(TrueDest, Next, /*AllowElision=*/false);
    std::string FalseJump = TransferText(FalseDest, Next,
                                         /*AllowElision=*/true);
    if (FalseJump.empty())
      Emit(Label + "if (" + Cond + ") " + TrueJump);
    else
      Emit(Label + "if (" + Cond + ") " + TrueJump + " else " + FalseJump);
  }
  return Out;
}
