//===- interp/Interpreter.cpp - Projection-semantics interpreter -------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

using namespace jslice;

namespace {

/// Arithmetic helpers on the two's-complement domain (wraparound is the
/// defined Mini-C semantics; signed overflow UB is avoided by computing
/// in uint64_t).
int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}

/// One execution of one projection.
class Machine {
public:
  Machine(const Analysis &A, const std::set<unsigned> &Kept,
          unsigned CriterionNode, const std::vector<unsigned> &CriterionVars,
          const ExecOptions &Opts, bool TransferMode = false)
      : A(A), Kept(Kept), CriterionNode(CriterionNode),
        CriterionVars(CriterionVars), Opts(Opts), TransferMode(TransferMode),
        Values(A.defUse().numVars(), 0) {}

  ExecResult run();

private:
  int64_t eval(const Expr *E);
  int64_t callIntrinsic(const CallExpr *Call);
  void executeStatement(const Stmt *S);
  unsigned fallthroughOf(unsigned Node) const;
  unsigned nearestKeptPostdom(unsigned Node) const;
  unsigned hop(unsigned RawTarget) const;

  const Analysis &A;
  const std::set<unsigned> &Kept;
  unsigned CriterionNode;
  const std::vector<unsigned> &CriterionVars;
  const ExecOptions &Opts;
  bool TransferMode;

  std::vector<int64_t> Values;
  size_t InputPos = 0;
  ExecResult Result;
};

int64_t Machine::callIntrinsic(const CallExpr *Call) {
  if (Call->getCallee() == "eof" && Call->getArgs().empty())
    return InputPos >= Opts.Input.size() ? 1 : 0;

  // Deterministic pure function: FNV-1a over name and argument values,
  // folded into [-100, 100].
  uint64_t Hash = 1469598103934665603ull;
  auto Mix = [&Hash](uint64_t Datum) {
    Hash = (Hash ^ Datum) * 1099511628211ull;
  };
  for (char C : Call->getCallee())
    Mix(static_cast<unsigned char>(C));
  for (const Expr *Arg : Call->getArgs())
    Mix(static_cast<uint64_t>(eval(Arg)));
  return static_cast<int64_t>(Hash % 201) - 100;
}

int64_t Machine::eval(const Expr *E) {
  switch (E->getKind()) {
  case ExprKind::IntLit:
    return cast<IntLitExpr>(E)->getValue();
  case ExprKind::VarRef: {
    int Var = A.defUse().varId(cast<VarRefExpr>(E)->getName());
    assert(Var >= 0 && "variable not interned");
    return Values[static_cast<unsigned>(Var)];
  }
  case ExprKind::Unary: {
    const auto *Un = cast<UnaryExpr>(E);
    int64_t V = eval(Un->getOperand());
    return Un->getOp() == UnaryOp::Neg ? wrapSub(0, V) : (V == 0 ? 1 : 0);
  }
  case ExprKind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    int64_t L = eval(Bin->getLHS());
    int64_t R = eval(Bin->getRHS());
    switch (Bin->getOp()) {
    case BinaryOp::Add:
      return wrapAdd(L, R);
    case BinaryOp::Sub:
      return wrapSub(L, R);
    case BinaryOp::Mul:
      return wrapMul(L, R);
    case BinaryOp::Div:
      return R == 0 ? 0 : L / R;
    case BinaryOp::Rem:
      return R == 0 ? 0 : L % R;
    case BinaryOp::Lt:
      return L < R;
    case BinaryOp::Le:
      return L <= R;
    case BinaryOp::Gt:
      return L > R;
    case BinaryOp::Ge:
      return L >= R;
    case BinaryOp::Eq:
      return L == R;
    case BinaryOp::Ne:
      return L != R;
    case BinaryOp::And:
      return L != 0 && R != 0;
    case BinaryOp::Or:
      return L != 0 || R != 0;
    }
    return 0;
  }
  case ExprKind::Call:
    return callIntrinsic(cast<CallExpr>(E));
  }
  return 0;
}

void Machine::executeStatement(const Stmt *S) {
  switch (S->getKind()) {
  case StmtKind::Assign: {
    const auto *Assign = cast<AssignStmt>(S);
    int Var = A.defUse().varId(Assign->getTarget());
    assert(Var >= 0 && "assignment target not interned");
    Values[static_cast<unsigned>(Var)] = eval(Assign->getValue());
    return;
  }
  case StmtKind::Read: {
    const auto *Read = cast<ReadStmt>(S);
    int Var = A.defUse().varId(Read->getTarget());
    assert(Var >= 0 && "read target not interned");
    int64_t V = InputPos < Opts.Input.size() ? Opts.Input[InputPos] : 0;
    ++InputPos;
    Values[static_cast<unsigned>(Var)] = V;
    return;
  }
  case StmtKind::Write:
    Result.Output.push_back(eval(cast<WriteStmt>(S)->getValue()));
    return;
  case StmtKind::Return: {
    const auto *Ret = cast<ReturnStmt>(S);
    if (Ret->hasValue())
      Result.Output.push_back(eval(Ret->getValue()));
    return;
  }
  default:
    return; // Empty statements and jumps have no data effect.
  }
}

unsigned Machine::fallthroughOf(unsigned Node) const {
  const auto &Succs = A.cfg().graph().succs(Node);
  assert(Succs.size() == 1 && "fall-through of a branching node");
  return Succs.front();
}

unsigned Machine::nearestKeptPostdom(unsigned Node) const {
  unsigned Cur = Node;
  while (Cur != A.cfg().exit() && !Kept.count(Cur)) {
    int Up = A.pdt().idom(Cur);
    assert(Up >= 0 && "PDT walk escaped the tree");
    Cur = static_cast<unsigned>(Up);
  }
  return Cur;
}

unsigned Machine::hop(unsigned RawTarget) const {
  // Transfer mode implements the synthesized jumps: land directly on
  // the raw target's nearest kept postdominator.
  return TransferMode ? nearestKeptPostdom(RawTarget) : RawTarget;
}

ExecResult Machine::run() {
  const Cfg &C = A.cfg();
  unsigned Cur = C.entry();

  while (Cur != C.exit()) {
    if (Result.Steps >= Opts.MaxSteps)
      return Result; // Completed stays false.
    if (Opts.Guard && !Opts.Guard->checkpoint("interp.step")) {
      Result.ResourceExhausted = true;
      return Result; // Completed stays false.
    }
    ++Result.Steps;

    // Deletion semantics: control reaching a deleted node slides to its
    // immediate lexical successor. (Transfer mode never lands on a
    // deleted node: hop() routes around them.)
    if (!TransferMode && Cur != C.entry() && !Kept.count(Cur)) {
      int Parent = A.lst().parent(Cur);
      assert(Parent >= 0 && "deleted node without a lexical successor");
      Cur = static_cast<unsigned>(Parent);
      continue;
    }

    const CfgNode &Node = C.node(Cur);

    if (Cur == CriterionNode)
      for (unsigned Var : CriterionVars)
        Result.CriterionValues.push_back(Values[Var]);

    switch (Node.Kind) {
    case CfgNodeKind::Entry: {
      // Entry's successors are the first statement and Exit; take the
      // program body (or Exit for an empty program).
      unsigned Next = C.exit();
      for (unsigned Succ : C.graph().succs(Cur))
        if (Succ != C.exit())
          Next = Succ;
      Cur = hop(Next);
      break;
    }
    case CfgNodeKind::Exit:
      assert(false && "exit handled by the loop condition");
      return Result;

    case CfgNodeKind::Statement: {
      if (Node.isJump()) {
        assert(!TransferMode && "synthesized slices keep no jump nodes");
        // A value-returning return emits its value before transferring.
        executeStatement(Node.S);
        std::optional<unsigned> Target = C.jumpTarget(Cur);
        assert(Target && "executing an unresolved jump");
        if (isa<GotoStmt>(Node.S) && !Kept.count(*Target) &&
            *Target != C.exit()) {
          // The goto's label was re-associated with the target's
          // nearest kept postdominator.
          Cur = nearestKeptPostdom(*Target);
        } else {
          Cur = *Target;
        }
        break;
      }
      executeStatement(Node.S);
      Cur = hop(fallthroughOf(Cur));
      break;
    }

    case CfgNodeKind::Predicate: {
      if (std::optional<SwitchTargets> Switch = C.switchTargets(Cur)) {
        int64_t V = eval(Node.Cond);
        unsigned Next = Switch->DefaultTarget;
        for (auto [Value, Target] : Switch->Cases) {
          if (Value == V) {
            Next = Target;
            break;
          }
        }
        Cur = hop(Next);
        break;
      }
      const BranchTargets *Branch = C.branchTargets(Cur);
      assert(Branch && "predicate without branch targets");
      int64_t V = Node.Cond ? eval(Node.Cond) : 1;
      Cur = hop(V != 0 ? Branch->TrueTarget : Branch->FalseTarget);
      break;
    }
    }
  }

  Result.Completed = true;
  return Result;
}

} // namespace

ExecResult jslice::runProjection(const Analysis &A,
                                 const std::set<unsigned> &Kept,
                                 unsigned CriterionNode,
                                 const std::vector<unsigned> &CriterionVars,
                                 const ExecOptions &Opts) {
  Machine M(A, Kept, CriterionNode, CriterionVars, Opts);
  return M.run();
}

ExecResult jslice::runTransferProjection(
    const Analysis &A, const std::set<unsigned> &Kept, unsigned CriterionNode,
    const std::vector<unsigned> &CriterionVars, const ExecOptions &Opts) {
  Machine M(A, Kept, CriterionNode, CriterionVars, Opts,
            /*TransferMode=*/true);
  return M.run();
}

ExecResult jslice::runOriginal(const Analysis &A, unsigned CriterionNode,
                               const std::vector<unsigned> &CriterionVars,
                               const ExecOptions &Opts) {
  std::set<unsigned> All;
  for (unsigned Node = 0, E = A.cfg().numNodes(); Node != E; ++Node)
    All.insert(Node);
  return runProjection(A, All, CriterionNode, CriterionVars, Opts);
}
