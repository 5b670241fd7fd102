//===- lang/Ast.h - Mini-C abstract syntax trees ---------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Mini-C AST. Mini-C is the smallest C-like language that covers every
/// construct appearing in the paper's figures: assignments, read/write,
/// if/else, while, do-while, for, switch with C fall-through, blocks,
/// labels, goto, break, continue, return, and pure intrinsic calls.
///
/// All nodes are owned by a Program (arena style); client code holds raw
/// non-owning pointers. Nodes participate in the LLVM-style isa/cast/
/// dyn_cast machinery from support/Casting.h.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_LANG_AST_H
#define JSLICE_LANG_AST_H

#include "lang/Token.h"
#include "support/Casting.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace jslice {

class Program;
class Stmt;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Discriminator for Expr subclasses.
enum class ExprKind { IntLit, VarRef, Unary, Binary, Call };

/// Unary operators. Mini-C evaluates `!` as C does (0/1 result).
enum class UnaryOp { Neg, Not };

/// Binary operators. `And`/`Or` evaluate both operands (no short circuit);
/// since Mini-C expressions are side-effect free this is unobservable.
enum class BinaryOp { Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, And,
                      Or };

/// Returns the C spelling of \p Op ("+", "<=", ...).
const char *binaryOpSpelling(BinaryOp Op);

/// Base class of all Mini-C expressions. Expressions are pure: they read
/// variables and call pure intrinsics but never write state.
class Expr {
public:
  // Expressions are owned through unique_ptr<Expr>; deletion must
  // dispatch to the derived destructor (CallExpr owns a string and a
  // vector).
  virtual ~Expr() = default;

  ExprKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  ExprKind Kind;
  SourceLoc Loc;
};

/// An integer literal.
class IntLitExpr : public Expr {
public:
  IntLitExpr(SourceLoc Loc, int64_t Value)
      : Expr(ExprKind::IntLit, Loc), Value(Value) {}

  int64_t getValue() const { return Value; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::IntLit;
  }

private:
  int64_t Value;
};

/// A use of a scalar variable.
class VarRefExpr : public Expr {
public:
  VarRefExpr(SourceLoc Loc, std::string Name)
      : Expr(ExprKind::VarRef, Loc), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::VarRef;
  }

private:
  std::string Name;
};

/// A unary operation.
class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOp Op, const Expr *Operand)
      : Expr(ExprKind::Unary, Loc), Op(Op), Operand(Operand) {}

  UnaryOp getOp() const { return Op; }
  const Expr *getOperand() const { return Operand; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Unary;
  }

private:
  UnaryOp Op;
  const Expr *Operand;
};

/// A binary operation.
class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOp Op, const Expr *LHS, const Expr *RHS)
      : Expr(ExprKind::Binary, Loc), Op(Op), LHS(LHS), RHS(RHS) {}

  BinaryOp getOp() const { return Op; }
  const Expr *getLHS() const { return LHS; }
  const Expr *getRHS() const { return RHS; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Binary;
  }

private:
  BinaryOp Op;
  const Expr *LHS;
  const Expr *RHS;
};

/// A call to a pure intrinsic function, e.g. `f1(x)` or `eof()`.
/// The interpreter gives every intrinsic a deterministic meaning (see
/// interp/Interpreter.h); the analyses treat calls as uses of their
/// argument variables only.
class CallExpr : public Expr {
public:
  CallExpr(SourceLoc Loc, std::string Callee, std::vector<const Expr *> Args)
      : Expr(ExprKind::Call, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  const std::string &getCallee() const { return Callee; }
  const std::vector<const Expr *> &getArgs() const { return Args; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Call;
  }

private:
  std::string Callee;
  std::vector<const Expr *> Args;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Discriminator for Stmt subclasses.
enum class StmtKind {
  Assign,
  Read,
  Write,
  If,
  While,
  DoWhile,
  For,
  Switch,
  Block,
  Goto,
  Break,
  Continue,
  Return,
  Empty,
};

/// Base class of all Mini-C statements.
///
/// Every statement carries:
///  * a unique dense Id assigned by its owning Program (used to key
///    side tables such as the statement -> CFG node map);
///  * an optional label (`L:` prefix), as in C;
///  * a syntactic parent link, filled in by semantic analysis, which the
///    lexical-successor-tree builder and the slice printer rely on.
class Stmt {
public:
  // Statements are owned through unique_ptr<Stmt>; deletion must
  // dispatch to the derived destructor (most derived statements own
  // strings or child vectors).
  virtual ~Stmt() = default;

  StmtKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }
  unsigned getId() const { return Id; }

  bool hasLabel() const { return !Label.empty(); }
  const std::string &getLabel() const { return Label; }
  void setLabel(std::string NewLabel) { Label = std::move(NewLabel); }

  const Stmt *getParent() const { return Parent; }
  void setParent(const Stmt *NewParent) { Parent = NewParent; }

  /// True for the unconditional jump statements the paper studies:
  /// goto, break, continue, and return.
  bool isJump() const {
    return Kind == StmtKind::Goto || Kind == StmtKind::Break ||
           Kind == StmtKind::Continue || Kind == StmtKind::Return;
  }

protected:
  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  friend class Program;

  StmtKind Kind;
  SourceLoc Loc;
  unsigned Id = 0;
  std::string Label;
  const Stmt *Parent = nullptr;
};

/// `x = expr;`
class AssignStmt : public Stmt {
public:
  AssignStmt(SourceLoc Loc, std::string Target, const Expr *Value)
      : Stmt(StmtKind::Assign, Loc), Target(std::move(Target)), Value(Value) {}

  const std::string &getTarget() const { return Target; }
  const Expr *getValue() const { return Value; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Assign;
  }

private:
  std::string Target;
  const Expr *Value;
};

/// `read(x);` — defines x from the input stream.
class ReadStmt : public Stmt {
public:
  ReadStmt(SourceLoc Loc, std::string Target)
      : Stmt(StmtKind::Read, Loc), Target(std::move(Target)) {}

  const std::string &getTarget() const { return Target; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Read; }

private:
  std::string Target;
};

/// `write(expr);` — emits a value to the output stream.
class WriteStmt : public Stmt {
public:
  WriteStmt(SourceLoc Loc, const Expr *Value)
      : Stmt(StmtKind::Write, Loc), Value(Value) {}

  const Expr *getValue() const { return Value; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Write;
  }

private:
  const Expr *Value;
};

/// `if (cond) then [else els]`
class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, const Expr *Cond, const Stmt *Then, const Stmt *Else)
      : Stmt(StmtKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  const Expr *getCond() const { return Cond; }
  const Stmt *getThen() const { return Then; }
  const Stmt *getElse() const { return Else; }
  bool hasElse() const { return Else != nullptr; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::If; }

private:
  const Expr *Cond;
  const Stmt *Then;
  const Stmt *Else;
};

/// `while (cond) body`
class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, const Expr *Cond, const Stmt *Body)
      : Stmt(StmtKind::While, Loc), Cond(Cond), Body(Body) {}

  const Expr *getCond() const { return Cond; }
  const Stmt *getBody() const { return Body; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::While;
  }

private:
  const Expr *Cond;
  const Stmt *Body;
};

/// `do body while (cond);`
class DoWhileStmt : public Stmt {
public:
  DoWhileStmt(SourceLoc Loc, const Stmt *Body, const Expr *Cond)
      : Stmt(StmtKind::DoWhile, Loc), Body(Body), Cond(Cond) {}

  const Stmt *getBody() const { return Body; }
  const Expr *getCond() const { return Cond; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::DoWhile;
  }

private:
  const Stmt *Body;
  const Expr *Cond;
};

/// `for (init; cond; step) body` — init and step are optional simple
/// statements (assignment or read); cond is an optional expression that
/// defaults to true.
class ForStmt : public Stmt {
public:
  ForStmt(SourceLoc Loc, const Stmt *Init, const Expr *Cond, const Stmt *Step,
          const Stmt *Body)
      : Stmt(StmtKind::For, Loc), Init(Init), Cond(Cond), Step(Step),
        Body(Body) {}

  const Stmt *getInit() const { return Init; }
  const Expr *getCond() const { return Cond; }
  const Stmt *getStep() const { return Step; }
  const Stmt *getBody() const { return Body; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::For; }

private:
  const Stmt *Init;
  const Expr *Cond;
  const Stmt *Step;
  const Stmt *Body;
};

/// One `case k:` / `default:` clause of a switch. Clauses own their
/// statement lists; control falls through to the next clause as in C.
struct CaseClause {
  SourceLoc Loc;
  bool IsDefault = false;
  int64_t Value = 0;
  std::vector<const Stmt *> Body;
};

/// `switch (cond) { case ...: ... default: ... }` with C fall-through.
class SwitchStmt : public Stmt {
public:
  SwitchStmt(SourceLoc Loc, const Expr *Cond, std::vector<CaseClause> Clauses)
      : Stmt(StmtKind::Switch, Loc), Cond(Cond), Clauses(std::move(Clauses)) {}

  const Expr *getCond() const { return Cond; }
  const std::vector<CaseClause> &getClauses() const { return Clauses; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Switch;
  }

private:
  const Expr *Cond;
  std::vector<CaseClause> Clauses;
};

/// `{ s1 s2 ... }`
class BlockStmt : public Stmt {
public:
  BlockStmt(SourceLoc Loc, std::vector<const Stmt *> Body)
      : Stmt(StmtKind::Block, Loc), Body(std::move(Body)) {}

  const std::vector<const Stmt *> &getBody() const { return Body; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Block;
  }

private:
  std::vector<const Stmt *> Body;
};

/// `goto L;` — Target is resolved by semantic analysis.
class GotoStmt : public Stmt {
public:
  GotoStmt(SourceLoc Loc, std::string TargetLabel)
      : Stmt(StmtKind::Goto, Loc), TargetLabel(std::move(TargetLabel)) {}

  const std::string &getTargetLabel() const { return TargetLabel; }

  const Stmt *getTarget() const { return Target; }
  void setTarget(const Stmt *NewTarget) { Target = NewTarget; }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Goto; }

private:
  std::string TargetLabel;
  const Stmt *Target = nullptr;
};

/// `break;` — Target (the enclosing loop or switch) is resolved by
/// semantic analysis.
class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(StmtKind::Break, Loc) {}

  const Stmt *getTarget() const { return Target; }
  void setTarget(const Stmt *NewTarget) { Target = NewTarget; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Break;
  }

private:
  const Stmt *Target = nullptr;
};

/// `continue;` — Target (the enclosing loop) is resolved by semantic
/// analysis.
class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(StmtKind::Continue, Loc) {}

  const Stmt *getTarget() const { return Target; }
  void setTarget(const Stmt *NewTarget) { Target = NewTarget; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Continue;
  }

private:
  const Stmt *Target = nullptr;
};

/// `return;` or `return expr;` — transfers to program exit; a returned
/// value is written to the output stream (Mini-C programs are single
/// procedures, so this is the observable meaning the paper's examples
/// need).
class ReturnStmt : public Stmt {
public:
  ReturnStmt(SourceLoc Loc, const Expr *Value)
      : Stmt(StmtKind::Return, Loc), Value(Value) {}

  const Expr *getValue() const { return Value; }
  bool hasValue() const { return Value != nullptr; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Return;
  }

private:
  const Expr *Value;
};

/// `;`
class EmptyStmt : public Stmt {
public:
  explicit EmptyStmt(SourceLoc Loc) : Stmt(StmtKind::Empty, Loc) {}

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Empty;
  }
};

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

/// Owns every AST node of one Mini-C program and the top-level statement
/// list. Statements receive dense ids in creation order. A Program is
/// only ever made from a lexed token stream, whose key it carries.
class Program {
public:
  explicit Program(const TokenStreamKey &Key) : Key(Key) {}
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;

  /// Creates and owns an expression node.
  template <typename T, typename... Args> const T *createExpr(Args &&...A) {
    auto Node = std::make_unique<T>(std::forward<Args>(A)...);
    const T *Raw = Node.get();
    Exprs.push_back(std::move(Node));
    return Raw;
  }

  /// Creates and owns a statement node, assigning the next dense id.
  template <typename T, typename... Args> T *createStmt(Args &&...A) {
    auto Node = std::make_unique<T>(std::forward<Args>(A)...);
    Node->Id = static_cast<unsigned>(Stmts.size());
    T *Raw = Node.get();
    Stmts.push_back(std::move(Node));
    return Raw;
  }

  /// Total number of statements ever created (ids are < this bound).
  unsigned numStmts() const { return static_cast<unsigned>(Stmts.size()); }

  /// The top-level statement sequence of the program.
  const std::vector<const Stmt *> &topLevel() const { return TopLevel; }
  void setTopLevel(std::vector<const Stmt *> NewTopLevel) {
    TopLevel = std::move(NewTopLevel);
  }

  /// All statements in creation order (parser emits them roughly in
  /// source order; do not rely on ordering beyond id stability).
  std::vector<const Stmt *> allStmts() const {
    std::vector<const Stmt *> Out;
    Out.reserve(Stmts.size());
    for (const auto &S : Stmts)
      Out.push_back(S.get());
    return Out;
  }

  /// The key of the token stream this program was parsed from.
  const TokenStreamKey &tokenKey() const { return Key; }

private:
  TokenStreamKey Key;
  std::vector<std::unique_ptr<Expr>> Exprs;
  std::vector<std::unique_ptr<Stmt>> Stmts;
  std::vector<const Stmt *> TopLevel;
};

} // namespace jslice

#endif // JSLICE_LANG_AST_H
