//===- lang/Parser.cpp - Mini-C recursive-descent parser -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"
#include "lang/Sema.h"

using namespace jslice;

const Token &Parser::peek(size_t Ahead) const {
  size_t Idx = Pos + Ahead;
  if (Idx >= Tokens.size())
    Idx = Tokens.size() - 1; // Eof token.
  return Tokens[Idx];
}

const Token &Parser::consume() {
  const Token &Tok = current();
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return Tok;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (check(Kind)) {
    consume();
    return true;
  }
  if (!HadError) {
    Diags.report(current().Loc, std::string("expected ") +
                                    tokenKindName(Kind) + " " + Context +
                                    ", found " +
                                    tokenKindName(current().Kind));
    HadError = true;
  }
  return false;
}

bool Parser::enterNested(SourceLoc Loc) {
  if (++Depth <= MaxDepth)
    return true;
  if (!HadError) {
    Diags.report(Loc,
                 "nesting too deep (limit " + std::to_string(MaxDepth) + ")",
                 DiagKind::ResourceExhausted);
    HadError = true;
  }
  return false;
}

bool Parser::parseTopLevel() {
  std::vector<const Stmt *> TopLevel;
  while (!check(TokenKind::Eof) && !HadError) {
    const Stmt *S = parseStmt();
    if (!S)
      return false;
    TopLevel.push_back(S);
  }
  if (HadError)
    return false;
  Prog.setTopLevel(std::move(TopLevel));
  return true;
}

const Stmt *Parser::parseStmt() {
  if (Guard && !Guard->checkpoint("parser.stmt")) {
    if (!HadError) {
      Diags.report(current().Loc, Guard->reason(),
                   DiagKind::ResourceExhausted);
      HadError = true;
    }
    return nullptr;
  }

  // A statement label is `IDENT ':'`. Assignments also start with an
  // identifier, so disambiguate with one token of lookahead.
  std::string Label;
  SourceLoc LabelLoc;
  if (check(TokenKind::Identifier) && peek(1).is(TokenKind::Colon)) {
    const Token &LabelTok = consume();
    consume(); // ':'
    Label = LabelTok.Text;
    LabelLoc = LabelTok.Loc;
  }

  const Stmt *S = parseUnlabeledStmt();
  if (!S)
    return nullptr;
  if (!Label.empty()) {
    if (S->hasLabel()) {
      Diags.report(LabelLoc, "multiple labels on one statement are not "
                             "supported");
      HadError = true;
      return nullptr;
    }
    const_cast<Stmt *>(S)->setLabel(std::move(Label));
  }
  return S;
}

const Stmt *Parser::parseUnlabeledStmt() {
  SourceLoc Loc = current().Loc;
  DepthScope Scope(*this, Loc);
  if (!Scope.Ok)
    return nullptr;
  switch (current().Kind) {
  case TokenKind::Semi:
    consume();
    return Prog.createStmt<EmptyStmt>(Loc);

  case TokenKind::LBrace:
    consume();
    return parseBlock(Loc);

  case TokenKind::KwIf:
    consume();
    return parseIf(Loc);

  case TokenKind::KwWhile:
    consume();
    return parseWhile(Loc);

  case TokenKind::KwDo:
    consume();
    return parseDoWhile(Loc);

  case TokenKind::KwFor:
    consume();
    return parseFor(Loc);

  case TokenKind::KwSwitch:
    consume();
    return parseSwitch(Loc);

  case TokenKind::KwRead: {
    consume();
    if (!expect(TokenKind::LParen, "after 'read'"))
      return nullptr;
    if (!check(TokenKind::Identifier)) {
      Diags.report(current().Loc, "expected variable name in 'read'");
      HadError = true;
      return nullptr;
    }
    const Token &Var = consume();
    if (!expect(TokenKind::RParen, "after 'read' variable") ||
        !expect(TokenKind::Semi, "after 'read' statement"))
      return nullptr;
    return Prog.createStmt<ReadStmt>(Loc, std::string(Var.Text));
  }

  case TokenKind::KwWrite: {
    consume();
    if (!expect(TokenKind::LParen, "after 'write'"))
      return nullptr;
    const Expr *Value = parseExpr();
    if (!Value)
      return nullptr;
    if (!expect(TokenKind::RParen, "after 'write' expression") ||
        !expect(TokenKind::Semi, "after 'write' statement"))
      return nullptr;
    return Prog.createStmt<WriteStmt>(Loc, Value);
  }

  case TokenKind::KwGoto: {
    consume();
    if (!check(TokenKind::Identifier)) {
      Diags.report(current().Loc, "expected label name after 'goto'");
      HadError = true;
      return nullptr;
    }
    const Token &Target = consume();
    if (!expect(TokenKind::Semi, "after 'goto' statement"))
      return nullptr;
    return Prog.createStmt<GotoStmt>(Loc, std::string(Target.Text));
  }

  case TokenKind::KwBreak:
    consume();
    if (!expect(TokenKind::Semi, "after 'break'"))
      return nullptr;
    return Prog.createStmt<BreakStmt>(Loc);

  case TokenKind::KwContinue:
    consume();
    if (!expect(TokenKind::Semi, "after 'continue'"))
      return nullptr;
    return Prog.createStmt<ContinueStmt>(Loc);

  case TokenKind::KwReturn: {
    consume();
    const Expr *Value = nullptr;
    if (!check(TokenKind::Semi)) {
      Value = parseExpr();
      if (!Value)
        return nullptr;
    }
    if (!expect(TokenKind::Semi, "after 'return'"))
      return nullptr;
    return Prog.createStmt<ReturnStmt>(Loc, Value);
  }

  case TokenKind::Identifier: {
    const Token &Var = consume();
    if (!expect(TokenKind::Assign, "in assignment"))
      return nullptr;
    const Expr *Value = parseExpr();
    if (!Value)
      return nullptr;
    if (!expect(TokenKind::Semi, "after assignment"))
      return nullptr;
    return Prog.createStmt<AssignStmt>(Loc, std::string(Var.Text), Value);
  }

  default:
    Diags.report(Loc, std::string("expected a statement, found ") +
                          tokenKindName(current().Kind));
    HadError = true;
    return nullptr;
  }
}

const Stmt *Parser::parseBlock(SourceLoc Loc) {
  std::vector<const Stmt *> Body;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof) && !HadError) {
    const Stmt *S = parseStmt();
    if (!S)
      return nullptr;
    Body.push_back(S);
  }
  if (!expect(TokenKind::RBrace, "to close block"))
    return nullptr;
  return Prog.createStmt<BlockStmt>(Loc, std::move(Body));
}

const Stmt *Parser::parseIf(SourceLoc Loc) {
  if (!expect(TokenKind::LParen, "after 'if'"))
    return nullptr;
  const Expr *Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen, "after 'if' condition"))
    return nullptr;
  const Stmt *Then = parseStmt();
  if (!Then)
    return nullptr;
  const Stmt *Else = nullptr;
  if (check(TokenKind::KwElse)) {
    consume();
    Else = parseStmt();
    if (!Else)
      return nullptr;
  }
  return Prog.createStmt<IfStmt>(Loc, Cond, Then, Else);
}

const Stmt *Parser::parseWhile(SourceLoc Loc) {
  if (!expect(TokenKind::LParen, "after 'while'"))
    return nullptr;
  const Expr *Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen, "after 'while' condition"))
    return nullptr;
  const Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return Prog.createStmt<WhileStmt>(Loc, Cond, Body);
}

const Stmt *Parser::parseDoWhile(SourceLoc Loc) {
  const Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  if (!expect(TokenKind::KwWhile, "after 'do' body") ||
      !expect(TokenKind::LParen, "after 'while'"))
    return nullptr;
  const Expr *Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen, "after 'do-while' condition") ||
      !expect(TokenKind::Semi, "after 'do-while'"))
    return nullptr;
  return Prog.createStmt<DoWhileStmt>(Loc, Body, Cond);
}

const Stmt *Parser::parseSimpleForClause() {
  // A for-clause is a single assignment or read, without the trailing ';'
  // (the for-header grammar owns the separators).
  SourceLoc Loc = current().Loc;
  if (check(TokenKind::KwRead)) {
    consume();
    if (!expect(TokenKind::LParen, "after 'read'"))
      return nullptr;
    if (!check(TokenKind::Identifier)) {
      Diags.report(current().Loc, "expected variable name in 'read'");
      HadError = true;
      return nullptr;
    }
    const Token &Var = consume();
    if (!expect(TokenKind::RParen, "after 'read' variable"))
      return nullptr;
    return Prog.createStmt<ReadStmt>(Loc, std::string(Var.Text));
  }
  if (!check(TokenKind::Identifier)) {
    Diags.report(Loc, "expected assignment or 'read' in for-clause");
    HadError = true;
    return nullptr;
  }
  const Token &Var = consume();
  if (!expect(TokenKind::Assign, "in for-clause assignment"))
    return nullptr;
  const Expr *Value = parseExpr();
  if (!Value)
    return nullptr;
  return Prog.createStmt<AssignStmt>(Loc, std::string(Var.Text), Value);
}

const Stmt *Parser::parseFor(SourceLoc Loc) {
  if (!expect(TokenKind::LParen, "after 'for'"))
    return nullptr;

  const Stmt *Init = nullptr;
  if (!check(TokenKind::Semi)) {
    Init = parseSimpleForClause();
    if (!Init)
      return nullptr;
  }
  if (!expect(TokenKind::Semi, "after for-init"))
    return nullptr;

  const Expr *Cond = nullptr;
  if (!check(TokenKind::Semi)) {
    Cond = parseExpr();
    if (!Cond)
      return nullptr;
  }
  if (!expect(TokenKind::Semi, "after for-condition"))
    return nullptr;

  const Stmt *Step = nullptr;
  if (!check(TokenKind::RParen)) {
    Step = parseSimpleForClause();
    if (!Step)
      return nullptr;
  }
  if (!expect(TokenKind::RParen, "to close for-header"))
    return nullptr;

  const Stmt *Body = parseStmt();
  if (!Body)
    return nullptr;
  return Prog.createStmt<ForStmt>(Loc, Init, Cond, Step, Body);
}

const Stmt *Parser::parseSwitch(SourceLoc Loc) {
  if (!expect(TokenKind::LParen, "after 'switch'"))
    return nullptr;
  const Expr *Cond = parseExpr();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen, "after 'switch' expression") ||
      !expect(TokenKind::LBrace, "to open 'switch' body"))
    return nullptr;

  std::vector<CaseClause> Clauses;
  bool SawDefault = false;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof) && !HadError) {
    CaseClause Clause;
    Clause.Loc = current().Loc;
    if (check(TokenKind::KwCase)) {
      consume();
      bool Negative = false;
      if (check(TokenKind::Minus)) {
        consume();
        Negative = true;
      }
      if (!check(TokenKind::IntLiteral)) {
        Diags.report(current().Loc, "expected integer after 'case'");
        HadError = true;
        return nullptr;
      }
      const Token &Value = consume();
      Clause.Value = Negative ? -Value.IntValue : Value.IntValue;
    } else if (check(TokenKind::KwDefault)) {
      consume();
      Clause.IsDefault = true;
      if (SawDefault) {
        Diags.report(Clause.Loc, "multiple 'default' clauses in switch");
        HadError = true;
        return nullptr;
      }
      SawDefault = true;
    } else {
      Diags.report(current().Loc, "expected 'case' or 'default' in switch "
                                  "body");
      HadError = true;
      return nullptr;
    }
    if (!expect(TokenKind::Colon, "after case label"))
      return nullptr;

    while (!check(TokenKind::KwCase) && !check(TokenKind::KwDefault) &&
           !check(TokenKind::RBrace) && !check(TokenKind::Eof) && !HadError) {
      const Stmt *S = parseStmt();
      if (!S)
        return nullptr;
      Clause.Body.push_back(S);
    }
    Clauses.push_back(std::move(Clause));
  }
  if (!expect(TokenKind::RBrace, "to close 'switch' body"))
    return nullptr;
  return Prog.createStmt<SwitchStmt>(Loc, Cond, std::move(Clauses));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

const Expr *Parser::parseExpr() {
  // Parenthesized expressions recurse parsePrimary -> parseExpr; bound
  // that cycle here (the binary-operator chain itself is iterative).
  DepthScope Scope(*this, current().Loc);
  if (!Scope.Ok)
    return nullptr;
  return parseOr();
}

const Expr *Parser::parseOr() {
  const Expr *LHS = parseAnd();
  while (LHS && check(TokenKind::PipePipe)) {
    SourceLoc Loc = consume().Loc;
    const Expr *RHS = parseAnd();
    if (!RHS)
      return nullptr;
    LHS = Prog.createExpr<BinaryExpr>(Loc, BinaryOp::Or, LHS, RHS);
  }
  return LHS;
}

const Expr *Parser::parseAnd() {
  const Expr *LHS = parseEquality();
  while (LHS && check(TokenKind::AmpAmp)) {
    SourceLoc Loc = consume().Loc;
    const Expr *RHS = parseEquality();
    if (!RHS)
      return nullptr;
    LHS = Prog.createExpr<BinaryExpr>(Loc, BinaryOp::And, LHS, RHS);
  }
  return LHS;
}

const Expr *Parser::parseEquality() {
  const Expr *LHS = parseRelational();
  while (LHS && (check(TokenKind::EqEq) || check(TokenKind::NotEq))) {
    const Token &Op = consume();
    const Expr *RHS = parseRelational();
    if (!RHS)
      return nullptr;
    BinaryOp Kind =
        Op.is(TokenKind::EqEq) ? BinaryOp::Eq : BinaryOp::Ne;
    LHS = Prog.createExpr<BinaryExpr>(Op.Loc, Kind, LHS, RHS);
  }
  return LHS;
}

const Expr *Parser::parseRelational() {
  const Expr *LHS = parseAdditive();
  while (LHS && (check(TokenKind::Lt) || check(TokenKind::Le) ||
                 check(TokenKind::Gt) || check(TokenKind::Ge))) {
    const Token &Op = consume();
    const Expr *RHS = parseAdditive();
    if (!RHS)
      return nullptr;
    BinaryOp Kind = BinaryOp::Lt;
    if (Op.is(TokenKind::Le))
      Kind = BinaryOp::Le;
    else if (Op.is(TokenKind::Gt))
      Kind = BinaryOp::Gt;
    else if (Op.is(TokenKind::Ge))
      Kind = BinaryOp::Ge;
    LHS = Prog.createExpr<BinaryExpr>(Op.Loc, Kind, LHS, RHS);
  }
  return LHS;
}

const Expr *Parser::parseAdditive() {
  const Expr *LHS = parseMultiplicative();
  while (LHS && (check(TokenKind::Plus) || check(TokenKind::Minus))) {
    const Token &Op = consume();
    const Expr *RHS = parseMultiplicative();
    if (!RHS)
      return nullptr;
    BinaryOp Kind = Op.is(TokenKind::Plus) ? BinaryOp::Add : BinaryOp::Sub;
    LHS = Prog.createExpr<BinaryExpr>(Op.Loc, Kind, LHS, RHS);
  }
  return LHS;
}

const Expr *Parser::parseMultiplicative() {
  const Expr *LHS = parseUnary();
  while (LHS && (check(TokenKind::Star) || check(TokenKind::Slash) ||
                 check(TokenKind::Percent))) {
    const Token &Op = consume();
    const Expr *RHS = parseUnary();
    if (!RHS)
      return nullptr;
    BinaryOp Kind = BinaryOp::Mul;
    if (Op.is(TokenKind::Slash))
      Kind = BinaryOp::Div;
    else if (Op.is(TokenKind::Percent))
      Kind = BinaryOp::Rem;
    LHS = Prog.createExpr<BinaryExpr>(Op.Loc, Kind, LHS, RHS);
  }
  return LHS;
}

const Expr *Parser::parseUnary() {
  if (check(TokenKind::Minus) || check(TokenKind::Not)) {
    // Self-recursive (`----x`); bounded like the other productions.
    DepthScope Scope(*this, current().Loc);
    if (!Scope.Ok)
      return nullptr;
    const Token &Op = consume();
    const Expr *Operand = parseUnary();
    if (!Operand)
      return nullptr;
    UnaryOp Kind = Op.is(TokenKind::Minus) ? UnaryOp::Neg : UnaryOp::Not;
    return Prog.createExpr<UnaryExpr>(Op.Loc, Kind, Operand);
  }
  return parsePrimary();
}

const Expr *Parser::parsePrimary() {
  SourceLoc Loc = current().Loc;
  switch (current().Kind) {
  case TokenKind::IntLiteral: {
    const Token &Tok = consume();
    return Prog.createExpr<IntLitExpr>(Loc, Tok.IntValue);
  }
  case TokenKind::LParen: {
    consume();
    const Expr *Inner = parseExpr();
    if (!Inner)
      return nullptr;
    if (!expect(TokenKind::RParen, "to close parenthesized expression"))
      return nullptr;
    return Inner;
  }
  case TokenKind::Identifier: {
    const Token &Name = consume();
    if (!check(TokenKind::LParen))
      return Prog.createExpr<VarRefExpr>(Loc, std::string(Name.Text));
    consume(); // '('
    std::vector<const Expr *> Args;
    if (!check(TokenKind::RParen)) {
      for (;;) {
        const Expr *Arg = parseExpr();
        if (!Arg)
          return nullptr;
        Args.push_back(Arg);
        if (!check(TokenKind::Comma))
          break;
        consume();
      }
    }
    if (!expect(TokenKind::RParen, "to close call argument list"))
      return nullptr;
    return Prog.createExpr<CallExpr>(Loc, std::string(Name.Text),
                                     std::move(Args));
  }
  default:
    Diags.report(Loc, std::string("expected an expression, found ") +
                          tokenKindName(current().Kind));
    HadError = true;
    return nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Pipeline entry point
//===----------------------------------------------------------------------===//

static ErrorOr<std::unique_ptr<Program>>
parseProgramImpl(const std::string &Source, ResourceGuard *Guard) {
  DiagList Diags;
  Lexer Lex(Source);
  std::vector<Token> Tokens = Lex.lexAll(Diags);
  if (!Diags.empty())
    return Diags;

  auto Prog = std::make_unique<Program>(Lex.key());
  Parser P(std::move(Tokens), *Prog, Diags, Guard);
  if (!P.parseTopLevel()) {
    if (Diags.empty())
      Diags.report(SourceLoc(), "parse failed");
    return Diags;
  }

  if (!runSema(*Prog, Diags))
    return Diags;
  return Prog;
}

ErrorOr<std::unique_ptr<Program>>
jslice::parseProgram(const std::string &Source) {
  return parseProgramImpl(Source, nullptr);
}

ErrorOr<std::unique_ptr<Program>>
jslice::parseProgram(const std::string &Source, ResourceGuard &Guard) {
  return parseProgramImpl(Source, &Guard);
}
