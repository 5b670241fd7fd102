//===- lang/Parser.h - Mini-C recursive-descent parser ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses Mini-C source text into a Program. Parsing stops at the first
/// syntax error; the returned diagnostics identify it precisely. Use
/// `parseProgram` for the common parse-and-check pipeline (it also runs
/// semantic analysis from lang/Sema.h).
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_LANG_PARSER_H
#define JSLICE_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Token.h"
#include "support/Error.h"
#include "support/ResourceGuard.h"

#include <memory>
#include <string>
#include <vector>

namespace jslice {

/// Recursive-descent parser over a pre-lexed token stream.
///
/// Recursion depth is bounded: statement and expression nesting beyond
/// the budget's MaxNestingDepth (Budget::DefaultNestingDepth when no
/// guard is supplied) is reported as "nesting too deep" instead of
/// overflowing the stack — adversarial inputs like 100k-deep `{{{...}}}`
/// degrade to a diagnostic.
class Parser {
public:
  Parser(std::vector<Token> Tokens, Program &Prog, DiagList &Diags,
         ResourceGuard *Guard = nullptr)
      : Tokens(std::move(Tokens)), Prog(Prog), Diags(Diags), Guard(Guard),
        MaxDepth(Guard ? Guard->budget().effectiveNestingDepth()
                       : Budget::DefaultNestingDepth) {}

  /// Parses the whole token stream as a top-level statement sequence.
  /// Returns false (with diagnostics) on the first syntax error.
  bool parseTopLevel();

private:
  const Token &peek(size_t Ahead = 0) const;
  const Token &current() const { return peek(); }
  const Token &consume();
  bool expect(TokenKind Kind, const char *Context);
  bool check(TokenKind Kind) const { return current().is(Kind); }

  const Stmt *parseStmt();
  const Stmt *parseUnlabeledStmt();
  const Stmt *parseSimpleForClause();
  const Stmt *parseIf(SourceLoc Loc);
  const Stmt *parseWhile(SourceLoc Loc);
  const Stmt *parseDoWhile(SourceLoc Loc);
  const Stmt *parseFor(SourceLoc Loc);
  const Stmt *parseSwitch(SourceLoc Loc);
  const Stmt *parseBlock(SourceLoc Loc);

  const Expr *parseExpr();
  const Expr *parseOr();
  const Expr *parseAnd();
  const Expr *parseEquality();
  const Expr *parseRelational();
  const Expr *parseAdditive();
  const Expr *parseMultiplicative();
  const Expr *parseUnary();
  const Expr *parsePrimary();

  /// Depth accounting for the recursive productions. enterNested always
  /// increments (DepthScope's destructor unconditionally decrements) and
  /// reports "nesting too deep" when the limit is crossed.
  bool enterNested(SourceLoc Loc);
  struct DepthScope {
    Parser &P;
    bool Ok;
    DepthScope(Parser &P, SourceLoc Loc) : P(P), Ok(P.enterNested(Loc)) {}
    ~DepthScope() { --P.Depth; }
    DepthScope(const DepthScope &) = delete;
    DepthScope &operator=(const DepthScope &) = delete;
  };

  std::vector<Token> Tokens;
  size_t Pos = 0;
  Program &Prog;
  DiagList &Diags;
  ResourceGuard *Guard = nullptr;
  unsigned MaxDepth;
  unsigned Depth = 0;
  bool HadError = false;
};

/// Lexes, parses, and semantically checks \p Source. This is the standard
/// entry point used by tests, benches, and examples.
ErrorOr<std::unique_ptr<Program>> parseProgram(const std::string &Source);

/// As above, metered: the parse polls \p Guard per statement and honours
/// its budget's nesting-depth limit.
ErrorOr<std::unique_ptr<Program>> parseProgram(const std::string &Source,
                                               ResourceGuard &Guard);

} // namespace jslice

#endif // JSLICE_LANG_PARSER_H
