//===- lang/Token.h - Mini-C token definitions ----------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds, the Token record produced by the Mini-C lexer, and the
/// token-stream key the lexer folds as it goes.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_LANG_TOKEN_H
#define JSLICE_LANG_TOKEN_H

#include "support/SourceLoc.h"

#include <cstdint>
#include <string_view>

namespace jslice {

/// Lexical classes of Mini-C.
enum class TokenKind {
  // Sentinels.
  Eof,
  Error,

  // Literals and names.
  Identifier,
  IntLiteral,

  // Keywords.
  KwIf,
  KwElse,
  KwWhile,
  KwDo,
  KwFor,
  KwSwitch,
  KwCase,
  KwDefault,
  KwBreak,
  KwContinue,
  KwReturn,
  KwGoto,
  KwRead,
  KwWrite,

  // Punctuation.
  LParen,
  RParen,
  LBrace,
  RBrace,
  Semi,
  Colon,
  Comma,

  // Operators.
  Assign,   // =
  Plus,     // +
  Minus,    // -
  Star,     // *
  Slash,    // /
  Percent,  // %
  Lt,       // <
  Le,       // <=
  Gt,       // >
  Ge,       // >=
  EqEq,     // ==
  NotEq,    // !=
  AmpAmp,   // &&
  PipePipe, // ||
  Not,      // !
};

/// Returns a human-readable spelling class for diagnostics ("';'", "'if'",
/// "identifier", ...).
const char *tokenKindName(TokenKind Kind);

/// One lexed token. `Text` views the spelling of identifiers and
/// keywords in the lexed source, so a token must not outlive the buffer
/// it was lexed from; `IntValue` holds the decoded value for integer
/// literals.
struct Token {
  TokenKind Kind = TokenKind::Eof;
  SourceLoc Loc;
  std::string_view Text;
  int64_t IntValue = 0;

  bool is(TokenKind K) const { return Kind == K; }
  bool isNot(TokenKind K) const { return Kind != K; }
};

/// The identity of a token stream for the analysis cache: a 64-bit
/// FNV-1a fold of every token's kind, line and spelling (identifiers)
/// or value (integer literals), plus the token count. Columns are left
/// out, so re-spacing within a line or adding comments keeps the key,
/// while moving a statement to another line changes it. Two streams
/// with equal keys parse to the same tree with the same line numbers.
class TokenStreamKey {
public:
  void add(const Token &Tok) {
    bool NewLine = Tok.Loc.Line != LastLine;
    fold(static_cast<uint8_t>(Tok.Kind) | (NewLine ? 0x80 : 0));
    if (NewLine) {
      LastLine = Tok.Loc.Line;
      foldWord(Tok.Loc.Line, 4);
    }
    if (Tok.is(TokenKind::Identifier)) {
      for (char C : Tok.Text)
        fold(static_cast<uint8_t>(C));
      fold(0); // Identifiers hold no NUL: ends the spelling.
    } else if (Tok.is(TokenKind::IntLiteral)) {
      foldWord(static_cast<uint64_t>(Tok.IntValue), 8);
    }
    ++Tokens;
  }

  uint64_t hash() const { return Hash; }
  uint64_t numTokens() const { return Tokens; }

private:
  void fold(uint8_t Byte) {
    Hash ^= Byte;
    Hash *= 1099511628211ull;
  }
  void foldWord(uint64_t W, unsigned Bytes) {
    for (unsigned I = 0; I != Bytes; ++I)
      fold(static_cast<uint8_t>(W >> (8 * I)));
  }

  uint64_t Hash = 1469598103934665603ull;
  uint64_t Tokens = 0;
  uint32_t LastLine = 0;
};

} // namespace jslice

#endif // JSLICE_LANG_TOKEN_H
