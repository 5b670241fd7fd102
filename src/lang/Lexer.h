//===- lang/Lexer.h - Mini-C lexer -----------------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A one-pass lexer for Mini-C. Supports `//` and `/* */` comments and
/// tracks 1-based line/column positions; statement line numbers are how
/// slicing criteria are named, so positions matter.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_LANG_LEXER_H
#define JSLICE_LANG_LEXER_H

#include "lang/Token.h"
#include "support/Error.h"

#include <string_view>
#include <vector>

namespace jslice {

/// Lexes a complete Mini-C buffer into a token vector ending in Eof.
/// The lexer scans \p Source in place: tokens view their spellings in
/// it, so the buffer must outlive them.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Source(Source) {}

  /// Lexes the whole buffer. On malformed input (stray characters,
  /// unterminated comments) diagnostics are produced and an Error token
  /// marks each bad position, but lexing continues so the parser can see
  /// the Eof.
  std::vector<Token> lexAll(DiagList &Diags);

  /// The key of every token lexAll produced but Error and Eof.
  const TokenStreamKey &key() const { return Key; }

private:
  char peek(size_t Ahead = 0) const;
  void advance();
  bool atEnd() const { return Pos >= Source.size(); }
  SourceLoc here() const { return SourceLoc(Line, Col); }

  void skipTrivia(DiagList &Diags);
  Token lexToken(DiagList &Diags);
  Token lexIdentifierOrKeyword();
  Token lexNumber();

  std::string_view Source;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
  TokenStreamKey Key;
};

} // namespace jslice

#endif // JSLICE_LANG_LEXER_H
