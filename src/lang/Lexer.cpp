//===- lang/Lexer.cpp - Mini-C lexer ---------------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <cassert>

using namespace jslice;

const char *jslice::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Error:
    return "invalid token";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwSwitch:
    return "'switch'";
  case TokenKind::KwCase:
    return "'case'";
  case TokenKind::KwDefault:
    return "'default'";
  case TokenKind::KwBreak:
    return "'break'";
  case TokenKind::KwContinue:
    return "'continue'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwGoto:
    return "'goto'";
  case TokenKind::KwRead:
    return "'read'";
  case TokenKind::KwWrite:
    return "'write'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Lt:
    return "'<'";
  case TokenKind::Le:
    return "'<='";
  case TokenKind::Gt:
    return "'>'";
  case TokenKind::Ge:
    return "'>='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Not:
    return "'!'";
  }
  return "<unknown token>";
}

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }

/// The keyword spelled \p S, or Identifier.
TokenKind keywordKind(std::string_view S) {
  switch (S.size()) {
  case 2:
    if (S == "if")
      return TokenKind::KwIf;
    if (S == "do")
      return TokenKind::KwDo;
    break;
  case 3:
    if (S == "for")
      return TokenKind::KwFor;
    break;
  case 4:
    if (S == "else")
      return TokenKind::KwElse;
    if (S == "case")
      return TokenKind::KwCase;
    if (S == "goto")
      return TokenKind::KwGoto;
    if (S == "read")
      return TokenKind::KwRead;
    break;
  case 5:
    if (S == "while")
      return TokenKind::KwWhile;
    if (S == "break")
      return TokenKind::KwBreak;
    if (S == "write")
      return TokenKind::KwWrite;
    break;
  case 6:
    if (S == "switch")
      return TokenKind::KwSwitch;
    if (S == "return")
      return TokenKind::KwReturn;
    break;
  case 7:
    if (S == "default")
      return TokenKind::KwDefault;
    break;
  case 8:
    if (S == "continue")
      return TokenKind::KwContinue;
    break;
  }
  return TokenKind::Identifier;
}

} // namespace

char Lexer::peek(size_t Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

void Lexer::advance() {
  assert(!atEnd() && "advancing past end of buffer");
  if (Source[Pos++] == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
}

void Lexer::skipTrivia(DiagList &Diags) {
  while (!atEnd()) {
    char C = peek();
    if (C == ' ' || C == '\t' || C == '\r' || C == '\n') {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      // The comment runs to the newline, which stays for the next round.
      size_t End = Source.find('\n', Pos);
      if (End == std::string_view::npos)
        End = Source.size();
      Col += static_cast<uint32_t>(End - Pos);
      Pos = End;
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = here();
      advance();
      advance();
      bool Closed = false;
      while (!atEnd()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          Closed = true;
          break;
        }
        advance();
      }
      if (!Closed)
        Diags.report(Start, "unterminated block comment");
      continue;
    }
    break;
  }
}

Token Lexer::lexIdentifierOrKeyword() {
  Token Tok;
  Tok.Loc = here();
  size_t Start = Pos;
  while (!atEnd() && isIdentChar(Source[Pos]))
    ++Pos; // Never a newline: the column moves by the length.
  Col += static_cast<uint32_t>(Pos - Start);
  Tok.Text = Source.substr(Start, Pos - Start);
  Tok.Kind = keywordKind(Tok.Text);
  return Tok;
}

Token Lexer::lexNumber() {
  Token Tok;
  Tok.Kind = TokenKind::IntLiteral;
  Tok.Loc = here();
  size_t Start = Pos;
  int64_t Value = 0;
  while (!atEnd() && isDigit(Source[Pos]))
    Value = Value * 10 + (Source[Pos++] - '0');
  Col += static_cast<uint32_t>(Pos - Start);
  Tok.IntValue = Value;
  return Tok;
}

Token Lexer::lexToken(DiagList &Diags) {
  skipTrivia(Diags);

  Token Tok;
  Tok.Loc = here();
  if (atEnd()) {
    Tok.Kind = TokenKind::Eof;
    return Tok;
  }

  char C = peek();
  if (isIdentStart(C))
    return lexIdentifierOrKeyword();
  if (isDigit(C))
    return lexNumber();

  advance();
  switch (C) {
  case '(':
    Tok.Kind = TokenKind::LParen;
    return Tok;
  case ')':
    Tok.Kind = TokenKind::RParen;
    return Tok;
  case '{':
    Tok.Kind = TokenKind::LBrace;
    return Tok;
  case '}':
    Tok.Kind = TokenKind::RBrace;
    return Tok;
  case ';':
    Tok.Kind = TokenKind::Semi;
    return Tok;
  case ':':
    Tok.Kind = TokenKind::Colon;
    return Tok;
  case ',':
    Tok.Kind = TokenKind::Comma;
    return Tok;
  case '+':
    Tok.Kind = TokenKind::Plus;
    return Tok;
  case '-':
    Tok.Kind = TokenKind::Minus;
    return Tok;
  case '*':
    Tok.Kind = TokenKind::Star;
    return Tok;
  case '/':
    Tok.Kind = TokenKind::Slash;
    return Tok;
  case '%':
    Tok.Kind = TokenKind::Percent;
    return Tok;
  case '=':
    if (peek() == '=') {
      advance();
      Tok.Kind = TokenKind::EqEq;
    } else {
      Tok.Kind = TokenKind::Assign;
    }
    return Tok;
  case '<':
    if (peek() == '=') {
      advance();
      Tok.Kind = TokenKind::Le;
    } else {
      Tok.Kind = TokenKind::Lt;
    }
    return Tok;
  case '>':
    if (peek() == '=') {
      advance();
      Tok.Kind = TokenKind::Ge;
    } else {
      Tok.Kind = TokenKind::Gt;
    }
    return Tok;
  case '!':
    if (peek() == '=') {
      advance();
      Tok.Kind = TokenKind::NotEq;
    } else {
      Tok.Kind = TokenKind::Not;
    }
    return Tok;
  case '&':
    if (peek() == '&') {
      advance();
      Tok.Kind = TokenKind::AmpAmp;
      return Tok;
    }
    break;
  case '|':
    if (peek() == '|') {
      advance();
      Tok.Kind = TokenKind::PipePipe;
      return Tok;
    }
    break;
  default:
    break;
  }

  Diags.report(Tok.Loc, std::string("unexpected character '") + C + "'");
  Tok.Kind = TokenKind::Error;
  return Tok;
}

std::vector<Token> Lexer::lexAll(DiagList &Diags) {
  std::vector<Token> Tokens;
  // Mini-C averages over two source bytes per token.
  Tokens.reserve(Source.size() / 2 + 2);
  for (;;) {
    Tokens.push_back(lexToken(Diags));
    const Token &Tok = Tokens.back();
    if (Tok.is(TokenKind::Eof))
      break;
    if (Tok.isNot(TokenKind::Error))
      Key.add(Tok);
  }
  return Tokens;
}
