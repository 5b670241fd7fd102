//===- tests/LexerTest.cpp - Lexer unit tests ---------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <gtest/gtest.h>

using namespace jslice;

namespace {

/// Tokens view their spellings in the source, so the tests lex string
/// literals, which outlive every token.
std::vector<Token> lexOk(std::string_view Source) {
  DiagList Diags;
  Lexer Lex(Source);
  std::vector<Token> Tokens = Lex.lexAll(Diags);
  EXPECT_TRUE(Diags.empty()) << Diags.str();
  return Tokens;
}

std::vector<TokenKind> kindsOf(const std::vector<Token> &Tokens) {
  std::vector<TokenKind> Out;
  for (const Token &Tok : Tokens)
    Out.push_back(Tok.Kind);
  return Out;
}

TEST(LexerTest, EmptyInputYieldsEof) {
  std::vector<Token> Tokens = lexOk("");
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Eof);
}

TEST(LexerTest, LexesSimpleAssignment) {
  std::vector<Token> Tokens = lexOk("x = 42;");
  EXPECT_EQ(kindsOf(Tokens),
            (std::vector<TokenKind>{TokenKind::Identifier, TokenKind::Assign,
                                    TokenKind::IntLiteral, TokenKind::Semi,
                                    TokenKind::Eof}));
  EXPECT_EQ(Tokens[0].Text, "x");
  EXPECT_EQ(Tokens[2].IntValue, 42);
}

TEST(LexerTest, DistinguishesKeywordsFromIdentifiers) {
  std::vector<Token> Tokens = lexOk("if ifx while whiled goto gotos");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwIf);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::KwWhile);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::KwGoto);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::Identifier);
}

TEST(LexerTest, LexesAllKeywords) {
  std::vector<Token> Tokens =
      lexOk("if else while do for switch case default break continue "
            "return goto read write");
  std::vector<TokenKind> Expected = {
      TokenKind::KwIf,      TokenKind::KwElse,    TokenKind::KwWhile,
      TokenKind::KwDo,      TokenKind::KwFor,     TokenKind::KwSwitch,
      TokenKind::KwCase,    TokenKind::KwDefault, TokenKind::KwBreak,
      TokenKind::KwContinue, TokenKind::KwReturn, TokenKind::KwGoto,
      TokenKind::KwRead,    TokenKind::KwWrite,   TokenKind::Eof};
  EXPECT_EQ(kindsOf(Tokens), Expected);
}

TEST(LexerTest, LexesTwoCharOperators) {
  std::vector<Token> Tokens = lexOk("<= >= == != && || < > = !");
  std::vector<TokenKind> Expected = {
      TokenKind::Le,       TokenKind::Ge,  TokenKind::EqEq,
      TokenKind::NotEq,    TokenKind::AmpAmp, TokenKind::PipePipe,
      TokenKind::Lt,       TokenKind::Gt,  TokenKind::Assign,
      TokenKind::Not,      TokenKind::Eof};
  EXPECT_EQ(kindsOf(Tokens), Expected);
}

TEST(LexerTest, TracksLineAndColumn) {
  std::vector<Token> Tokens = lexOk("a = 1;\n  b = 2;");
  EXPECT_EQ(Tokens[0].Loc, SourceLoc(1, 1));
  EXPECT_EQ(Tokens[4].Loc, SourceLoc(2, 3)); // 'b' after two spaces.
}

TEST(LexerTest, SkipsLineComments) {
  std::vector<Token> Tokens = lexOk("a = 1; // trailing comment\nb = 2;");
  EXPECT_EQ(Tokens.size(), 9u); // two statements + eof
  EXPECT_EQ(Tokens[4].Text, "b");
  EXPECT_EQ(Tokens[4].Loc.Line, 2u);
}

TEST(LexerTest, SkipsBlockComments) {
  std::vector<Token> Tokens = lexOk("a /* inline */ = /* multi\nline */ 1;");
  EXPECT_EQ(kindsOf(Tokens),
            (std::vector<TokenKind>{TokenKind::Identifier, TokenKind::Assign,
                                    TokenKind::IntLiteral, TokenKind::Semi,
                                    TokenKind::Eof}));
}

TEST(LexerTest, ReportsUnterminatedBlockComment) {
  DiagList Diags;
  Lexer Lex("a = 1; /* never closed");
  Lex.lexAll(Diags);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags.diags()[0].Message.find("unterminated"), std::string::npos);
}

TEST(LexerTest, ReportsStrayCharacters) {
  DiagList Diags;
  Lexer Lex("a = $;");
  std::vector<Token> Tokens = Lex.lexAll(Diags);
  EXPECT_EQ(Diags.size(), 1u);
  // Lexing continues past the bad character.
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Eof);
}

TEST(LexerTest, StrayAmpersandAndPipeAreErrors) {
  DiagList Diags;
  Lexer Lex("a & b | c");
  Lex.lexAll(Diags);
  EXPECT_EQ(Diags.size(), 2u);
}

TEST(LexerTest, KeywordPrefixesAndSuffixesAreIdentifiers) {
  std::vector<Token> Tokens =
      lexOk("iff do_ writex _if doread continue1 Read elsewhile");
  for (size_t I = 0; I + 1 < Tokens.size(); ++I)
    EXPECT_EQ(Tokens[I].Kind, TokenKind::Identifier) << Tokens[I].Text;
  EXPECT_EQ(Tokens[0].Text, "iff");
  EXPECT_EQ(Tokens[1].Text, "do_");
  EXPECT_EQ(Tokens[2].Text, "writex");
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Eof);
}

TEST(LexerTest, IdentifierAtEndOfInput) {
  std::vector<Token> Tokens = lexOk("x = abc");
  ASSERT_EQ(Tokens.size(), 4u);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[2].Text, "abc");
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Eof);
  EXPECT_EQ(Tokens[3].Loc, SourceLoc(1, 8));
  // A keyword at end of input is still a keyword.
  EXPECT_EQ(lexOk("write")[0].Kind, TokenKind::KwWrite);
}

TEST(LexerTest, PositionsAfterLongIdentifiersAndComments) {
  std::vector<Token> Tokens = lexOk("longname = 12345; /* a\n bc */ xy "
                                    "// tail\n\tz = 1;");
  EXPECT_EQ(Tokens[0].Loc, SourceLoc(1, 1));
  EXPECT_EQ(Tokens[1].Loc, SourceLoc(1, 10)); // '=' after the name.
  EXPECT_EQ(Tokens[2].Loc, SourceLoc(1, 12));
  EXPECT_EQ(Tokens[2].IntValue, 12345);
  EXPECT_EQ(Tokens[3].Loc, SourceLoc(1, 17)); // ';' after the literal.
  EXPECT_EQ(Tokens[4].Text, "xy");
  EXPECT_EQ(Tokens[4].Loc, SourceLoc(2, 8)); // After the block comment.
  EXPECT_EQ(Tokens[5].Text, "z");
  EXPECT_EQ(Tokens[5].Loc, SourceLoc(3, 2)); // A tab is one column.
}

TEST(LexerTest, KeyIgnoresColumnsAndComments) {
  auto KeyOf = [](std::string_view Source) {
    DiagList Diags;
    Lexer Lex(Source);
    Lex.lexAll(Diags);
    EXPECT_TRUE(Diags.empty());
    return std::make_pair(Lex.key().hash(), Lex.key().numTokens());
  };
  auto Base = KeyOf("read(a);\nb = a + 1;\nwrite(b);\n");
  EXPECT_EQ(Base.second, 16u);
  EXPECT_EQ(KeyOf("read( a ) ;\n  b=a+1; // c\n/* d */write(b);\n\n"), Base);
  EXPECT_NE(KeyOf("read(a);\n\nb = a + 1;\nwrite(b);\n"), Base);
  EXPECT_NE(KeyOf("read(a); b = a + 1;\n\nwrite(b);\n"), Base);
  EXPECT_NE(KeyOf("read(a);\nb = a + 2;\nwrite(b);\n"), Base);
  EXPECT_NE(KeyOf("read(a);\nb = a + 1;\nwrite(bb);\n"), Base);
  // Spellings are delimited: "ab c" and "a bc" differ.
  EXPECT_NE(KeyOf("ab c"), KeyOf("a bc"));
}

TEST(LexerTest, TokenKindNamesAreStable) {
  EXPECT_STREQ(tokenKindName(TokenKind::KwIf), "'if'");
  EXPECT_STREQ(tokenKindName(TokenKind::Identifier), "identifier");
  EXPECT_STREQ(tokenKindName(TokenKind::Le), "'<='");
}

} // namespace
