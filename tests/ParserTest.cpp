//===- tests/ParserTest.cpp - Parser and sema unit tests ----------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "lang/AstWalk.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"

#include <gtest/gtest.h>

using namespace jslice;

namespace {

std::unique_ptr<Program> parseOk(const std::string &Source) {
  ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source);
  EXPECT_TRUE(Prog.hasValue())
      << (Prog.hasValue() ? "" : Prog.diags().str());
  return Prog.hasValue() ? std::move(*Prog) : nullptr;
}

std::string firstErrorOf(const std::string &Source) {
  ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source);
  EXPECT_FALSE(Prog.hasValue()) << "expected a diagnostic";
  if (Prog.hasValue())
    return "";
  return Prog.diags().diags().front().Message;
}

TEST(ParserTest, ParsesAssignment) {
  auto Prog = parseOk("x = 1 + 2 * y;");
  ASSERT_EQ(Prog->topLevel().size(), 1u);
  const auto *Assign = dyn_cast<AssignStmt>(Prog->topLevel()[0]);
  ASSERT_NE(Assign, nullptr);
  EXPECT_EQ(Assign->getTarget(), "x");
  // Precedence: 1 + (2 * y).
  const auto *Add = dyn_cast<BinaryExpr>(Assign->getValue());
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(Add->getOp(), BinaryOp::Add);
  EXPECT_TRUE(isa<BinaryExpr>(Add->getRHS()));
}

TEST(ParserTest, ParsesIfElseChain) {
  auto Prog = parseOk("if (x < 0) y = 1; else if (x > 0) y = 2; else y = 3;");
  const auto *If = dyn_cast<IfStmt>(Prog->topLevel()[0]);
  ASSERT_NE(If, nullptr);
  ASSERT_TRUE(If->hasElse());
  EXPECT_TRUE(isa<IfStmt>(If->getElse()));
}

TEST(ParserTest, DanglingElseBindsToInnerIf) {
  auto Prog = parseOk("if (a > 0) if (b > 0) x = 1; else x = 2;");
  const auto *Outer = dyn_cast<IfStmt>(Prog->topLevel()[0]);
  ASSERT_NE(Outer, nullptr);
  EXPECT_FALSE(Outer->hasElse());
  const auto *Inner = dyn_cast<IfStmt>(Outer->getThen());
  ASSERT_NE(Inner, nullptr);
  EXPECT_TRUE(Inner->hasElse());
}

TEST(ParserTest, ParsesLoops) {
  auto Prog = parseOk("while (x < 10) x = x + 1;\n"
                      "do x = x - 1; while (x > 0);\n"
                      "for (i = 0; i < 5; i = i + 1) write(i);\n"
                      "for (;;) break;");
  ASSERT_EQ(Prog->topLevel().size(), 4u);
  EXPECT_TRUE(isa<WhileStmt>(Prog->topLevel()[0]));
  EXPECT_TRUE(isa<DoWhileStmt>(Prog->topLevel()[1]));
  const auto *For = dyn_cast<ForStmt>(Prog->topLevel()[2]);
  ASSERT_NE(For, nullptr);
  EXPECT_NE(For->getInit(), nullptr);
  EXPECT_NE(For->getCond(), nullptr);
  EXPECT_NE(For->getStep(), nullptr);
  const auto *Forever = dyn_cast<ForStmt>(Prog->topLevel()[3]);
  ASSERT_NE(Forever, nullptr);
  EXPECT_EQ(Forever->getInit(), nullptr);
  EXPECT_EQ(Forever->getCond(), nullptr);
  EXPECT_EQ(Forever->getStep(), nullptr);
}

TEST(ParserTest, ParsesSwitchWithFallthroughClauses) {
  auto Prog = parseOk("switch (x) { case 1: y = 1; case 2: y = 2; break; "
                      "default: y = 3; }");
  const auto *Switch = dyn_cast<SwitchStmt>(Prog->topLevel()[0]);
  ASSERT_NE(Switch, nullptr);
  ASSERT_EQ(Switch->getClauses().size(), 3u);
  EXPECT_FALSE(Switch->getClauses()[0].IsDefault);
  EXPECT_EQ(Switch->getClauses()[0].Value, 1);
  EXPECT_TRUE(Switch->getClauses()[2].IsDefault);
}

TEST(ParserTest, ParsesNegativeCaseValues) {
  auto Prog = parseOk("switch (x) { case -3: y = 1; }");
  const auto *Switch = dyn_cast<SwitchStmt>(Prog->topLevel()[0]);
  ASSERT_NE(Switch, nullptr);
  EXPECT_EQ(Switch->getClauses()[0].Value, -3);
}

TEST(ParserTest, ParsesLabelsAndGotos) {
  auto Prog = parseOk("L1: x = 1;\ngoto L1;");
  EXPECT_EQ(Prog->topLevel()[0]->getLabel(), "L1");
  const auto *Goto = dyn_cast<GotoStmt>(Prog->topLevel()[1]);
  ASSERT_NE(Goto, nullptr);
  EXPECT_EQ(Goto->getTarget(), Prog->topLevel()[0]);
}

TEST(ParserTest, SemaResolvesBreakAndContinueTargets) {
  auto Prog = parseOk("while (x > 0) { if (x == 1) break; continue; }");
  const auto *While = cast<WhileStmt>(Prog->topLevel()[0]);
  const BreakStmt *Break = nullptr;
  const ContinueStmt *Continue = nullptr;
  walkStmtTree(While, [&](const Stmt *S) {
    if (const auto *B = dyn_cast<BreakStmt>(S))
      Break = B;
    if (const auto *C = dyn_cast<ContinueStmt>(S))
      Continue = C;
  });
  ASSERT_NE(Break, nullptr);
  ASSERT_NE(Continue, nullptr);
  EXPECT_EQ(Break->getTarget(), While);
  EXPECT_EQ(Continue->getTarget(), While);
}

TEST(ParserTest, BreakBindsToSwitchContinueSkipsIt) {
  auto Prog =
      parseOk("while (a > 0) { switch (b) { case 1: break; case 2: "
              "continue; } }");
  const auto *While = cast<WhileStmt>(Prog->topLevel()[0]);
  const SwitchStmt *Switch = nullptr;
  const BreakStmt *Break = nullptr;
  const ContinueStmt *Continue = nullptr;
  walkStmtTree(While, [&](const Stmt *S) {
    if (const auto *Sw = dyn_cast<SwitchStmt>(S))
      Switch = Sw;
    if (const auto *B = dyn_cast<BreakStmt>(S))
      Break = B;
    if (const auto *C = dyn_cast<ContinueStmt>(S))
      Continue = C;
  });
  ASSERT_NE(Break, nullptr);
  ASSERT_NE(Continue, nullptr);
  EXPECT_EQ(Break->getTarget(), Switch);
  EXPECT_EQ(Continue->getTarget(), While);
}

TEST(ParserTest, SemaSetsParentLinks) {
  auto Prog = parseOk("if (x > 0) { y = 1; }");
  const auto *If = cast<IfStmt>(Prog->topLevel()[0]);
  const auto *Block = cast<BlockStmt>(If->getThen());
  EXPECT_EQ(If->getParent(), nullptr);
  EXPECT_EQ(Block->getParent(), If);
  EXPECT_EQ(Block->getBody()[0]->getParent(), Block);
}

TEST(ParserTest, RejectsGotoToUndefinedLabel) {
  EXPECT_NE(firstErrorOf("goto Nowhere;").find("undefined label"),
            std::string::npos);
}

TEST(ParserTest, RejectsDuplicateLabels) {
  EXPECT_NE(firstErrorOf("L: x = 1;\nL: y = 2;").find("duplicate label"),
            std::string::npos);
}

TEST(ParserTest, RejectsBreakOutsideLoop) {
  EXPECT_NE(firstErrorOf("break;").find("outside"), std::string::npos);
}

TEST(ParserTest, RejectsContinueInsideSwitchOnly) {
  EXPECT_NE(firstErrorOf("switch (x) { case 1: continue; }")
                .find("outside of a loop"),
            std::string::npos);
}

TEST(ParserTest, RejectsMissingSemicolon) {
  EXPECT_NE(firstErrorOf("x = 1").find("expected ';'"), std::string::npos);
}

TEST(ParserTest, RejectsMultipleDefaults) {
  EXPECT_NE(firstErrorOf("switch (x) { default: x = 1; default: x = 2; }")
                .find("multiple 'default'"),
            std::string::npos);
}

TEST(ParserTest, RejectsStatementStartingWithOperator) {
  EXPECT_NE(firstErrorOf("* = 3;").find("expected a statement"),
            std::string::npos);
}

TEST(ParserTest, DiagnosticsKeepTheirLineAndColumn) {
  auto DiagText = [](const std::string &Source) {
    ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source);
    return Prog.hasValue() ? std::string() : Prog.diags().str();
  };
  EXPECT_EQ(DiagText("a = 1;\n  total = ;\n"),
            "2:11: error: expected an expression, found ';'");
  EXPECT_EQ(DiagText("longname = 1; /* x\n y */ q = 2 r = 3;"),
            "2:13: error: expected ';' after assignment, found identifier");
  EXPECT_EQ(DiagText("x = 1;\n\tif (x) { y = 2;\n"),
            "3:1: error: expected '}' to close block, found end of input");
  EXPECT_EQ(DiagText("abc = 1;\nabc = abc # 2;\n"),
            "2:11: error: unexpected character '#'");
}

TEST(ParserTest, StatementIdsAreDense) {
  auto Prog = parseOk("x = 1; y = 2; { z = 3; }");
  std::vector<const Stmt *> All = Prog->allStmts();
  for (unsigned I = 0; I != All.size(); ++I)
    EXPECT_EQ(All[I]->getId(), I);
}

TEST(ParserTest, RoundTripsThroughPrettyPrinter) {
  const char *Source = "sum = 0;\n"
                       "while (!eof()) {\n"
                       "read(x);\n"
                       "if (x <= 0) { sum = sum + f1(x); continue; }\n"
                       "switch (x % 3) { case 0: break; case 1: sum = 1; "
                       "default: sum = 2; }\n"
                       "}\n"
                       "write(sum);\n";
  auto Prog = parseOk(Source);
  std::string Printed = printProgram(*Prog);
  auto Reparsed = parseOk(Printed);
  ASSERT_NE(Reparsed, nullptr);
  // Printing is canonical: a second round trip is a fixpoint.
  EXPECT_EQ(printProgram(*Reparsed), Printed);
}

} // namespace
