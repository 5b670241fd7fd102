//===- tests/GoldenOracleTest.cpp - Pipeline golden differential oracle ---===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Dumps every cold-pipeline structure from the lexer to data dependence
/// for a fixed set of programs — the paper's, the fuzz corpus, and 50
/// generated programs of each dialect — and compares the text with the
/// checked-in tests/golden/pipeline.txt byte for byte. The dump holds:
///  * every token's kind, line, column and spelling (or value);
///  * CFG, control- and data-dependence succ and pred lists, in order;
///  * each node's defs and uses, its In set, PDT and LST children;
///  * the CFG's side tables (statement nodes, jump, branch and switch
///    targets) and the lexer/parser diagnostics of broken inputs.
/// Any change to an order, a numbering or a diagnostic shows here.
///
/// On a mismatch the fresh dump is written to golden_pipeline.actual in
/// the working directory; to re-baseline deliberately, copy it over the
/// golden file and say why in the commit.
///
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "gen/ProgramGenerator.h"
#include "lang/Lexer.h"
#include "slicer/Analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace jslice;

namespace {

template <typename Range> void list(std::ostream &OS, const Range &R) {
  OS << '[';
  bool First = true;
  for (unsigned V : R) {
    if (!First)
      OS << ',';
    OS << V;
    First = false;
  }
  OS << ']';
}

bool isWordToken(TokenKind K) {
  return K == TokenKind::Identifier ||
         (K >= TokenKind::KwIf && K <= TokenKind::KwWrite);
}

void dumpTokens(std::ostream &OS, const std::string &Source) {
  DiagList Diags;
  Lexer Lex(Source);
  std::vector<Token> Tokens = Lex.lexAll(Diags);
  unsigned Line = 0;
  for (const Token &Tok : Tokens) {
    if (Tok.Loc.Line != Line) {
      if (Line)
        OS << '\n';
      Line = Tok.Loc.Line;
      OS << "t" << Line << ':';
    }
    OS << ' ' << static_cast<int>(Tok.Kind) << '@' << Tok.Loc.Col;
    if (isWordToken(Tok.Kind))
      OS << '=' << Tok.Text;
    else if (Tok.is(TokenKind::IntLiteral))
      OS << '=' << Tok.IntValue;
  }
  OS << '\n';
  if (!Diags.empty())
    OS << "lex-diags: " << Diags.str() << '\n';
}

void dumpAnalysis(std::ostream &OS, const Analysis &A) {
  const Cfg &C = A.cfg();
  const DefUse &DU = A.defUse();
  const ReachingDefinitions &RD = A.reachingDefs();
  OS << "vars:";
  for (unsigned V = 0; V != DU.numVars(); ++V)
    OS << ' ' << DU.varName(V);
  OS << "\ndefsites:";
  for (unsigned D = 0; D != RD.numDefSites(); ++D)
    OS << ' ' << RD.defSiteNode(D) << ':' << RD.defSiteVar(D);
  OS << "\npdt-pre ";
  list(OS, A.pdt().preorder());
  OS << "\nlst-pre ";
  list(OS, A.lst().preorder());
  OS << '\n';
  for (const Stmt *S : C.program().allStmts()) {
    OS << "stmt " << S->getId() << " node ";
    if (C.hasNodeFor(S))
      OS << C.nodeOf(S);
    else
      OS << '-';
    OS << " entry " << C.entryOf(S) << '\n';
  }
  for (unsigned N = 0; N != C.numNodes(); ++N) {
    OS << 'n' << N << ' ' << static_cast<int>(C.node(N).Kind) << ' '
       << C.labelOf(N) << " s";
    list(OS, C.graph().succs(N));
    OS << " p";
    list(OS, C.graph().preds(N));
    OS << " cs";
    list(OS, A.pdg().Control.succs(N));
    OS << " cp";
    list(OS, A.pdg().Control.preds(N));
    OS << " ds";
    list(OS, A.pdg().Data.succs(N));
    OS << " dp";
    list(OS, A.pdg().Data.preds(N));
    OS << " d";
    list(OS, DU.defsOf(N));
    OS << " u";
    list(OS, DU.usesOf(N));
    OS << " in[";
    bool First = true;
    RD.in(N).forEachSetBit([&](size_t D) {
      OS << (First ? "" : ",") << D;
      First = false;
    });
    OS << "] pdt";
    if (A.pdt().isReachable(N))
      list(OS, A.pdt().children(N));
    else
      OS << '-';
    OS << " lst";
    if (A.lst().inTree(N))
      list(OS, A.lst().children(N));
    else
      OS << '-';
    if (std::optional<unsigned> J = C.jumpTarget(N))
      OS << " j" << *J;
    if (auto B = C.branchTargets(N))
      OS << " b" << B->TrueTarget << ',' << B->FalseTarget;
    if (auto Sw = C.switchTargets(N)) {
      OS << " sw";
      for (const auto &[Value, Target] : Sw->Cases)
        OS << Value << ':' << Target << ',';
      OS << 'd' << Sw->DefaultTarget;
    }
    OS << '\n';
  }
}

void dumpProgram(std::ostream &OS, const std::string &Name,
                 const std::string &Source) {
  OS << "== " << Name << '\n';
  dumpTokens(OS, Source);
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  if (!A) {
    OS << "analysis-diags: " << A.diags().str() << '\n';
    return;
  }
  dumpAnalysis(OS, *A);
}

std::string dumpAll() {
  std::ostringstream OS;
  for (const PaperExample &E : paperExamples())
    dumpProgram(OS, "paper/" + E.Name, E.Source);

  std::vector<std::filesystem::path> Fuzz;
  for (const auto &Entry : std::filesystem::directory_iterator(
           std::string(JSLICE_REPO_ROOT) + "/tests/fuzz"))
    if (Entry.path().extension() == ".mc")
      Fuzz.push_back(Entry.path());
  std::sort(Fuzz.begin(), Fuzz.end());
  for (const auto &Path : Fuzz) {
    std::ifstream In(Path);
    std::stringstream Buf;
    Buf << In.rdbuf();
    dumpProgram(OS, "fuzz/" + Path.filename().string(), Buf.str());
  }

  // Broken inputs pin the diagnostics' exact line:col text.
  const char *Broken[] = {
      "x = ;\n",
      "read(a);\n  if (a) { b = 1;\n",
      "a = 1; /* never closed\nb = 2;\n",
      "a = $;\n",
      "a = b & c;\n",
      "iff = 1;\ndo_ = iff;\nwritex = do_;\nwrite(writex);",
      "x = 1;\nwhile (x) { }\ngoto nowhere;\n",
      "read(x);\nswitch (x) { case 0:\ny = 1;\ndefault:\nwrite(x);\n}\n",
      "// lead\n/* spans\n lines */ abc = 1; // tail\nwrite(abc);\n",
  };
  for (size_t I = 0; I != std::size(Broken); ++I)
    dumpProgram(OS, "inline/" + std::to_string(I), Broken[I]);

  for (bool Gotos : {false, true}) {
    for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
      GenOptions Opts;
      Opts.Seed = Seed;
      Opts.TargetStmts = 40;
      Opts.AllowGotos = Gotos;
      dumpProgram(OS,
                  std::string(Gotos ? "gen-goto/" : "gen-structured/") +
                      std::to_string(Seed),
                  generateProgram(Opts));
    }
    // One program of the benchmark's size per dialect.
    GenOptions Large;
    Large.Seed = 400;
    Large.TargetStmts = 400;
    Large.AllowGotos = Gotos;
    dumpProgram(OS, std::string(Gotos ? "gen-goto/" : "gen-structured/") +
                        "large",
                generateProgram(Large));
  }
  return OS.str();
}

TEST(GoldenOracleTest, PipelineMatchesCheckedInDump) {
  std::string Actual = dumpAll();
  std::ifstream In(std::string(JSLICE_REPO_ROOT) + "/tests/golden/pipeline.txt",
                   std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Expected = Buf.str();
  if (Actual == Expected)
    return;
  std::ofstream("golden_pipeline.actual", std::ios::binary) << Actual;
  std::istringstream ExpLines(Expected), ActLines(Actual);
  std::string E, L;
  for (unsigned Line = 1;; ++Line) {
    bool HasE = static_cast<bool>(std::getline(ExpLines, E));
    bool HasA = static_cast<bool>(std::getline(ActLines, L));
    if (!HasE && !HasA)
      break;
    if (E != L || HasE != HasA) {
      ADD_FAILURE() << "first difference at line " << Line
                    << "\n  expected: " << E << "\n  actual:   " << L
                    << "\n(full dump in golden_pipeline.actual)";
      return;
    }
  }
  ADD_FAILURE() << "dumps differ";
}

} // namespace
