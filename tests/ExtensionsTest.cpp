//===- tests/ExtensionsTest.cpp - Weiser and Choi–Ferrante synthesis ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The two Section 5 algorithms implemented beyond the paper's own:
///
///  * Weiser's iterative dataflow slicer [29]: finds the right
///    predicates around jumps but never the jumps themselves;
///  * Choi–Ferrante's synthesis algorithm [8]: executable slices that
///    replace original jumps with synthesized transfers, giving smaller
///    statement sets than Figure 7 while preserving behaviour.
///
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "gen/ProgramGenerator.h"
#include "jslice/jslice.h"

#include <gtest/gtest.h>

#include <random>

using namespace jslice;

namespace {

Analysis analyzeOk(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  return std::move(*A);
}

//===----------------------------------------------------------------------===//
// Weiser
//===----------------------------------------------------------------------===//

TEST(WeiserTest, NeverIncludesJumpStatements) {
  for (const PaperExample &Ex : paperExamples()) {
    Analysis A = analyzeOk(Ex.Source);
    SliceResult R = *computeSlice(A, Ex.Crit, SliceAlgorithm::Weiser);
    for (unsigned Node : R.Nodes)
      EXPECT_FALSE(A.cfg().node(Node).isJump())
          << Ex.Name << ": Weiser must not include jumps (Section 5)";
  }
}

TEST(WeiserTest, FindsTheSamePredicatesAsConventionalOnTheFigures) {
  // Section 5: "His algorithm was able to determine which predicates to
  // include in the slice even when the program contained jump
  // statements." On every figure, Weiser's line set matches the
  // conventional slice's (the jump statements the conventional
  // adaptation adds share lines with their predicates).
  for (const PaperExample &Ex : paperExamples()) {
    Analysis A = analyzeOk(Ex.Source);
    SliceResult Weiser = *computeSlice(A, Ex.Crit, SliceAlgorithm::Weiser);
    EXPECT_EQ(Weiser.lineSet(A.cfg()), Ex.ConventionalLines) << Ex.Name;
  }
}

class WeiserProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(WeiserProperty, EqualsConventionalOnJumpFreePrograms) {
  GenOptions Opts;
  Opts.Seed = GetParam();
  Opts.TargetStmts = 50;
  Opts.AllowStructuredJumps = false;
  Opts.AllowGotos = false;
  std::string Source = generateProgram(Opts);
  Analysis A = analyzeOk(Source);
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SliceResult Weiser = sliceWeiser(A, RC);
    SliceResult Conv = computeSlice(A, RC, SliceAlgorithm::Conventional);
    EXPECT_EQ(Weiser.Nodes, Conv.Nodes)
        << "criterion line " << Crit.Line << "\n"
        << Source;
  }
}

TEST_P(WeiserProperty, MatchesConventionalMinusJumpsWithJumps) {
  GenOptions Opts;
  Opts.Seed = GetParam();
  Opts.TargetStmts = 50;
  Opts.AllowGotos = true;
  std::string Source = generateProgram(Opts);
  Analysis A = analyzeOk(Source);
  if (!A.cfg().unreachableNodes().empty())
    GTEST_SKIP() << "program has dead code";
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SliceResult Weiser = sliceWeiser(A, RC);
    SliceResult Conv = computeSlice(A, RC, SliceAlgorithm::Conventional);
    std::set<unsigned> ConvNoJumps;
    for (unsigned Node : Conv.Nodes)
      if (!A.cfg().node(Node).isJump())
        ConvNoJumps.insert(Node);
    EXPECT_EQ(std::set<unsigned>(Weiser.Nodes), ConvNoJumps)
        << "criterion line " << Crit.Line << "\n"
        << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeiserProperty, ::testing::Range(1u, 21u));

//===----------------------------------------------------------------------===//
// Choi–Ferrante synthesis
//===----------------------------------------------------------------------===//

TEST(SynthesisTest, KeepsNoJumpStatements) {
  for (const PaperExample &Ex : paperExamples()) {
    Analysis A = analyzeOk(Ex.Source);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);
    SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
    for (unsigned Node : S.Kept)
      EXPECT_FALSE(A.cfg().node(Node).isJump()) << Ex.Name;
  }
}

TEST(SynthesisTest, StatementSetIsNeverLargerThanFigure7) {
  // Section 5: "may lead to construction of smaller slices compared to
  // those produced by algorithms that require a slice to be a
  // subprogram of the original program".
  for (const PaperExample &Ex : paperExamples()) {
    Analysis A = analyzeOk(Ex.Source);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);
    SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
    SliceResult Fig7 = computeSlice(A, RC, SliceAlgorithm::Agrawal);
    EXPECT_LE(S.Kept.size(), Fig7.Nodes.size()) << Ex.Name;
    for (unsigned Node : S.Kept)
      EXPECT_TRUE(Fig7.contains(Node))
          << Ex.Name << ": kept statements come from the Figure 7 slice";
  }
}

TEST(SynthesisTest, SynthesizesJumpsExactlyWhenTheProgramHasThem) {
  {
    Analysis A = analyzeOk(paperExample("fig1a").Source);
    ResolvedCriterion RC =
        *resolveCriterion(A, paperExample("fig1a").Crit);
    EXPECT_EQ(sliceChoiFerranteSynthesis(A, RC).SynthesizedJumps, 0u)
        << "no jumps to re-express in a jump-free program";
  }
  {
    Analysis A = analyzeOk(paperExample("fig3a").Source);
    ResolvedCriterion RC =
        *resolveCriterion(A, paperExample("fig3a").Crit);
    EXPECT_GT(sliceChoiFerranteSynthesis(A, RC).SynthesizedJumps, 0u);
  }
}

TEST(SynthesisTest, TransfersLandInsideTheSlice) {
  Analysis A = analyzeOk(paperExample("fig8a").Source);
  ResolvedCriterion RC = *resolveCriterion(A, paperExample("fig8a").Crit);
  SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
  for (const auto &[FromTo, Dest] : S.Transfers) {
    EXPECT_TRUE(S.Kept.count(FromTo.first)) << "source must be kept";
    EXPECT_TRUE(Dest == A.cfg().exit() || S.Kept.count(Dest))
        << "destination must be kept or exit";
  }
}

TEST(SynthesisTest, DropsTheJumpOnlyLinesOfFigure3) {
  // Figure 7 keeps lines 7 and 13 (pure gotos); the synthesized slice
  // re-expresses them as transfers and keeps only the computing lines.
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  ResolvedCriterion RC = *resolveCriterion(A, paperExample("fig3a").Crit);
  SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
  EXPECT_EQ(S.lineSet(A.cfg()), (std::set<unsigned>{2, 3, 4, 5, 8, 15}));
}

class SynthesisProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SynthesisProperty, SynthesizedSlicesPreserveBehaviour) {
  GenOptions Opts;
  Opts.Seed = GetParam();
  Opts.TargetStmts = 45;
  Opts.AllowGotos = (GetParam() % 2) == 0;
  std::string Source = generateProgram(Opts);
  Analysis A = analyzeOk(Source);
  if (!A.cfg().unreachableNodes().empty())
    GTEST_SKIP() << "program has dead code";

  std::mt19937_64 Rng(GetParam() * 31337 + 5);
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
    for (unsigned Trial = 0; Trial != 4; ++Trial) {
      ExecOptions Exec;
      unsigned Len = static_cast<unsigned>(Rng() % 6);
      for (unsigned I = 0; I != Len; ++I)
        Exec.Input.push_back(static_cast<int64_t>(Rng() % 21) - 10);
      ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Exec);
      if (!Orig.Completed)
        continue;
      ExecResult Synth =
          runTransferProjection(A, S.Kept, RC.Node, RC.VarIds, Exec);
      ASSERT_TRUE(Synth.Completed) << Source;
      EXPECT_EQ(Synth.CriterionValues, Orig.CriterionValues)
          << "criterion line " << Crit.Line << "\n"
          << Source;
    }
  }
}

TEST_P(SynthesisProperty, KeptSetIsFigure7MinusJumpClosureResidue) {
  GenOptions Opts;
  Opts.Seed = GetParam() + 500;
  Opts.TargetStmts = 45;
  Opts.AllowGotos = true;
  std::string Source = generateProgram(Opts);
  Analysis A = analyzeOk(Source);
  if (!A.cfg().unreachableNodes().empty())
    GTEST_SKIP() << "program has dead code";
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
    SliceResult Fig7 = computeSlice(A, RC, SliceAlgorithm::Agrawal);
    EXPECT_LE(S.Kept.size(), Fig7.Nodes.size()) << Source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisProperty,
                         ::testing::Range(1u, 31u));


//===----------------------------------------------------------------------===//
// Flattened emission of synthesized slices
//===----------------------------------------------------------------------===//

TEST(SynthesisPrintTest, FlattenedFigure3Reparses) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  ResolvedCriterion RC = *resolveCriterion(A, paperExample("fig3a").Crit);
  SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
  PrintedSynthesis P = printSynthesizedSlice(A, S);
  ErrorOr<Analysis> Reparsed = Analysis::fromSource(P.Text);
  ASSERT_TRUE(Reparsed.hasValue())
      << (Reparsed.hasValue() ? "" : Reparsed.diags().str()) << "\n"
      << P.Text;
  EXPECT_GT(P.CriterionLine, 0u);
}

class SynthesisPrintProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SynthesisPrintProperty, FlattenedProgramReproducesBehaviour) {
  GenOptions Opts;
  Opts.Seed = GetParam() + 900;
  Opts.TargetStmts = 40;
  Opts.AllowGotos = (GetParam() % 2) == 1;
  std::string Source = generateProgram(Opts);
  Analysis A = analyzeOk(Source);
  if (!A.cfg().unreachableNodes().empty())
    GTEST_SKIP() << "program has dead code";

  std::mt19937_64 Rng(GetParam() * 104729 + 11);
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SynthesizedSlice S = sliceChoiFerranteSynthesis(A, RC);
    PrintedSynthesis P = printSynthesizedSlice(A, S);

    // The emitted text must be a valid, analyzable Mini-C program.
    ErrorOr<Analysis> Flat = Analysis::fromSource(P.Text);
    ASSERT_TRUE(Flat.hasValue())
        << (Flat.hasValue() ? "" : Flat.diags().str()) << "\n--- slice\n"
        << P.Text << "--- original\n" << Source;

    // Resolve the criterion in the flattened program by emitted line.
    ErrorOr<ResolvedCriterion> FlatRC =
        resolveCriterion(*Flat, Criterion(P.CriterionLine, Crit.Vars));
    ASSERT_TRUE(FlatRC.hasValue()) << P.Text;

    for (unsigned Trial = 0; Trial != 3; ++Trial) {
      ExecOptions Exec;
      unsigned Len = static_cast<unsigned>(Rng() % 6);
      for (unsigned I = 0; I != Len; ++I)
        Exec.Input.push_back(static_cast<int64_t>(Rng() % 21) - 10);
      ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Exec);
      if (!Orig.Completed)
        continue;
      // Run the flattened text as an ordinary program.
      ExecResult FlatRun =
          runOriginal(*Flat, FlatRC->Node, FlatRC->VarIds, Exec);
      ASSERT_TRUE(FlatRun.Completed) << P.Text;
      EXPECT_EQ(FlatRun.CriterionValues, Orig.CriterionValues)
          << "criterion line " << Crit.Line << "\n--- slice\n"
          << P.Text << "--- original\n" << Source;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisPrintProperty,
                         ::testing::Range(1u, 26u));

} // namespace
