//===- tests/ScenarioTest.cpp - Realistic end-to-end slicing scenarios --------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Hand-written, realistic Mini-C programs (the kind the paper's intro
/// motivates: understanding, debugging, maintenance) with hand-reasoned
/// assertions about what their slices must and must not contain, plus
/// behavioural verification of every slice used.
///
//===----------------------------------------------------------------------===//

#include "jslice/jslice.h"

#include <gtest/gtest.h>

using namespace jslice;

namespace {

Analysis analyzeOk(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  return std::move(*A);
}

void expectBehaviourPreserved(const Analysis &A, const Criterion &Crit,
                              SliceAlgorithm Algorithm,
                              std::vector<std::vector<int64_t>> Inputs) {
  ResolvedCriterion RC = *resolveCriterion(A, Crit);
  SliceResult R = computeSlice(A, RC, Algorithm);
  std::set<unsigned> Kept = R.Nodes;
  Kept.insert(A.cfg().exit());
  for (auto &Input : Inputs) {
    ExecOptions Opts;
    Opts.Input = std::move(Input);
    ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Opts);
    ASSERT_TRUE(Orig.Completed);
    ExecResult Sliced = runProjection(A, Kept, RC.Node, RC.VarIds, Opts);
    ASSERT_TRUE(Sliced.Completed);
    EXPECT_EQ(Sliced.CriterionValues, Orig.CriterionValues)
        << algorithmName(Algorithm);
  }
}

//===----------------------------------------------------------------------===//
// Scenario 1: grade histogram (switch + break + continue)
//===----------------------------------------------------------------------===//

const char *Histogram = /* 1*/ "pass = 0;\n"
                        /* 2*/ "fail = 0;\n"
                        /* 3*/ "invalid = 0;\n"
                        /* 4*/ "while (!eof()) {\n"
                        /* 5*/ "read(grade);\n"
                        /* 6*/ "if (grade < 0) {\n"
                        /* 7*/ "invalid = invalid + 1;\n"
                        /* 8*/ "continue;\n"
                        /* 9*/ "}\n"
                        /*10*/ "switch (grade / 10) { case 10:\n"
                        /*11*/ "pass = pass + 1;\n"
                        /*12*/ "break; case 9:\n"
                        /*13*/ "pass = pass + 1;\n"
                        /*14*/ "break; default:\n"
                        /*15*/ "fail = fail + 1;\n"
                        /*16*/ "}\n"
                        /*17*/ "}\n"
                        /*18*/ "write(pass);\n"
                        /*19*/ "write(fail);\n"
                        /*20*/ "write(invalid);\n";

TEST(HistogramScenario, SliceOnPassKeepsGuardContinueAndBothPassArms) {
  Analysis A = analyzeOk(Histogram);
  SliceResult R = *computeSlice(A, Criterion(18, {"pass"}),
                                SliceAlgorithm::Agrawal);
  std::set<unsigned> Lines = R.lineSet(A.cfg());
  // Needed: init, loop, read, guard + its continue (it decides whether
  // the switch runs), the dispatch, both pass arms, and the first
  // arm's break (without it case 10 would fall into case 9 and count
  // twice).
  for (unsigned Line : {1u, 4u, 5u, 6u, 8u, 10u, 11u, 12u, 13u})
    EXPECT_TRUE(Lines.count(Line)) << "line " << Line << " missing";
  // Irrelevant: the other counters — and, elegantly, the break on line
  // 14: deleting it falls into the (deleted) default arm and out of
  // the switch, which is where the break went anyway. Its nearest
  // postdominator and lexical successor in the slice coincide.
  for (unsigned Line : {2u, 3u, 7u, 14u, 15u, 19u, 20u})
    EXPECT_FALSE(Lines.count(Line)) << "line " << Line << " spurious";
}

TEST(HistogramScenario, SliceOnInvalidIsTiny) {
  Analysis A = analyzeOk(Histogram);
  SliceResult R = *computeSlice(A, Criterion(20, {"invalid"}),
                                SliceAlgorithm::Agrawal);
  std::set<unsigned> Lines = R.lineSet(A.cfg());
  for (unsigned Line : {3u, 4u, 5u, 6u, 7u, 20u})
    EXPECT_TRUE(Lines.count(Line)) << "line " << Line << " missing";
  // Neither the switch nor the continue matters for `invalid`: the
  // guard's continue only skips statements that don't touch it.
  for (unsigned Line : {8u, 10u, 11u, 13u, 15u, 18u, 19u})
    EXPECT_FALSE(Lines.count(Line)) << "line " << Line << " spurious";
}

TEST(HistogramScenario, SlicesAreBehaviourPreserving) {
  Analysis A = analyzeOk(Histogram);
  for (unsigned Line : {18u, 19u, 20u})
    expectBehaviourPreserved(A, Criterion(Line, {}),
                             SliceAlgorithm::Agrawal,
                             {{100, 95, 42, -3, 88},
                              {-1, -2, -3},
                              {},
                              {55, 100}});
}

//===----------------------------------------------------------------------===//
// Scenario 2: scanner state machine (backward gotos)
//===----------------------------------------------------------------------===//

const char *Scanner = /* 1*/ "tokens = 0;\n"
                      /* 2*/ "garbage = 0;\n"
                      /* 3*/ "Start: if (eof()) goto Done;\n"
                      /* 4*/ "read(c);\n"
                      /* 5*/ "if (c == 0) goto Start;\n"
                      /* 6*/ "if (c < 0) goto Junk;\n"
                      /* 7*/ "tokens = tokens + 1;\n"
                      /* 8*/ "goto Start;\n"
                      /* 9*/ "Junk: garbage = garbage + 1;\n"
                      /*10*/ "goto Start;\n"
                      /*11*/ "Done: write(tokens);\n"
                      /*12*/ "write(garbage);\n";

TEST(ScannerScenario, SliceOnTokensKeepsItsLoopJumpsOnly) {
  Analysis A = analyzeOk(Scanner);
  SliceResult R = *computeSlice(A, Criterion(11, {"tokens"}),
                                SliceAlgorithm::Agrawal);
  std::set<unsigned> Lines = R.lineSet(A.cfg());
  for (unsigned Line : {1u, 3u, 4u, 5u, 6u, 7u, 8u, 11u})
    EXPECT_TRUE(Lines.count(Line)) << "line " << Line << " missing";
  // The garbage counter is gone; its back-jump on line 10 must stay,
  // or skipping line 9 would fall from Junk into Done and terminate
  // the scan early.
  EXPECT_FALSE(Lines.count(9));
  EXPECT_TRUE(Lines.count(10))
      << "the Junk arm's goto still routes control back to Start";
  EXPECT_FALSE(Lines.count(12));
}

TEST(ScannerScenario, ConventionalSliceBreaksTheScanner) {
  Analysis A = analyzeOk(Scanner);
  Criterion Crit(11, {"tokens"});
  ResolvedCriterion RC = *resolveCriterion(A, Crit);
  SliceResult Conv = computeSlice(A, RC, SliceAlgorithm::Conventional);
  std::set<unsigned> Kept = Conv.Nodes;
  Kept.insert(A.cfg().exit());
  ExecOptions Opts;
  Opts.Input = {5, -1, 7}; // junk in the middle
  ExecResult Orig = runOriginal(A, RC.Node, RC.VarIds, Opts);
  ExecResult Sliced = runProjection(A, Kept, RC.Node, RC.VarIds, Opts);
  ASSERT_TRUE(Orig.Completed && Sliced.Completed);
  EXPECT_NE(Sliced.CriterionValues, Orig.CriterionValues)
      << "dropping the gotos must corrupt the token count";
}

TEST(ScannerScenario, JumpAwareSlicesPreserveTheScan) {
  Analysis A = analyzeOk(Scanner);
  for (SliceAlgorithm Algorithm :
       {SliceAlgorithm::Agrawal, SliceAlgorithm::BallHorwitz,
        SliceAlgorithm::Lyle})
    expectBehaviourPreserved(A, Criterion(11, {"tokens"}), Algorithm,
                             {{5, -1, 7}, {0, 0, 3}, {}, {-9, -9}});
}

//===----------------------------------------------------------------------===//
// Scenario 3: bounded search with early return
//===----------------------------------------------------------------------===//

const char *Search = /* 1*/ "read(needle);\n"
                     /* 2*/ "found = 0;\n"
                     /* 3*/ "checked = 0;\n"
                     /* 4*/ "while (!eof()) {\n"
                     /* 5*/ "read(item);\n"
                     /* 6*/ "checked = checked + 1;\n"
                     /* 7*/ "if (item == needle) {\n"
                     /* 8*/ "found = 1;\n"
                     /* 9*/ "write(checked);\n"
                     /*10*/ "return;\n"
                     /*11*/ "}\n"
                     /*12*/ "}\n"
                     /*13*/ "write(found);\n";

TEST(SearchScenario, SliceOnFoundKeepsTheEarlyReturn) {
  Analysis A = analyzeOk(Search);
  SliceResult R = *computeSlice(A, Criterion(13, {"found"}),
                                SliceAlgorithm::Agrawal);
  std::set<unsigned> Lines = R.lineSet(A.cfg());
  for (unsigned Line : {1u, 2u, 4u, 5u, 7u, 10u, 13u})
    EXPECT_TRUE(Lines.count(Line)) << "line " << Line << " missing";
  EXPECT_FALSE(Lines.count(8))
      << "found=1 is dead for the criterion: when it runs, the return "
         "keeps control from ever reaching line 13";
  EXPECT_FALSE(Lines.count(3));
  EXPECT_FALSE(Lines.count(6));
  EXPECT_FALSE(Lines.count(9));
}

TEST(SearchScenario, Figure12MissesTheReturnHere) {
  // The early return guarded two levels deep is exactly the Finding-2
  // shape: its controlling predicate (line 7) IS in this slice, so
  // Figure 12 keeps it here — but the criterion at line 9's slice shows
  // the general behaviour difference.
  Analysis A = analyzeOk(Search);
  SliceResult Single = *computeSlice(A, Criterion(13, {"found"}),
                                     SliceAlgorithm::Structured);
  EXPECT_TRUE(Single.lineSet(A.cfg()).count(10))
      << "line 7 is in the slice, so property 2's precondition holds";
}

TEST(SearchScenario, SlicesAreBehaviourPreserving) {
  Analysis A = analyzeOk(Search);
  for (unsigned Line : {9u, 13u})
    expectBehaviourPreserved(A, Criterion(Line, {}),
                             SliceAlgorithm::Agrawal,
                             {{7, 1, 2, 7, 9}, {7}, {3, 3, 3}, {}});
}

//===----------------------------------------------------------------------===//
// Scenario 4: retry loop with do-while and guarded break
//===----------------------------------------------------------------------===//

const char *Retry = /* 1*/ "attempts = 0;\n"
                    /* 2*/ "ok = 0;\n"
                    /* 3*/ "do {\n"
                    /* 4*/ "attempts = attempts + 1;\n"
                    /* 5*/ "read(status);\n"
                    /* 6*/ "if (status == 0) {\n"
                    /* 7*/ "ok = 1;\n"
                    /* 8*/ "break;\n"
                    /* 9*/ "}\n"
                    /*10*/ "} while (attempts < 3);\n"
                    /*11*/ "write(ok);\n"
                    /*12*/ "write(attempts);\n";

TEST(RetryScenario, SliceOnOkKeepsBreakAndLoopMachinery) {
  Analysis A = analyzeOk(Retry);
  SliceResult R = *computeSlice(A, Criterion(11, {"ok"}),
                                SliceAlgorithm::Agrawal);
  std::set<unsigned> Lines = R.lineSet(A.cfg());
  // The do-while predicate node carries the `do` keyword's line (3).
  for (unsigned Line : {2u, 3u, 4u, 5u, 6u, 7u, 8u, 11u})
    EXPECT_TRUE(Lines.count(Line)) << "line " << Line << " missing";
  EXPECT_FALSE(Lines.count(12));
  // Line 4 is needed via the do-while condition (attempts < 3), which
  // decides how many times the status check runs.
  EXPECT_TRUE(Lines.count(1));
}

TEST(RetryScenario, AllSoundAlgorithmsAgreeBehaviourally) {
  Analysis A = analyzeOk(Retry);
  for (SliceAlgorithm Algorithm :
       {SliceAlgorithm::Agrawal, SliceAlgorithm::Structured,
        SliceAlgorithm::Conservative, SliceAlgorithm::BallHorwitz,
        SliceAlgorithm::Lyle})
    expectBehaviourPreserved(A, Criterion(11, {"ok"}), Algorithm,
                             {{1, 1, 1}, {0}, {1, 0}, {1, 1, 1, 0}, {}});
}

} // namespace
