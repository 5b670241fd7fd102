//===- tests/LadderTest.cpp - Degradation-ladder soundness --------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The service's precision-degradation ladder may only ever trade
/// precision, never soundness: whatever tier serves, the slice must
/// still project the program's behaviour at the criterion. Line-set
/// supersets are NOT a sufficient check — this repo's Finding 2 shows
/// Figure 13 dropping a `return` the criterion needs (a bigger-looking
/// slice with the wrong behaviour), so every degraded serve here is
/// validated the strong way: the interpreter runs the original and the
/// projected program and must observe the same criterion values.
///
/// Coverage: every paper figure (forced onto a degraded rung by fault
/// injection), a 100-seed generator sweep across both dialects, the
/// Finding-2 gating of the Figure-13 rung, and the budget-window
/// behaviour that makes degradation actually reachable (a cheaper tier
/// serving under the very step budget the requested tier overran).
///
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "gen/ProgramGenerator.h"
#include "interp/Interpreter.h"
#include "service/Ladder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace jslice;

namespace {

/// Deterministic interpreter inputs (shapes mirror the stress harness).
std::vector<std::vector<int64_t>> testInputs() {
  return {{}, {1}, {3, -2}, {0, 5, -7, 2}, {-1, -1, 4, 9, 10}};
}

/// The strong soundness check: the slice's behavioural projection must
/// reproduce the original's criterion values on every input where the
/// original terminates. Returns false only on a genuine divergence.
::testing::AssertionResult projectionSound(const LadderResult &Res,
                                           const Criterion &Crit) {
  if (!Res.Ok || !Res.A)
    return ::testing::AssertionFailure() << "ladder did not serve";
  const Analysis &A = *Res.A;
  if (!A.cfg().unreachableNodes().empty())
    return ::testing::AssertionSuccess(); // Paper assumes no dead code.
  ErrorOr<ResolvedCriterion> RC = resolveCriterion(A, Crit);
  if (!RC)
    return ::testing::AssertionFailure()
           << "criterion no longer resolves: " << RC.diags().str();
  std::set<unsigned> Kept = Res.Result.Nodes;
  Kept.insert(A.cfg().exit());

  for (const std::vector<int64_t> &Input : testInputs()) {
    ExecOptions Exec;
    Exec.Input = Input;
    Exec.MaxSteps = 100000;
    ExecResult Orig = runOriginal(A, RC->Node, RC->VarIds, Exec);
    if (!Orig.Completed)
      continue;
    ExecResult Sliced = runProjection(A, Kept, RC->Node, RC->VarIds, Exec);
    if (!Sliced.Completed || Sliced.CriterionValues != Orig.CriterionValues)
      return ::testing::AssertionFailure()
             << "served tier " << algorithmName(Res.Served)
             << (Res.Degraded ? " (degraded)" : "")
             << " diverges at line " << Crit.Line;
  }
  return ::testing::AssertionSuccess();
}

/// A goto-dense program whose Figure-7 fixpoint iterates enough that
/// its step cost clearly exceeds Lyle's single pass — the shape that
/// opens a budget window where only a degraded tier can serve.
std::string gotoMesh(unsigned N) {
  std::string Out = "read(x);\ns = 0;\n";
  for (unsigned I = 0; I != N; ++I) {
    Out += "L" + std::to_string(I) + ": s = s + x;\n";
    Out += "if (s > " + std::to_string(I) + ") goto L" +
           std::to_string((I * 7 + 3) % N) + ";\n";
  }
  Out += "Lend: write(s);\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Tier sequencing and eligibility
//===----------------------------------------------------------------------===//

TEST(LadderTiersTest, PreciseRequestGetsBothFallbacks) {
  std::vector<SliceAlgorithm> Tiers = ladderTiers(SliceAlgorithm::Agrawal);
  ASSERT_EQ(Tiers.size(), 3u);
  EXPECT_EQ(Tiers[0], SliceAlgorithm::Agrawal);
  EXPECT_EQ(Tiers[1], SliceAlgorithm::Conservative);
  EXPECT_EQ(Tiers[2], SliceAlgorithm::Lyle);
}

TEST(LadderTiersTest, CheapRequestsStartLowerOnTheLadder) {
  std::vector<SliceAlgorithm> FromConservative =
      ladderTiers(SliceAlgorithm::Conservative);
  ASSERT_EQ(FromConservative.size(), 2u);
  EXPECT_EQ(FromConservative[1], SliceAlgorithm::Lyle);

  std::vector<SliceAlgorithm> FromLyle = ladderTiers(SliceAlgorithm::Lyle);
  ASSERT_EQ(FromLyle.size(), 1u);
  EXPECT_EQ(FromLyle[0], SliceAlgorithm::Lyle);
}

TEST(LadderEligibilityTest, StructuredReturnFreeProgramIsEligible) {
  ErrorOr<Analysis> A = Analysis::fromSource("read(a);\n"
                                             "while (a > 0) {\n"
                                             "  a = a - 1;\n"
                                             "}\n"
                                             "write(a);\n");
  ASSERT_TRUE(A.hasValue());
  EXPECT_TRUE(conservativeTierEligible(*A));
}

TEST(LadderEligibilityTest, StructuredGotosStayEligible) {
  // A forward goto whose target is a lexical successor is exactly the
  // "structured jump" Figure 13 was designed for — it must not defeat
  // the rung.
  ErrorOr<Analysis> A = Analysis::fromSource("read(a);\n"
                                             "if (a > 0) goto L;\n"
                                             "a = a + 1;\n"
                                             "L: write(a);\n");
  ASSERT_TRUE(A.hasValue());
  EXPECT_TRUE(conservativeTierEligible(*A));
}

TEST(LadderEligibilityTest, BackwardGotosDefeatTheFigure13Rung) {
  // A backward goto's target is not a lexical successor, so the LST
  // property Figure 13 leans on does not hold and the rung is unsound.
  ErrorOr<Analysis> A = Analysis::fromSource("read(a);\n"
                                             "L: a = a - 1;\n"
                                             "if (a > 0) goto L;\n"
                                             "write(a);\n");
  ASSERT_TRUE(A.hasValue());
  EXPECT_FALSE(conservativeTierEligible(*A));
}

TEST(LadderEligibilityTest, ReturnsDefeatTheFigure13Rung) {
  // Finding 2: `return` violates the paper's Section-4 property 2, so
  // Figures 12/13 can drop a jump the criterion needs even though the
  // program is otherwise structured (tests/FindingsTest.cpp holds the
  // full counterexample).
  ErrorOr<Analysis> A = Analysis::fromSource("read(a);\n"
                                             "if (a > 0) {\n"
                                             "  while (a < 10) {\n"
                                             "    return;\n"
                                             "  }\n"
                                             "}\n"
                                             "write(a);\n");
  ASSERT_TRUE(A.hasValue());
  EXPECT_FALSE(conservativeTierEligible(*A));
}

//===----------------------------------------------------------------------===//
// Ladder behaviour
//===----------------------------------------------------------------------===//

TEST(LadderTest, ServesRequestedTierWhenBudgetAllows) {
  const PaperExample &Ex = paperExample("fig1a");
  LadderOptions Opts;
  LadderResult Res =
      runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
  ASSERT_TRUE(Res.Ok);
  EXPECT_FALSE(Res.Degraded);
  EXPECT_EQ(Res.Served, SliceAlgorithm::Agrawal);
  EXPECT_EQ(Res.Lines, Ex.AgrawalLines);
  ASSERT_EQ(Res.Attempts.size(), 1u);
  EXPECT_TRUE(Res.Attempts.front().Served);
}

TEST(LadderTest, InjectedFaultOnFirstRungDegradesWithFullReport) {
  // Ordinal 1 fails the requested rung's very first checkpoint; the
  // fault fires exactly once, so the retry rungs run clean. fig1a's
  // gotos are structured (targets are lexical successors), so the
  // Figure-13 rung is eligible and serves the degraded request.
  const PaperExample &Ex = paperExample("fig1a");
  FaultInjection::ScopedArm Arm(1);
  LadderOptions Opts;
  LadderResult Res =
      runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
  ASSERT_TRUE(Res.Ok);
  EXPECT_TRUE(Res.Degraded);
  EXPECT_EQ(Res.Served, SliceAlgorithm::Conservative);
  ASSERT_EQ(Res.Attempts.size(), 2u);
  EXPECT_FALSE(Res.Attempts[0].Served);
  EXPECT_NE(Res.Attempts[0].Trip.find("injected fault"), std::string::npos);
  EXPECT_TRUE(Res.Attempts[1].Served);
  EXPECT_TRUE(projectionSound(Res, Ex.Crit));
}

TEST(LadderTest, UnstructuredJumpsSkipTheFigure13RungAndFallToLyle) {
  // A backward goto defeats the Figure-13 eligibility check, so the
  // degraded request must walk past it — with the skip on the record —
  // down to Lyle, which is sound on every exit-reachable program.
  const std::string Source = "read(a);\n"
                             "L: a = a - 1;\n"
                             "if (a > 0) goto L;\n"
                             "write(a);\n";
  const Criterion Crit(4, {"a"});
  FaultInjection::ScopedArm Arm(1);
  LadderOptions Opts;
  LadderResult Res = runLadder(Source, Crit, SliceAlgorithm::Agrawal, Opts);
  ASSERT_TRUE(Res.Ok);
  EXPECT_TRUE(Res.Degraded);
  EXPECT_EQ(Res.Served, SliceAlgorithm::Lyle);
  ASSERT_EQ(Res.Attempts.size(), 3u);
  EXPECT_NE(Res.Attempts[0].Trip.find("injected fault"), std::string::npos);
  EXPECT_TRUE(Res.Attempts[1].Skipped);
  EXPECT_NE(Res.Attempts[1].SkipReason.find("unsound"), std::string::npos);
  EXPECT_TRUE(Res.Attempts[2].Served);
  EXPECT_TRUE(projectionSound(Res, Crit));
}

TEST(LadderTest, DegradeDisabledRefusesInsteadOfFallingBack) {
  const PaperExample &Ex = paperExample("fig1a");
  FaultInjection::ScopedArm Arm(1);
  LadderOptions Opts;
  Opts.Degrade = false;
  LadderResult Res =
      runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_TRUE(Res.Diags.hasKind(DiagKind::ResourceExhausted));
  ASSERT_EQ(Res.Attempts.size(), 1u);
}

TEST(LadderTest, MalformedProgramRefusesOnFirstRung) {
  LadderOptions Opts;
  LadderResult Res = runLadder("while (", Criterion(1, {}),
                               SliceAlgorithm::Agrawal, Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_FALSE(Res.Diags.hasKind(DiagKind::ResourceExhausted));
  // One rung only: syntax errors repeat identically on every tier.
  EXPECT_EQ(Res.Attempts.size(), 1u);
}

TEST(LadderTest, CancellationAbortsWithoutServingCheaperTiers) {
  const PaperExample &Ex = paperExample("fig1a");
  std::atomic<bool> Cancel{true};
  LadderOptions Opts;
  Opts.B.Cancel = &Cancel;
  Opts.B.PollStride = 1;
  LadderResult Res =
      runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_TRUE(Res.Diags.hasKind(DiagKind::ResourceExhausted));
}

TEST(LadderTest, StepWindowServesDegradedUnderTheBudgetThatRefusedFig7) {
  // The window that makes degradation real: measure both tiers' whole-
  // pipeline step cost on a goto-dense program, then hand the ladder a
  // budget between them. Figure 7 must trip, and Lyle must serve under
  // that same budget. The budget covers the whole analysis, so Figure 7
  // trips in its traversal and the Lyle rung resumes a finished
  // analysis, paying only for its own slice under a fresh guard.
  std::string Source = gotoMesh(60);
  Criterion Crit(122, {"s"});

  auto measure = [&](SliceAlgorithm Algo) -> uint64_t {
    LadderOptions Opts;
    LadderResult Res = runLadder(Source, Crit, Algo, Opts);
    EXPECT_TRUE(Res.Ok);
    return Res.Ok ? Res.A->guard().steps() : 0;
  };
  uint64_t LyleCost = measure(SliceAlgorithm::Lyle);
  uint64_t Fig7Cost = measure(SliceAlgorithm::Agrawal);
  ASSERT_GT(Fig7Cost, LyleCost)
      << "mesh no longer separates the tiers; regenerate it larger";

  LadderOptions Opts;
  Opts.B.MaxSteps = LyleCost + (Fig7Cost - LyleCost) / 2;
  LadderResult Res =
      runLadder(Source, Crit, SliceAlgorithm::Agrawal, Opts);
  ASSERT_TRUE(Res.Ok) << Res.Diags.str();
  EXPECT_TRUE(Res.Degraded);
  EXPECT_EQ(Res.Served, SliceAlgorithm::Lyle);
  EXPECT_TRUE(projectionSound(Res, Crit));
}

//===----------------------------------------------------------------------===//
// Resumed stages
//===----------------------------------------------------------------------===//

/// Checkpoints one ladder run passes through, all rungs together.
uint64_t ladderCheckpoints(const PaperExample &Ex, SliceAlgorithm Algo) {
  FaultInjection::resetCount();
  LadderOptions Opts;
  EXPECT_TRUE(runLadder(Ex.Source, Ex.Crit, Algo, Opts).Ok);
  return FaultInjection::observedCheckpoints();
}

TEST(LadderResumeTest, RungZeroTripInAStageBuildsEveryEarlierStageOnce) {
  // fig1a's rung-0 trips are served by the Figure-13 rung. A trip at
  // the first checkpoint of stage s charges rung 0 the stages before s
  // plus that one checkpoint; rung 1 then resumes at s. Across the
  // ladder that is one clean Figure-13 run plus the tripped
  // checkpoint; a rung that rebuilt an earlier stage would add that
  // stage's checkpoints again.
  const PaperExample &Ex = paperExample("fig1a");
  const std::vector<std::string> Stages = {
      "parser.stmt", "cfg.node", "dominators.iterate",
      "reachingdefs.transfer", "controldep.edge"};
  uint64_t ServingRun = ladderCheckpoints(Ex, SliceAlgorithm::Conservative);
  uint64_t Fig7Run = ladderCheckpoints(Ex, SliceAlgorithm::Agrawal);

  // The ordinal of each site's first checkpoint on a Figure-7 rung 0.
  std::map<std::string, uint64_t> FirstOrdinal;
  for (uint64_t K = 1; K <= Fig7Run && FirstOrdinal.size() < Stages.size();
       ++K) {
    FaultInjection::ScopedArm Arm(K);
    LadderOptions Opts;
    runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
    std::string Site = FaultInjection::trippedSite();
    if (std::find(Stages.begin(), Stages.end(), Site) != Stages.end())
      FirstOrdinal.emplace(Site, K);
  }

  uint64_t Previous = 0;
  for (const std::string &Stage : Stages) {
    auto It = FirstOrdinal.find(Stage);
    ASSERT_NE(It, FirstOrdinal.end()) << Stage << " has no checkpoint";
    EXPECT_GT(It->second, Previous) << Stage << " out of pipeline order";
    Previous = It->second;

    FaultInjection::ScopedArm Arm(It->second);
    LadderOptions Opts;
    LadderResult Res =
        runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
    EXPECT_EQ(FaultInjection::trippedSite(), Stage);
    ASSERT_TRUE(Res.Ok) << Stage << ": " << Res.Diags.str();
    EXPECT_EQ(Res.Served, SliceAlgorithm::Conservative) << Stage;
    ASSERT_EQ(Res.Attempts.size(), 2u) << Stage;
    EXPECT_NE(Res.Attempts[0].Trip.find(Stage), std::string::npos);
    EXPECT_EQ(FaultInjection::observedCheckpoints(), ServingRun + 1)
        << "a rung rebuilt a stage before " << Stage;
    EXPECT_TRUE(projectionSound(Res, Ex.Crit)) << Stage;
  }
}

TEST(LadderResumeTest, SlicerTripLeavesTheServingRungOnlyItsSlice) {
  // A rung-0 trip in the Figure-7 traversal leaves a finished analysis:
  // the serving rung's guard charges the Figure-13 slice and nothing
  // else — no parser.stmt, cfg.node, dominators.iterate,
  // reachingdefs.transfer or controldep.* checkpoint.
  const PaperExample &Ex = paperExample("fig1a");
  ErrorOr<Analysis> Built = Analysis::fromSource(Ex.Source);
  ASSERT_TRUE(Built.hasValue());
  uint64_t AnalysisSteps = Built->guard().steps();
  ASSERT_TRUE(computeSlice(*Built, Ex.Crit, SliceAlgorithm::Conservative)
                  .hasValue());
  uint64_t SliceSteps = Built->guard().steps() - AnalysisSteps;

  // Every checkpoint past the analysis belongs to rung 0's slice; find
  // its first traversal checkpoint.
  uint64_t Fig7Run = ladderCheckpoints(Ex, SliceAlgorithm::Agrawal);
  for (uint64_t K = AnalysisSteps + 1; K <= Fig7Run; ++K) {
    FaultInjection::ScopedArm Arm(K);
    LadderOptions Opts;
    LadderResult Res =
        runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
    if (std::string(FaultInjection::trippedSite()) != "slicer.traversal")
      continue;
    ASSERT_TRUE(Res.Ok) << Res.Diags.str();
    EXPECT_TRUE(Res.Degraded);
    EXPECT_EQ(Res.Served, SliceAlgorithm::Conservative);
    EXPECT_NE(Res.Attempts[0].Trip.find("slicer.traversal"),
              std::string::npos);
    EXPECT_EQ(Res.A->guard().steps(), SliceSteps);
    EXPECT_TRUE(projectionSound(Res, Ex.Crit));
    return;
  }
  FAIL() << "rung 0 never reached slicer.traversal";
}

//===----------------------------------------------------------------------===//
// Soundness sweeps
//===----------------------------------------------------------------------===//

TEST(LadderSoundnessTest, EveryPaperFigureSoundOnEveryRung) {
  for (const PaperExample &Ex : paperExamples()) {
    // Precise serve.
    LadderOptions Opts;
    LadderResult Precise =
        runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
    ASSERT_TRUE(Precise.Ok) << Ex.Name << ": " << Precise.Diags.str();
    EXPECT_TRUE(projectionSound(Precise, Ex.Crit)) << Ex.Name;

    // Degraded serve, forced by failing the first rung's first
    // checkpoint. Whatever rung picks the request up must still be
    // behaviour-preserving — this is where a superset check would
    // wave through Finding 2's dropped return.
    FaultInjection::ScopedArm Arm(1);
    LadderResult Degraded =
        runLadder(Ex.Source, Ex.Crit, SliceAlgorithm::Agrawal, Opts);
    ASSERT_TRUE(Degraded.Ok) << Ex.Name << ": " << Degraded.Diags.str();
    EXPECT_TRUE(Degraded.Degraded) << Ex.Name;
    EXPECT_TRUE(projectionSound(Degraded, Ex.Crit)) << Ex.Name;
  }
}

TEST(LadderSoundnessTest, HundredSeedGeneratorSweep) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    GenOptions Gen;
    Gen.Seed = Seed;
    Gen.TargetStmts = 30;
    Gen.AllowGotos = (Seed % 2) == 1;
    std::string Source = generateProgram(Gen);

    ErrorOr<Analysis> Probe = Analysis::fromSource(Source);
    if (!Probe)
      continue;
    std::vector<Criterion> Crits = reachableWriteCriteria(*Probe);
    if (Crits.size() > 2)
      Crits.resize(2);

    for (const Criterion &Crit : Crits) {
      LadderOptions Opts;
      LadderResult Precise =
          runLadder(Source, Crit, SliceAlgorithm::Agrawal, Opts);
      if (Precise.Ok) {
        EXPECT_TRUE(projectionSound(Precise, Crit)) << "seed " << Seed;
      }

      FaultInjection::ScopedArm Arm(1);
      LadderResult Degraded =
          runLadder(Source, Crit, SliceAlgorithm::Agrawal, Opts);
      if (Degraded.Ok) {
        EXPECT_TRUE(projectionSound(Degraded, Crit)) << "seed " << Seed;
      } else {
        // A refusal must be fully accounted: every rung tripped or
        // was skipped, none silently omitted.
        EXPECT_FALSE(Degraded.Attempts.empty()) << "seed " << Seed;
        for (const LadderAttempt &At : Degraded.Attempts)
          EXPECT_FALSE(At.Served) << "seed " << Seed;
      }
    }
  }
}

} // namespace
