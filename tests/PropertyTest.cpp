//===- tests/PropertyTest.cpp - Randomized whole-pipeline properties ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Seeded random programs exercise the paper's claims end to end:
///
///  * behavioural soundness (Weiser's criterion) of every sound
///    algorithm, checked with the projection interpreter on random
///    inputs;
///  * Figure 7 == Ball–Horwitz (the paper's equivalence theorem);
///  * Figure 12 == Figure 7 on structured programs, with exactly one
///    traversal;
///  * Figure 13 ⊇ Figure 12 (conservative but still sound);
///  * structured programs contain no (postdominates, lexically-succeeds)
///    pair (Section 4, property 1), so one traversal always suffices;
///  * slices are monotone supersets of the conventional slice and
///    idempotent under re-slicing.
///
//===----------------------------------------------------------------------===//

#include "ReferenceSlicer.h"
#include "gen/ProgramGenerator.h"
#include "jslice/jslice.h"

#include <gtest/gtest.h>

#include <random>

using namespace jslice;

namespace {

struct Scenario {
  unsigned Seed;
  bool Gotos; // unstructured mode
};

/// Pretty parameter names: "structured_seed7" / "gotos_seed7".
std::string scenarioName(const ::testing::TestParamInfo<Scenario> &Info) {
  return std::string(Info.param.Gotos ? "gotos" : "structured") + "_seed" +
         std::to_string(Info.param.Seed);
}

class SliceProperty : public ::testing::TestWithParam<Scenario> {
protected:
  /// \p ForFigure12 generates without return statements and without
  /// switches — the class where Section 4's properties actually hold.
  /// Returns are multi-level exits and defeat property 2; C's
  /// fall-through switch smuggles an implicit jump past property 1
  /// (witnesses in FindingsTest.cpp).
  Analysis analyze(bool ForFigure12 = false) {
    GenOptions Opts;
    Opts.Seed = GetParam().Seed;
    Opts.TargetStmts = 45;
    Opts.AllowGotos = GetParam().Gotos;
    Opts.AllowReturn = !ForFigure12;
    Opts.AllowSwitch = !ForFigure12;
    Source = generateProgram(Opts);
    ErrorOr<Analysis> A = Analysis::fromSource(Source);
    EXPECT_TRUE(A.hasValue())
        << (A.hasValue() ? "" : A.diags().str()) << "\n"
        << Source;
    return std::move(*A);
  }

  /// The paper's guarantees assume no dead code (see DESIGN.md and
  /// Cfg::unreachableNodes). The generator avoids the trivial cases,
  /// but e.g. `if (c) break; else continue; S` still strands S; skip
  /// those rare programs rather than assert vacuous properties.
  bool skipIfUnreachableCode(const Analysis &A) {
    return !A.cfg().unreachableNodes().empty();
  }

  /// Checks Weiser's criterion behaviourally: for every write criterion
  /// and a handful of random inputs, the slice reproduces the original
  /// sequence of criterion values. Non-terminating runs are skipped.
  void expectBehaviourPreserved(const Analysis &A, SliceAlgorithm Algorithm) {
    std::mt19937_64 Rng(GetParam().Seed * 7919 + 13);
    for (const Criterion &Crit : reachableWriteCriteria(A)) {
      ErrorOr<ResolvedCriterion> RC = resolveCriterion(A, Crit);
      ASSERT_TRUE(RC.hasValue()) << RC.diags().str();
      SliceResult R = computeSlice(A, *RC, Algorithm);
      std::set<unsigned> Kept = R.Nodes;
      Kept.insert(A.cfg().exit());

      for (unsigned Trial = 0; Trial != 4; ++Trial) {
        ExecOptions Opts;
        unsigned Len = static_cast<unsigned>(Rng() % 6);
        for (unsigned I = 0; I != Len; ++I)
          Opts.Input.push_back(static_cast<int64_t>(Rng() % 21) - 10);

        ExecResult Orig = runOriginal(A, RC->Node, RC->VarIds, Opts);
        if (!Orig.Completed)
          continue; // Original diverges; Weiser's criterion is vacuous.
        ExecResult Sliced =
            runProjection(A, Kept, RC->Node, RC->VarIds, Opts);
        ASSERT_TRUE(Sliced.Completed)
            << algorithmName(Algorithm) << " slice diverges\n"
            << Source;
        EXPECT_EQ(Sliced.CriterionValues, Orig.CriterionValues)
            << algorithmName(Algorithm) << " slice changes behaviour\n"
            << "criterion line " << Crit.Line << "\n"
            << Source;
      }
    }
  }

  std::string Source;
};

TEST_P(SliceProperty, AgrawalSliceIsBehaviourPreserving) {
  Analysis A = analyze();
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  expectBehaviourPreserved(A, SliceAlgorithm::Agrawal);
}

TEST_P(SliceProperty, BallHorwitzSliceIsBehaviourPreserving) {
  Analysis A = analyze();
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  expectBehaviourPreserved(A, SliceAlgorithm::BallHorwitz);
}

TEST_P(SliceProperty, LyleSliceIsBehaviourPreserving) {
  Analysis A = analyze();
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  expectBehaviourPreserved(A, SliceAlgorithm::Lyle);
}

TEST_P(SliceProperty, StructuredAndConservativeAreBehaviourPreserving) {
  Analysis A = analyze(/*ForFigure12=*/true);
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  if (!isStructuredProgram(A.cfg(), A.lst()))
    GTEST_SKIP() << "Figures 12/13 are defined for structured programs";
  expectBehaviourPreserved(A, SliceAlgorithm::Structured);
  expectBehaviourPreserved(A, SliceAlgorithm::Conservative);
}

TEST_P(SliceProperty, AgrawalEqualsBallHorwitz) {
  Analysis A = analyze();
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SliceResult Ours = computeSlice(A, RC, SliceAlgorithm::Agrawal);
    SliceResult Baseline = computeSlice(A, RC, SliceAlgorithm::BallHorwitz);
    EXPECT_EQ(Ours.Nodes, Baseline.Nodes)
        << "criterion line " << Crit.Line << "\n"
        << Source;
  }
}

TEST_P(SliceProperty, LstDrivenTraversalGivesSameSlice) {
  Analysis A = analyze();
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    EXPECT_EQ(computeSlice(A, RC, SliceAlgorithm::Agrawal).Nodes,
              computeSlice(A, RC, SliceAlgorithm::AgrawalLst).Nodes)
        << Source;
  }
}

TEST_P(SliceProperty, StructuredProgramProperties) {
  Analysis A = analyze(/*ForFigure12=*/true);
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  if (!isStructuredProgram(A.cfg(), A.lst()))
    GTEST_SKIP() << "needs a structured program";

  // Section 4, property 1: no (N1, N2) with N1 postdominating N2 while
  // N2 lexically succeeds N1.
  for (unsigned N1 = 0; N1 != A.cfg().numNodes(); ++N1) {
    if (!A.pdt().isReachable(N1) || !A.lst().inTree(N1))
      continue;
    for (unsigned N2 = 0; N2 != A.cfg().numNodes(); ++N2) {
      if (N1 == N2 || !A.pdt().isReachable(N2) || !A.lst().inTree(N2))
        continue;
      EXPECT_FALSE(A.pdt().dominates(N1, N2) &&
                   A.lst().isLexicalSuccessorOf(N2, N1))
          << "nodes " << N1 << ", " << N2 << "\n"
          << Source;
    }
  }

  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SliceResult General = computeSlice(A, RC, SliceAlgorithm::Agrawal);
    SliceResult Single = computeSlice(A, RC, SliceAlgorithm::Structured);
    SliceResult Conservative =
        computeSlice(A, RC, SliceAlgorithm::Conservative);

    // Figure 12 == Figure 7 on structured programs.
    EXPECT_EQ(Single.Nodes, General.Nodes) << Source;
    // One productive traversal suffices.
    EXPECT_LE(General.ProductiveTraversals, 1u) << Source;
    // Figure 13 is a superset of Figure 12.
    for (unsigned Node : Single.Nodes)
      EXPECT_TRUE(Conservative.contains(Node)) << Source;
  }
}

TEST_P(SliceProperty, SlicesContainConventionalAndCriterion) {
  Analysis A = analyze();
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SliceResult Conv = computeSlice(A, RC, SliceAlgorithm::Conventional);
    for (SliceAlgorithm Algorithm :
         {SliceAlgorithm::Agrawal, SliceAlgorithm::Conservative,
          SliceAlgorithm::BallHorwitz, SliceAlgorithm::Lyle,
          SliceAlgorithm::Gallagher, SliceAlgorithm::JiangZhouRobson}) {
      SliceResult R = computeSlice(A, RC, Algorithm);
      EXPECT_TRUE(R.contains(RC.Node)) << algorithmName(Algorithm);
      for (unsigned Node : Conv.Nodes)
        EXPECT_TRUE(R.contains(Node))
            << algorithmName(Algorithm) << " dropped a conventional node\n"
            << Source;
    }
  }
}

TEST_P(SliceProperty, AgrawalIsIdempotent) {
  Analysis A = analyze();
  if (skipIfUnreachableCode(A))
    GTEST_SKIP() << "program has dead code";
  for (const Criterion &Crit : reachableWriteCriteria(A)) {
    ResolvedCriterion RC = *resolveCriterion(A, Crit);
    SliceResult First = computeSlice(A, RC, SliceAlgorithm::Agrawal);
    // Re-running with the first slice's nodes as extra seeds must not
    // grow the slice: it is already dependence- and jump-closed.
    ResolvedCriterion Wider = RC;
    Wider.Seeds.assign(First.Nodes.begin(), First.Nodes.end());
    SliceResult Second = computeSlice(A, Wider, SliceAlgorithm::Agrawal);
    EXPECT_EQ(First.Nodes, Second.Nodes) << Source;
  }
}

TEST_P(SliceProperty, BatchEngineMatchesSingleShotSlicers) {
  Analysis A = analyze();
  BatchSlicer Batch(A);
  // Every PDG-based algorithm over every reachable write criterion: the
  // reference slicers must agree with the engine under both closure
  // sources, the cache (BatchSlicer) and the walk (computeSlice) —
  // nodes, labels, and the traversal counters and trace.
  for (SliceAlgorithm Algorithm :
       {SliceAlgorithm::Conventional, SliceAlgorithm::Agrawal,
        SliceAlgorithm::AgrawalLst, SliceAlgorithm::Structured,
        SliceAlgorithm::Conservative, SliceAlgorithm::BallHorwitz,
        SliceAlgorithm::Lyle, SliceAlgorithm::Gallagher,
        SliceAlgorithm::JiangZhouRobson}) {
    for (const Criterion &Crit : reachableWriteCriteria(A)) {
      ResolvedCriterion RC = *resolveCriterion(A, Crit);
      SliceResult Ref = reference::computeSlice(A, RC, Algorithm);
      for (bool Cached : {true, false}) {
        SliceResult Got = Cached ? Batch.slice(RC, Algorithm)
                                 : computeSlice(A, RC, Algorithm);
        std::string What = std::string(algorithmName(Algorithm)) +
                           (Cached ? " / cache" : " / walk") + " line " +
                           std::to_string(Crit.Line) + "\n" + Source;
        EXPECT_EQ(Got.Nodes, Ref.Nodes) << What;
        EXPECT_EQ(Got.ReassociatedLabels, Ref.ReassociatedLabels) << What;
        EXPECT_EQ(Got.Traversals, Ref.Traversals) << What;
        EXPECT_EQ(Got.ProductiveTraversals, Ref.ProductiveTraversals) << What;
        EXPECT_EQ(Got.TraversalAdditions, Ref.TraversalAdditions) << What;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Structured, SliceProperty,
    ::testing::ValuesIn([] {
      std::vector<Scenario> Out;
      for (unsigned Seed = 1; Seed <= 30; ++Seed)
        Out.push_back({Seed, false});
      return Out;
    }()),
    scenarioName);

INSTANTIATE_TEST_SUITE_P(
    Unstructured, SliceProperty,
    ::testing::ValuesIn([] {
      std::vector<Scenario> Out;
      for (unsigned Seed = 101; Seed <= 130; ++Seed)
        Out.push_back({Seed, true});
      return Out;
    }()),
    scenarioName);

} // namespace
