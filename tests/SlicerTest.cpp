//===- tests/SlicerTest.cpp - Criterion, printer, and slicer unit tests -------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "ReferenceSlicer.h"
#include "corpus/PaperPrograms.h"
#include "gen/ProgramGenerator.h"
#include "jslice/jslice.h"
#include "slicer/SlicerInternal.h"
#include "support/WorkerPool.h"

#include <gtest/gtest.h>

#include <climits>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>

using namespace jslice;

namespace {

Analysis analyzeOk(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source);
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  return std::move(*A);
}

//===----------------------------------------------------------------------===//
// Criterion resolution
//===----------------------------------------------------------------------===//

TEST(CriterionTest, ResolvesLineAndSeedsReachingDefs) {
  Analysis A = analyzeOk("x = 1;\nx = 2;\ny = 5;\nwrite(x);\n");
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(4, {"x"}));
  EXPECT_EQ(RC.Node, A.cfg().nodesOnLine(4).front());
  // Seeds: the criterion node plus the one reaching definition (line 2;
  // line 1 is killed).
  std::set<unsigned> SeedLines;
  for (unsigned Seed : RC.Seeds)
    SeedLines.insert(A.cfg().node(Seed).S->getLoc().Line);
  EXPECT_EQ(SeedLines, (std::set<unsigned>{2, 4}));
}

TEST(CriterionTest, EmptyVarsDefaultToUsesAtLine) {
  Analysis A = analyzeOk("a = 1;\nb = 2;\nwrite(a + b);\n");
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(3, {}));
  EXPECT_EQ(RC.VarIds.size(), 2u);
}

TEST(CriterionTest, VariableNotUsedAtLineStillSliceable) {
  // Slicing on a variable not mentioned at the criterion line seeds
  // from its reaching definitions only.
  Analysis A = analyzeOk("z = 7;\nwrite(1);\n");
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(2, {"z"}));
  std::set<unsigned> SeedLines;
  for (unsigned Seed : RC.Seeds)
    SeedLines.insert(A.cfg().node(Seed).S->getLoc().Line);
  EXPECT_EQ(SeedLines, (std::set<unsigned>{1, 2}));
}

TEST(CriterionTest, ReportsMissingLine) {
  Analysis A = analyzeOk("write(1);\n");
  ErrorOr<ResolvedCriterion> RC = resolveCriterion(A, Criterion(99, {}));
  ASSERT_FALSE(RC.hasValue());
  EXPECT_NE(RC.diags().diags()[0].Message.find("no statement"),
            std::string::npos);
}

TEST(CriterionTest, ReportsUnknownVariable) {
  Analysis A = analyzeOk("write(1);\n");
  ErrorOr<ResolvedCriterion> RC =
      resolveCriterion(A, Criterion(1, {"phantom"}));
  ASSERT_FALSE(RC.hasValue());
  EXPECT_NE(RC.diags().diags()[0].Message.find("does not occur"),
            std::string::npos);
}

TEST(CriterionTest, LeftmostNodeWinsOnSharedLine) {
  // `if (eof()) goto L;` puts a predicate and a jump on one line; the
  // predicate starts the line and is the criterion statement.
  Analysis A = analyzeOk("if (eof()) goto L;\nwrite(1);\nL: write(2);\n");
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(1, {}));
  EXPECT_EQ(A.cfg().node(RC.Node).Kind, CfgNodeKind::Predicate);
}

//===----------------------------------------------------------------------===//
// Algorithm metadata and dispatch
//===----------------------------------------------------------------------===//

TEST(SlicerTest, AlgorithmNamesAreUnique) {
  std::set<std::string> Names;
  for (SliceAlgorithm Algorithm :
       {SliceAlgorithm::Conventional, SliceAlgorithm::Agrawal,
        SliceAlgorithm::AgrawalLst, SliceAlgorithm::Structured,
        SliceAlgorithm::Conservative, SliceAlgorithm::BallHorwitz,
        SliceAlgorithm::Lyle, SliceAlgorithm::Gallagher,
        SliceAlgorithm::JiangZhouRobson, SliceAlgorithm::Weiser})
    Names.insert(algorithmName(Algorithm));
  EXPECT_EQ(Names.size(), 10u);
}

TEST(SlicerTest, SoundnessFlagsMatchThePaper) {
  EXPECT_FALSE(algorithmIsSound(SliceAlgorithm::Conventional));
  EXPECT_TRUE(algorithmIsSound(SliceAlgorithm::Agrawal));
  EXPECT_TRUE(algorithmIsSound(SliceAlgorithm::BallHorwitz));
  EXPECT_TRUE(algorithmIsSound(SliceAlgorithm::Lyle));
  EXPECT_FALSE(algorithmIsSound(SliceAlgorithm::Gallagher));
  EXPECT_FALSE(algorithmIsSound(SliceAlgorithm::JiangZhouRobson));
  EXPECT_FALSE(algorithmIsSound(SliceAlgorithm::Weiser))
      << "Weiser never includes the jump statements (Section 5)";
}

TEST(SlicerTest, ConvenienceOverloadPropagatesErrors) {
  Analysis A = analyzeOk("write(1);\n");
  ErrorOr<SliceResult> R =
      computeSlice(A, Criterion(55, {}), SliceAlgorithm::Agrawal);
  EXPECT_FALSE(R.hasValue());
}

TEST(SlicerTest, EntryIsAlwaysInTheSlice) {
  Analysis A = analyzeOk(paperExample("fig1a").Source);
  for (SliceAlgorithm Algorithm :
       {SliceAlgorithm::Conventional, SliceAlgorithm::Agrawal,
        SliceAlgorithm::BallHorwitz}) {
    SliceResult R =
        *computeSlice(A, paperExample("fig1a").Crit, Algorithm);
    EXPECT_TRUE(R.contains(A.cfg().entry()))
        << "the dummy predicate (paper's node 0) anchors every slice";
  }
}

TEST(SlicerTest, TraversalCountersOnlySetByFigure7) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  ResolvedCriterion RC = *resolveCriterion(A, paperExample("fig3a").Crit);
  EXPECT_EQ(computeSlice(A, RC, SliceAlgorithm::Conventional).Traversals, 0u);
  SliceResult General = computeSlice(A, RC, SliceAlgorithm::Agrawal);
  EXPECT_EQ(General.ProductiveTraversals, 1u);
  EXPECT_EQ(General.Traversals, 2u) << "one productive + one fixpoint check";
}

TEST(SlicerTest, NearestInSliceMemoTracksAGrowingSlice) {
  // The memo is sound only if every addition starts an epoch and every
  // view starts its own. Grow a slice to half the nodes, one at a time
  // in a seeded order, checking every node's answers against plain
  // walks after each addition; then a new view over an empty slice
  // must not read the stamps the last checks left.
  for (unsigned Seed = 1; Seed <= 12; ++Seed) {
    GenOptions Gen;
    Gen.Seed = Seed;
    Gen.TargetStmts = 50;
    Gen.AllowGotos = Seed % 2 == 0;
    Analysis A = analyzeOk(generateProgram(Gen));
    unsigned N = A.cfg().numNodes(), Exit = A.cfg().exit();
    auto Walk = [&](const std::vector<int> &Parent, unsigned Node,
                    const BitVector &Slice) {
      for (int Cur = Parent[Node]; Cur >= 0; Cur = Parent[Cur])
        if (unsigned(Cur) == Exit || Slice.test(Cur))
          return unsigned(Cur);
      return Exit;
    };
    size_t Wrong = 0;
    auto Check = [&](detail::NearestInSlice &Near, const BitVector &Slice) {
      for (unsigned Node = 0; Node != N; ++Node)
        Wrong += Near.postdom(Node) != Walk(A.pdt().idoms(), Node, Slice) ||
                 Near.lexSucc(Node) != Walk(A.lst().parents(), Node, Slice);
    };
    std::vector<unsigned> Order(N);
    std::iota(Order.begin(), Order.end(), 0u);
    std::shuffle(Order.begin(), Order.end(), std::mt19937(Seed));
    Order.resize(N / 2);
    BitVector Slice(N);
    detail::NearestInSlice Near(A, Slice);
    for (unsigned Node : Order) {
      Check(Near, Slice);
      Slice.set(Node);
      Near.sliceGrew();
    }
    Check(Near, Slice);
    BitVector Empty(N);
    detail::NearestInSlice Fresh(A, Empty);
    Check(Fresh, Empty);
    EXPECT_EQ(Wrong, 0u) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Slice printing (the paper's textual figures)
//===----------------------------------------------------------------------===//

TEST(SlicePrinterTest, PrintsFigure3cWithReassociatedLabel) {
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  SliceResult R = *computeSlice(A, paperExample("fig3a").Crit,
                                SliceAlgorithm::Agrawal);
  std::string Text = printSlice(A, R);
  EXPECT_EQ(Text, "2: positives = 0;\n"
                  "3: L3: if (eof()) {\n"
                  "  3: goto L14;\n"
                  "}\n"
                  "4: read(x);\n"
                  "5: if (x > 0) {\n"
                  "  5: goto L8;\n"
                  "}\n"
                  "7: goto L13;\n"
                  "8: L8: positives = positives + 1;\n"
                  "13: L13: goto L3;\n"
                  "15: L14: write(positives);\n");
}

TEST(SlicePrinterTest, PrintsFigure5cContinueSlice) {
  Analysis A = analyzeOk(paperExample("fig5a").Source);
  SliceResult R = *computeSlice(A, paperExample("fig5a").Crit,
                                SliceAlgorithm::Agrawal);
  std::string Text = printSlice(A, R);
  EXPECT_EQ(Text, "2: positives = 0;\n"
                  "3: while (!eof()) {\n"
                  "  4: read(x);\n"
                  "  5: if (x <= 0) {\n"
                  "    7: continue;\n"
                  "  }\n"
                  "  8: positives = positives + 1;\n"
                  "}\n"
                  "14: write(positives);\n");
}

TEST(SlicePrinterTest, LabelReassociatedToExitPrintsTrailing) {
  // The goto's label lands past every kept statement.
  Analysis A = analyzeOk("read(c);\nif (c > 0) goto L;\nwrite(c);\n"
                         "L: write(9);\n");
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(3, {"c"}));
  SliceResult R = computeSlice(A, RC, SliceAlgorithm::Agrawal);
  ASSERT_TRUE(R.ReassociatedLabels.count("L"));
  EXPECT_EQ(R.ReassociatedLabels.at("L"), A.cfg().exit());
  std::string Text = printSlice(A, R);
  EXPECT_NE(Text.find("L: ;\n"), std::string::npos)
      << "a label re-associated past the program tail prints an empty "
         "statement (a bare `L:` would not re-parse):\n"
      << Text;
}

TEST(SlicePrinterTest, ReassociatedLabelIsNotPrintedTwice) {
  // The goto targets the do-while's *entry* node (the first body
  // statement), which leaves the slice while the do-while itself stays:
  // the label must move to the body's first kept statement and vanish
  // from the `do` line, or the projection defines L twice.
  Analysis A = analyzeOk("n = 5;\n"
                         "i = 0;\n"
                         "if (n > 0) goto L;\n"
                         "i = 9;\n"
                         "L: do {\n"
                         "write(0);\n"
                         "i = i + 1;\n"
                         "} while (i < n);\n"
                         "write(i);\n");
  ResolvedCriterion RC = *resolveCriterion(A, Criterion(9, {"i"}));
  SliceResult R = computeSlice(A, RC, SliceAlgorithm::Agrawal);
  ASSERT_TRUE(R.ReassociatedLabels.count("L"))
      << "label must move: the goto stays but write(0) leaves the slice";
  std::string Text = printSlice(A, R, SlicePrintOptions{false});
  size_t First = Text.find("L: ");
  ASSERT_NE(First, std::string::npos) << Text;
  EXPECT_EQ(Text.find("L: ", First + 1), std::string::npos)
      << "the label's original definition must be suppressed:\n"
      << Text;
  ErrorOr<Analysis> Reparsed = Analysis::fromSource(Text);
  EXPECT_TRUE(Reparsed.hasValue())
      << (Reparsed.hasValue() ? "" : Reparsed.diags().str()) << "\n"
      << Text;
}

TEST(SlicePrinterTest, FuzzCorpusSlicesRoundTripThroughTheParser) {
  // Satellite check: every printed slice of every fuzz-corpus program
  // must re-parse (orphaned or duplicated labels would not). Uses the
  // batch engine, so this also exercises it over the corpus.
  namespace fs = std::filesystem;
  unsigned Printed = 0;
  for (const auto &Entry :
       fs::directory_iterator(fs::path(JSLICE_REPO_ROOT) / "tests/fuzz")) {
    if (Entry.path().extension() != ".mc")
      continue;
    std::ifstream In(Entry.path());
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    ErrorOr<Analysis> A = Analysis::fromSource(Buffer.str());
    if (!A.hasValue())
      continue; // The corpus keeps some intentionally malformed inputs.
    BatchSlicer Batch(*A);
    for (SliceAlgorithm Algorithm :
         {SliceAlgorithm::Agrawal, SliceAlgorithm::AgrawalLst,
          SliceAlgorithm::BallHorwitz, SliceAlgorithm::Lyle}) {
      BatchOptions Opts;
      Opts.Algorithm = Algorithm;
      Opts.Threads = 1;
      for (const BatchEntry &E : Batch.runAll(allLineCriteria(*A), Opts)) {
        if (!E.Ok)
          continue;
        std::string Text = printSlice(*A, E.Result, SlicePrintOptions{false});
        ErrorOr<Analysis> Reparsed = Analysis::fromSource(Text);
        EXPECT_TRUE(Reparsed.hasValue())
            << Entry.path().string() << " / " << algorithmName(Algorithm)
            << " / line " << E.Crit.Line << ":\n"
            << (Reparsed.hasValue() ? "" : Reparsed.diags().str()) << "\n"
            << Text;
        ++Printed;
      }
    }
  }
  EXPECT_GT(Printed, 0u) << "corpus missing? run from the repo root";
}

TEST(SlicePrinterTest, SummaryShowsLineSetAndCount) {
  Analysis A = analyzeOk(paperExample("fig1a").Source);
  SliceResult R = *computeSlice(A, paperExample("fig1a").Crit,
                                SliceAlgorithm::Agrawal);
  EXPECT_EQ(summarizeSlice(A, R), "{2, 3, 4, 5, 7, 12} (6 lines)");
}

TEST(SlicePrinterTest, StmtIdsMatchLineSetGranularity) {
  Analysis A = analyzeOk(paperExample("fig14a").Source);
  SliceResult R = *computeSlice(A, paperExample("fig14a").Crit,
                                SliceAlgorithm::Structured);
  // Four lines {1, 3, 4, 9} -> four statements.
  EXPECT_EQ(R.lineSet(A.cfg()).size(), 4u);
  EXPECT_EQ(R.stmtIds(A.cfg()).size(), 4u);
}

TEST(SlicePrinterTest, SwitchSliceKeepsOnlyContributingClauses) {
  Analysis A = analyzeOk(paperExample("fig14a").Source);
  SliceResult R = *computeSlice(A, paperExample("fig14a").Crit,
                                SliceAlgorithm::Structured);
  std::string Text = printSlice(A, R);
  EXPECT_NE(Text.find("case 1:"), std::string::npos);
  EXPECT_NE(Text.find("case 2:"), std::string::npos);
  EXPECT_EQ(Text.find("case 3:"), std::string::npos)
      << "the empty clause disappears, as in Figure 14-b:\n"
      << Text;
}

//===----------------------------------------------------------------------===//
// Batch slicing engine (SCC condensation + closure cache)
//===----------------------------------------------------------------------===//

const std::vector<SliceAlgorithm> &allAlgorithms() {
  static const std::vector<SliceAlgorithm> All = {
      SliceAlgorithm::Conventional, SliceAlgorithm::Agrawal,
      SliceAlgorithm::AgrawalLst,   SliceAlgorithm::Structured,
      SliceAlgorithm::Conservative, SliceAlgorithm::BallHorwitz,
      SliceAlgorithm::Lyle,         SliceAlgorithm::Gallagher,
      SliceAlgorithm::JiangZhouRobson, SliceAlgorithm::Weiser};
  return All;
}

/// Full SliceResult equality, counters and traces included.
void expectSameResult(const SliceResult &Got, const SliceResult &Want,
                      const std::string &What) {
  EXPECT_EQ(Got.Nodes, Want.Nodes) << What;
  EXPECT_EQ(Got.ReassociatedLabels, Want.ReassociatedLabels) << What;
  EXPECT_EQ(Got.CriterionNode, Want.CriterionNode) << What;
  EXPECT_EQ(Got.Traversals, Want.Traversals) << What;
  EXPECT_EQ(Got.ProductiveTraversals, Want.ProductiveTraversals) << What;
  EXPECT_EQ(Got.TraversalAdditions, Want.TraversalAdditions) << What;
}

TEST(DependenceClosureTest, StraightLineClosureIsPrefixOfDeps) {
  Analysis A = analyzeOk("x = 1;\ny = x;\nwrite(y);\n");
  DependenceClosure Cache(A.pdg(), A.cfg().numNodes());
  ASSERT_TRUE(Cache.valid());
  // write(y) transitively depends on both assignments (and Entry).
  unsigned WriteNode = A.cfg().nodesOnLine(3).front();
  const BitVector &C = Cache.closureOf(WriteNode);
  EXPECT_TRUE(C.test(WriteNode));
  EXPECT_TRUE(C.test(A.cfg().nodesOnLine(1).front()));
  EXPECT_TRUE(C.test(A.cfg().nodesOnLine(2).front()));
  // x = 1 depends on nothing but Entry: its closure is smaller.
  EXPECT_LT(Cache.closureOf(A.cfg().nodesOnLine(1).front()).count(),
            C.count());
}

TEST(DependenceClosureTest, LoopCollapsesIntoOneScc) {
  Analysis A = analyzeOk("i = 0;\nwhile (i < 3) {\ni = i + 1;\n}\nwrite(i);\n");
  DependenceClosure Cache(A.pdg(), A.cfg().numNodes());
  ASSERT_TRUE(Cache.valid());
  // The loop predicate and the increment depend on each other (data
  // dependence i -> i < 3 -> control -> i = i + 1 -> data -> i < 3):
  // one strongly connected component, one shared closure.
  unsigned Pred = A.cfg().nodesOnLine(2).front();
  unsigned Incr = A.cfg().nodesOnLine(3).front();
  EXPECT_EQ(Cache.sccOf(Pred), Cache.sccOf(Incr));
  EXPECT_EQ(&Cache.closureOf(Pred), &Cache.closureOf(Incr));
  EXPECT_LT(Cache.numSccs(), Cache.numNodes());
}

TEST(DependenceClosureTest, GuardExhaustionInvalidatesCache) {
  ErrorOr<Analysis> A = Analysis::fromSource(
      "i = 0;\nwhile (i < 3) {\ni = i + 1;\n}\nwrite(i);\n");
  ASSERT_TRUE(A.hasValue());
  ResourceGuard Tight((Budget{0, 0, /*MaxSteps=*/1, 0}));
  Tight.checkpoint("test.burn"); // Next checkpoint trips.
  DependenceClosure Cache(A->pdg(), A->cfg().numNodes(), &Tight);
  EXPECT_FALSE(Cache.valid());
  EXPECT_TRUE(Tight.exhausted());
}

TEST(DependenceClosureTest, WalkMatchesCacheOnEveryNode) {
  // The two closure sources agree node by node, on the plain and the
  // augmented PDG of every paper figure and 200 generated programs.
  std::vector<std::string> Sources;
  for (const PaperExample &Ex : paperExamples())
    Sources.push_back(Ex.Source);
  for (unsigned Seed = 1; Seed <= 200; ++Seed) {
    GenOptions Gen;
    Gen.Seed = Seed;
    Gen.TargetStmts = 30;
    Gen.AllowGotos = Seed % 2 == 1;
    Sources.push_back(generateProgram(Gen));
  }
  for (const std::string &Source : Sources) {
    Analysis A = analyzeOk(Source);
    unsigned N = A.cfg().numNodes();
    for (PdgView P : {PdgView(A.pdg()), A.augPdg(*A.augmented())}) {
      DependenceClosure Cache(P, N);
      ASSERT_TRUE(Cache.valid());
      for (unsigned Node = 0; Node != N; ++Node) {
        BitVector Walked(N);
        detail::addDependenceClosure(P, Walked, Node);
        EXPECT_EQ(Walked, Cache.closureOf(Node)) << "node " << Node << "\n"
                                                 << Source;
      }
    }
  }
}

TEST(BatchSlicerTest, MatchesSingleShotOnEveryPaperFigure) {
  // The reference slicers against both closure sources: the closure
  // cache (BatchSlicer) and the dependence-graph walk (computeSlice).
  for (const PaperExample &Ex : paperExamples()) {
    Analysis A = analyzeOk(Ex.Source);
    BatchSlicer Batch(A);
    ResolvedCriterion RC = *resolveCriterion(A, Ex.Crit);
    for (SliceAlgorithm Algorithm : allAlgorithms()) {
      SliceResult Ref = reference::computeSlice(A, RC, Algorithm);
      std::string What = Ex.Name + " / " + algorithmName(Algorithm);
      expectSameResult(Batch.slice(RC, Algorithm), Ref, What + " / cache");
      expectSameResult(computeSlice(A, RC, Algorithm), Ref, What + " / walk");
    }
  }
}

TEST(BatchSlicerTest, RunAllCoversEveryLineAndMatchesSingleShot) {
  const PaperExample &Ex = paperExample("fig3a");
  Analysis A = analyzeOk(Ex.Source);
  BatchSlicer Batch(A);
  std::vector<Criterion> Crits = allLineCriteria(A);
  ASSERT_FALSE(Crits.empty());

  for (SliceAlgorithm Algorithm : allAlgorithms()) {
    BatchOptions Opts;
    Opts.Algorithm = Algorithm;
    Opts.Threads = 1;
    std::vector<BatchEntry> Entries = Batch.runAll(Crits, Opts);
    ASSERT_EQ(Entries.size(), Crits.size());
    for (size_t I = 0; I != Entries.size(); ++I) {
      ErrorOr<SliceResult> Single = computeSlice(A, Crits[I], Algorithm);
      ASSERT_EQ(Entries[I].Ok, Single.hasValue());
      if (Entries[I].Ok)
        expectSameResult(Entries[I].Result, *Single,
                         std::string(algorithmName(Algorithm)) + " line " +
                             std::to_string(Crits[I].Line));
    }
  }
}

TEST(BatchSlicerTest, ThreadedRunMatchesSerialRun) {
  // Figure 7's nearest-in-slice memo is per-thread scratch that outlives
  // a criterion and a program. The same four pool threads slice every
  // line of a ~2000-statement unstructured program and then of fig8a
  // (largest first: memo entries sized and stamped for the large CFG
  // carry into the small one), and a threaded runAll does too; every
  // entry must equal a one-thread run's.
  GenOptions Gen;
  Gen.Seed = 11;
  Gen.TargetStmts = 2000;
  Gen.AllowGotos = true;
  Gen.NumVars = 8;
  Analysis Large = analyzeOk(generateProgram(Gen));
  Analysis Small = analyzeOk(paperExample("fig8a").Source);
  ASSERT_GT(Large.cfg().numNodes(), 10 * Small.cfg().numNodes());

  WorkerPool Pool(4);
  for (const Analysis *A : {&Large, &Small}) {
    BatchSlicer Batch(*A);
    std::vector<Criterion> Crits = allLineCriteria(*A);
    BatchOptions Serial;
    Serial.Threads = 1;
    BatchOptions Threaded;
    Threaded.Threads = 4;
    std::vector<BatchEntry> S = Batch.runAll(Crits, Serial);
    std::vector<BatchEntry> T = Batch.runAll(Crits, Threaded);
    std::vector<std::optional<SliceResult>> P(Crits.size());
    for (size_t I = 0; I != Crits.size(); ++I)
      Pool.submit([&, I] {
        ResourceGuard G;
        if (ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, Crits[I]))
          P[I] = Batch.sliceShared(*RC, SliceAlgorithm::Agrawal, G);
      });
    Pool.drain();
    ASSERT_EQ(S.size(), T.size());
    size_t Added = 0;
    for (size_t I = 0; I != S.size(); ++I) {
      std::string What = std::to_string(A->cfg().numNodes()) +
                         "-node program, line " +
                         std::to_string(Crits[I].Line);
      ASSERT_EQ(S[I].Ok, T[I].Ok) << What;
      ASSERT_EQ(S[I].Ok, P[I].has_value()) << What;
      if (!S[I].Ok)
        continue;
      expectSameResult(T[I].Result, S[I].Result, What + " / runAll");
      expectSameResult(*P[I], S[I].Result, What + " / pool");
      for (const std::vector<unsigned> &Pass : S[I].Result.TraversalAdditions)
        Added += Pass.size();
    }
    // Additions invalidate the memo; the comparison must exercise them.
    EXPECT_GT(Added, 0u);
  }
}

TEST(BatchSlicerTest, ExhaustedBudgetDegradesEntriesNotCrashes) {
  const PaperExample &Ex = paperExample("fig3a");
  Budget B;
  B.MaxSteps = 60; // Enough to build the Analysis, not to slice much.
  ErrorOr<Analysis> A = Analysis::fromSource(Ex.Source, B);
  if (!A.hasValue()) {
    EXPECT_TRUE(A.diags().hasKind(DiagKind::ResourceExhausted));
    return; // Budget tripped during analysis; nothing batchable.
  }
  BatchSlicer Batch(*A);
  std::vector<BatchEntry> Entries = Batch.runAll(allLineCriteria(*A));
  for (const BatchEntry &Entry : Entries) {
    if (!Entry.Ok) {
      EXPECT_TRUE(Entry.Diags.hasKind(DiagKind::ResourceExhausted))
          << Entry.Diags.str();
    }
  }
}

TEST(BatchSlicerTest, AllLineCriteriaAscendingAndOnStatementLines) {
  Analysis A = analyzeOk(paperExample("fig1a").Source);
  std::vector<Criterion> Crits = allLineCriteria(A);
  for (size_t I = 1; I < Crits.size(); ++I)
    EXPECT_LT(Crits[I - 1].Line, Crits[I].Line);
  for (const Criterion &Crit : Crits) {
    EXPECT_TRUE(Crit.Vars.empty());
    EXPECT_FALSE(A.cfg().nodesOnLine(Crit.Line).empty());
  }
}

//===----------------------------------------------------------------------===//
// NodeSet (the node set a slice leaves the engine as)
//===----------------------------------------------------------------------===//

NodeSet nodeSetOf(size_t Universe, std::initializer_list<unsigned> Members) {
  BitVector Bits(Universe);
  for (unsigned Node : Members)
    Bits.set(Node);
  return NodeSet(std::move(Bits));
}

std::vector<unsigned> membersOf(const NodeSet &S) {
  return std::vector<unsigned>(S.begin(), S.end());
}

TEST(NodeSetTest, IteratesAscendingAcrossWordBoundaries) {
  // 130 bits: two full words, then a partial one whose last bit is 129.
  NodeSet S = nodeSetOf(130, {129, 64, 0, 63, 1});
  EXPECT_EQ(membersOf(S), (std::vector<unsigned>{0, 1, 63, 64, 129}));
  EXPECT_EQ(S.size(), 5u);
  // Zero words between members, and before the first, are skipped.
  EXPECT_EQ(membersOf(nodeSetOf(300, {299, 130})),
            (std::vector<unsigned>{130, 299}));
  NodeSet None = nodeSetOf(300, {});
  EXPECT_TRUE(None.begin() == None.end());
  EXPECT_TRUE(None.empty());
}

TEST(NodeSetTest, SizeFollowsAMoveAndTheSourceEmpties) {
  NodeSet S = nodeSetOf(100, {3, 70, 99});
  NodeSet Moved = std::move(S);
  EXPECT_EQ(Moved.size(), 3u);
  EXPECT_EQ(membersOf(Moved), (std::vector<unsigned>{3, 70, 99}));
  EXPECT_EQ(S.size(), 0u); // A moved-from set is empty.
  EXPECT_TRUE(S.begin() == S.end());
  EXPECT_EQ(S.count(70), 0u);
  NodeSet Assigned;
  Assigned = std::move(Moved);
  EXPECT_EQ(Assigned.size(), 3u);
  EXPECT_EQ(Moved.size(), 0u);
}

TEST(NodeSetTest, EqualityIsOverMembersNotUniverseSize) {
  EXPECT_EQ(NodeSet(), nodeSetOf(200, {}));
  EXPECT_EQ(nodeSetOf(10, {1, 5}), nodeSetOf(200, {1, 5}));
  EXPECT_NE(nodeSetOf(10, {1, 5}), nodeSetOf(200, {1, 5, 150}));
  EXPECT_NE(nodeSetOf(70, {1, 65}), nodeSetOf(70, {1, 66}));
}

TEST(NodeSetTest, CountOutOfRangeIsZero) {
  NodeSet S = nodeSetOf(64, {0, 63});
  EXPECT_EQ(S.count(63), 1u);
  EXPECT_EQ(S.count(64), 0u);
  EXPECT_EQ(S.count(UINT_MAX), 0u);
  EXPECT_EQ(NodeSet().count(0), 0u);
  EXPECT_FALSE(NodeSet().contains(0));
}

TEST(NodeSetTest, ConversionToStdSetRoundTrips) {
  std::set<unsigned> Want = {0, 63, 64, 127, 128, 190};
  BitVector Bits(191);
  for (unsigned Node : Want)
    Bits.set(Node);
  NodeSet S(std::move(Bits));
  std::set<unsigned> Got = S;
  EXPECT_EQ(Got, Want);
  BitVector Again(191);
  for (unsigned Node : Got)
    Again.set(Node);
  EXPECT_EQ(NodeSet(std::move(Again)), S);
}

TEST(NodeSetTest, RunAllEntryIsTheLineSetPreimage) {
  // Figure 3-a: a statement line's nodes enter and leave a slice
  // together, so the slice is Entry plus every node on its lines.
  Analysis A = analyzeOk(paperExample("fig3a").Source);
  BatchSlicer Batch(A);
  BatchOptions Opts;
  Opts.Threads = 1;
  for (const BatchEntry &E : Batch.runAll(allLineCriteria(A), Opts)) {
    ASSERT_TRUE(E.Ok) << "line " << E.Crit.Line;
    BitVector Preimage(A.cfg().numNodes());
    Preimage.set(A.cfg().entry());
    for (unsigned Line : E.Result.lineSet(A.cfg()))
      for (unsigned Node : A.cfg().nodesOnLine(Line))
        Preimage.set(Node);
    EXPECT_EQ(E.Result.Nodes, NodeSet(std::move(Preimage)))
        << "line " << E.Crit.Line;
  }
}

} // namespace
