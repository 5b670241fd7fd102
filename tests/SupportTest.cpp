//===- tests/SupportTest.cpp - Support-library unit tests ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"
#include "support/Casting.h"
#include "support/Error.h"
#include "support/LineFramer.h"
#include "support/LogHistogram.h"
#include "support/ResourceGuard.h"
#include "support/StringUtils.h"
#include "support/WorkerPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <random>
#include <thread>

using namespace jslice;

namespace {

//===----------------------------------------------------------------------===//
// BitVector
//===----------------------------------------------------------------------===//

TEST(BitVectorTest, SetTestReset) {
  BitVector BV(130); // Spans three words.
  EXPECT_EQ(BV.size(), 130u);
  EXPECT_FALSE(BV.any());
  BV.set(0);
  BV.set(64);
  BV.set(129);
  EXPECT_TRUE(BV.test(0));
  EXPECT_TRUE(BV.test(64));
  EXPECT_TRUE(BV.test(129));
  EXPECT_FALSE(BV.test(63));
  EXPECT_EQ(BV.count(), 3u);
  BV.reset(64);
  EXPECT_FALSE(BV.test(64));
  EXPECT_EQ(BV.count(), 2u);
}

TEST(BitVectorTest, SetAlgebra) {
  BitVector A(70), B(70);
  A.set(1);
  A.set(65);
  B.set(65);
  B.set(2);

  BitVector Union = A;
  Union |= B;
  EXPECT_EQ(Union.count(), 3u);

  BitVector Inter = A;
  Inter &= B;
  EXPECT_EQ(Inter.count(), 1u);
  EXPECT_TRUE(Inter.test(65));

  BitVector Diff = A;
  Diff.resetOf(B);
  EXPECT_EQ(Diff.count(), 1u);
  EXPECT_TRUE(Diff.test(1));
}

TEST(BitVectorTest, EqualityAndClear) {
  BitVector A(40), B(40);
  A.set(7);
  EXPECT_NE(A, B);
  B.set(7);
  EXPECT_EQ(A, B);
  A.clear();
  EXPECT_FALSE(A.any());
  EXPECT_NE(A, B);
}

TEST(BitVectorTest, ForEachSetBitVisitsInOrder) {
  BitVector BV(200);
  std::vector<size_t> Expected = {3, 64, 127, 128, 199};
  for (size_t Idx : Expected)
    BV.set(Idx);
  std::vector<size_t> Seen;
  BV.forEachSetBit([&](size_t Idx) { Seen.push_back(Idx); });
  EXPECT_EQ(Seen, Expected);
}

//===----------------------------------------------------------------------===//
// Casting
//===----------------------------------------------------------------------===//

struct Animal {
  enum Kind { DogKind, CatKind } K;
  explicit Animal(Kind K) : K(K) {}
};
struct Dog : Animal {
  Dog() : Animal(DogKind) {}
  static bool classof(const Animal *A) { return A->K == DogKind; }
};
struct Cat : Animal {
  Cat() : Animal(CatKind) {}
  static bool classof(const Animal *A) { return A->K == CatKind; }
};

TEST(CastingTest, IsaCastDynCast) {
  Dog D;
  Animal *A = &D;
  EXPECT_TRUE(isa<Dog>(A));
  EXPECT_FALSE(isa<Cat>(A));
  EXPECT_TRUE((isa<Cat, Dog>(A))) << "variadic isa";
  EXPECT_EQ(cast<Dog>(A), &D);
  EXPECT_EQ(dyn_cast<Cat>(A), nullptr);
  EXPECT_EQ(dyn_cast<Dog>(A), &D);
  Animal *Null = nullptr;
  EXPECT_EQ(dyn_cast_if_present<Dog>(Null), nullptr);
}

TEST(CastingTest, ConstOverloads) {
  const Dog D;
  const Animal *A = &D;
  EXPECT_EQ(cast<Dog>(A), &D);
  EXPECT_EQ(dyn_cast<Dog>(A), &D);
}

//===----------------------------------------------------------------------===//
// Error plumbing
//===----------------------------------------------------------------------===//

TEST(ErrorTest, SuccessAndFailureStates) {
  ErrorOr<int> Ok(42);
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_EQ(*Ok, 42);

  DiagList Diags;
  Diags.report(SourceLoc(3, 7), "something bad");
  ErrorOr<int> Bad(std::move(Diags));
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_EQ(Bad.diags().size(), 1u);
  EXPECT_EQ(Bad.diags().diags()[0].str(), "3:7: error: something bad");
}

TEST(ErrorTest, SingleDiagConstructor) {
  ErrorOr<int> Bad(Diag(SourceLoc(1, 1), "oops"));
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_NE(Bad.diags().str().find("oops"), std::string::npos);
}

TEST(ErrorTest, SourceLocFormatting) {
  EXPECT_EQ(SourceLoc().str(), "<unknown>");
  EXPECT_EQ(SourceLoc(12, 3).str(), "12:3");
  EXPECT_TRUE(SourceLoc(1, 1) < SourceLoc(1, 2));
  EXPECT_TRUE(SourceLoc(1, 9) < SourceLoc(2, 1));
}

//===----------------------------------------------------------------------===//
// ResourceGuard poll stride and cancellation
//===----------------------------------------------------------------------===//

TEST(PollStrideTest, EffectiveStrideRoundsUpToAPowerOfTwo) {
  Budget B;
  EXPECT_EQ(B.effectivePollStride(), Budget::DefaultPollStride);
  B.PollStride = 1;
  EXPECT_EQ(B.effectivePollStride(), 1u);
  B.PollStride = 3;
  EXPECT_EQ(B.effectivePollStride(), 4u);
  B.PollStride = 16;
  EXPECT_EQ(B.effectivePollStride(), 16u);
  B.PollStride = 257;
  EXPECT_EQ(B.effectivePollStride(), 512u);
}

TEST(PollStrideTest, DefaultStrideDefersTheDeadlineToThePollBoundary) {
  // The deadline has long passed, but with the default 256 stride the
  // guard must not look at the clock until checkpoint 256 — the
  // documented overshoot window that motivates Budget::PollStride.
  Budget B;
  B.DeadlineMs = 1;
  ResourceGuard G(B);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  for (unsigned I = 0; I != 255; ++I)
    ASSERT_TRUE(G.checkpoint("test.site")) << "checkpoint " << I;
  EXPECT_FALSE(G.checkpoint("test.site"));
  EXPECT_EQ(G.reason(), "deadline exceeded at test.site");
}

TEST(PollStrideTest, StrideOnePollsEveryCheckpoint) {
  Budget B;
  B.DeadlineMs = 1;
  B.PollStride = 1;
  ResourceGuard G(B);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(G.checkpoint("test.site"));
  EXPECT_EQ(G.reason(), "deadline exceeded at test.site");
}

TEST(PollStrideTest, CancellationTripsAtTheNextPoll) {
  std::atomic<bool> Cancel{false};
  Budget B;
  B.PollStride = 1;
  B.Cancel = &Cancel;
  ResourceGuard G(B);
  EXPECT_TRUE(G.checkpoint("test.site"));
  Cancel.store(true);
  EXPECT_FALSE(G.checkpoint("test.site"));
  EXPECT_EQ(G.reason(), "cancelled at test.site");
}

TEST(PollStrideTest, GuardLatchesAfterTheFirstTrip) {
  std::atomic<bool> Cancel{true};
  Budget B;
  B.PollStride = 1;
  B.Cancel = &Cancel;
  ResourceGuard G(B);
  EXPECT_FALSE(G.checkpoint("test.site"));
  Cancel.store(false); // Un-cancelling must not revive the pipeline.
  EXPECT_FALSE(G.checkpoint("test.site"));
  EXPECT_TRUE(G.exhausted());
}

//===----------------------------------------------------------------------===//
// WorkerPool
//===----------------------------------------------------------------------===//

TEST(WorkerPoolTest, DrainBarriersOnSubmittedTasks) {
  WorkerPool Pool(4);
  EXPECT_EQ(Pool.threads(), 4u);
  std::atomic<unsigned> Done{0};
  for (unsigned I = 0; I != 64; ++I)
    Pool.submit([&Done] { ++Done; });
  Pool.drain();
  EXPECT_EQ(Done.load(), 64u);
  // The pool survives a drain; a second wave still runs.
  Pool.submit([&Done] { ++Done; });
  Pool.drain();
  EXPECT_EQ(Done.load(), 65u);
}

TEST(WorkerPoolTest, ParallelForCoversTheIndexSpaceExactlyOnce) {
  std::vector<std::atomic<unsigned>> Hits(101);
  WorkerPool::parallelFor(4, Hits.size(),
                          [&Hits](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << "index " << I;
  // The inline (Threads <= 1) path covers the same contract.
  WorkerPool::parallelFor(1, Hits.size(), [&Hits](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 2u) << "index " << I;
}

//===----------------------------------------------------------------------===//
// String utilities
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, " | "), "a | b | c");
}

TEST(StringUtilsTest, FormatLineSet) {
  EXPECT_EQ(formatLineSet({}), "{}");
  EXPECT_EQ(formatLineSet({3, 1, 2}), "{1, 2, 3}");
}

TEST(StringUtilsTest, SplitLines) {
  EXPECT_EQ(splitLines("a\nb\n"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(splitLines("a\nb"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(splitLines(""), (std::vector<std::string>{}));
  EXPECT_EQ(splitLines("\n\n"), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilsTest, Indent) {
  EXPECT_EQ(indent(0), "");
  EXPECT_EQ(indent(3), "      ");
}

TEST(StringUtilsTest, ParseCountIsStrictAndRangeChecked) {
  EXPECT_EQ(parseCount("0"), 0u);
  EXPECT_EQ(parseCount("42"), 42u);
  EXPECT_EQ(parseCount("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parseCount("18446744073709551616")); // Overflow.
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10"})
    EXPECT_FALSE(parseCount(Bad)) << Bad;
  EXPECT_EQ(parseCount("1024", 1024), 1024u);
  EXPECT_FALSE(parseCount("1025", 1024));
  EXPECT_EQ(parseCount("1", 1), 1u);
  EXPECT_FALSE(parseCount("7", 5)); // One digit past a one-digit cap.

  // Narrowing fields reject what they cannot hold instead of wrapping
  // (4294967296 into an unsigned would otherwise read as 0).
  unsigned U = 7;
  EXPECT_FALSE(parseCountInto("4294967296", U));
  EXPECT_EQ(U, 7u);
  EXPECT_TRUE(parseCountInto("4294967295", U));
  EXPECT_EQ(U, UINT_MAX);
  int I = -1;
  EXPECT_FALSE(parseCountInto("2147483648", I));
  EXPECT_TRUE(parseCountInto("2147483647", I));
  EXPECT_EQ(I, INT_MAX);
  uint64_t W = 0;
  EXPECT_TRUE(parseCountInto("4294967296", W));
  EXPECT_EQ(W, 4294967296u);
}

//===----------------------------------------------------------------------===//
// LineFramer
//===----------------------------------------------------------------------===//

/// Every frame the framer yields, "!" standing for an Oversized report.
std::vector<std::string> drain(LineFramer &F) {
  std::vector<std::string> Out;
  while (std::optional<LineFramer::Frame> Fr = F.next())
    Out.push_back(Fr->Oversized ? "!" : std::string(Fr->Line));
  return Out;
}

std::vector<std::string> feedAll(LineFramer &F, const std::string &Bytes) {
  F.feed(Bytes.data(), Bytes.size());
  return drain(F);
}

using Lines = std::vector<std::string>;

TEST(LineFramerTest, CutsLinesAndPassesBlankAndCrThrough) {
  LineFramer F;
  EXPECT_EQ(feedAll(F, "a\r\n\nbc\n"), (Lines{"a\r", "", "bc"}));
  EXPECT_FALSE(F.midLine());
  EXPECT_EQ(feedAll(F, "de"), Lines{});
  EXPECT_TRUE(F.midLine());
  EXPECT_EQ(F.buffered(), 2u);
  EXPECT_EQ(feedAll(F, "f\ng"), Lines{"def"});
  EXPECT_EQ(F.buffered(), 1u);
}

TEST(LineFramerTest, CapIsInclusive) {
  LineFramer AtCap(4);
  EXPECT_EQ(feedAll(AtCap, "abcd\n"), Lines{"abcd"});
  EXPECT_EQ(feedAll(AtCap, "abcd"), Lines{}); // Unterminated, at cap.
  EXPECT_FALSE(AtCap.discarding());
  EXPECT_EQ(feedAll(AtCap, "\n"), Lines{"abcd"});

  LineFramer PastCap(4);
  EXPECT_EQ(feedAll(PastCap, "abcde\n"), Lines{"!"});
  EXPECT_EQ(feedAll(PastCap, "abcde"), Lines{"!"}); // Known before '\n'.
  EXPECT_TRUE(PastCap.discarding());
  EXPECT_EQ(PastCap.buffered(), 0u);
}

TEST(LineFramerTest, OversizedLineCompletingInOneFeedThenAGoodLine) {
  LineFramer F(8);
  EXPECT_EQ(feedAll(F, std::string(20, 'z') + "\nok\n"), (Lines{"!", "ok"}));
  EXPECT_FALSE(F.discarding());
  EXPECT_FALSE(F.midLine());
}

TEST(LineFramerTest, OversizedLineIsReportedOnceAndTheNextLineServed) {
  LineFramer F(8);
  EXPECT_EQ(feedAll(F, std::string(9, 'z')), Lines{"!"});
  EXPECT_EQ(feedAll(F, std::string(100, 'z')), Lines{});
  EXPECT_EQ(feedAll(F, "zz\ngood\n"), Lines{"good"});
}

TEST(LineFramerTest, NewlineFreeFloodStaysBounded) {
  const uint64_t Cap = 1024;
  const std::string Chunk(64 << 10, 'z');
  LineFramer F(Cap);
  size_t MaxHeld = 0;
  unsigned Reports = 0;
  for (int I = 0; I != 256; ++I) { // 16 MiB, no newline.
    F.feed(Chunk.data(), Chunk.size());
    MaxHeld = std::max(MaxHeld, F.buffered());
    for (const std::string &L : drain(F))
      Reports += L == "!";
    EXPECT_EQ(F.buffered(), 0u);
    EXPECT_TRUE(F.midLine());
  }
  EXPECT_EQ(Reports, 1u);
  EXPECT_LE(MaxHeld, Cap + Chunk.size());
  EXPECT_EQ(feedAll(F, "\nnext\n"), Lines{"next"});
}

TEST(LineFramerTest, EndOfStream) {
  LineFramer MidLine(8);
  EXPECT_EQ(feedAll(MidLine, "a\ntail"), Lines{"a"});
  MidLine.finish();
  EXPECT_EQ(drain(MidLine), Lines{"tail"});
  EXPECT_TRUE(MidLine.eof());
  EXPECT_FALSE(MidLine.midLine());

  LineFramer MidDiscard(8);
  EXPECT_EQ(feedAll(MidDiscard, std::string(12, 'z')), Lines{"!"});
  MidDiscard.finish();
  EXPECT_EQ(drain(MidDiscard), Lines{});

  LineFramer Empty;
  EXPECT_EQ(feedAll(Empty, "a\n"), Lines{"a"});
  Empty.finish();
  EXPECT_EQ(drain(Empty), Lines{});
}

TEST(LineFramerTest, ConsumerCanStopBetweenLines) {
  LineFramer F;
  F.feed("one\ntwo\nthr", 11);
  std::optional<LineFramer::Frame> First = F.next();
  ASSERT_TRUE(First);
  EXPECT_EQ(First->Line, "one");
  EXPECT_EQ(F.buffered(), 7u); // "two\nthr" stays put.
  F.feed("ee\n", 3);
  EXPECT_EQ(drain(F), (Lines{"two", "three"}));
}

TEST(LineFramerTest, ChunkingDoesNotChangeTheFrames) {
  // One stream mixing short lines, blank lines, lines exactly at and
  // one past the cap, long refused lines and an unterminated tail: any
  // chunking must yield the same frames as feeding it whole.
  const uint64_t Cap = 16;
  std::string Stream;
  std::mt19937 Rng(7);
  for (int I = 0; I != 200; ++I) {
    size_t Len = std::uniform_int_distribution<size_t>(0, 3)(Rng) == 0
                     ? std::uniform_int_distribution<size_t>(0, 80)(Rng)
                     : std::uniform_int_distribution<size_t>(0, 18)(Rng);
    Stream += std::string(Len, static_cast<char>('a' + I % 26)) + "\n";
  }
  Stream += std::string(Cap, 't');

  auto Frames = [&](const std::vector<size_t> &Cuts) {
    LineFramer F(Cap);
    Lines Out;
    size_t Pos = 0;
    for (size_t Cut : Cuts) {
      F.feed(Stream.data() + Pos, Cut - Pos);
      Pos = Cut;
      for (std::string &L : drain(F))
        Out.push_back(std::move(L));
    }
    F.feed(Stream.data() + Pos, Stream.size() - Pos);
    F.finish();
    for (std::string &L : drain(F))
      Out.push_back(std::move(L));
    return Out;
  };

  Lines Whole = Frames({});
  ASSERT_GT(std::count(Whole.begin(), Whole.end(), "!"), 0);
  EXPECT_EQ(Whole.back(), std::string(Cap, 't'));
  std::vector<size_t> Bytewise;
  for (size_t I = 1; I < Stream.size(); ++I)
    Bytewise.push_back(I);
  EXPECT_EQ(Frames(Bytewise), Whole);
  for (int Trial = 0; Trial != 50; ++Trial) {
    std::vector<size_t> Cuts;
    for (size_t Pos = 0;;) {
      Pos += std::uniform_int_distribution<size_t>(1, 40)(Rng);
      if (Pos >= Stream.size())
        break;
      Cuts.push_back(Pos);
    }
    EXPECT_EQ(Frames(Cuts), Whole) << "trial " << Trial;
  }
}

//===----------------------------------------------------------------------===//
// LogHistogram
//===----------------------------------------------------------------------===//

/// Every percentile the server reports (and a few more) against the
/// exact sample of the same rank: within 1/32, exact below 32.
void expectPercentilesWithinBound(std::vector<uint64_t> Samples) {
  LogHistogram H;
  for (uint64_t V : Samples)
    H.record(V);
  ASSERT_EQ(H.count(), Samples.size());
  std::sort(Samples.begin(), Samples.end());
  for (unsigned Pct : {0u, 1u, 25u, 50u, 90u, 95u, 99u, 100u}) {
    size_t Rank = std::min(Samples.size() - 1, Samples.size() * Pct / 100);
    double Exact = static_cast<double>(Samples[Rank]);
    double Got = H.percentile(Pct);
    if (Exact < 2 * LogHistogram::Sub)
      EXPECT_EQ(Got, Exact) << "p" << Pct;
    else
      EXPECT_LE(std::abs(Got - Exact), Exact / 32) << "p" << Pct;
  }
}

TEST(LogHistogramTest, PercentilesOfKnownDistributionsStayWithinBound) {
  std::mt19937_64 Rng(11);
  std::vector<uint64_t> Uniform, Exponential, Small, Spread;
  for (int I = 0; I != 20000; ++I) {
    Uniform.push_back(std::uniform_int_distribution<uint64_t>(0, 100000)(Rng));
    Exponential.push_back(static_cast<uint64_t>(
        std::exponential_distribution<double>(1.0 / 3000)(Rng)));
    Small.push_back(std::uniform_int_distribution<uint64_t>(0, 31)(Rng));
    // Log-uniform over the whole 64-bit range.
    Spread.push_back(Rng() >> std::uniform_int_distribution<int>(0, 63)(Rng));
  }
  expectPercentilesWithinBound(Uniform);
  expectPercentilesWithinBound(Exponential);
  expectPercentilesWithinBound(Small);
  expectPercentilesWithinBound(Spread);
  expectPercentilesWithinBound(std::vector<uint64_t>(7, 123456));
  expectPercentilesWithinBound({UINT64_MAX, 0, 1ull << 63, 31, 32, 33});
}

TEST(LogHistogramTest, EveryOctaveBoundaryStaysWithinBound) {
  for (unsigned Bit = 0; Bit != 64; ++Bit) {
    uint64_t V = uint64_t(1) << Bit;
    expectPercentilesWithinBound({V - 1});
    expectPercentilesWithinBound({V});
    expectPercentilesWithinBound({V + 1});
  }
}

TEST(LogHistogramTest, EmptyAndFixedSize) {
  LogHistogram H;
  EXPECT_EQ(H.percentile(50), 0);
  for (uint64_t V = 0; V != 100000; ++V)
    H.record(V * 7919);
  // A million samples or none: the histogram is the same object.
  static_assert(sizeof(LogHistogram) ==
                (LogHistogram::NumBuckets + 1) * sizeof(uint64_t));
  EXPECT_EQ(H.count(), 100000u);
}

} // namespace
