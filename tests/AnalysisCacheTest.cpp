//===- tests/AnalysisCacheTest.cpp - Analysis-cache unit tests -------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The content-addressed analysis cache (service/AnalysisCache.h):
/// canonical-key determinism across both generator dialects, the
/// single-flight state machine (exactly one promotion when a leader
/// fails over waiting followers), eviction racing an in-flight hit,
/// quarantine outranking everything, the self-audit's
/// mismatch-invalidation path driven end to end through
/// executeSliceRequest, and the lazy builds: keys of a parsed tree,
/// every-ordinal fault sweeps over a cold Ball–Horwitz request and a
/// first hit, and eight threads racing one artifact's first hit; the
/// full cache's second-sighting admission, and evicted artifacts freed
/// after the cache's mutex is released.
///
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "gen/ProgramGenerator.h"
#include "service/SandboxWorker.h"
#include "slicer/Criterion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <list>
#include <set>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace jslice;

namespace {

Budget bigBudget() {
  Budget B;
  B.MaxSteps = 50000000;
  B.DeadlineMs = 30000;
  return B;
}

std::string keyOf(const std::string &Source) {
  ResourceGuard G(bigBudget());
  std::optional<std::string> K = canonicalProgramKey(Source, G);
  EXPECT_TRUE(K.has_value()) << Source;
  return K ? *K : std::string();
}

std::shared_ptr<AnalysisArtifact> makeArtifact(const std::string &Source) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source, bigBudget());
  EXPECT_TRUE(A.hasValue()) << (A.hasValue() ? "" : A.diags().str());
  auto Art = std::make_shared<AnalysisArtifact>(std::move(*A));
  Art->CostBytes = estimateArtifactCost(*Art, Source);
  return Art;
}

auto farDeadline() {
  return std::chrono::steady_clock::now() + std::chrono::seconds(20);
}

//===----------------------------------------------------------------------===//
// Canonical keys
//===----------------------------------------------------------------------===//

TEST(CanonicalKeyTest, StableAcrossBothDialectsAndRuns) {
  for (bool Gotos : {false, true}) {
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      GenOptions Opts;
      Opts.Seed = Seed;
      Opts.TargetStmts = 40;
      Opts.AllowGotos = Gotos;
      std::string Source = generateProgram(Opts);
      std::string K1 = keyOf(Source);
      std::string K2 = keyOf(Source);
      ASSERT_FALSE(K1.empty());
      EXPECT_EQ(K1, K2) << "seed " << Seed << " gotos " << Gotos;
    }
  }
}

TEST(CanonicalKeyTest, IgnoresIntraLineWhitespace) {
  // Same statements on the same lines, reformatted: one artifact.
  std::string A = "read(a);\nb = a + 1;\nwrite(b);\n";
  std::string B = "read( a ) ;\n  b   =a+ 1 ;\n\twrite(b);\n";
  EXPECT_EQ(keyOf(A), keyOf(B));
}

TEST(CanonicalKeyTest, LineLayoutIsPartOfTheKey) {
  // A blank line shifts every later statement's line number; criteria
  // are (line, vars), so these must NOT share an artifact.
  std::string A = "read(a);\nwrite(a);\n";
  std::string B = "read(a);\n\nwrite(a);\n";
  EXPECT_NE(keyOf(A), keyOf(B));
}

TEST(CanonicalKeyTest, UnparseableProgramHasNoKey) {
  ResourceGuard G(bigBudget());
  EXPECT_FALSE(canonicalProgramKey("x = ;", G).has_value());
}

TEST(CanonicalKeyTest, ParsedTreeKeysLikeItsSource) {
  auto Check = [](const std::string &Source) {
    ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source);
    ASSERT_TRUE(Prog.hasValue()) << Source;
    EXPECT_EQ(canonicalProgramKey(**Prog), keyOf(Source)) << Source;
  };
  for (const PaperExample &E : paperExamples())
    Check(E.Source);
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.TargetStmts = 40;
    Opts.AllowGotos = Seed % 2 == 0;
    Check(generateProgram(Opts));
  }
}

TEST(CanonicalKeyTest, KeyBytesArePinned) {
  // Keys live only in memory, but every process and build must agree on
  // them: a change to what the lexer folds or to the hash must show up
  // here, on purpose.
  EXPECT_EQ(keyOf("read(a);\nb = a + 1;\nwrite(b);\n"), "b9087d979a8c9f2b-16");
  EXPECT_EQ(keyOf("read(x);\nswitch (x) { case 0:\ny = 1;\ndefault:\n"
                  "write(x);\n}\n"),
            "948987c930090520-25");
}

TEST(CanonicalKeyTest, GeneratedProgramsHaveDistinctKeys) {
  std::set<std::string> Keys;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.TargetStmts = 40;
    Opts.AllowGotos = Seed % 2 == 0;
    Keys.insert(keyOf(generateProgram(Opts)));
  }
  EXPECT_EQ(Keys.size(), 200u);
}

TEST(CanonicalKeyTest, CommentsAndSpacingKeepTheKeyLinesDoNot) {
  std::string A = "read(a);\nif (a > 0) b = a; else b = 0;\nwrite(b);\n";
  // Re-spaced within lines, with comments added.
  std::string B = "read( a );  // input\nif(a>0)b=a;else /* c */ b = 0;\n"
                  "  write(b);\n// end\n";
  EXPECT_EQ(keyOf(A), keyOf(B));
  // The same statements, one moved to another line.
  std::string C = "read(a);\nif (a > 0) b = a;\nelse b = 0;\nwrite(b);\n";
  EXPECT_NE(keyOf(A), keyOf(C));
}

TEST(CanonicalKeyTest, RawKeyIsContentAddressed) {
  EXPECT_EQ(rawProgramKey("abc"), rawProgramKey("abc"));
  EXPECT_NE(rawProgramKey("abc"), rawProgramKey("abd"));
  // Length is part of the key material, so a prefix never aliases.
  EXPECT_NE(rawProgramKey("a"), rawProgramKey("a\0a" + std::string(1, 0)));
}

//===----------------------------------------------------------------------===//
// Single flight
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, MissThenPublishThenHit) {
  AnalysisCache C{CacheOptions{}};
  const std::string Src = "read(a);\nwrite(a);\n";
  const std::string K = keyOf(Src);

  AnalysisCache::LookupResult L = C.lookup(K, farDeadline());
  ASSERT_EQ(L.K, AnalysisCache::Outcome::MustBuild);
  C.publish(K, makeArtifact(Src));

  L = C.lookup(K, farDeadline());
  ASSERT_EQ(L.K, AnalysisCache::Outcome::Hit);
  ASSERT_TRUE(L.Artifact);

  CacheStats S = C.stats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Inserts, 1u);
  EXPECT_EQ(S.Entries, 1u);
  EXPECT_GT(S.Bytes, 0u);
}

TEST(AnalysisCacheTest, LeaderFailurePromotesExactlyOneOfTenFollowers) {
  AnalysisCache C{CacheOptions{}};
  const std::string Src = "read(a);\nwrite(a);\n";
  const std::string K = keyOf(Src);

  // Become the leader, then park 10 followers on the slot.
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);

  std::atomic<int> Promoted{0}, Hits{0}, Other{0};
  std::vector<std::thread> Followers;
  for (int I = 0; I < 10; ++I)
    Followers.emplace_back([&] {
      AnalysisCache::LookupResult L = C.lookup(K, farDeadline());
      if (L.K == AnalysisCache::Outcome::MustBuild) {
        ++Promoted;
        // The promoted follower is now the leader; it must finish the
        // build so the other nine get their artifact.
        C.publish(K, makeArtifact(Src));
      } else if (L.K == AnalysisCache::Outcome::Hit) {
        ++Hits;
      } else {
        ++Other;
      }
    });

  // Wait until every follower is actually coalesced on the slot, so
  // buildFailed races against real waiters, not a startup gap.
  while (C.stats().Coalesced < 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  C.buildFailed(K);

  for (std::thread &T : Followers)
    T.join();

  EXPECT_EQ(Promoted.load(), 1);
  EXPECT_EQ(Hits.load(), 9);
  EXPECT_EQ(Other.load(), 0);
  CacheStats S = C.stats();
  EXPECT_EQ(S.Promotions, 1u);
  EXPECT_EQ(S.BuildFailures, 1u);
  EXPECT_EQ(S.Coalesced, 10u);
}

TEST(AnalysisCacheTest, RepeatedFailuresBackTheKeyOff) {
  CacheOptions Opts;
  Opts.MaxBuildFailures = 2;
  Opts.FailureBackoffLookups = 4;
  AnalysisCache C{Opts};
  const std::string K = "k-backoff";

  // Two failed builds with no waiters: the key enters backoff.
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.buildFailed(K);
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.buildFailed(K);

  // During backoff every lookup bypasses (serves cache-less) instead
  // of re-building — a starved budget cannot wedge a hot program.
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::Bypass);
  // Past the backoff window the key may try again.
  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
}

TEST(AnalysisCacheTest, CoalesceTimeoutBypassesAndUnwedgesTheKey) {
  AnalysisCache C{CacheOptions{}};
  const std::string K = "k-timeout";
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);

  // A follower whose deadline passes while the leader is still
  // building serves solo.
  auto Soon = std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  EXPECT_EQ(C.lookup(K, Soon).K, AnalysisCache::Outcome::Bypass);
  EXPECT_EQ(C.stats().CoalesceTimeouts, 1u);

  // Leader fails with no remaining waiters: next lookup retries
  // immediately rather than waiting on a dead slot.
  C.buildFailed(K);
  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
}

//===----------------------------------------------------------------------===//
// Eviction
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, CapacityEvictsLeastRecentlyUsed) {
  CacheOptions Opts;
  Opts.MaxEntries = 2;
  AnalysisCache C{Opts};
  const std::string S1 = "read(a);\nwrite(a);\n";
  const std::string S2 = "read(b);\nwrite(b);\n";
  const std::string S3 = "read(c);\nwrite(c);\n";
  const std::string K1 = keyOf(S1), K2 = keyOf(S2), K3 = keyOf(S3);

  for (const auto &[K, S] : {std::pair{K1, S1}, {K2, S2}}) {
    ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
    C.publish(K, makeArtifact(S));
  }
  // Touch K1 so K2 is the LRU victim.
  ASSERT_EQ(C.lookup(K1, farDeadline()).K, AnalysisCache::Outcome::Hit);

  // The cache is full: K3's first sighting is declined (a miss that
  // publishes nothing), its second builds.
  ASSERT_EQ(C.lookup(K3, farDeadline()).K, AnalysisCache::Outcome::Bypass);
  EXPECT_EQ(C.stats().Declined, 1u);
  EXPECT_EQ(C.stats().Misses, 3u);
  EXPECT_EQ(C.stats().Entries, 2u);
  ASSERT_EQ(C.lookup(K3, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K3, makeArtifact(S3));

  EXPECT_EQ(C.stats().Evictions, 1u);
  EXPECT_EQ(C.stats().Entries, 2u);
  EXPECT_EQ(C.lookup(K1, farDeadline()).K, AnalysisCache::Outcome::Hit);
  // K2 is gone: in the full cache its next lookup is a first sighting.
  EXPECT_EQ(C.lookup(K2, farDeadline()).K, AnalysisCache::Outcome::Bypass);
}

TEST(AnalysisCacheTest, EvictionRacingAHitCannotInvalidateTheReader) {
  AnalysisCache C{CacheOptions{}};
  const std::string Src = "read(a);\nb = a + 1;\nwrite(b);\n";
  const std::string K = keyOf(Src);
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K, makeArtifact(Src));

  AnalysisCache::LookupResult L = C.lookup(K, farDeadline());
  ASSERT_EQ(L.K, AnalysisCache::Outcome::Hit);
  std::shared_ptr<const AnalysisArtifact> Reader = L.Artifact;

  // Watermark eviction drops the entry while the reader still holds
  // the artifact.
  EXPECT_EQ(C.evictToward(0), 1u);
  EXPECT_EQ(C.stats().WatermarkEvictions, 1u);
  EXPECT_EQ(C.stats().Entries, 0u);
  EXPECT_EQ(C.bytes(), 0u);

  // The shared_ptr keeps the artifact alive; a slice through it after
  // the eviction matches a fresh computation exactly.
  ResourceGuard G(bigBudget());
  ErrorOr<ResolvedCriterion> RC =
      resolveCriterion(Reader->A, Criterion(3, {"b"}));
  ASSERT_TRUE(RC.hasValue());
  std::optional<SliceResult> S =
      Reader->BS.sliceShared(*RC, SliceAlgorithm::Agrawal, G);
  ASSERT_TRUE(S.has_value());
  ASSERT_FALSE(G.exhausted());

  ErrorOr<Analysis> Fresh = Analysis::fromSource(Src, bigBudget());
  ASSERT_TRUE(Fresh.hasValue());
  ErrorOr<ResolvedCriterion> FreshRC =
      resolveCriterion(*Fresh, Criterion(3, {"b"}));
  ASSERT_TRUE(FreshRC.hasValue());
  SliceResult Expect = computeSlice(*Fresh, *FreshRC, SliceAlgorithm::Agrawal);
  EXPECT_EQ(S->lineSet(Reader->A.cfg()), Expect.lineSet(Fresh->cfg()));
}

//===----------------------------------------------------------------------===//
// Admission: a full cache admits a key on its second sighting
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, CacheWithRoomBuildsOnTheFirstSighting) {
  CacheOptions Opts;
  Opts.MaxEntries = 2;
  AnalysisCache C{Opts};
  const std::string S1 = "read(a);\nwrite(a);\n";
  const std::string K1 = keyOf(S1), K2 = keyOf("read(b);\nwrite(b);\n");
  ASSERT_EQ(C.lookup(K1, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K1, makeArtifact(S1));
  EXPECT_EQ(C.lookup(K2, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  EXPECT_EQ(C.stats().Declined, 0u);
}

TEST(AnalysisCacheTest, CacheAtItsByteCapCountsAsFull) {
  const std::string S1 = "read(a);\nwrite(a);\n";
  std::shared_ptr<AnalysisArtifact> Art = makeArtifact(S1);
  CacheOptions Opts;
  Opts.MaxBytes = Art->CostBytes;
  AnalysisCache C{Opts};
  const std::string K1 = keyOf(S1), K2 = keyOf("read(b);\nwrite(b);\n");
  ASSERT_EQ(C.lookup(K1, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K1, std::move(Art));
  EXPECT_EQ(C.lookup(K2, farDeadline()).K, AnalysisCache::Outcome::Bypass);
  EXPECT_EQ(C.stats().Declined, 1u);
  EXPECT_EQ(C.lookup(K2, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
}

TEST(AnalysisCacheTest, OneShotScanOfAFullCacheKeepsItsResidentsAndBound) {
  // The doorkeeper is a fixed table inside the cache object: however
  // many keys a scan shows it, the object does not grow.
  static_assert(sizeof(AnalysisCache) <= (40u << 10),
                "the doorkeeper is 32 KiB; the cache object stays fixed");
  CacheOptions Opts;
  Opts.MaxEntries = 8;
  AnalysisCache C{Opts};
  std::shared_ptr<AnalysisArtifact> Art = makeArtifact("read(a);\nwrite(a);\n");
  for (unsigned I = 0; I != Opts.MaxEntries; ++I) {
    std::string K = "resident-" + std::to_string(I);
    ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
    C.publish(K, Art);
  }
  const unsigned Scan = 20000; // Five times the doorkeeper's slots.
  for (unsigned I = 0; I != Scan; ++I)
    ASSERT_EQ(C.lookup("scan-" + std::to_string(I), farDeadline()).K,
              AnalysisCache::Outcome::Bypass);
  CacheStats S = C.stats();
  EXPECT_EQ(S.Declined, Scan);
  EXPECT_EQ(S.Inserts, Opts.MaxEntries);
  EXPECT_EQ(S.Evictions, 0u);
  for (unsigned I = 0; I != Opts.MaxEntries; ++I)
    EXPECT_EQ(C.lookup("resident-" + std::to_string(I), farDeadline()).K,
              AnalysisCache::Outcome::Hit);
}

/// Draws Zipf(\p S) ranks over \p N keys from a fixed xorshift stream:
/// the same sequence on every platform and run.
std::vector<unsigned> zipfStream(unsigned N, double S, unsigned Draws,
                                 uint64_t Seed) {
  std::vector<double> Cdf(N);
  double Sum = 0;
  for (unsigned I = 0; I != N; ++I)
    Cdf[I] = Sum += 1.0 / std::pow(I + 1, S);
  std::vector<unsigned> Out;
  uint64_t X = Seed;
  for (unsigned D = 0; D != Draws; ++D) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    double U = double(X >> 11) / double(1ull << 53) * Sum;
    Out.push_back(unsigned(std::lower_bound(Cdf.begin(), Cdf.end(), U) -
                           Cdf.begin()));
  }
  return Out;
}

/// Hits of a plain LRU of \p Capacity entries over \p Stream.
uint64_t plainLruHits(const std::vector<unsigned> &Stream, size_t Capacity) {
  std::list<unsigned> Lru;
  std::unordered_map<unsigned, std::list<unsigned>::iterator> Where;
  uint64_t Hits = 0;
  for (unsigned K : Stream) {
    auto It = Where.find(K);
    if (It != Where.end()) {
      ++Hits;
      Lru.splice(Lru.begin(), Lru, It->second);
      continue;
    }
    Lru.push_front(K);
    Where[K] = Lru.begin();
    if (Lru.size() > Capacity) {
      Where.erase(Lru.back());
      Lru.pop_back();
    }
  }
  return Hits;
}

TEST(AnalysisCacheTest, AdmissionNeverHitsLessThanPlainLruOnZipfStreams) {
  // One tiny artifact stands in for every program: only the key
  // stream and the admission rule decide hits.
  std::shared_ptr<AnalysisArtifact> Art = makeArtifact("read(a);\nwrite(a);\n");
  for (double S : {0.8, 1.0, 1.2})
    for (unsigned N : {128u, 1024u, 4096u}) {
      std::vector<unsigned> Stream = zipfStream(N, S, 20000, 0x9e3779b97f4a7c15);
      AnalysisCache C{CacheOptions{}};
      for (unsigned K : Stream) {
        std::string Key = "zipf-" + std::to_string(K);
        if (C.lookup(Key, farDeadline()).K == AnalysisCache::Outcome::MustBuild)
          C.publish(Key, Art);
      }
      CacheStats Got = C.stats();
      uint64_t Lru = plainLruHits(Stream, CacheOptions{}.MaxEntries);
      EXPECT_GE(Got.Hits, Lru) << "s " << S << " programs " << N;
      EXPECT_GT(Got.Declined, 0u) << "s " << S << " programs " << N;
    }
}

/// An artifact whose deleter asks the cache for its stats from another
/// thread and waits at most two seconds for the answer. Freed while
/// the cache holds its mutex, the wait times out; the helper thread
/// still finishes once the mutex is released, so a regression fails
/// the test instead of deadlocking it.
struct FreeProbe {
  std::future<CacheStats> Pending;
  bool Freed = false;
  bool StatsAnswered = false;

  std::shared_ptr<const AnalysisArtifact> artifact(AnalysisCache &C) {
    ErrorOr<Analysis> A =
        Analysis::fromSource("read(p);\nwrite(p);\n", bigBudget());
    EXPECT_TRUE(A.hasValue());
    auto *Raw = new AnalysisArtifact(std::move(*A));
    Raw->CostBytes = 1;
    return std::shared_ptr<const AnalysisArtifact>(
        Raw, [this, &C](const AnalysisArtifact *Art) {
          Pending = std::async(std::launch::async, [&C] { return C.stats(); });
          StatsAnswered = Pending.wait_for(std::chrono::seconds(2)) ==
                          std::future_status::ready;
          Freed = true;
          delete Art;
        });
  }
};

TEST(AnalysisCacheTest, EvictedArtifactsAreFreedAfterTheMutexIsReleased) {
  const std::string Other = "read(a);\nwrite(a);\n";
  const std::string KP = "k-probe", KO = keyOf(Other);
  const std::pair<const char *, std::function<void(AnalysisCache &)>>
      Evictions[] = {
          {"capacity eviction in publish",
           [&](AnalysisCache &C) {
             ASSERT_EQ(C.lookup(KO, farDeadline()).K,
                       AnalysisCache::Outcome::Bypass);
             ASSERT_EQ(C.lookup(KO, farDeadline()).K,
                       AnalysisCache::Outcome::MustBuild);
             C.publish(KO, makeArtifact(Other));
           }},
          {"auditMismatch", [&](AnalysisCache &C) { C.auditMismatch(KP); }},
          {"evictToward",
           [](AnalysisCache &C) { EXPECT_EQ(C.evictToward(0), 1u); }},
      };
  for (const auto &[Name, Evict] : Evictions) {
    SCOPED_TRACE(Name);
    FreeProbe P;
    CacheOptions Opts;
    Opts.MaxEntries = 1;
    AnalysisCache C{Opts};
    ASSERT_EQ(C.lookup(KP, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
    C.publish(KP, P.artifact(C));
    Evict(C);
    ASSERT_TRUE(P.Freed);
    EXPECT_TRUE(P.StatsAnswered);
    P.Pending.wait();
  }
}

//===----------------------------------------------------------------------===//
// Execute integration: hit parity and the audit
//===----------------------------------------------------------------------===//

TEST(AnalysisCacheTest, SecondRequestIsServedFromCacheBitIdentically) {
  CacheOptions Opts;
  AnalysisCache C{Opts};
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;

  GenOptions G;
  G.Seed = 7;
  G.TargetStmts = 60;
  G.AllowGotos = true;
  ServiceRequest R;
  R.Id = "c1";
  R.Program = generateProgram(G);
  R.Line = 5;

  ServiceResponse First = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  R.Id = "c2";
  ServiceResponse Second = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);

  ASSERT_EQ(First.Status, Second.Status);
  if (First.Status == ResponseStatus::Ok) {
    EXPECT_FALSE(First.FromCache);
    EXPECT_TRUE(Second.FromCache);
    EXPECT_EQ(First.Lines, Second.Lines);
    EXPECT_EQ(First.ServedTier, Second.ServedTier);
  }
  EXPECT_GE(C.stats().Hits + C.stats().Misses, 2u);
}

TEST(AnalysisCacheTest, DeclinedOneShotsDoNotChurnTheKeyMemo) {
  // The cold stream's shape: 8 repeated programs, one in every 16th
  // slot, among programs seen once. Once the cache is full the one-shots
  // are declined; remembering their keys would fill the raw-key memo
  // and clear it every few hundred requests, so the repeated programs
  // would re-parse before their hits.
  CacheOptions Opts;
  AnalysisCache C{Opts};
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;
  auto Serve = [&](const std::string &Program) {
    ServiceRequest R;
    R.Id = "r";
    R.Program = Program;
    R.Line = 3;
    ASSERT_EQ(executeSliceRequest(R, Cfg, nullptr, nullptr, &C).Status,
              ResponseStatus::Ok);
  };
  unsigned Repeated = 0, MemoMisses = 0, Unique = 0;
  for (unsigned Slot = 0; Repeated != 1000; ++Slot) {
    if (Slot % 16 != 15) {
      Serve("read(a);\nb = a + " + std::to_string(Unique++) +
            ";\nwrite(b);\n");
      continue;
    }
    std::string Program = "read(a);\nc = a * " +
                          std::to_string(Repeated++ % 8) + ";\nwrite(c);\n";
    MemoMisses += !C.canonicalKeyFor(rawProgramKey(Program)).has_value();
    Serve(Program);
  }
  EXPECT_GT(C.stats().Declined, 10000u) << "the one-shots filled the cache";
  RecordProperty("memo_misses", MemoMisses);
  EXPECT_LT(MemoMisses, 20u);
}

TEST(AnalysisCacheTest, DeclinedRequestServesLikeCacheLessAndPublishesNothing) {
  CacheOptions Opts;
  Opts.MaxEntries = 2;
  AnalysisCache C{Opts};
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;

  // Fill both entries with two other programs.
  for (const char *Fill : {"read(a);\nwrite(a);\n", "read(b);\nwrite(b);\n"}) {
    ServiceRequest F;
    F.Id = "fill";
    F.Program = Fill;
    F.Line = 2;
    ASSERT_EQ(executeSliceRequest(F, Cfg, nullptr, nullptr, &C).Status,
              ResponseStatus::Ok);
  }
  ASSERT_EQ(C.stats().Inserts, 2u);

  GenOptions G;
  G.Seed = 7;
  G.TargetStmts = 60;
  G.AllowGotos = true;
  ServiceRequest R;
  R.Id = "d1";
  R.Program = generateProgram(G);
  ErrorOr<Analysis> A = Analysis::fromSource(R.Program, bigBudget());
  ASSERT_TRUE(A.hasValue());
  Criterion Crit = allLineCriteria(*A).back();
  R.Line = Crit.Line;
  R.Vars = Crit.Vars;
  ServiceResponse CacheLess = executeSliceRequest(R, Cfg, nullptr, nullptr,
                                                  /*Cache=*/nullptr);
  ASSERT_EQ(CacheLess.Status, ResponseStatus::Ok);

  ServiceResponse Declined = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  EXPECT_EQ(Declined.str(), CacheLess.str());
  EXPECT_EQ(C.stats().Declined, 1u);
  EXPECT_EQ(C.stats().Inserts, 2u);

  ServiceResponse Admitted = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  EXPECT_FALSE(Admitted.FromCache);
  EXPECT_EQ(Admitted.Lines, CacheLess.Lines);
  EXPECT_EQ(C.stats().Inserts, 3u);
  EXPECT_EQ(C.stats().Evictions, 1u);

  ServiceResponse Hit = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  EXPECT_TRUE(Hit.FromCache);
  EXPECT_EQ(Hit.Lines, CacheLess.Lines);
  EXPECT_EQ(C.stats().Declined, 1u);
}

TEST(AnalysisCacheTest, AuditMismatchInvalidatesAndServesFresh) {
  // Plant a WRONG artifact under P1's key — P2 differs only in which
  // input feeds c, so the criterion resolves in both but the slices
  // differ. This simulates the one corruption the key cannot prevent
  // (a hash collision, a bug): the audit must catch it, invalidate,
  // and serve the freshly recomputed slice.
  const std::string P1 = "read(a);\nread(b);\nc = a;\nwrite(c);\n";
  const std::string P2 = "read(a);\nread(b);\nc = b;\nwrite(c);\n";
  ASSERT_NE(keyOf(P1), keyOf(P2));

  CacheOptions Opts;
  Opts.AuditEvery = 1; // Audit every hit.
  AnalysisCache C{Opts};
  const std::string K = keyOf(P1);
  ASSERT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
  C.publish(K, makeArtifact(P2)); // The lie.

  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;
  ServiceRequest R;
  R.Id = "a1";
  R.Program = P1;
  R.Line = 4;
  R.Vars = {"c"};

  ServiceResponse Resp = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  ASSERT_EQ(Resp.Status, ResponseStatus::Ok);
  EXPECT_TRUE(Resp.FromCache);
  EXPECT_TRUE(Resp.Audited);

  // The served lines are the fresh truth (line 1 feeds c via a; line
  // 2 does not), not the planted artifact's answer.
  ErrorOr<Analysis> A = Analysis::fromSource(P1, bigBudget());
  ASSERT_TRUE(A.hasValue());
  ErrorOr<ResolvedCriterion> RC = resolveCriterion(*A, Criterion(4, {"c"}));
  ASSERT_TRUE(RC.hasValue());
  EXPECT_EQ(Resp.Lines,
            computeSlice(*A, *RC, SliceAlgorithm::Agrawal).lineSet(A->cfg()));

  CacheStats S = C.stats();
  EXPECT_EQ(S.Audits, 1u);
  EXPECT_EQ(S.AuditMismatches, 1u);
  // The poisoned entry is gone: the next lookup rebuilds.
  EXPECT_EQ(C.lookup(K, farDeadline()).K, AnalysisCache::Outcome::MustBuild);
}

TEST(AnalysisCacheTest, CleanAuditLeavesTheEntryAlone) {
  CacheOptions Opts;
  Opts.AuditEvery = 1;
  AnalysisCache C{Opts};
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  Cfg.Cache = Opts;

  ServiceRequest R;
  R.Id = "a1";
  R.Program = "read(a);\nb = a + 1;\nwrite(b);\n";
  R.Line = 3;
  ServiceResponse First = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  ASSERT_EQ(First.Status, ResponseStatus::Ok);
  R.Id = "a2";
  ServiceResponse Second = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  ASSERT_EQ(Second.Status, ResponseStatus::Ok);
  EXPECT_TRUE(Second.FromCache);
  EXPECT_TRUE(Second.Audited);
  EXPECT_EQ(First.Lines, Second.Lines);

  CacheStats S = C.stats();
  EXPECT_EQ(S.Audits, 1u);
  EXPECT_EQ(S.AuditMismatches, 0u);
  EXPECT_EQ(S.Entries, 1u);
}

//===----------------------------------------------------------------------===//
// Lazy builds: parse once, augmented bundle and closures on first use
//===----------------------------------------------------------------------===//

/// A goto program, so Ball–Horwitz's augmented graph differs from the
/// plain one.
ServiceRequest lazyRequest(SliceAlgorithm Algo) {
  const PaperExample &E = paperExample("fig3a");
  ServiceRequest R;
  R.Id = "lazy";
  R.Program = E.Source;
  R.Line = E.Crit.Line;
  R.Vars = E.Crit.Vars;
  R.Algorithm = Algo;
  return R;
}

/// The slice an unlimited, cache-less single-shot run computes.
std::set<unsigned> referenceLines(const ServiceRequest &R) {
  ErrorOr<Analysis> A = Analysis::fromSource(R.Program);
  EXPECT_TRUE(A.hasValue());
  ErrorOr<SliceResult> S =
      computeSlice(*A, Criterion(R.Line, R.Vars), R.Algorithm);
  EXPECT_TRUE(S.hasValue());
  return S->lineSet(A->cfg());
}

ExecConfig lazyConfig() {
  ExecConfig Cfg;
  Cfg.DefaultBudget = bigBudget();
  return Cfg;
}

/// Checkpoints one \p Run passes through.
template <typename Fn> uint64_t countCheckpoints(Fn Run) {
  FaultInjection::resetCount();
  Run();
  return FaultInjection::observedCheckpoints();
}

TEST(LazyBuildFaultTest, ColdBallHorwitzRequestNeverKeepsAPartialBuild) {
  ServiceRequest R = lazyRequest(SliceAlgorithm::BallHorwitz);
  std::set<unsigned> Ref = referenceLines(R);
  ExecConfig Cfg = lazyConfig();
  uint64_t Total = countCheckpoints([&] {
    AnalysisCache C{Cfg.Cache};
    executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
  });
  ASSERT_GT(Total, 100u);

  for (uint64_t At = 1; At <= Total; ++At) {
    AnalysisCache C{Cfg.Cache};
    ServiceResponse Faulted;
    {
      FaultInjection::ScopedArm Arm(At);
      Faulted = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
    }
    if (Faulted.Status == ResponseStatus::Ok && !Faulted.Degraded) {
      EXPECT_EQ(Faulted.Lines, Ref) << "fault at " << At;
    }
    // Whatever the fault left in the cache, the follow-up (served from
    // it or rebuilt) must be the whole slice.
    ServiceResponse Again = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
    ASSERT_EQ(Again.Status, ResponseStatus::Ok) << "fault at " << At;
    EXPECT_FALSE(Again.Degraded) << "fault at " << At;
    EXPECT_EQ(Again.Lines, Ref) << "fault at " << At;
  }
}

TEST(LazyBuildFaultTest, FirstHitNeverKeepsAPartialBuildAndRetries) {
  // The artifact is published by a Figure 7 request, so a Ball–Horwitz
  // first hit builds the augmented bundle and its closures under the
  // hit's guard; a Figure 7 first hit builds the plain closures.
  ExecConfig Cfg = lazyConfig();
  for (SliceAlgorithm Algo :
       {SliceAlgorithm::Agrawal, SliceAlgorithm::BallHorwitz}) {
    ServiceRequest R = lazyRequest(Algo);
    std::set<unsigned> Ref = referenceLines(R);
    auto Publish = [&](AnalysisCache &C) {
      ServiceResponse Cold = executeSliceRequest(
          lazyRequest(SliceAlgorithm::Agrawal), Cfg, nullptr, nullptr, &C);
      ASSERT_EQ(Cold.Status, ResponseStatus::Ok);
      ASSERT_EQ(C.stats().Inserts, 1u);
    };
    uint64_t Total = 0;
    {
      AnalysisCache C{Cfg.Cache};
      Publish(C);
      Total = countCheckpoints(
          [&] { executeSliceRequest(R, Cfg, nullptr, nullptr, &C); });
    }
    ASSERT_GT(Total, 20u);

    for (uint64_t At = 1; At <= Total; ++At) {
      AnalysisCache C{Cfg.Cache};
      Publish(C);
      ServiceResponse Faulted;
      {
        FaultInjection::ScopedArm Arm(At);
        Faulted = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
      }
      if (Faulted.Status == ResponseStatus::Ok && !Faulted.Degraded) {
        EXPECT_EQ(Faulted.Lines, Ref)
            << algorithmName(Algo) << " fault at " << At;
      }
      // The artifact never turns invalid: the next hit retries the
      // build under its own guard and serves from the cache.
      ServiceResponse Again = executeSliceRequest(R, Cfg, nullptr, nullptr, &C);
      ASSERT_EQ(Again.Status, ResponseStatus::Ok);
      EXPECT_TRUE(Again.FromCache) << algorithmName(Algo) << " fault at " << At;
      EXPECT_EQ(Again.Lines, Ref) << algorithmName(Algo) << " fault at " << At;
    }
  }
}

TEST(LazyBuildRaceTest, EightThreadsTakeTheFirstHitOnOneArtifact) {
  GenOptions G;
  G.Seed = 11;
  G.TargetStmts = 80;
  G.AllowGotos = true;
  const std::string Source = generateProgram(G);
  const SliceAlgorithm Algos[] = {
      SliceAlgorithm::Conventional, SliceAlgorithm::Agrawal,
      SliceAlgorithm::AgrawalLst,   SliceAlgorithm::Structured,
      SliceAlgorithm::Conservative, SliceAlgorithm::BallHorwitz,
      SliceAlgorithm::Lyle,         SliceAlgorithm::Gallagher,
      SliceAlgorithm::JiangZhouRobson,
  };
  constexpr unsigned Threads = 8;
  for (SliceAlgorithm Algo : Algos) {
    std::shared_ptr<AnalysisArtifact> Art = makeArtifact(Source);
    std::vector<Criterion> Crits = allLineCriteria(Art->A);
    ASSERT_FALSE(Crits.empty());
    ErrorOr<ResolvedCriterion> RC = resolveCriterion(Art->A, Crits.back());
    ASSERT_TRUE(RC.hasValue());

    std::atomic<unsigned> Ready{0};
    std::vector<std::optional<SliceResult>> Out(Threads);
    std::vector<std::thread> Pool;
    for (unsigned T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        ResourceGuard Guard(bigBudget());
        ++Ready;
        while (Ready.load() != Threads)
          std::this_thread::yield();
        Out[T] = Art->BS.sliceShared(*RC, Algo, Guard);
      });
    for (std::thread &T : Pool)
      T.join();

    ErrorOr<Analysis> Fresh = Analysis::fromSource(Source);
    ASSERT_TRUE(Fresh.hasValue());
    SliceResult Single =
        computeSlice(*Fresh, *resolveCriterion(*Fresh, Crits.back()), Algo);
    for (unsigned T = 0; T != Threads; ++T) {
      ASSERT_TRUE(Out[T].has_value()) << algorithmName(Algo);
      EXPECT_EQ(Out[T]->Nodes, Single.Nodes) << algorithmName(Algo);
      EXPECT_EQ(Out[T]->TraversalAdditions, Out[0]->TraversalAdditions);
    }
  }
}

//===----------------------------------------------------------------------===//
// Stats round trip
//===----------------------------------------------------------------------===//

TEST(CacheStatsTest, JsonRoundTripsAndAccumulates) {
  CacheStats S;
  S.Hits = 3;
  S.Misses = 2;
  S.Declined = 7;
  S.Coalesced = 1;
  S.Promotions = 4;
  S.Evictions = 5;
  S.WatermarkEvictions = 2;
  S.Audits = 8;
  S.AuditMismatches = 1;
  S.Entries = 9;
  S.Bytes = 12345;

  std::optional<CacheStats> Back = CacheStats::fromJson(S.toJson());
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Hits, 3u);
  EXPECT_EQ(Back->Declined, 7u);
  EXPECT_EQ(Back->WatermarkEvictions, 2u);
  EXPECT_EQ(Back->Bytes, 12345u);

  CacheStats Sum;
  Sum.add(*Back);
  Sum.add(*Back);
  EXPECT_EQ(Sum.Hits, 6u);
  EXPECT_EQ(Sum.Declined, 14u);
  EXPECT_EQ(Sum.Entries, 18u);

  EXPECT_FALSE(CacheStats::fromJson(JsonValue(42)).has_value());
}

} // namespace
