//===- service/AnalysisCache.cpp - Cross-request analysis cache ------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/AnalysisCache.h"

#include "lang/Parser.h"

#include <cstdio>

using namespace jslice;

//===----------------------------------------------------------------------===//
// Keys and costs
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a, 64-bit: a fixed function of the bytes, unlike std::hash, so
/// keys are the same in every process and build (tests pin them).
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string formatKey(uint64_t Hash, uint64_t Length) {
  char Buf[16 + 1 + 20 + 1];
  std::snprintf(Buf, sizeof(Buf), "%016llx-%llu",
                static_cast<unsigned long long>(Hash),
                static_cast<unsigned long long>(Length));
  return Buf;
}

} // namespace

std::string jslice::rawProgramKey(const std::string &Source) {
  return formatKey(fnv1a(Source), Source.size());
}

std::string jslice::canonicalProgramKey(const Program &Prog) {
  const TokenStreamKey &K = Prog.tokenKey();
  return formatKey(K.hash(), K.numTokens());
}

std::optional<std::string>
jslice::canonicalProgramKey(const std::string &Source, ResourceGuard &G) {
  if (!G.checkpoint("cache.key"))
    return std::nullopt;
  ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source, G);
  if (!Prog || G.exhausted())
    return std::nullopt;
  return canonicalProgramKey(**Prog);
}

uint64_t jslice::estimateArtifactCost(const AnalysisArtifact &Art,
                                      const std::string &Source) {
  uint64_t Nodes = Art.A.cfg().numNodes();
  uint64_t Cost = Source.size();
  // AST + CFG + trees + def/use + PDG adjacency, per node (measured
  // order of magnitude on generator output; precision matters less
  // than monotonicity here).
  Cost += Nodes * 256;
  // The closure bitsets dominate for dependence-dense programs: at
  // most one bitset of numNodes bits per node (one per SCC once
  // built). Charged before the first hit builds them.
  Cost += Nodes * ((Nodes + 7) / 8);
  return Cost;
}

//===----------------------------------------------------------------------===//
// CacheStats
//===----------------------------------------------------------------------===//

JsonValue CacheStats::toJson() const {
  JsonValue Out = JsonValue::object();
  Out.set("hits", Hits);
  Out.set("misses", Misses);
  Out.set("declined", Declined);
  Out.set("coalesced", Coalesced);
  Out.set("coalesce_timeouts", CoalesceTimeouts);
  Out.set("promotions", Promotions);
  Out.set("inserts", Inserts);
  Out.set("evictions", Evictions);
  Out.set("watermark_evictions", WatermarkEvictions);
  Out.set("build_failures", BuildFailures);
  Out.set("audits", Audits);
  Out.set("audit_mismatches", AuditMismatches);
  Out.set("entries", Entries);
  Out.set("bytes", Bytes);
  return Out;
}

void CacheStats::add(const CacheStats &O) {
  Hits += O.Hits;
  Misses += O.Misses;
  Declined += O.Declined;
  Coalesced += O.Coalesced;
  CoalesceTimeouts += O.CoalesceTimeouts;
  Promotions += O.Promotions;
  Inserts += O.Inserts;
  Evictions += O.Evictions;
  WatermarkEvictions += O.WatermarkEvictions;
  BuildFailures += O.BuildFailures;
  Audits += O.Audits;
  AuditMismatches += O.AuditMismatches;
  Entries += O.Entries;
  Bytes += O.Bytes;
}

std::optional<CacheStats> CacheStats::fromJson(const JsonValue &V) {
  if (!V.isObject())
    return std::nullopt;
  CacheStats S;
  auto Read = [&](const char *Key, uint64_t &Out) {
    if (const JsonValue *F = V.find(Key))
      if (F->isNumber() && F->asInt() >= 0)
        Out = static_cast<uint64_t>(F->asInt());
  };
  Read("hits", S.Hits);
  Read("misses", S.Misses);
  Read("declined", S.Declined);
  Read("coalesced", S.Coalesced);
  Read("coalesce_timeouts", S.CoalesceTimeouts);
  Read("promotions", S.Promotions);
  Read("inserts", S.Inserts);
  Read("evictions", S.Evictions);
  Read("watermark_evictions", S.WatermarkEvictions);
  Read("build_failures", S.BuildFailures);
  Read("audits", S.Audits);
  Read("audit_mismatches", S.AuditMismatches);
  Read("entries", S.Entries);
  Read("bytes", S.Bytes);
  return S;
}

//===----------------------------------------------------------------------===//
// AnalysisCache
//===----------------------------------------------------------------------===//

AnalysisCache::AnalysisCache(const CacheOptions &Opts)
    : Opts(Opts), AuditRng(Opts.AuditSeed ? Opts.AuditSeed : 1) {
  if (this->Opts.MaxEntries == 0)
    this->Opts.MaxEntries = 1;
  if (this->Opts.MaxBuildFailures == 0)
    this->Opts.MaxBuildFailures = 1;
}

AnalysisCache::LookupResult
AnalysisCache::lookup(const std::string &Key,
                      std::chrono::steady_clock::time_point Deadline) {
  std::unique_lock<std::mutex> Lock(M);
  ++LookupSeq;
  sweepStaleFailuresLocked();

  bool CountedWait = false;
  for (;;) {
    auto It = Slots.find(Key);
    if (It == Slots.end()) {
      ++Counters.Misses;
      // Scan resistance: a full cache admits a key on its second
      // sighting, so a one-shot program does not evict a resident one.
      if (fullLocked() && !secondSightingLocked(Key)) {
        ++Counters.Declined;
        return {Outcome::Bypass, nullptr, false};
      }
      Slots[Key].St = State::Building;
      return {Outcome::MustBuild, nullptr, false};
    }
    Slot &S = It->second;
    switch (S.St) {
    case State::Ready:
      return {Outcome::Hit, S.Art, hitLocked(S)};
    case State::Failed:
      if (LookupSeq >= S.RetryAtLookup) {
        S.St = State::Building;
        ++Counters.Misses;
        return {Outcome::MustBuild, nullptr, false};
      }
      ++Counters.Misses;
      return {Outcome::Bypass, nullptr, false};
    case State::Building: {
      if (S.NeedLeader) {
        // The previous leader failed; this caller rebuilds.
        S.NeedLeader = false;
        ++Counters.Promotions;
        return {Outcome::MustBuild, nullptr, false};
      }
      if (!CountedWait) {
        CountedWait = true;
        ++Counters.Coalesced;
      }
      ++S.Waiters;
      std::cv_status W = CV.wait_until(Lock, Deadline);
      // The slot may have been erased or replaced while we slept;
      // re-resolve by key before touching it.
      auto It2 = Slots.find(Key);
      if (It2 != Slots.end()) {
        Slot &S2 = It2->second;
        if (S2.Waiters)
          --S2.Waiters;
        if (W == std::cv_status::timeout) {
          // Leaving a leaderless slot with no other waiters would
          // wedge the key: convert it to an immediately-retryable
          // failure for the next lookup.
          if (S2.St == State::Building && S2.NeedLeader &&
              S2.Waiters == 0) {
            S2.NeedLeader = false;
            S2.St = State::Failed;
            S2.RetryAtLookup = LookupSeq;
          }
          ++Counters.CoalesceTimeouts;
          ++Counters.Misses;
          return {Outcome::Bypass, nullptr, false};
        }
      } else if (W == std::cv_status::timeout) {
        ++Counters.CoalesceTimeouts;
        ++Counters.Misses;
        return {Outcome::Bypass, nullptr, false};
      }
      continue; // Re-examine the (re-found) slot.
    }
    }
  }
}

AnalysisCache::ProbeResult
AnalysisCache::probe(const std::string &RawKey, SliceAlgorithm Algorithm,
                     ResourceGuard &G) {
  ProbeResult R;
  std::lock_guard<std::mutex> Lock(M);
  auto Memo = KeyMemo.find(RawKey);
  if (Memo == KeyMemo.end())
    return R;
  auto It = Slots.find(Memo->second);
  if (It == Slots.end() || It->second.St != State::Ready ||
      !It->second.Art->BS.closuresReady(Algorithm))
    return R;
  if (!G.checkpoint("cache.lookup")) {
    R.Tripped = true;
    return R;
  }
  ++LookupSeq;
  R.Hit = It->second.Art;
  R.Audit = hitLocked(It->second);
  if (R.Audit)
    R.Key = Memo->second; // An audit mismatch drops the entry by key.
  return R;
}

bool AnalysisCache::hitLocked(Slot &S) {
  Lru.splice(Lru.begin(), Lru, S.LruIt);
  ++Counters.Hits;
  if (!Opts.AuditEvery)
    return false;
  // xorshift64: cheap, seeded, deterministic per construction.
  AuditRng ^= AuditRng << 13;
  AuditRng ^= AuditRng >> 7;
  AuditRng ^= AuditRng << 17;
  bool Audit = (AuditRng % Opts.AuditEvery) == 0;
  if (Audit)
    ++Counters.Audits;
  return Audit;
}

void AnalysisCache::publish(const std::string &Key,
                            std::shared_ptr<const AnalysisArtifact> Art) {
  Victims Evicted; // Freed after the unlock.
  std::lock_guard<std::mutex> Lock(M);
  auto It = Slots.find(Key);
  if (It != Slots.end() && It->second.St == State::Ready)
    evictSlotLocked(It, /*Watermark=*/false, Evicted); // Replace.
  Slot &S = Slots[Key];
  S.St = State::Ready;
  S.Art = std::move(Art);
  S.Failures = 0;
  S.NeedLeader = false;
  Lru.push_front(Key);
  S.LruIt = Lru.begin();
  Bytes_ += S.Art->CostBytes;
  ++Counters.Inserts;

  // Capacity eviction: never the entry just published (a single
  // oversized artifact stays until the next publish displaces it).
  while ((Bytes_ > Opts.MaxBytes ||
          Lru.size() > Opts.MaxEntries) &&
         Lru.size() > 1)
    evictSlotLocked(Slots.find(Lru.back()), /*Watermark=*/false, Evicted);
  CV.notify_all();
}

void AnalysisCache::buildFailed(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Slots.find(Key);
  if (It == Slots.end() || It->second.St != State::Building)
    return;
  Slot &S = It->second;
  ++Counters.BuildFailures;
  ++S.Failures;
  if (S.Failures >= Opts.MaxBuildFailures) {
    // Repeated failures: back the key off so a hot program with a
    // starved budget degrades to cache-less serves, not a build loop.
    S.St = State::Failed;
    S.NeedLeader = false;
    S.RetryAtLookup = LookupSeq + Opts.FailureBackoffLookups;
  } else if (S.Waiters > 0) {
    S.NeedLeader = true; // Exactly one waiter claims this.
  } else {
    S.St = State::Failed;
    S.RetryAtLookup = LookupSeq; // Retry allowed immediately.
  }
  CV.notify_all();
}

void AnalysisCache::auditMismatch(const std::string &Key) {
  Victims Evicted; // Freed after the unlock.
  std::lock_guard<std::mutex> Lock(M);
  ++Counters.AuditMismatches;
  auto It = Slots.find(Key);
  if (It != Slots.end() && It->second.St == State::Ready)
    evictSlotLocked(It, /*Watermark=*/false, Evicted);
}

uint64_t AnalysisCache::evictToward(uint64_t TargetBytes) {
  Victims Evicted; // Freed after the unlock.
  std::lock_guard<std::mutex> Lock(M);
  while (Bytes_ > TargetBytes && !Lru.empty())
    evictSlotLocked(Slots.find(Lru.back()), /*Watermark=*/true, Evicted);
  return Evicted.size();
}

uint64_t AnalysisCache::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return Bytes_;
}

std::optional<std::string>
AnalysisCache::canonicalKeyFor(const std::string &RawKey) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = KeyMemo.find(RawKey);
  if (It == KeyMemo.end())
    return std::nullopt;
  return It->second;
}

void AnalysisCache::rememberCanonicalKey(const std::string &RawKey,
                                         const std::string &Key) {
  std::lock_guard<std::mutex> Lock(M);
  // A full reset is fine here: the memo is a latency optimization, and
  // re-canonicalizing one request per distinct program after a clear
  // is exactly the miss cost the cache already charges.
  if (KeyMemo.size() >= 4 * static_cast<size_t>(Opts.MaxEntries) + 64)
    KeyMemo.clear();
  KeyMemo.emplace(RawKey, Key);
}

CacheStats AnalysisCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  CacheStats S = Counters;
  S.Entries = Lru.size();
  S.Bytes = Bytes_;
  return S;
}

bool AnalysisCache::fullLocked() const {
  return Lru.size() >= Opts.MaxEntries || Bytes_ >= Opts.MaxBytes;
}

bool AnalysisCache::secondSightingLocked(const std::string &Key) {
  // Direct-mapped: a colliding key overwrites the slot, which costs at
  // worst one more declined sighting. Zero marks an empty slot.
  // FNV-1a's multiply mixes upward, so the high half picks the slot.
  uint64_t Fp = fnv1a(Key) | 1;
  uint64_t &Entry = Doorkeeper[(Fp >> 32) % DoorkeeperSlots];
  bool Seen = Entry == Fp;
  Entry = Seen ? 0 : Fp;
  return Seen;
}

void AnalysisCache::evictSlotLocked(std::map<std::string, Slot>::iterator It,
                                    bool Watermark, Victims &Out) {
  if (It == Slots.end() || It->second.St != State::Ready)
    return;
  Bytes_ -= It->second.Art->CostBytes;
  Lru.erase(It->second.LruIt);
  Out.push_back(std::move(It->second.Art));
  Slots.erase(It);
  ++Counters.Evictions;
  if (Watermark)
    ++Counters.WatermarkEvictions;
}

/// Failed slots are bookkeeping, not artifacts, but an adversary
/// cycling unique unparseable-budget programs could still grow the map
/// without bound; drop retryable ones once the map outgrows the LRU by
/// a comfortable margin.
void AnalysisCache::sweepStaleFailuresLocked() {
  if (Slots.size() <= 2 * static_cast<size_t>(Opts.MaxEntries) + 16)
    return;
  for (auto It = Slots.begin(); It != Slots.end();) {
    if (It->second.St == State::Failed && LookupSeq >= It->second.RetryAtLookup)
      It = Slots.erase(It);
    else
      ++It;
  }
}
