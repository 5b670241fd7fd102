//===- service/AnalysisCache.h - Cross-request analysis cache --------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The content-addressed analysis cache (DESIGN.md, "Analysis cache &
/// containment"): shared `Analysis` artifacts plus the batch engine's
/// SCC condensation and closure bit-vectors (built by the first hit,
/// not by the miss that publishes the artifact), keyed by a canonical
/// rendering of the program, so same-program requests stop re-paying
/// the parse → CFG → dominators → dependence pipeline and fan their
/// criteria out through BatchSlicer instead. What the batch engine
/// memoizes *within* one batch, this lifts *across* requests.
///
/// The cache is a robustness feature first:
///
///  * **Single-flight coalescing with crash containment.** The first
///    request for a key becomes the build leader; concurrent requests
///    for the same key wait (bounded by their own deadlines) instead
///    of stampeding the pipeline. If the leader fails — budget
///    exhaustion, or death in process mode — exactly one waiting
///    follower is promoted to rebuild; the rest keep waiting with
///    their own deadlines intact. A key whose builds keep failing is
///    backed off (served cache-less) so a starved budget cannot wedge
///    a hot program. (Refusing a program that crashed a server is the
///    server's job, by raw key, before the cache is consulted — see
///    Server::ProgramPoison.)
///
///  * **Watermark-coupled eviction.** Every artifact carries a cost
///    estimate; the LRU evicts on capacity at publish time and on
///    demand (evictToward) when the server's RSS watermark trips, so
///    memory pressure degrades into cache misses instead of admission
///    sheds, and an evict storm shows up in the counters rather than
///    passing silently.
///
///  * **Scan-resistant admission.** Once the cache is full (MaxEntries
///    ready entries, or MaxBytes of cost estimate), a key with no slot
///    is admitted only on its second sighting. The first sighting
///    records the key's fingerprint in a fixed direct-mapped table (the
///    doorkeeper of TinyLFU, Einziger, Friedman & Manes, ACM TOS 2017),
///    counts `declined`, and returns Bypass: the caller serves through
///    the ladder (on the tree it parsed for the key, if it parsed one),
///    publishes nothing, and frees its analysis itself while that
///    memory is still warm. The
///    second sighting takes the fingerprint out and leads the build, so
///    a key evicted later must be seen twice again. A stream of
///    one-shot programs therefore no longer evicts the resident
///    entries one by one. While the cache has room nothing changes:
///    the first miss leads the build.
///
///  * **Self-audit.** A seeded 1-in-N sample of hits is re-analyzed
///    from source and diffed against the cached artifact
///    (SandboxWorker.cpp); a mismatch invalidates the entry, serves
///    the fresh result, and increments audit_mismatches. The audit is
///    also the backstop for the (theoretically possible) canonical-key
///    hash collision.
///
/// Thread mode shares one instance across the worker pool; process
/// mode gives each persistent sandbox worker its own (workers are
/// single-threaded loops, so their instances see no coalescing and
/// piggyback their counters on response frames for aggregation).
///
/// In thread mode the server also probes the cache at admission, on the
/// transport thread that read the request (probe()). The probe never
/// waits, parses or builds: it answers a hit only for a program whose
/// raw-key memo entry, Ready slot and closure cache for the requested
/// algorithm all exist, and the server then serves that hit where it
/// stands. Every other request — a memo miss, a Building or Failed
/// slot, a first hit that still builds closures, an audited hit — goes
/// to the pool carrying the probe's answer, so each request is counted
/// once as a hit or a miss, the audit sampler rolls once for it, and
/// its cache.lookup checkpoint is charged once.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_ANALYSISCACHE_H
#define JSLICE_SERVICE_ANALYSISCACHE_H

#include "service/Json.h"
#include "slicer/BatchSlicer.h"

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace jslice {

/// Cache knobs (jslice_serve --cache-*).
struct CacheOptions {
  /// Master switch; off serves every request through the ladder.
  bool Enabled = true;

  /// Entry-count ceiling (clamped to >= 1).
  unsigned MaxEntries = 64;

  /// Cost-estimate ceiling over all cached artifacts, in bytes. The
  /// estimate is approximate (source + per-node structures + closure
  /// bitsets); the RSS watermark remains the hard backstop.
  uint64_t MaxBytes = 256u << 20;

  /// Self-audit sampling: re-analyze roughly 1 in N hits (0 = off).
  unsigned AuditEvery = 0;

  /// Seed for the audit sampler (deterministic per seed).
  uint64_t AuditSeed = 1;

  /// Consecutive build failures after which a key is backed off.
  unsigned MaxBuildFailures = 2;

  /// How many cache lookups (any key) must pass before a backed-off
  /// key may try to build again.
  uint64_t FailureBackoffLookups = 32;
};

/// Counters, served under {"stats"} "cache".
struct CacheStats {
  uint64_t Hits = 0;      ///< Ready artifact served.
  uint64_t Misses = 0;    ///< No artifact: leader builds or bypass.
  uint64_t Declined = 0;  ///< Misses of a full cache on a first sighting.
  uint64_t Coalesced = 0; ///< Requests that waited on a leader.
  uint64_t CoalesceTimeouts = 0; ///< Waits that hit their deadline.
  uint64_t Promotions = 0;       ///< Followers promoted to leader.
  uint64_t Inserts = 0;          ///< Artifacts published.
  uint64_t Evictions = 0;        ///< All evictions (capacity + watermark).
  uint64_t WatermarkEvictions = 0; ///< Subset driven by evictToward().
  uint64_t BuildFailures = 0;      ///< Leader builds that failed.
  uint64_t Audits = 0;             ///< Hits re-analyzed by the sampler.
  uint64_t AuditMismatches = 0;    ///< Audits that diffed (invalidated).
  uint64_t Entries = 0;            ///< Current ready artifacts.
  uint64_t Bytes = 0;              ///< Current cost-estimate total.

  JsonValue toJson() const;

  /// Field-wise accumulation (the server sums per-worker snapshots).
  void add(const CacheStats &O);

  /// Inverse of toJson (the piggybacked worker snapshots). Nullopt
  /// when \p V is not an object.
  static std::optional<CacheStats> fromJson(const JsonValue &V);
};

/// One cached artifact: the Analysis and the BatchSlicer over it.
/// Handed out by shared_ptr, so an eviction racing a hit cannot free
/// memory a reader still walks. It is published without closure
/// caches: the first hit builds them (and, for Ball–Horwitz, the
/// augmented bundle) under its own guard, and a build that trips keeps
/// nothing, so the next hit retries — the artifact itself never turns
/// invalid. The artifact's own ResourceGuard belongs to the request
/// that built it and is never charged on the hit path
/// (BatchSlicer::sliceShared takes the reader's guard instead).
struct AnalysisArtifact {
  explicit AnalysisArtifact(Analysis &&An) : A(std::move(An)), BS(A) {}

  AnalysisArtifact(const AnalysisArtifact &) = delete;
  AnalysisArtifact &operator=(const AnalysisArtifact &) = delete;

  Analysis A;
  BatchSlicer BS;
  uint64_t CostBytes = 0;
};

/// Estimates the resident cost of \p Art for the eviction accounting:
/// source bytes + a per-CFG-node constant for the AST/CFG/tree/PDG
/// structures + the closure bitsets. The closures are not built yet at
/// publish time, so their upper bound (one numNodes-bit set per node)
/// is charged up front; the estimate never changes while cached.
uint64_t estimateArtifactCost(const AnalysisArtifact &Art,
                              const std::string &Source);

/// Hash of the raw program bytes — the crash-accounting key
/// (Server.cpp): a program that kills workers must be matchable
/// *without* parsing it in the server.
std::string rawProgramKey(const std::string &Source);

/// The cache key: the token-stream key the lexer folded while the
/// program was parsed (lang/Token.h), rendered as "<FNV-1a hex>-<token
/// count>". It covers every token's kind, line and spelling or value
/// but not its column, so trivially reformatted duplicates of the same
/// program hit the same entry. Lines are part of the identity: a
/// criterion is (line, vars), so two sources may share an artifact only
/// when their tokens sit on the same lines. Reading the key costs
/// nothing: the worker keys the tree it parsed once and then hands to
/// the analysis. Keys live only in memory (no journal, quarantine or
/// snapshot record holds one), so their bytes may change between
/// builds.
std::string canonicalProgramKey(const Program &Prog);

/// Parses \p Source charging \p G and keys the tree. Nullopt when the
/// program does not parse (the ladder will produce the real
/// diagnostic) or the guard trips.
std::optional<std::string> canonicalProgramKey(const std::string &Source,
                                               ResourceGuard &G);

/// The cache. All public methods are thread-safe.
class AnalysisCache {
public:
  explicit AnalysisCache(const CacheOptions &Opts);

  AnalysisCache(const AnalysisCache &) = delete;
  AnalysisCache &operator=(const AnalysisCache &) = delete;

  const CacheOptions &options() const { return Opts; }

  enum class Outcome {
    Hit,         ///< Artifact holds a ready analysis.
    MustBuild,   ///< Caller is the (possibly promoted) build leader:
                 ///< it must end with publish() or buildFailed().
    Bypass,      ///< Serve without the cache (backoff, timeout).
  };

  struct LookupResult {
    Outcome K = Outcome::Bypass;
    std::shared_ptr<const AnalysisArtifact> Artifact; ///< Hit only.
    bool Audit = false; ///< Hit: the sampler picked this one.
  };

  /// The admission probe's answer (probe()).
  struct ProbeResult {
    /// A ready artifact whose closure cache for the probed algorithm is
    /// built. The hit is already counted (and sampled): the caller
    /// serves it from here and does not look the key up again.
    std::shared_ptr<const AnalysisArtifact> Hit;
    bool Audit = false; ///< Hit: the sampler picked this one.
    /// Audited hit: the canonical key, which an audit mismatch drops.
    std::optional<std::string> Key;
    /// The guard tripped at the hit's cache.lookup checkpoint, so
    /// nothing was counted; the caller serves without the cache.
    bool Tripped = false;
  };

  /// Non-blocking hit probe, one critical section: a hit only when the
  /// raw-key memo knows \p RawKey, its slot is Ready, and the closure
  /// cache \p Algorithm reads is already built
  /// (BatchSlicer::closuresReady), so serving it parses, waits and
  /// builds nothing. Such a hit first charges \p G the cache.lookup
  /// checkpoint a lookup() caller charges, then is counted exactly as
  /// lookup() counts one (LRU touch, `hits`, one roll of the audit
  /// sampler). Anything else charges and counts nothing; the caller
  /// then takes the ordinary path (canonicalKeyFor, lookup()).
  ProbeResult probe(const std::string &RawKey, SliceAlgorithm Algorithm,
                    ResourceGuard &G);

  /// Resolves \p Key: returns a ready artifact, makes the caller the
  /// build leader, or — when a leader is already building — waits for
  /// it until \p Deadline (coalescing). A timed-out wait returns
  /// Bypass: the caller serves solo under its own budget. So does the
  /// first sighting of a key while the cache is full (declined).
  LookupResult lookup(const std::string &Key,
                      std::chrono::steady_clock::time_point Deadline);

  /// Leader success: installs \p Art as \p Key's artifact, wakes every
  /// waiter, and evicts LRU entries past the capacity caps (never the
  /// one just published).
  void publish(const std::string &Key,
               std::shared_ptr<const AnalysisArtifact> Art);

  /// Leader failure (budget exhaustion; in process mode the supervisor
  /// reports death the same way). Promotes exactly one waiting
  /// follower to leader; with no waiters, or past MaxBuildFailures,
  /// the key is backed off instead.
  void buildFailed(const std::string &Key);

  /// Audit mismatch: drops \p Key's ready artifact, if any, and counts
  /// audit_mismatches. In-flight readers keep their shared_ptr.
  void auditMismatch(const std::string &Key);

  /// Watermark eviction: LRU-evicts ready artifacts until the cost
  /// total is <= \p TargetBytes (or the cache is empty). Returns how
  /// many entries were evicted.
  uint64_t evictToward(uint64_t TargetBytes);

  /// Current cost-estimate total, for picking an eviction target.
  uint64_t bytes() const;

  /// Raw-bytes → canonical-key memo. Canonicalization parses the
  /// program, which on the hit path would cost a large fraction of what
  /// the cache saves; byte-identical re-requests (the common case) skip
  /// it via this memo. Callers remember only keys whose lookup hit or
  /// made them the build leader — programs the cache holds or is about
  /// to — never a declined one-shot, which would only churn the memo.
  /// The mapping is a pure function of the source bytes, so entries
  /// never go stale; the memo is bounded and simply cleared when it
  /// outgrows the slot table.
  std::optional<std::string> canonicalKeyFor(const std::string &RawKey) const;
  void rememberCanonicalKey(const std::string &RawKey,
                            const std::string &Key);

  CacheStats stats() const;

private:
  enum class State { Building, Ready, Failed };

  struct Slot {
    State St = State::Building;
    std::shared_ptr<const AnalysisArtifact> Art;
    unsigned Waiters = 0;
    bool NeedLeader = false; ///< Leader died; first waiter to see this
                             ///< claims the rebuild.
    unsigned Failures = 0;
    uint64_t RetryAtLookup = 0;       ///< Failed: earliest retry.
    std::list<std::string>::iterator LruIt; ///< Ready only.
  };

  /// Artifacts evicted under M. Their owners declare this before
  /// taking the lock, so the last reference to an Analysis dies after
  /// the unlock, not inside the critical section every lookup waits on.
  using Victims = std::vector<std::shared_ptr<const AnalysisArtifact>>;

  /// Counts a hit on Ready slot \p S: LRU touch, `hits`, and one roll
  /// of the audit sampler, whose verdict it returns.
  bool hitLocked(Slot &S);
  void evictSlotLocked(std::map<std::string, Slot>::iterator It,
                       bool Watermark, Victims &Out);
  void sweepStaleFailuresLocked();
  bool fullLocked() const;
  /// Full cache only: true, taking the fingerprint out, when the
  /// doorkeeper holds \p Key's; otherwise records it and returns false.
  bool secondSightingLocked(const std::string &Key);

  /// Doorkeeper slots: a fixed 32 KiB, bounded by construction.
  static constexpr size_t DoorkeeperSlots = 4096;

  CacheOptions Opts;
  mutable std::mutex M;
  std::condition_variable CV;
  std::map<std::string, Slot> Slots;
  std::map<std::string, std::string> KeyMemo; ///< raw key -> canonical.
  std::list<std::string> Lru; ///< Front = most recent; ready keys only.
  std::array<uint64_t, DoorkeeperSlots> Doorkeeper{}; ///< 0 = empty.
  uint64_t Bytes_ = 0;
  uint64_t LookupSeq = 0;
  uint64_t AuditRng = 0;
  CacheStats Counters;
};

} // namespace jslice

#endif // JSLICE_SERVICE_ANALYSISCACHE_H
