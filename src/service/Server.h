//===- service/Server.h - Long-running slicing server ----------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slicing service (DESIGN.md, "Serving slices", "Supervision &
/// overload", and "TCP transport"): reads JSON-Lines requests
/// (service/Request.h) from a stream, fans them across a WorkerPool,
/// runs each under its own per-request Budget through the
/// precision-degradation ladder (service/Ladder.h), and writes one
/// JSON response line per request. The server is transport-agnostic:
/// serve() drives it from a byte reader (an fd or an istream), and the
/// TCP listener (net/TcpServer.h) drives serveLine() with a per-connection
/// ResponseSink so many independent clients share one server without
/// sharing each other's failures.
///
/// Two isolation modes:
///
///  * thread (default): each request runs on a pool thread with its
///    own Analysis, ResourceGuard, and cancellation flag — one
///    poisonous program can exhaust only its own budget. The one
///    exception is a cache hit whose artifact is ready to serve: the
///    admission probe (AnalysisCache::probe) finds it and the thread
///    that read the line answers it, since it parses, waits and builds
///    nothing (served_inline in {"stats"}).
///  * process: each pool thread is a dispatcher that ships its request
///    to a forked sandbox worker over pipe IPC (service/Supervisor.h).
///    A worker that segfaults, gets OOM-killed, or hangs costs exactly
///    that request — the caller gets a `crashed` response quoting the
///    wait status, the request is quarantined like a journal-recovered
///    poison, and the supervisor respawns the worker. Mid-run
///    cancellation does not cross the process boundary; `{"cancel"}`
///    still stops queued requests.
///
/// Overload control: a bounded admission queue (MaxQueueDepth) sheds
/// with a deterministic `shed` refusal instead of queueing without
/// bound; admitted requests carry a queue deadline (QueueDeadlineMs)
/// and are shed unrun when they exceed it (serving a request the
/// caller has already given up on helps nobody); an RSS watermark
/// (MaxRssMb) sheds while memory is critical. Graceful drain: when
/// the shutdown flag trips (jslice_serve's SIGTERM self-pipe), the
/// server stops reading, finishes in-flight work, and finish() writes
/// a clean-shutdown journal record.
///
/// A write-ahead Journal (service/Journal.h) brackets every dispatch;
/// recover() quarantines requests left in flight by a crashed
/// predecessor, refuses their exact resubmission (by content key) with
/// a pointer to the dumped reproducer, and compacts the journal down
/// to its unmatched begins. The journal reports its own failures: when
/// an append fails persistently (disk full, dying device, failed
/// fsync) the JournalFailurePolicy decides whether the server sheds
/// new requests deterministically, keeps serving with the journal
/// marked lost ({"health"} reports degraded), or aborts into a clean
/// drain — never the old behavior of serving on while silently
/// recording nothing.
///
/// The `{"stats"}` health request answers with counters: requests by
/// outcome (including shed and crashed), the tier histogram, guard
/// trips, supervisor spawn/restart/crash counts, and p50/p95 latency.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_SERVER_H
#define JSLICE_SERVICE_SERVER_H

#include "service/AnalysisCache.h"
#include "service/Journal.h"
#include "service/Ladder.h"
#include "service/Replication.h"
#include "service/Request.h"
#include "service/SandboxWorker.h"
#include "service/Supervisor.h"
#include "support/LogHistogram.h"
#include "support/WorkerPool.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace jslice {

/// Where one protocol line's response line goes. The stdin transport
/// uses a sink that writes the shared ostream under a mutex; the TCP
/// transport (net/TcpServer.h) hands each line a sink bound to its
/// connection's bounded write buffer. A sink must be callable from any
/// worker thread and must stay valid until the response is delivered —
/// TCP sinks capture shared state by shared_ptr so a connection that
/// dies mid-request just swallows the late response.
using ResponseSink = std::function<void(const std::string &Line)>;

/// Server configuration.
struct ServerOptions {
  /// Worker threads; 0 = BatchSlicer::defaultThreads() (the hardware
  /// concurrency).
  unsigned Threads = 0;

  /// Process isolation: run requests in forked sandbox workers under
  /// the Supervisor instead of on the pool threads directly. Falls
  /// back to thread mode (with a log line) where fork is unavailable.
  bool IsolateProcess = false;

  /// Supervisor knobs for process mode. Workers == 0 sizes the fleet
  /// to the dispatcher thread count. Exec inside is rebuilt from
  /// DefaultBudget/Ladder below; set the rest freely.
  SupervisorOptions Super;

  /// Admission control: admitted-but-unfinished requests above this
  /// are shed with a deterministic refusal (0 = unbounded).
  uint64_t MaxQueueDepth = 0;

  /// Queue deadline: an admitted request still waiting for a worker
  /// after this many ms is shed unrun (0 = none).
  uint64_t QueueDeadlineMs = 0;

  /// Memory watermark: while the process RSS exceeds this many MiB the
  /// server first evicts from the analysis cache toward half its cost
  /// total and admits the request (memory pressure degrades into cache
  /// misses); only when there is nothing left to evict are new
  /// requests shed (0 = no watermark; non-Linux reads 0 RSS and never
  /// sheds on memory).
  uint64_t MaxRssMb = 0;

  /// Analysis-cache knobs. Thread mode holds one shared instance;
  /// process mode forwards this to each sandbox worker, which builds
  /// its own (per-worker counters come back piggybacked on response
  /// frames and are aggregated into {"stats"}).
  CacheOptions Cache;

  /// Write-ahead journal path; empty disables journaling (and with it
  /// poison recovery).
  std::string JournalPath;

  /// Journal rotation threshold; past this many bytes the journal
  /// rewrites itself down to its unmatched begins (0 disables).
  uint64_t JournalRotateBytes = 8u << 20;

  /// Journal durability policy (--journal-sync): Full fsyncs every
  /// record, Batch group-commits at JournalFlushIntervalMs. See
  /// Journal.h for the exact trade-offs.
  JournalSync JournalSyncPolicy = JournalSync::Full;
  uint64_t JournalFlushIntervalMs = 25;

  /// What a persistent journal append failure means for serving
  /// (--journal-failure): shed new requests (default — the journal is
  /// load-bearing for crash forensics), degrade (serve on, journal
  /// marked lost, health degraded), or abort (trip AbortFlag and
  /// drain). Also applied when the journal cannot be opened at all.
  JournalFailure JournalFailurePolicy = JournalFailure::Shed;

  /// Raised (when non-null) on persistent journal failure under the
  /// Abort policy; jslice_serve points this at the same flag its
  /// SIGTERM handler sets, so the abort rides the graceful-drain path.
  std::atomic<bool> *AbortFlag = nullptr;

  /// Journal I/O seam override; null = real syscalls. The disk-chaos
  /// soak and tests inject a FaultyJournalIo here. Not owned; must
  /// outlive the server.
  JournalIo *JournalIoHook = nullptr;

  /// Server generation for zero-downtime restart (0 = not generation-
  /// managed). Stamped onto every journal record and reported by
  /// {"health"}; recovery uses it to attribute unmatched begins to
  /// their owning process.
  uint64_t Generation = 0;

  /// Pid of the predecessor generation sharing the journal, or -1.
  /// While it is alive recover() defers — the predecessor's unmatched
  /// begins are its live in-flight set, not casualties. Once it exits,
  /// completeHandoff() quarantines exactly the begins stamped by
  /// earlier generations.
  long PredecessorPid = -1;

  /// When non-null, an {"upgrade"} control line stores true here and
  /// answers ok — jslice_serve points this at the same flag its
  /// SIGUSR2 handler sets. Null transports answer that upgrade is
  /// unsupported.
  std::atomic<bool> *UpgradeFlag = nullptr;

  /// Hard cap on one protocol line, shared by every transport: serve()
  /// (stdin and --input) and the TCP reactor both cut their streams
  /// with one LineFramer (support/LineFramer.h) built on this value.
  /// An input that exceeds it — adversarially newline-free or just
  /// oversized — is answered with one deterministic `shed` refusal,
  /// and the rest of the line is dropped as it arrives, so no read
  /// buffer ever holds more than the cap plus one read chunk. 0 =
  /// unlimited (not recommended).
  uint64_t MaxLineBytes = 4u << 20;

  /// Where recover() dumps poisoned reproducers.
  std::string QuarantineDir = "poisoned";

  /// Graceful-drain trigger: when non-null and it reads true, serve()
  /// stops accepting, finishes in-flight requests, and returns.
  /// jslice_serve points this at its signal-handler flag.
  const std::atomic<bool> *ShutdownFlag = nullptr;

  /// Per-request defaults; a request's budget_ms / max_steps override
  /// the deadline / step dimensions. The service default polls the
  /// deadline every 16 checkpoints (not the library's 256): requests
  /// carry tight deadlines, and a service overshooting them stalls a
  /// worker slot, so the tighter stride is the right trade.
  Budget DefaultBudget = serviceDefaultBudget();

  /// Ladder behaviour (the rung-1 budget inside is ignored; it is
  /// rebuilt per request from DefaultBudget and the request fields).
  LadderOptions Ladder;

  /// Warm-standby mode (--standby-of): the server boots refusing
  /// slice requests with a deterministic `shed` (cause "standby") and
  /// stays that way until promote() runs. The tool that owns this
  /// server also runs a net::StandbyTail against journal() so the
  /// replica journal — and with it the recovered poison set — stays
  /// warm for the moment of promotion.
  bool Standby = false;

  /// Initial fencing epoch stamped (with the generation) onto every
  /// journal record. 0 = derive: primaries resume at
  /// max(on-disk epoch, 1); standbys stay at 0 until promotion
  /// assigns max-seen + 1. A request carrying "min_epoch" above this
  /// server's epoch is shed (cause "fenced") — that is what makes a
  /// resurrected ex-primary deterministically refuse traffic that has
  /// already failed over.
  uint64_t Epoch = 0;

  /// Replication acknowledgement policy (--repl-ack). Async ships
  /// records on a background thread; Flush hands them to subscriber
  /// sinks before the journal append returns; Sync additionally blocks
  /// the slice admission path until a standby acks the begin record
  /// (bounded by ReplAckTimeoutMs — a missing or slow standby costs
  /// latency and a counted loss-window, never a hang).
  ReplAckPolicy ReplAck = ReplAckPolicy::Async;
  uint64_t ReplAckTimeoutMs = 2000;

  /// Under --journal-failure=degrade, how often (ms) the serving path
  /// probes a lost journal with Journal::tryReattach. A recovered disk
  /// flips {"health"} back from "journal":"lost" to "journal":"ok" and
  /// journaling resumes; 0 disables the probe (the old latch-forever
  /// behavior). Shed/Abort never probe: their contract is that a lost
  /// journal stops serving until an operator intervenes.
  uint64_t JournalReattachIntervalMs = 500;

  /// Test hook for the crash-recovery test: the worker picking up the
  /// request with this id sleeps forever after its journal `begin`
  /// record is durable, giving a kill -9 a deterministic in-flight
  /// window. Never set in production.
  std::string HangAfterBeginId;

  static Budget serviceDefaultBudget() {
    Budget B;
    B.MaxNodes = 1u << 20;
    B.MaxSteps = 20000000;
    B.DeadlineMs = 5000;
    B.PollStride = 16;
    return B;
  }
};

/// Health snapshot, all-time since construction.
struct ServerStats {
  uint64_t Received = 0;    ///< Protocol lines read.
  uint64_t Served = 0;      ///< Ok responses (any tier).
  uint64_t Degraded = 0;    ///< Ok responses below the requested tier.
  uint64_t Refused = 0;     ///< resource-exhausted responses.
  uint64_t Errors = 0;      ///< error responses (bad program/criterion).
  uint64_t BadRequests = 0; ///< Unparseable protocol lines.
  uint64_t Cancelled = 0;   ///< Requests stopped by {"cancel"}.
  uint64_t Poisoned = 0;    ///< Resubmissions refused by quarantine.
  uint64_t Crashed = 0;     ///< Sandbox worker died/hung on a request.
  uint64_t Shed = 0;        ///< Overload-control refusals.
  /// Cache hits answered on the thread that read their line (thread
  /// mode's admission probe); always 0 in process mode.
  uint64_t ServedInline = 0;
  uint64_t GuardTrips = 0;  ///< Ladder rungs that tripped a budget.
  std::map<std::string, uint64_t> TierHistogram; ///< served tier -> count.
  /// Shed refusals broken down by cause ("queue-full",
  /// "queue-deadline", "rss-watermark", "draining", "breaker-open",
  /// "line-cap", "journal-failed", "standby", "fenced") so soak
  /// assertions read counters instead of scraping stderr.
  std::map<std::string, uint64_t> ShedByCause;
  /// Poison reproducers that could not be written to the quarantine
  /// dir (e.g. ENOSPC): the journal begin stays unmatched so the next
  /// boot retries — this counter is the operator's only sign.
  uint64_t QuarantineFailures = 0;
  /// Journal self-health (JournalCounters + the lost latch), so a
  /// dying disk is visible in {"stats"} long before it kills the
  /// process.
  uint64_t JournalAppendFailures = 0;
  uint64_t JournalReopens = 0;
  uint64_t JournalCorruption = 0; ///< Corrupt records found at boot.
  uint64_t JournalTornTails = 0;  ///< Torn tails truncated at boot.
  uint64_t JournalRotationFailures = 0;
  bool JournalLost = false; ///< Persistent failure latched.
  /// Response latency percentiles (latency_p50_ms / latency_p95_ms)
  /// from a LogHistogram of whole microseconds: within 1/32 of the
  /// sample's value, plus under 1 µs of rounding.
  double P50Ms = 0;
  double P95Ms = 0;
  bool ProcessIsolation = false;
  SupervisorStats Super; ///< Zeroed in thread mode.

  uint64_t Generation = 0;  ///< ServerOptions::Generation (0 = unmanaged).
  uint64_t Epoch = 0;       ///< Current fencing epoch (0 = standby,
                            ///< never promoted).
  bool Standby = false;     ///< Still refusing slices as a standby.
  ReplicationCounters Repl; ///< Journal-shipping counters (primary side).
  uint64_t ReplAckedSeq = 0;      ///< Standby's durable high-water mark.
  uint64_t ReplLastShippedSeq = 0; ///< Last record handed to a subscriber.
  uint64_t UptimeMs = 0;    ///< Since construction.
  uint64_t RssBytes = 0;    ///< Process RSS at snapshot time.
  uint64_t MaxRssBytes = 0; ///< The watermark (0 = none); toJson also
                            ///< derives the remaining headroom.
  bool CacheEnabled = false;
  CacheStats Cache; ///< Thread mode: the shared cache; process mode:
                    ///< the live workers' snapshots plus the retired
                    ///< workers' counters.
  /// Process mode: the latest cache snapshot from each live worker pid.
  std::map<int64_t, CacheStats> WorkerCaches;

  JsonValue toJson() const;
};

/// The server. Construct, recover(), then serve() one or more streams.
class Server {
public:
  /// Responses go to \p Out (one JSON line each, mutex-serialized);
  /// operational log lines go to \p Log.
  Server(const ServerOptions &Opts, std::ostream &Out, std::ostream &Log);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Scans the journal for requests a dead predecessor left in flight,
  /// quarantines each as a reproducer, arms the poison filter, and
  /// compacts the journal. Returns how many were quarantined. When
  /// PredecessorPid names a live process (mid-upgrade handoff), the
  /// scan is deferred — the journal's unmatched begins are the
  /// predecessor's *live* in-flight set — and rotation is held until
  /// completeHandoff() runs.
  unsigned recover();

  /// Finishes a deferred handoff once the predecessor is gone:
  /// quarantines unmatched begins stamped by earlier generations (our
  /// own in-flight begins are excluded by their stamp), releases the
  /// rotation hold, and compacts. Idempotent; returns the number
  /// quarantined. The caller decides *when* the predecessor is dead —
  /// jslice_serve polls kill(pid, 0).
  unsigned completeHandoff();

  /// True while recovery is deferred on a live predecessor.
  bool handoffPending() const {
    return HandoffPending.load(std::memory_order_relaxed);
  }

  /// Pins (or releases) journal rotation across a generation-handoff
  /// overlap window: the predecessor holds it from spawn until the
  /// successor is ready or rolled back, so a compaction rewrite can
  /// never race the successor's open of the same path.
  void holdJournalRotation(bool Hold);

  /// Fills up to Size bytes of its buffer from the input stream and
  /// returns the count, 0 at end of stream, or -1 to stop reading (a
  /// shutdown signal landed while it waited).
  using ByteReader = std::function<int64_t(char *Buf, size_t Size)>;

  /// Reads requests through \p Read until end of stream, a -1 from it,
  /// or the shutdown flag; returns after every accepted request has
  /// been answered. Lines are cut by one LineFramer under MaxLineBytes,
  /// and each is served as soon as its newline is read.
  void serve(const ByteReader &Read);

  /// serve() over an istream: takes whatever the stream already holds
  /// and blocks for one byte only when it holds nothing.
  void serve(std::istream &In);

  /// Processes one protocol line. serve() is a loop over this.
  void serveLine(const std::string &Line);

  /// Same, but the response line(s) go to \p Sink instead of the
  /// shared output stream — the TCP transport's per-connection entry
  /// point. \p Sink is called on this thread for every answer that
  /// does not need the pool (control lines, refusals, and in thread
  /// mode cache hits the admission probe finds ready); a request handed
  /// to the pool carries its own copy. Every non-blank line produces
  /// exactly one response line, with two replication exceptions:
  /// {"repl_subscribe"} turns the sink into a long-lived record stream
  /// (the hello frame is its response), and {"repl_ack"} is one-way (a
  /// response line would interleave with the record frames on the same
  /// connection).
  /// Returns false for the one-way case — no response was or will be
  /// delivered for this line — so transports that count a pending
  /// response per dispatched line can give the slot back.
  bool serveLine(const std::string &Line, const ResponseSink &Sink);

  /// Answers an input line that blew past MaxLineBytes with the
  /// deterministic `shed` refusal (cause "line-cap"). Transports call
  /// this when their LineFramer reports an Oversized frame.
  void refuseOversizedLine(const ResponseSink &Sink);

  /// The shared request-line cap (ServerOptions::MaxLineBytes, 0 =
  /// unlimited). The TCP transport frames with it so stdin and socket
  /// input are bounded by the same knob.
  uint64_t maxLineBytes() const { return Opts.MaxLineBytes; }

  /// Registers a transport-statistics provider (the TCP listener's
  /// per-connection counters); folded into the {"stats"} reply as
  /// "transport". Set before traffic starts; not synchronized against
  /// in-flight stats requests.
  void setTransportStats(std::function<JsonValue()> Fn) {
    TransportStatsFn = std::move(Fn);
  }

  /// Registers the transport's liveness probe for {"health"}: must be
  /// lock-free (the TCP listener's is a read of per-shard heartbeat
  /// atomics). A "wedged":true member in its result marks the answer
  /// degraded. Set before traffic starts, like setTransportStats.
  void setHealthProbe(std::function<JsonValue()> Fn) {
    HealthProbeFn = std::move(Fn);
  }

  /// The {"health"} answer: uptime, generation, draining/breaker/
  /// handoff state, and the transport probe. Reads only atomics and
  /// the steady clock — never StateM — so a health probe cannot queue
  /// behind a stats snapshot or a wedged counter path.
  JsonValue healthJson() const;

  /// Call once after the last serve(): writes the clean-shutdown
  /// journal record and retires the sandbox fleet.
  void finish();

  /// Current counters (also served in-band by {"stats"}).
  ServerStats stats() const;

  /// True once the shutdown flag was observed (the serve loop stopped
  /// accepting because of it, not EOF).
  bool drained() const { return Draining.load(std::memory_order_relaxed); }

  /// True once the journal failed persistently (or never opened) and
  /// the failure policy took effect. {"health"} reports this as
  /// "journal":"lost" + degraded.
  bool journalLost() const {
    return JournalLost.load(std::memory_order_relaxed);
  }

  /// True when a journal failure under the Abort policy tripped the
  /// abort flag; jslice_serve exits 3 after the drain.
  bool journalAborted() const {
    return JournalAborted.load(std::memory_order_relaxed);
  }

  /// The sandbox supervisor, or null in thread mode. The crash-matrix
  /// soak reaches through this for the chaos-kill hook and restart
  /// counters.
  Supervisor *supervisor() { return Super.get(); }

  /// The shared analysis cache: thread mode with the cache enabled,
  /// else null. Tests reach through it to hold a key's build
  /// leadership or read its counters.
  AnalysisCache *cache() { return Cache.get(); }

  /// The server's journal. A standby tool hands this to its
  /// net::StandbyTail so the tail and the (post-promotion) server
  /// share one replica journal — one file, one in-flight index, one
  /// recovery story.
  Journal &journal() { return Wal; }

  /// The journal-shipping hub, or null when journaling is disabled.
  /// {"repl_subscribe"} lines are routed here; tests reach through for
  /// counters.
  ReplicationHub *replication() { return Repl.get(); }

  /// True while this server is a warm standby refusing slice traffic.
  bool standby() const {
    return StandbyMode.load(std::memory_order_relaxed);
  }

  /// The current fencing epoch (0 = unpromoted standby).
  uint64_t epoch() const {
    return EpochA.load(std::memory_order_relaxed);
  }

  /// Runs immediately before promote() recovers: the owning tool stops
  /// its StandbyTail here so the replica journal is quiescent while
  /// recovery scans it. Set before traffic starts.
  void setPromoteHook(std::function<void()> Fn) {
    PromoteHook = std::move(Fn);
  }

  /// Registers a replication-telemetry provider (the standby tool's
  /// tail stats); folded into {"health"} as "replication". Must be
  /// cheap — it runs on the health path. Set before traffic starts.
  void setReplProbe(std::function<JsonValue()> Fn) {
    ReplProbeFn = std::move(Fn);
  }

  /// Promotes a standby to primary: quiesces the tail (PromoteHook),
  /// fences the old primary by adopting epoch max-seen + 1, recovers
  /// the replica journal (quarantining whatever the dead primary left
  /// in flight), and starts accepting slices. Returns the new epoch.
  /// On a server that is already primary this is a no-op returning the
  /// current epoch — fencing must never move backwards. \p
  /// QuarantinedOut (when non-null) receives the recovery count.
  uint64_t promote(unsigned *QuarantinedOut = nullptr);

private:
  struct InFlight {
    std::atomic<bool> Cancel{false};
    std::chrono::steady_clock::time_point Enqueued;
  };

  unsigned recoverNow(bool OnlyEarlierGenerations);
  void noteJournalFailure();
  /// Degrade-policy disk-recovery probe: rate-limited
  /// Journal::tryReattach; clears the lost latch on success.
  void maybeReattachJournal();
  void handleSlice(ServiceRequest R, const std::shared_ptr<InFlight> &Flight,
                   const CacheAdmission *Adm, const ResponseSink &Sink);
  /// A slice's completion, wherever it ran: journal end, then the id's
  /// release and its outcome in one StateM section — before the sink,
  /// so a client holding its answer may reuse the id and {"stats"}
  /// already counts it — then \p Line to \p Sink.
  void finishSlice(const ServiceResponse &Resp, const std::string &Line,
                   const ResponseSink &Sink, uint64_t RungTrips,
                   const std::string &ShedCause, bool Inline);
  bool handleSliceSandboxed(const ServiceRequest &R, ServiceResponse &Resp,
                            std::string &RawResponse, uint64_t &RungTrips);
  void quarantineCrashed(const ServiceRequest &R, ServiceResponse &Resp);
  void handleCancel(const ServiceRequest &R, const ResponseSink &Sink);
  void shedResponse(const ServiceRequest &R, const std::string &Why,
                    const char *Cause, const ResponseSink &Sink);
  void writeResponse(const ServiceResponse &R, const ResponseSink &Sink);
  void recordOutcome(ResponseStatus Status, const std::string &ServedTier,
                     bool Degraded, double LatencyMs, uint64_t RungTrips,
                     const std::string &ShedCause = "");
  void recordOutcomeLocked(ResponseStatus Status,
                           const std::string &ServedTier, bool Degraded,
                           double LatencyMs, uint64_t RungTrips,
                           const std::string &ShedCause);

  ServerOptions Opts;
  std::ostream &Out;
  std::ostream &Log;
  ResponseSink DefaultSink; ///< Writes Out under OutM.
  std::function<JsonValue()> TransportStatsFn;
  std::function<JsonValue()> HealthProbeFn;
  std::chrono::steady_clock::time_point StartTime;
  /// Process mode only. Declared before every member that starts a
  /// thread (the journal's flusher, the hub, the pool): the initial
  /// fleet is forked while this process still runs only its caller's
  /// threads, so no worker inherits a lock another thread held at the
  /// fork (a sanitizer allocator's, which no fork handler releases).
  std::unique_ptr<Supervisor> Super;
  std::atomic<bool> HandoffPending{false};
  Journal Wal;
  /// Declared after Wal: destroyed first, so the hub detaches its tap
  /// before the journal it observes goes away.
  std::unique_ptr<ReplicationHub> Repl;
  std::function<void()> PromoteHook;
  std::function<JsonValue()> ReplProbeFn;
  WorkerPool Pool;
  ExecConfig Exec; ///< Thread mode's per-request configuration.

  std::atomic<uint64_t> QueueDepth{0};
  /// Protocol lines read (ServerStats::Received), counted without StateM.
  std::atomic<uint64_t> Received{0};
  std::atomic<bool> Draining{false};
  std::atomic<bool> JournalLost{false};
  std::atomic<bool> JournalAborted{false};
  std::atomic<bool> StandbyMode{false};
  std::atomic<uint64_t> EpochA{0}; ///< Mirror of Wal.epoch() for the
                                   ///< lock-free health/fencing paths.
  /// Steady-clock ms of the last Degrade-policy reattach probe; rate
  /// limits tryReattach to JournalReattachIntervalMs.
  std::atomic<uint64_t> LastReattachMs{0};
  std::mutex PromoteM; ///< Serializes concurrent promote() calls.

  std::mutex OutM; ///< Serializes response lines; never held with StateM.
  mutable std::mutex StateM;
  std::map<std::string, std::shared_ptr<InFlight>> Registry;
  std::set<std::string> PoisonKeys;
  /// PoisonKeys.size(), stored under StateM and read relaxed without
  /// it: while it is zero, admission skips computing the content key.
  std::atomic<size_t> PoisonKeyCount{0};
  std::map<std::string, std::string> PoisonRepros; ///< key -> .mc path.

  /// Thread mode only; null in process mode (workers own theirs).
  std::unique_ptr<AnalysisCache> Cache;
  /// Worker crashes per rawProgramKey: a program that kills two
  /// workers is quarantined for *every* criterion, not just the
  /// crashing (program, criterion, algorithm) content key. Keyed on
  /// raw bytes — a killer program is never parsed in this process.
  std::map<std::string, unsigned> ProgramCrashCounts;
  std::set<std::string> ProgramPoison;
  /// Process mode: latest piggybacked cache snapshot per live worker
  /// pid. stats() folds each dead pid's entry into RetiredWorkerCaches
  /// and erases it, so the map holds at most one entry per worker.
  mutable std::map<int64_t, CacheStats> WorkerCacheSnapshots;
  /// Process mode: the counters of every dead worker's cache, with the
  /// Entries/Bytes gauges zeroed — the caches they measured are gone.
  mutable CacheStats RetiredWorkerCaches;
  ServerStats Counters;
  LogHistogram LatencyUs; ///< Every response's latency; fixed size.
};

} // namespace jslice

#endif // JSLICE_SERVICE_SERVER_H
