//===- service/Server.cpp - Long-running slicing server --------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "service/SandboxWorker.h"
#include "slicer/BatchSlicer.h"
#include "support/LineFramer.h"
#include "support/Pipe.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <istream>
#include <ostream>
#include <thread>

#ifdef JSLICE_HAVE_POSIX_PROCESS
#include <signal.h>
#endif

using namespace jslice;

JsonValue ServerStats::toJson() const {
  JsonValue Out = JsonValue::object();
  Out.set("received", Received);
  Out.set("served", Served);
  Out.set("degraded", Degraded);
  Out.set("refused", Refused);
  Out.set("errors", Errors);
  Out.set("bad_requests", BadRequests);
  Out.set("cancelled", Cancelled);
  Out.set("poisoned", Poisoned);
  Out.set("crashed", Crashed);
  Out.set("shed", Shed);
  Out.set("served_inline", ServedInline);
  Out.set("guard_trips", GuardTrips);
  JsonValue Tiers = JsonValue::object();
  for (const auto &[Tier, N] : TierHistogram)
    Tiers.set(Tier, N);
  Out.set("tiers", std::move(Tiers));
  JsonValue Causes = JsonValue::object();
  for (const auto &[Cause, N] : ShedByCause)
    Causes.set(Cause, N);
  Out.set("shed_by_cause", std::move(Causes));
  Out.set("quarantine_failures", QuarantineFailures);
  Out.set("journal_lost", JournalLost);
  Out.set("journal_corruption", JournalCorruption);
  Out.set("journal_torn_tails", JournalTornTails);
  Out.set("journal_append_failures", JournalAppendFailures);
  Out.set("journal_reopens", JournalReopens);
  Out.set("journal_rotation_failures", JournalRotationFailures);
  Out.set("latency_p50_ms", P50Ms);
  Out.set("latency_p95_ms", P95Ms);
  if (Generation)
    Out.set("generation", Generation);
  if (Epoch)
    Out.set("epoch", Epoch);
  if (Standby)
    Out.set("standby", true);
  {
    JsonValue R = JsonValue::object();
    R.set("shipped", Repl.Shipped);
    R.set("subscribes", Repl.Subscribes);
    R.set("snapshots", Repl.Snapshots);
    R.set("resumes", Repl.Resumes);
    R.set("sync_waits", Repl.SyncWaits);
    R.set("sync_timeouts", Repl.SyncTimeouts);
    R.set("sync_no_standby", Repl.SyncNoStandby);
    R.set("acked_seq", ReplAckedSeq);
    R.set("last_shipped_seq", ReplLastShippedSeq);
    Out.set("replication", std::move(R));
  }
  Out.set("uptime_ms", UptimeMs);
  Out.set("rss_bytes", RssBytes);
  if (MaxRssBytes) {
    Out.set("rss_watermark_bytes", MaxRssBytes);
    Out.set("rss_headroom_bytes",
            RssBytes < MaxRssBytes ? MaxRssBytes - RssBytes : 0);
  }
  Out.set("cache_enabled", CacheEnabled);
  if (CacheEnabled) {
    Out.set("cache", Cache.toJson());
    if (!WorkerCaches.empty()) {
      JsonValue Ws = JsonValue::object();
      for (const auto &[Pid, S] : WorkerCaches)
        Ws.set(std::to_string(Pid), S.toJson());
      Out.set("worker_caches", std::move(Ws));
    }
  }
  Out.set("process_isolation", ProcessIsolation);
  if (ProcessIsolation) {
    JsonValue S = JsonValue::object();
    S.set("spawns", Super.Spawns);
    S.set("restarts", Super.Restarts);
    S.set("crashes", Super.Crashes);
    S.set("hangs", Super.Hangs);
    S.set("breaker_opens", Super.BreakerOpens);
    S.set("breaker_refusals", Super.BreakerRefusals);
    S.set("workers_alive", static_cast<uint64_t>(Super.WorkersAlive));
    Out.set("supervisor", std::move(S));
  }
  return Out;
}

namespace {

unsigned poolThreads(const ServerOptions &Opts) {
  return Opts.Threads ? Opts.Threads : BatchSlicer::defaultThreads();
}

/// Process mode: the supervisor, its fleet already forked; null in
/// thread mode and where processes cannot be forked (the server then
/// falls back to thread isolation).
std::unique_ptr<Supervisor> startSupervisor(const ServerOptions &Opts,
                                            std::ostream &Log) {
  if (!Opts.IsolateProcess)
    return nullptr;
  SupervisorOptions SOpts = Opts.Super;
  if (!SOpts.Workers)
    SOpts.Workers = poolThreads(Opts);
  SOpts.Exec.DefaultBudget = Opts.DefaultBudget;
  SOpts.Exec.DefaultBudget.Cancel = nullptr; // Never crosses the fork.
  SOpts.Exec.Ladder = Opts.Ladder;
  SOpts.Exec.Cache = Opts.Cache; // Workers build their own.
  auto Super = std::make_unique<Supervisor>(SOpts);
  if (Super->start())
    return Super;
  Log << "jslice_serve: process isolation unavailable on this "
         "platform; falling back to thread isolation\n";
  return nullptr;
}

} // namespace

Server::Server(const ServerOptions &Opts, std::ostream &Out, std::ostream &Log)
    : Opts(Opts), Out(Out), Log(Log),
      DefaultSink([this](const std::string &Line) {
        std::lock_guard<std::mutex> Lock(OutM);
        this->Out << Line << "\n" << std::flush;
      }),
      StartTime(std::chrono::steady_clock::now()),
      Super(startSupervisor(Opts, Log)),
      Pool(poolThreads(Opts)) {
  StandbyMode.store(Opts.Standby, std::memory_order_relaxed);
  EpochA.store(Opts.Epoch, std::memory_order_relaxed);
  if (!Opts.JournalPath.empty()) {
    Wal.setIo(Opts.JournalIoHook);
    // No on-disk repair while a predecessor generation may still be
    // appending: its in-progress record must not read as a torn tail.
    bool Repair = Opts.PredecessorPid <= 0;
    if (!Wal.open(Opts.JournalPath, Opts.JournalRotateBytes,
                  Opts.JournalSyncPolicy, Opts.JournalFlushIntervalMs,
                  Repair)) {
      Log << "jslice_serve: cannot open journal " << Opts.JournalPath
          << "\n";
      noteJournalFailure();
    } else {
      Wal.setGeneration(Opts.Generation);
      // Fencing epoch: a restarting primary *resumes* its on-disk
      // epoch (never bumps it — only promotion does, which is what
      // lets a promoted standby outrank a resurrected ex-primary
      // forever). A standby stays at 0 until promote().
      uint64_t E = Opts.Epoch;
      if (!E && !Opts.Standby)
        E = std::max<uint64_t>(Wal.maxEpochSeen(), 1);
      Wal.setEpoch(E);
      EpochA.store(E, std::memory_order_relaxed);
      Repl = std::make_unique<ReplicationHub>(Wal, Opts.ReplAck);
      JournalCounters JC = Wal.counters();
      if (JC.TornTails)
        Log << "jslice_serve: journal: truncated a torn tail record "
               "(expected after kill -9 or power loss)\n";
      if (JC.CorruptRecords)
        Log << "jslice_serve: journal: mid-file corruption ("
            << JC.CorruptRecords << " record(s)); damaged file kept as "
            << Opts.JournalPath << ".corrupt, " << JC.SalvagedRecords
            << " record(s) salvaged\n";
    }
  }

  // Thread mode (including the fallback above) shares one cache
  // across the pool; process-mode workers each own theirs.
  if (!Super && Opts.Cache.Enabled)
    Cache = std::make_unique<AnalysisCache>(Opts.Cache);
  Exec.DefaultBudget = Opts.DefaultBudget;
  Exec.Ladder = Opts.Ladder;
  Exec.Cache = Opts.Cache;
}

Server::~Server() {
  Pool.drain();
  if (Super)
    Super->stop();
}

namespace {

/// True while \p Pid names a live process (EPERM still means alive).
bool processAlive(long Pid) {
#ifdef JSLICE_HAVE_POSIX_PROCESS
  return ::kill(static_cast<pid_t>(Pid), 0) == 0 || errno == EPERM;
#else
  (void)Pid;
  return false;
#endif
}

} // namespace

unsigned Server::recover() {
  if (Opts.JournalPath.empty())
    return 0;
  if (Opts.PredecessorPid > 0 && processAlive(Opts.PredecessorPid)) {
    // Mid-upgrade handoff: the unmatched begins in the journal are the
    // predecessor's live in-flight requests, not casualties. Hold
    // rotation (a rewrite from this process would strand appends the
    // predecessor makes through its own handle) and wait for the
    // caller to observe its death or clean exit.
    HandoffPending.store(true, std::memory_order_relaxed);
    Wal.holdRotation(true);
    Log << "jslice_serve: journal handoff: deferring recovery while "
           "generation predecessor (pid " << Opts.PredecessorPid
        << ") still runs\n";
    return 0;
  }
  return recoverNow(/*OnlyEarlierGenerations=*/false);
}

unsigned Server::completeHandoff() {
  if (!HandoffPending.exchange(false, std::memory_order_relaxed))
    return 0;
  Wal.holdRotation(false);
  // Only begins stamped by earlier generations are casualties; this
  // process's own in-flight begins carry its generation stamp.
  return recoverNow(/*OnlyEarlierGenerations=*/true);
}

void Server::holdJournalRotation(bool Hold) { Wal.holdRotation(Hold); }

unsigned Server::recoverNow(bool OnlyEarlierGenerations) {
  std::vector<PoisonedRequest> Poisoned =
      scanJournalDetailed(Opts.JournalPath).InFlight;
  unsigned N = 0;
  for (const PoisonedRequest &P : Poisoned) {
    if (OnlyEarlierGenerations && P.Gen >= Opts.Generation)
      continue;
    std::string Repro = quarantinePoisoned(Opts.QuarantineDir, P);
    {
      std::lock_guard<std::mutex> Lock(StateM);
      std::string Key = P.Request.contentKey();
      PoisonKeys.insert(Key);
      PoisonKeyCount.store(PoisonKeys.size(), std::memory_order_relaxed);
      if (!Repro.empty())
        PoisonRepros[Key] = Repro;
      else
        ++Counters.QuarantineFailures;
    }
    if (Repro.empty()) {
      // The reproducer never reached the disk (ENOSPC, permissions),
      // so the journal begin is still the only durable record of this
      // poison. Leave it unmatched — the next boot retries — and keep
      // the in-memory refusal armed for this run.
      Log << "jslice_serve: FAILED to quarantine in-flight request \""
          << P.Id << "\"; leaving its journal record for the next boot\n";
      continue;
    }
    // Close the journal pair so the *next* restart does not quarantine
    // it again: the quarantine files are now the durable record.
    Wal.end(P.Id, "poisoned");
    Log << "jslice_serve: quarantined in-flight request \"" << P.Id << "\""
        << " -> " << Repro << "\n";
    ++N;
  }
  // Every recovered pair is now bracketed; drop the history so the
  // journal restarts minimal instead of replaying an ever-longer
  // prefix on each boot.
  Wal.compact();
  return N;
}

void Server::serve(const ByteReader &Read) {
  auto ShutdownRequested = [this] {
    return Opts.ShutdownFlag &&
           Opts.ShutdownFlag->load(std::memory_order_relaxed);
  };
  LineFramer Lines(Opts.MaxLineBytes);
  char Chunk[65536];
  while (!ShutdownRequested()) {
    if (std::optional<LineFramer::Frame> F = Lines.next()) {
      if (F->Oversized)
        refuseOversizedLine(DefaultSink);
      else
        serveLine(std::string(F->Line));
      continue;
    }
    if (Lines.eof())
      break;
    int64_t N = Read(Chunk, sizeof(Chunk));
    if (N < 0)
      break;
    if (N == 0)
      Lines.finish();
    else
      Lines.feed(Chunk, static_cast<size_t>(N));
  }
  if (ShutdownRequested())
    Draining.store(true, std::memory_order_relaxed);
  Pool.drain();
}

void Server::serve(std::istream &In) {
  std::streambuf *SB = In.rdbuf();
  serve([SB](char *Buf, size_t Size) -> int64_t {
    std::streamsize Avail = SB->in_avail();
    if (Avail > 0)
      return SB->sgetn(Buf, std::min<std::streamsize>(
                                Avail, static_cast<std::streamsize>(Size)));
    int C = SB->sbumpc();
    if (C == std::char_traits<char>::eof())
      return 0;
    Buf[0] = static_cast<char>(C);
    return 1;
  });
}

void Server::serveLine(const std::string &Line) {
  serveLine(Line, DefaultSink);
}

void Server::refuseOversizedLine(const ResponseSink &Sink) {
  Received.fetch_add(1, std::memory_order_relaxed);
  ServiceResponse Resp;
  Resp.Status = ResponseStatus::Shed;
  Resp.Error = "request line exceeds the " +
               std::to_string(Opts.MaxLineBytes) + "-byte cap";
  writeResponse(Resp, Sink);
  recordOutcome(Resp.Status, "", false, -1, 0, "line-cap");
}

bool Server::serveLine(const std::string &Line, const ResponseSink &Sink) {
  if (Line.empty() || Line.find_first_not_of(" \t\r") == std::string::npos)
    return true;
  ParsedRequest P = parseRequestLine(Line);

  // Health probes bypass every lock by design: a load balancer must
  // get its liveness answer even while a stats snapshot (or anything
  // else holding StateM) is in progress — so they are also deliberately
  // absent from the Received counter.
  if (P.Ok && P.Request.Kind == RequestKind::Health) {
    Sink(healthJson().str());
    return true;
  }

  Received.fetch_add(1, std::memory_order_relaxed);

  if (!P.Ok) {
    ServiceResponse R;
    R.Id = P.Id;
    R.Status = ResponseStatus::BadRequest;
    R.Error = P.Error;
    writeResponse(R, Sink);
    recordOutcome(R.Status, "", false, -1, 0);
    return true;
  }

  switch (P.Request.Kind) {
  case RequestKind::Stats: {
    JsonValue V = JsonValue::object();
    V.set("status", "ok");
    JsonValue S = stats().toJson();
    if (TransportStatsFn)
      S.set("transport", TransportStatsFn());
    V.set("stats", std::move(S));
    Sink(V.str());
    break;
  }
  case RequestKind::Health:
    break; // Answered above, before the counter lock.
  case RequestKind::Upgrade: {
    JsonValue V = JsonValue::object();
    if (Opts.UpgradeFlag) {
      Opts.UpgradeFlag->store(true, std::memory_order_relaxed);
      V.set("status", "ok");
      V.set("upgrade", "requested");
    } else {
      V.set("status", "error");
      V.set("upgrade", "unsupported");
      V.set("error", "no upgrade orchestrator on this transport");
    }
    Sink(V.str());
    break;
  }
  case RequestKind::Cancel:
    handleCancel(P.Request, Sink);
    break;
  case RequestKind::Promote: {
    bool WasStandby = standby();
    unsigned Quarantined = 0;
    uint64_t E = promote(&Quarantined);
    JsonValue V = JsonValue::object();
    V.set("status", "ok");
    V.set("promoted", WasStandby);
    V.set("epoch", E);
    if (WasStandby)
      V.set("quarantined", static_cast<uint64_t>(Quarantined));
    else
      V.set("note", "already primary");
    Sink(V.str());
    break;
  }
  case RequestKind::ReplSubscribe: {
    if (!Repl) {
      JsonValue V = JsonValue::object();
      V.set("status", "error");
      V.set("error", "replication requires a journal (--journal)");
      Sink(V.str());
      break;
    }
    // The sink becomes a long-lived record stream; the hello frame the
    // hub writes during catch-up is this line's response. TCP sinks
    // hold their connection state by shared_ptr, so a standby that
    // disconnects just swallows late frames until eviction.
    Repl->subscribe(P.Request.ReplFromSeq, Sink);
    break;
  }
  case RequestKind::ReplAck:
    // One-way by design: an ack response would interleave with record
    // frames on the replication connection. Tell the transport no
    // response is coming so its pending-response count stays honest.
    if (Repl)
      Repl->ack(P.Request.AckSeq);
    return false;
  case RequestKind::Slice: {
    ServiceRequest R = std::move(P.Request);

    // Overload control first: a shed must be cheap — no registry
    // entry, no journal record, no worker.
    if (StandbyMode.load(std::memory_order_relaxed)) {
      shedResponse(R,
                   "standby: warm but not serving until promoted "
                   "(failover target)",
                   "standby", Sink);
      break;
    }
    if (R.MinEpoch &&
        EpochA.load(std::memory_order_relaxed) < R.MinEpoch) {
      // The client has already failed over to a higher-epoch
      // successor; a resurrected ex-primary must refuse, not
      // double-serve (split brain).
      shedResponse(R,
                   "fenced: server epoch " + std::to_string(epoch()) +
                       " is below the request's min_epoch " +
                       std::to_string(R.MinEpoch),
                   "fenced", Sink);
      break;
    }
    if (Draining.load(std::memory_order_relaxed)) {
      shedResponse(R, "server draining for shutdown", "draining", Sink);
      break;
    }
    if (!Opts.JournalPath.empty() &&
        JournalLost.load(std::memory_order_relaxed) &&
        Opts.JournalFailurePolicy == JournalFailure::Degrade &&
        Opts.JournalReattachIntervalMs)
      maybeReattachJournal();
    if (!Opts.JournalPath.empty() &&
        JournalLost.load(std::memory_order_relaxed) &&
        Opts.JournalFailurePolicy != JournalFailure::Degrade) {
      // The journal is gone and the policy says it is load-bearing:
      // a request served without a begin record would be invisible to
      // crash recovery. Refuse deterministically (Abort additionally
      // tripped the drain flag when the failure latched).
      shedResponse(R,
                   "write-ahead journal failed "
                   "(--journal-failure=shed): refusing to serve "
                   "unjournaled requests",
                   "journal-failed", Sink);
      break;
    }
    if (Opts.MaxQueueDepth &&
        QueueDepth.load(std::memory_order_relaxed) >= Opts.MaxQueueDepth) {
      shedResponse(R, "admission queue full", "queue-full", Sink);
      break;
    }
    if (Opts.MaxRssMb && currentRssMb() > Opts.MaxRssMb) {
      // Watermark-coupled eviction: drop cached artifacts before
      // refusing work. The freed memory may not leave the RSS number
      // immediately (the allocator keeps pages), so having evicted
      // anything at all is grounds to admit this request and let the
      // next admission re-measure; only an empty cache sheds.
      uint64_t Evicted =
          Cache ? Cache->evictToward(Cache->bytes() / 2) : 0;
      if (!Evicted) {
        shedResponse(R, "memory watermark exceeded", "rss-watermark", Sink);
        break;
      }
      Log << "jslice_serve: rss watermark tripped; evicted " << Evicted
          << " cached artifact(s)\n";
    }

    std::string PoisonRepro;
    bool IsPoisoned = false;
    bool Duplicate = false;
    std::shared_ptr<InFlight> Flight;
    // The cache front (thread mode, any algorithm but Weiser) hashes
    // the raw program once, here; the poison check, the hit probe and
    // the pool path all read this one hash.
    bool CacheFront = Cache && R.Algorithm != SliceAlgorithm::Weiser;
    CacheAdmission Adm;
    if (CacheFront)
      Adm.RawKey = rawProgramKey(R.Program);
    // The content key hashes the whole request, so it is computed only
    // once something is poisoned, and outside the lock every worker's
    // outcome accounting and {"stats"} wait on.
    std::string Key;
    if (PoisonKeyCount.load(std::memory_order_relaxed))
      Key = R.contentKey();
    {
      std::lock_guard<std::mutex> Lock(StateM);
      if ((!Key.empty() && PoisonKeys.count(Key)) ||
          (!ProgramPoison.empty() &&
           ProgramPoison.count(CacheFront ? Adm.RawKey
                                          : rawProgramKey(R.Program)))) {
        IsPoisoned = true;
        auto It = PoisonRepros.find(Key);
        if (It != PoisonRepros.end())
          PoisonRepro = It->second;
      } else if (Registry.count(R.Id)) {
        Duplicate = true;
      } else {
        Flight = std::make_shared<InFlight>();
        Flight->Enqueued = std::chrono::steady_clock::now();
        Registry[R.Id] = Flight;
      }
    }

    if (IsPoisoned) {
      ServiceResponse Resp;
      Resp.Id = R.Id;
      Resp.Status = ResponseStatus::Poisoned;
      Resp.Error = "request matches a quarantined reproducer from a "
                   "previous crashed run";
      Resp.ReproPath = PoisonRepro;
      writeResponse(Resp, Sink);
      recordOutcome(Resp.Status, "", false, -1, 0);
      break;
    }
    if (Duplicate) {
      ServiceResponse Resp;
      Resp.Id = R.Id;
      Resp.Status = ResponseStatus::BadRequest;
      Resp.Error = "request id already in flight";
      writeResponse(Resp, Sink);
      recordOutcome(Resp.Status, "", false, -1, 0);
      break;
    }

    // Write-ahead: the begin record must be durable before any
    // slicing work can crash the process. An append failure here is
    // the disk speaking; the --journal-failure policy answers.
    uint64_t BeginSeq = 0;
    if (!Opts.JournalPath.empty() &&
        !JournalLost.load(std::memory_order_relaxed) &&
        !Wal.begin(R, &BeginSeq)) {
      noteJournalFailure();
      if (Opts.JournalFailurePolicy != JournalFailure::Degrade) {
        {
          std::lock_guard<std::mutex> Lock(StateM);
          Registry.erase(R.Id);
        }
        shedResponse(R,
                     "write-ahead journal failed while recording this "
                     "request (--journal-failure=" +
                         std::string(journalFailureName(
                             Opts.JournalFailurePolicy)) +
                         ")",
                     "journal-failed", Sink);
        break;
      }
      // Degrade: serve on; the journal is marked lost and {"health"}
      // says so.
    }
    bool Hang = !Opts.HangAfterBeginId.empty() &&
                R.Id == Opts.HangAfterBeginId;
    // --repl-ack=sync: hold the response (bounded) until a standby has
    // durably applied the begin record. The wait runs on the pool
    // thread, never the reactor — the reactor must stay free to read
    // the subscriber connection that delivers the very ack being
    // waited on. A timeout or missing standby opens a counted loss
    // window; it never blocks serving.
    bool AwaitAck =
        BeginSeq != 0 && Repl && Repl->policy() == ReplAckPolicy::Sync;

    // A cache hit that is ready to serve — memo, slot and closures all
    // built — is answered here, on the thread that read the line: it
    // parses, waits and builds nothing, so it costs less than the hop
    // to a pool thread and back. Everything else goes to the pool with
    // what the probe learned.
    if (CacheFront && !Hang && !AwaitAck) {
      auto Start = std::chrono::steady_clock::now();
      if (std::optional<ServiceResponse> Resp =
              serveReadyHit(R, Exec, &Flight->Cancel, *Cache, Adm)) {
        Resp->LatencyMs = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - Start)
                              .count();
        finishSlice(*Resp, Resp->str(), Sink, /*RungTrips=*/0, "",
                    /*Inline=*/true);
        break;
      }
    }

    // The program literal views the line, which dies with this call.
    R.ProgramLiteral = {};
    QueueDepth.fetch_add(1, std::memory_order_relaxed);
    Pool.submit([this, R = std::move(R), Flight = std::move(Flight),
                 Adm = std::move(Adm), CacheFront, Hang, AwaitAck, BeginSeq,
                 Sink]() mutable {
      if (Hang)
        std::this_thread::sleep_for(std::chrono::hours(1));
      if (AwaitAck)
        Repl->waitAcked(BeginSeq, Opts.ReplAckTimeoutMs);
      handleSlice(std::move(R), Flight, CacheFront ? &Adm : nullptr, Sink);
    });
    break;
  }
  }
  return true;
}

void Server::finish() {
  Pool.drain();
  if (Super)
    Super->stop();
  if (Wal.enabled())
    Wal.shutdownRecord();
}

void Server::shedResponse(const ServiceRequest &R, const std::string &Why,
                          const char *Cause, const ResponseSink &Sink) {
  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.Status = ResponseStatus::Shed;
  Resp.Error = Why;
  writeResponse(Resp, Sink);
  recordOutcome(Resp.Status, "", false, -1, 0, Cause);
}

uint64_t Server::promote(unsigned *QuarantinedOut) {
  if (QuarantinedOut)
    *QuarantinedOut = 0;
  std::lock_guard<std::mutex> Lock(PromoteM);
  if (!StandbyMode.load(std::memory_order_relaxed))
    return EpochA.load(std::memory_order_relaxed);
  // Quiesce the tail first: recovery must scan a replica journal that
  // nothing is appending to.
  if (PromoteHook)
    PromoteHook();
  // Fence the old primary: outrank every epoch this replica ever saw.
  // A resurrected ex-primary resumes its old (lower) epoch and sheds
  // any request carrying our epoch as min_epoch.
  uint64_t E = std::max(Wal.maxEpochSeen(),
                        EpochA.load(std::memory_order_relaxed)) +
               1;
  Wal.setEpoch(E);
  EpochA.store(E, std::memory_order_relaxed);
  unsigned N = 0;
  if (!Opts.JournalPath.empty() &&
      !JournalLost.load(std::memory_order_relaxed))
    N = recoverNow(/*OnlyEarlierGenerations=*/false);
  StandbyMode.store(false, std::memory_order_relaxed);
  Log << "jslice_serve: promoted to primary at epoch " << E << " (" << N
      << " in-flight request(s) quarantined from the dead primary)\n";
  if (QuarantinedOut)
    *QuarantinedOut = N;
  return E;
}

void Server::maybeReattachJournal() {
  uint64_t Now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  uint64_t Last = LastReattachMs.load(std::memory_order_relaxed);
  if (Last && Now - Last < Opts.JournalReattachIntervalMs)
    return;
  // One probe per interval across all serving threads.
  if (!LastReattachMs.compare_exchange_strong(Last, Now,
                                              std::memory_order_relaxed))
    return;
  if (Wal.tryReattach()) {
    JournalLost.store(false, std::memory_order_relaxed);
    Log << "jslice_serve: journal " << Opts.JournalPath
        << " reattached after failure; resuming journaling\n";
  }
}

void Server::noteJournalFailure() {
  if (JournalLost.exchange(true, std::memory_order_relaxed))
    return;
  const char *Action = "refusing new requests until restart";
  switch (Opts.JournalFailurePolicy) {
  case JournalFailure::Shed:
    break;
  case JournalFailure::Degrade:
    Action = "serving on with the journal marked lost";
    break;
  case JournalFailure::Abort:
    Action = "aborting into a clean drain";
    JournalAborted.store(true, std::memory_order_relaxed);
    if (Opts.AbortFlag)
      Opts.AbortFlag->store(true, std::memory_order_relaxed);
    break;
  }
  Log << "jslice_serve: journal " << Opts.JournalPath
      << " failed persistently; --journal-failure="
      << journalFailureName(Opts.JournalFailurePolicy) << ": " << Action
      << "\n";
}

void Server::handleCancel(const ServiceRequest &R,
                          const ResponseSink &Sink) {
  bool Signalled = false;
  {
    std::lock_guard<std::mutex> Lock(StateM);
    auto It = Registry.find(R.CancelTarget);
    if (It != Registry.end()) {
      It->second->Cancel.store(true, std::memory_order_relaxed);
      Signalled = true;
    }
  }
  JsonValue V = JsonValue::object();
  V.set("cancel", R.CancelTarget);
  V.set("status", "ok");
  V.set("signalled", Signalled);
  Sink(V.str());
}

/// Ships the request to a sandbox worker. Returns true when \p
/// RawResponse holds the worker's own response line (pass it through);
/// false when \p Resp was synthesized here (crash, breaker, failure).
bool Server::handleSliceSandboxed(const ServiceRequest &R,
                                  ServiceResponse &Resp,
                                  std::string &RawResponse,
                                  uint64_t &RungTrips) {
  // Worst-case ladder latency: the geometric deadline ladder sums to
  // < 2x the first rung; 3x plus slack covers scheduling noise
  // without masking a genuine hang for long.
  uint64_t D = R.BudgetMs ? R.BudgetMs : Opts.DefaultBudget.DeadlineMs;
  int64_t TimeoutMs = D ? static_cast<int64_t>(3 * D + 500) : 0;

  DispatchResult Res = Super->dispatch(R, TimeoutMs);
  switch (Res.K) {
  case DispatchResult::Kind::Served: {
    std::optional<JsonValue> V = JsonValue::parse(Res.ResponseJson);
    const JsonValue *Status = V ? V->find("status") : nullptr;
    std::optional<ResponseStatus> S =
        Status && Status->isString()
            ? responseStatusByName(Status->asString())
            : std::nullopt;
    if (!V || !S) {
      // A worker that answers garbage is as broken as one that died.
      Resp.Status = ResponseStatus::Error;
      Resp.Error = "sandbox worker returned an unparseable response";
      return false;
    }
    Resp.Status = *S;
    if (const JsonValue *Tier = V->find("served_tier"))
      if (Tier->isString())
        Resp.ServedTier = Tier->asString();
    if (const JsonValue *Deg = V->find("degraded"))
      if (Deg->isBool())
        Resp.Degraded = Deg->asBool();
    if (const JsonValue *Attempts = V->find("attempts"))
      if (Attempts->isArray())
        for (const JsonValue &A : Attempts->elements())
          if (const JsonValue *O = A.find("outcome"))
            RungTrips += O->isString() &&
                         O->asString() == "resource-exhausted";
    // Peel off the piggybacked per-worker cache counters: they are
    // operator telemetry for {"stats"}, not part of the caller's
    // response.
    if (const JsonValue *WC = V->find("worker_cache")) {
      int64_t Pid = 0;
      if (const JsonValue *WP = V->find("worker_pid"))
        if (WP->isNumber())
          Pid = WP->asInt();
      if (std::optional<CacheStats> Snap = CacheStats::fromJson(*WC)) {
        std::lock_guard<std::mutex> Lock(StateM);
        // A worker killed since it answered may already be retired by
        // stats(); re-adding its snapshot would count its counters
        // twice. Dropping it loses only this one response's increments.
        if (Super->stats().isLive(Pid))
          WorkerCacheSnapshots[Pid] = *Snap;
      }
      V->remove("worker_cache");
      V->remove("worker_pid");
      RawResponse = V->str();
    } else {
      RawResponse = std::move(Res.ResponseJson);
    }
    return true;
  }
  case DispatchResult::Kind::Crashed:
    Resp.Status = ResponseStatus::Crashed;
    Resp.Error = "sandbox worker " +
                 (Res.CrashDetail.empty() ? std::string("died")
                                          : Res.CrashDetail);
    quarantineCrashed(R, Resp);
    return false;
  case DispatchResult::Kind::BreakerOpen:
    Resp.Status = ResponseStatus::Shed;
    Resp.Error = Res.CrashDetail;
    return false;
  case DispatchResult::Kind::Failed:
    Resp.Status = ResponseStatus::Error;
    Resp.Error = "process isolation unavailable: " + Res.CrashDetail;
    return false;
  }
  Resp.Status = ResponseStatus::Error;
  Resp.Error = "unknown dispatch outcome";
  return false;
}

/// A crash quarantines the request exactly like journal recovery
/// would: reproducer on disk, content key armed, resubmission refused.
void Server::quarantineCrashed(const ServiceRequest &R,
                               ServiceResponse &Resp) {
  PoisonedRequest P;
  P.Id = R.Id;
  P.Request = R;
  std::string Repro = quarantinePoisoned(Opts.QuarantineDir, P);
  {
    std::lock_guard<std::mutex> Lock(StateM);
    std::string Key = R.contentKey();
    PoisonKeys.insert(Key);
    PoisonKeyCount.store(PoisonKeys.size(), std::memory_order_relaxed);
    if (!Repro.empty())
      PoisonRepros[Key] = Repro;
    else
      ++Counters.QuarantineFailures;
    // Program-level escalation: two crashes on the same source (any
    // criterion) quarantine the whole program, refusing it at
    // admission before it can reach another worker — and with it that
    // worker's analysis cache. Raw-byte key only: parsing a
    // worker-killing program in the server is how the server joins
    // the casualty list.
    if (++ProgramCrashCounts[rawProgramKey(R.Program)] >= 2)
      ProgramPoison.insert(rawProgramKey(R.Program));
  }
  Resp.ReproPath = Repro;
  Log << "jslice_serve: worker crashed on request \"" << R.Id << "\" ("
      << Resp.Error << ")" << (Repro.empty() ? "" : " -> " + Repro) << "\n";
}

void Server::handleSlice(ServiceRequest R,
                         const std::shared_ptr<InFlight> &Flight,
                         const CacheAdmission *Adm, const ResponseSink &Sink) {
  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.Requested = algorithmName(R.Algorithm);

  auto Start = std::chrono::steady_clock::now();
  uint64_t RungTrips = 0;
  bool Raw = false;
  std::string RawResponse;

  double QueuedMs =
      std::chrono::duration<double, std::milli>(Start - Flight->Enqueued)
          .count();

  std::string ShedCause;
  if (Flight->Cancel.load(std::memory_order_relaxed)) {
    // Cancelled while still queued: never ran, nothing to report.
    Resp.Status = ResponseStatus::Cancelled;
    Resp.Error = "cancelled before execution";
  } else if (Opts.QueueDeadlineMs &&
             QueuedMs > static_cast<double>(Opts.QueueDeadlineMs)) {
    // The caller gave up on this request long ago; running it now
    // only steals a worker from a request that can still be saved.
    Resp.Status = ResponseStatus::Shed;
    Resp.Error = "queue deadline exceeded before execution";
    ShedCause = "queue-deadline";
  } else if (Super) {
    Raw = handleSliceSandboxed(R, Resp, RawResponse, RungTrips);
    if (Resp.Status == ResponseStatus::Shed)
      ShedCause = "breaker-open"; // The only shed the sandbox path emits.
  } else {
    Resp = executeSliceRequest(R, Exec, &Flight->Cancel, &RungTrips,
                               Cache.get(), Adm);
  }

  double LatencyMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - Start)
          .count();
  Resp.LatencyMs = LatencyMs;

  std::string Line;
  if (Raw) {
    // Pass the worker's line through, stamped with the latency the
    // caller actually experienced (IPC included).
    std::optional<JsonValue> V = JsonValue::parse(RawResponse);
    if (V) {
      V->set("latency_ms", LatencyMs);
      Line = V->str();
    } else {
      Line = std::move(RawResponse);
    }
  } else {
    Line = Resp.str();
  }
  finishSlice(Resp, Line, Sink, RungTrips, ShedCause, /*Inline=*/false);
  QueueDepth.fetch_sub(1, std::memory_order_relaxed);
}

void Server::finishSlice(const ServiceResponse &Resp, const std::string &Line,
                         const ResponseSink &Sink, uint64_t RungTrips,
                         const std::string &ShedCause, bool Inline) {
  if (!Opts.JournalPath.empty() &&
      !JournalLost.load(std::memory_order_relaxed) &&
      !Wal.end(Resp.Id, responseStatusName(Resp.Status)))
    noteJournalFailure();
  // Release the id and count the outcome before the caller can see the
  // response: a client that resubmits the same id once it holds its
  // answer must be admitted, not told the id is still in flight, and a
  // {"stats"} it sends next must already count this answer.
  {
    std::lock_guard<std::mutex> Lock(StateM);
    Registry.erase(Resp.Id);
    recordOutcomeLocked(Resp.Status, Resp.ServedTier, Resp.Degraded,
                        Resp.LatencyMs, RungTrips, ShedCause);
    Counters.ServedInline += Inline;
  }
  Sink(Line);
}

void Server::writeResponse(const ServiceResponse &R,
                           const ResponseSink &Sink) {
  Sink(R.str());
}

void Server::recordOutcome(ResponseStatus Status,
                           const std::string &ServedTier, bool Degraded,
                           double LatencyMs, uint64_t RungTrips,
                           const std::string &ShedCause) {
  std::lock_guard<std::mutex> Lock(StateM);
  recordOutcomeLocked(Status, ServedTier, Degraded, LatencyMs, RungTrips,
                      ShedCause);
}

void Server::recordOutcomeLocked(ResponseStatus Status,
                                 const std::string &ServedTier, bool Degraded,
                                 double LatencyMs, uint64_t RungTrips,
                                 const std::string &ShedCause) {
  Counters.GuardTrips += RungTrips;
  if (!ShedCause.empty())
    ++Counters.ShedByCause[ShedCause];
  if (LatencyMs >= 0)
    LatencyUs.record(static_cast<uint64_t>(LatencyMs * 1000));
  switch (Status) {
  case ResponseStatus::Ok:
    ++Counters.Served;
    if (Degraded)
      ++Counters.Degraded;
    ++Counters.TierHistogram[ServedTier];
    break;
  case ResponseStatus::ResourceExhausted:
    ++Counters.Refused;
    break;
  case ResponseStatus::Error:
    ++Counters.Errors;
    break;
  case ResponseStatus::BadRequest:
    ++Counters.BadRequests;
    break;
  case ResponseStatus::Cancelled:
    ++Counters.Cancelled;
    break;
  case ResponseStatus::Poisoned:
    ++Counters.Poisoned;
    break;
  case ResponseStatus::Crashed:
    ++Counters.Crashed;
    break;
  case ResponseStatus::Shed:
    ++Counters.Shed;
    break;
  }
}

JsonValue Server::healthJson() const {
  JsonValue V = JsonValue::object();
  bool Degraded = false;
  V.set("uptime_ms",
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - StartTime)
                .count()));
  if (Opts.Generation)
    V.set("generation", Opts.Generation);
  bool Standby = StandbyMode.load(std::memory_order_relaxed);
  V.set("role", Standby ? "standby" : "primary");
  uint64_t E = EpochA.load(std::memory_order_relaxed);
  if (E)
    V.set("epoch", E);
  bool Drain = Draining.load(std::memory_order_relaxed);
  V.set("draining", Drain);
  Degraded |= Drain;
  bool Breaker = Super && Super->breakerOpenNow();
  V.set("breaker_open", Breaker);
  Degraded |= Breaker;
  if (!Opts.JournalPath.empty()) {
    bool Lost = JournalLost.load(std::memory_order_relaxed);
    V.set("journal", Lost ? "lost" : "ok");
    Degraded |= Lost;
  }
  V.set("handoff_pending", HandoffPending.load(std::memory_order_relaxed));
  if (ReplProbeFn)
    V.set("replication", ReplProbeFn());
  if (HealthProbeFn) {
    JsonValue T = HealthProbeFn();
    if (const JsonValue *W = T.find("wedged"))
      Degraded |= W->isBool() && W->asBool();
    V.set("transport", std::move(T));
  }
  V.set("status", "ok");
  if (Degraded)
    V.set("degraded", true);
  return V;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> Lock(StateM);
  ServerStats S = Counters;
  S.Received = Received.load(std::memory_order_relaxed);
  S.Generation = Opts.Generation;
  S.Epoch = EpochA.load(std::memory_order_relaxed);
  S.Standby = StandbyMode.load(std::memory_order_relaxed);
  if (Repl) {
    S.Repl = Repl->counters();
    S.ReplAckedSeq = Repl->ackedSeq();
    S.ReplLastShippedSeq = Repl->lastShippedSeq();
  }
  S.UptimeMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - StartTime)
          .count());
  S.P50Ms = LatencyUs.percentile(50) / 1000;
  S.P95Ms = LatencyUs.percentile(95) / 1000;
  S.ProcessIsolation = Super != nullptr;
  if (Super)
    S.Super = Super->stats();
  if (!Opts.JournalPath.empty()) {
    JournalCounters JC = Wal.counters();
    S.JournalAppendFailures = JC.AppendFailures;
    S.JournalReopens = JC.Reopens;
    S.JournalCorruption = JC.CorruptRecords;
    S.JournalTornTails = JC.TornTails;
    S.JournalRotationFailures = JC.RotationFailures;
    S.JournalLost = JournalLost.load(std::memory_order_relaxed);
  }
  S.RssBytes = currentRssMb() << 20;
  S.MaxRssBytes = Opts.MaxRssMb << 20;
  S.CacheEnabled = Opts.Cache.Enabled;
  if (Cache) {
    S.Cache = Cache->stats();
  } else if (Opts.Cache.Enabled) {
    // Retire dead workers: their counters fold into the retired total
    // once (counters stay monotone), their gauges drop to zero (the
    // entries and bytes count only caches that still exist).
    std::erase_if(WorkerCacheSnapshots, [&](const auto &Entry) {
      if (S.Super.isLive(Entry.first))
        return false;
      CacheStats Dead = Entry.second;
      Dead.Entries = Dead.Bytes = 0;
      RetiredWorkerCaches.add(Dead);
      return true;
    });
    S.WorkerCaches = WorkerCacheSnapshots;
    S.Cache = RetiredWorkerCaches;
    for (const auto &[Pid, Snap] : S.WorkerCaches)
      S.Cache.add(Snap);
  }
  return S;
}
