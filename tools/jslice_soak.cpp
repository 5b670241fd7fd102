//===- tools/jslice_soak.cpp - Slicing-service soak driver --------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The service's acceptance gate. Every mode is a scenario built from the
/// harness (tools/harness/Harness.h) and ends in the same exactly-once
/// audit: each request answered once, with a legal status, and every
/// resource-exhausted refusal showing the whole ladder consumed.
///
///   (default)          volume soak: starved budgets, cancels, garbage, stats
///   --fault-stride N   a checkpoint fault at every Nth ordinal of one serve
///   --crash-matrix     SIGKILL sandbox workers; restarts must equal kills
///   --net              over TCP through the chaos proxy, beside a clean
///                      control connection that must see no errors
///   --disk-chaos       journal I/O faults at sampled ordinals, the
///                      --journal-failure triad, and a sharded TCP pass
///   --upgrade-matrix   a real jslice_serve dynasty through UpgradeScenarios
///   --failover-matrix  a real primary/standby pair through FailoverScenarios
///   --audit-seeds N    cached replays must slice like the cold build
///   --bench            isolation, transport, journal-sync, replication,
///                      Zipf cache and shard-ladder numbers (--out FILE)
///
/// The volume soak, fault sweep, crash matrix and net soak run with the
/// analysis cache on (override with --cache off).
///
/// Exit codes: 0 — no violations; 1 — at least one violation; 2 —
/// usage error.
///
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include "gen/ProgramGenerator.h"
#include "net/Socket.h"
#include "net/StandbyTail.h"
#include "service/Journal.h"
#include "service/JournalIo.h"
#include "support/LineFramer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

using namespace jslice;
using namespace jslice::harness;

namespace {

unsigned long long ull(uint64_t V) { return V; }

void sleepMs(uint64_t Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

int usage() {
  std::fputs(
      "usage: jslice_soak [--requests N] [--programs N] [--stmts N] "
      "[--threads N]\n"
      "  [--seed N] [--fault-stride N] [--journal FILE] [--isolate "
      "thread|process]\n"
      "  [--workers N] [--crash-matrix] [--kill-interval-ms N] "
      "[--breaker-threshold N]\n"
      "  [--quarantine DIR] [--bench] [--out FILE] [--net] "
      "[--net-clients N]\n"
      "  [--shards N] [--disk-chaos] [--upgrade-matrix --serve-bin PATH] "
      "[--upgrades N]\n"
      "  [--failover-matrix --serve-bin PATH] [--repl-ack "
      "async|flush|sync]\n"
      "  [--cache on|off] [--cache-entries N] [--cache-bytes N]\n"
      "  [--cache-audit-every N] [--audit-seeds N] [--verbose]\n",
      stderr);
  return 2;
}

/// A pure slice-request stream: no garbage, no cancels, so "answered
/// exactly once" is attributable to the layer under test alone.
std::vector<std::string> sliceLines(const SoakOptions &Opts,
                                    const std::vector<SoakProgram> &Programs,
                                    const std::string &Prefix = "q") {
  std::vector<std::string> Lines;
  for (uint64_t I = 0; I != Opts.Requests; ++I)
    Lines.push_back(
        soakRequest(Programs, I, Prefix + std::to_string(I)).toJson().str());
  return Lines;
}

/// Line \p I of the volume stream: every 97th is garbage (it must
/// bounce as bad-request, never wedge the reader), and some budgets are
/// starved so the degradation ladder must walk. False for garbage.
bool volumeLine(const std::vector<SoakProgram> &Programs, uint64_t I,
                std::string &Line) {
  if (I % 97 == 96) {
    Line = I % 2 ? "{\"id\": 42}" : "{not json";
    return false;
  }
  ServiceRequest R = soakRequest(Programs, I, "q" + std::to_string(I));
  if (I % 7 == 3)
    R.MaxSteps = 200 + (I % 5) * 100;
  if (I % 13 == 6)
    R.BudgetMs = 1; // Deadline-starved.
  Line = R.toJson().str();
  return true;
}

/// A two-line request every tier serves ok.
std::string tinyRequest(const std::string &Id) {
  ServiceRequest R;
  R.Id = Id;
  R.Program = "read(a);\nwrite(a);\n";
  R.Line = 2;
  R.Vars = {"a"};
  return R.toJson().str();
}

/// --net-clients retrying clients (64 attempts, fast backoff) at \p Port.
PumpOptions pumpOptions(const SoakOptions &Opts, uint16_t Port,
                        uint64_t Requests, const char *Scene) {
  PumpOptions PO;
  PO.Client.Port = Port;
  PO.Client.MaxAttempts = 64;
  PO.Client.BackoffBaseMs = 2;
  PO.Client.BackoffCapMs = 100;
  PO.Client.ResponseTimeoutMs = 60000;
  PO.Clients = Opts.NetClients;
  PO.Seed = Opts.Seed;
  PO.Requests = Requests;
  PO.Scene = Scene;
  return PO;
}

/// The corpus request stream for a LoadPump, ids \p Prefix + index.
RequestGen corpus(const std::vector<SoakProgram> &Programs,
                  const std::string &Prefix, bool RotateAlgorithm = true) {
  return [&Programs, Prefix, RotateAlgorithm](uint64_t I) {
    return soakRequest(Programs, I, Prefix + std::to_string(I),
                       RotateAlgorithm)
        .toJson()
        .str();
  };
}

std::string joinLines(const std::vector<std::string> &Lines) {
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// One stdin serve on a fresh server, audited into \p A; \p Final gets
/// the settled counters (an in-band {"stats"} races the queue).
std::string serveStdin(const SoakOptions &Opts, const ServerOptions &SOpts,
                       const std::string &Input, Audit &A,
                       ServerStats *Final = nullptr) {
  InProcessService Svc(SOpts, Opts.Verbose);
  Svc.server().recover();
  Svc.serve(Input);
  Svc.finish();
  if (Final)
    *Final = Svc.server().stats();
  A.text(Svc.output());
  return Svc.output();
}

/// The settled cache counters: self-audit mismatches must be zero (a
/// mismatch means a cached slice differed from a fresh computation).
std::optional<CacheStats> checkCacheStats(const SoakOptions &Opts,
                                          const ServerStats &Final,
                                          uint64_t &Violations) {
  if (Final.CacheEnabled != Opts.CacheEnabled) {
    violation(Violations,
              "server reports cache_enabled=%d but the soak configured %d",
              Final.CacheEnabled, Opts.CacheEnabled);
    return std::nullopt;
  }
  if (!Opts.CacheEnabled)
    return std::nullopt;
  if (Final.Cache.AuditMismatches)
    violation(Violations, "cache self-audit caught %llu divergent slices",
              ull(Final.Cache.AuditMismatches));
  return Final.Cache;
}

/// The in-band {"stats"} reply must carry the cache and rss telemetry.
/// Its counters race the queue, so only the shape is asserted.
void checkStatsExposure(const SoakOptions &Opts, const Audit &A,
                        uint64_t &Violations) {
  std::optional<JsonValue> V = JsonValue::parse(A.StatsLine);
  const JsonValue *Stats = V && V->isObject() ? V->find("stats") : nullptr;
  if (!Stats || !Stats->isObject()) {
    violation(Violations, "no parseable stats reply captured");
    return;
  }
  const JsonValue *Enabled = Stats->find("cache_enabled");
  bool ReportsEnabled = Enabled && Enabled->isBool() && Enabled->asBool();
  if (ReportsEnabled != Opts.CacheEnabled ||
      (Opts.CacheEnabled && !Stats->find("cache")) ||
      !Stats->find("rss_bytes"))
    violation(Violations, "stats reply missing cache/rss telemetry: %s",
              A.StatsLine.c_str());
}

/// SIGKILLs a random sandbox worker every --kill-interval-ms until
/// settle(), which then holds the supervisor to one respawn per kill.
class Executioner {
public:
  Executioner(Server &S, const SoakOptions &Opts)
      : S(S), Killer([this, &Opts] {
          uint64_t Rng = Opts.Seed ? Opts.Seed : 0x9e3779b97f4a7c15ull;
          for (sleepMs(Opts.KillIntervalMs); !Done.load();
               sleepMs(Opts.KillIntervalMs))
            Kills += this->S.supervisor()->chaosKillWorker(Rng) > 0;
        }) {}
  ~Executioner() { stop(); }
  void settle(uint64_t &Violations) {
    stop();
    // Give the monitor time to work through backoff and any breaker
    // cooldown before holding it to the count.
    waitFor([&] { return S.supervisor()->restarts() >= Kills; }, 10000, 25);
    Restarts = S.supervisor()->restarts();
    if (Restarts != Kills)
      violation(Violations, "%llu chaos kills but %llu supervisor restarts",
                ull(Kills), ull(Restarts));
  }
  uint64_t Kills = 0, Restarts = 0;

private:
  void stop() {
    Done.store(true);
    if (Killer.joinable())
      Killer.join();
  }
  Server &S;
  std::atomic<bool> Done{false};
  std::thread Killer; ///< Last: starts once the members it uses exist.
};

int runVolumeSoak(const SoakOptions &Opts) {
  std::vector<SoakProgram> Programs = buildPrograms(Opts);
  std::ostringstream Stream;
  uint64_t Slices = 0, Cancels = 0, BadLines = 0;
  for (uint64_t I = 0; I != Opts.Requests; ++I) {
    std::string Line;
    bool Slice = volumeLine(Programs, I, Line);
    Stream << Line << "\n";
    ++(Slice ? Slices : BadLines);
    if (Slice && I % 101 == 100) {
      // Cancel a request that is queued, running, or already done —
      // all three must be safe.
      Stream << "{\"cancel\": \"q" << (I - 1) << "\"}\n";
      ++Cancels;
    }
  }
  Stream << "{\"stats\": true}\n";

  Audit A;
  ServerStats Final;
  serveStdin(Opts, serverOptions(Opts), Stream.str(), A, &Final);
  A.finishExactlyOnce(Slices);
  if (A.StatsReplies != 1 || A.CancelAcks != Cancels)
    A.fail(std::to_string(A.StatsReplies) + " stats replies, " +
           std::to_string(A.CancelAcks) + " cancel acks (expected 1, " +
           std::to_string(Cancels) + ")");
  std::optional<CacheStats> CS = checkCacheStats(Opts, Final, A.Violations);
  checkStatsExposure(Opts, A, A.Violations);
  // More programs than one shared cache holds: the cache fills, so the
  // run must decline first sightings and still hit, or the full-cache
  // admission path went unexercised.
  if (CS && !Opts.IsolateProcess && Opts.CacheEntries &&
      Opts.Programs > Opts.CacheEntries && (!CS->Declined || !CS->Hits))
    violation(A.Violations,
              "full-cache run saw %llu declined admissions and %llu hits; "
              "both must be nonzero",
              ull(CS->Declined), ull(CS->Hits));

  std::printf("jslice_soak: %llu requests (%llu slices, %llu cancels, %llu "
              "bad lines) -> %llu responses, %llu degraded serves\n",
              ull(Slices + Cancels + BadLines + 1), ull(Slices), ull(Cancels),
              ull(BadLines), ull(A.Responses), ull(A.DegradedServes));
  if (CS)
    std::printf("               cache              %llu hits (%llu served "
                "inline) / %llu misses (%llu declined), %llu coalesced, "
                "%llu evictions, %llu audits (%llu mismatches)\n",
                ull(CS->Hits), ull(Final.ServedInline), ull(CS->Misses),
                ull(CS->Declined), ull(CS->Coalesced), ull(CS->Evictions),
                ull(CS->Audits), ull(CS->AuditMismatches));
  A.printSummary();
  return A.Violations ? 1 : 0;
}

int runFaultSweep(const SoakOptions &CliOpts) {
  // Each request goes three times (a miss, then two audited hits) so
  // the swept ordinals cover the cache checkpoints too: a fault there
  // must degrade to the plain ladder, never to a lost or wrong answer.
  constexpr unsigned Reps = 3;
  SoakOptions Opts = CliOpts;
  if (Opts.CacheEnabled && !Opts.CacheAuditEvery)
    Opts.CacheAuditEvery = 1;
  // Threads = 1 keeps the process-wide fault ordinal deterministic.
  ServerOptions SOpts = serverOptions(Opts);
  SOpts.Threads = 1;
  std::vector<SoakProgram> Programs = buildPrograms(Opts);
  if (Programs.size() > 5)
    Programs.resize(5); // Every ordinal of five programs is plenty.

  uint64_t FaultRuns = 0, Violations = 0;
  for (size_t PI = 0; PI != Programs.size(); ++PI) {
    std::string Input;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      std::string Id = "f" + std::to_string(PI) + "-" + std::to_string(Rep);
      Input += soakRequest({Programs[PI]}, 0, Id, false).toJson().str() + "\n";
    }

    // Size the clean serve in checkpoints.
    FaultInjection::resetCount();
    Audit Clean;
    serveStdin(Opts, SOpts, Input, Clean);
    Violations += Clean.Violations;
    uint64_t Total = FaultInjection::observedCheckpoints();
    for (uint64_t At = 1; At <= Total; At += Opts.FaultStride) {
      FaultInjection::ScopedArm Arm(At);
      ++FaultRuns;
      Audit A("fault@" + std::to_string(At) + " of program " +
              std::to_string(PI));
      serveStdin(Opts, SOpts, Input, A);
      Violations += A.finishExactlyOnce(Reps);
    }

    // Disarmed, all three must be served again (no sticky state), and
    // the cache's every-hit audit must have found nothing.
    Audit A;
    ServerStats Final;
    std::string Text = serveStdin(Opts, SOpts, Input, A, &Final);
    Violations += A.Violations;
    if (A.status("ok") != Reps)
      violation(Violations, "program %zu not served after the sweep: %s", PI,
                Text.c_str());
    checkCacheStats(Opts, Final, Violations);
  }
  std::printf("jslice_soak: fault sweep — %llu injected serves across %zu "
              "programs, %llu violations\n",
              ull(FaultRuns), Programs.size(), ull(Violations));
  return Violations ? 1 : 0;
}

int runCrashMatrix(const SoakOptions &Opts) {
  std::vector<SoakProgram> Programs = buildPrograms(Opts);
  std::string Input = joinLines(sliceLines(Opts, Programs));
  ServerOptions SOpts = serverOptions(Opts);
  SOpts.IsolateProcess = true;
  InProcessService Svc(SOpts, Opts.Verbose);
  if (!Svc.server().supervisor()) {
    std::fprintf(stderr, "jslice_soak: process isolation unavailable on "
                         "this platform; crash matrix skipped\n");
    return 0;
  }
  Audit A;
  A.RequireCrashRepro = true;
  Executioner Chaos(Svc.server(), Opts);
  Svc.serve(Input);
  Chaos.settle(A.Violations);
  uint64_t Crashes = Svc.server().supervisor()->crashes();
  Svc.finish();
  A.text(Svc.output());
  A.finishExactlyOnce(Opts.Requests);
  std::printf("jslice_soak: crash matrix — %llu requests, %llu kills, "
              "%llu restarts, %llu worker crashes\n",
              ull(Opts.Requests), ull(Chaos.Kills), ull(Chaos.Restarts),
              ull(Crashes));
  A.printSummary();
  return A.Violations ? 1 : 0;
}


/// What one faulted serve pass produced, beyond the response audit.
struct DiskRun {
  ServerStats Final;
  bool JournalLost = false, Aborted = false;
};

/// One serve pass with journal I/O through \p Io: one worker thread
/// keeps the I/O ordinals deterministic, a small rotation threshold
/// keeps compaction renames inside the swept space.
DiskRun serveDiskChaos(const SoakOptions &Opts, const std::string &Input,
                       const std::string &JPath, JournalIo *Io,
                       JournalFailure Policy, Audit &A,
                       std::atomic<bool> *Stop = nullptr) {
  ServerOptions SOpts = serverOptions(Opts);
  SOpts.Threads = 1;
  SOpts.JournalPath = JPath;
  SOpts.JournalRotateBytes = 2048;
  SOpts.JournalFailurePolicy = Policy;
  SOpts.JournalIoHook = Io;
  SOpts.ShutdownFlag = Stop;
  SOpts.AbortFlag = Stop;
  InProcessService Svc(SOpts, Opts.Verbose);
  Svc.server().recover();
  Svc.serve(Input);
  Svc.finish();
  DiskRun R;
  R.Final = Svc.server().stats();
  R.JournalLost = Svc.server().journalLost();
  R.Aborted = Svc.server().journalAborted();
  A.text(Svc.output());
  return R;
}

/// Post-run forensics: the surviving journal scans clean (a torn tail
/// is legal residue), and a reboot quarantines exactly the unmatched
/// begins, drops no poison, and leaves no stale rotation temp.
void auditDiskState(const SoakOptions &Opts, const std::string &JPath,
                    Audit &A) {
  JournalScan Scan = scanJournalDetailed(JPath);
  if (Scan.Exists && (Scan.CorruptRecords || Scan.SeqRegressions))
    A.fail("surviving journal has " + std::to_string(Scan.CorruptRecords) +
           " corrupt records, " + std::to_string(Scan.SeqRegressions) +
           " seq regressions");
  uint64_t InFlight = Scan.Exists ? Scan.InFlight.size() : 0;
  ServerOptions BootOpts = serverOptions(Opts);
  BootOpts.Threads = 1;
  BootOpts.JournalPath = JPath;
  InProcessService Boot(BootOpts);
  unsigned Quarantined = Boot.server().recover();
  Boot.finish();
  if (Quarantined != InFlight)
    A.fail("journal held " + std::to_string(InFlight) +
           " in-flight begins but reboot quarantined " +
           std::to_string(Quarantined));
  if (uint64_t Dropped = Boot.server().stats().QuarantineFailures)
    A.fail("reboot dropped " + std::to_string(Dropped) +
           " poisons it could not quarantine");
  std::error_code Ec;
  if (std::filesystem::exists(JPath + ".rotate", Ec))
    A.fail("stale rotation temp survived the reboot's open()");
}

/// Removes a journal with its rotation temp and .corrupt residue, and
/// \p QDir, so a run never inherits a previous one's state.
void removeJournal(const std::string &JPath, const std::string &QDir = "") {
  std::error_code Ec;
  for (const char *Suffix : {"", ".rotate", ".corrupt"})
    std::filesystem::remove(JPath + Suffix, Ec);
  if (!QDir.empty())
    std::filesystem::remove_all(QDir, Ec);
}

#ifdef JSLICE_HAVE_POSIX_PROCESS
/// The journal dies under live TCP load (--shards reactor shards) with
/// the degrade policy: every request still answered exactly once, and
/// {"health"} must honestly report the loss.
void diskChaosTcpPass(const SoakOptions &Opts,
                      const std::vector<SoakProgram> &Programs,
                      const std::string &JPath, Audit &A) {
  removeJournal(JPath);
  FaultyJournalIo Io;
  ServerOptions SOpts = serverOptions(Opts);
  SOpts.JournalPath = JPath;
  SOpts.JournalRotateBytes = 8192;
  SOpts.JournalFailurePolicy = JournalFailure::Degrade;
  SOpts.JournalIoHook = &Io;
  InProcessService Svc(SOpts, Opts.Verbose);
  Svc.server().recover();
  TcpServerOptions TOpts;
  TOpts.Shards = Opts.Shards;
  std::string Err;
  if (!Svc.listen(TOpts, Err))
    return A.fail("disk chaos TCP pass cannot listen: " + Err);

  PumpOptions PO = pumpOptions(Opts, Svc.port(),
                               std::min<uint64_t>(Opts.Requests, 400),
                               "under disk chaos");
  PO.Client.MaxAttempts = 8;
  LoadPump Pump(PO, corpus(Programs, "t", false));
  // Let a few records land cleanly, then kill the disk under load.
  sleepMs(25);
  Io.armEvery(JournalFault::FsyncFail, 1);
  PumpResult R = Pump.finish();

  // The stream may have drained before the armed fault fired; force
  // appends until it does, so the health assertion is never vacuous.
  for (int I = 0; I != 50 && !Io.injected(); ++I)
    ask(Svc.port(), tinyRequest("tx" + std::to_string(I)), 8);
  std::string Health = ask(Svc.port(), "{\"health\": true}", 8);
  if (Health.find("\"degraded\":true") == std::string::npos ||
      Health.find("\"journal\":\"lost\"") == std::string::npos)
    A.fail("journal died under load but health says: " + Health);
  Svc.finish();
  if (!Svc.server().journalLost())
    A.fail("TCP pass never latched journal_lost despite a dead fsync");
  A.lines(R.Responses);
  A.finishExactlyOnce(R.Sent, R.Lost);
  if (A.status("shed"))
    A.fail("tcp degrade pass shed requests instead of serving");
}
#endif

int runDiskChaos(const SoakOptions &CliOpts) {
  SoakOptions Opts = CliOpts;
  Opts.Programs = std::min(Opts.Programs, 6u);
  // Keyed off the quarantine dir so concurrent ctest variants (the
  // 1-shard and 4-shard runs share a working directory) never collide.
  const std::string JPath = Opts.QuarantineDir + ".journal.jsonl";
  removeJournal(JPath, Opts.QuarantineDir);

  // A small fixed script, sized by --requests for CI scaling: the
  // per-ordinal repetition is what costs, not the script length.
  std::vector<SoakProgram> Programs = buildPrograms(Opts);
  SoakOptions ScriptOpts = Opts;
  ScriptOpts.Requests =
      std::max<uint64_t>(8, std::min<uint64_t>(32, Opts.Requests / 50));
  const uint64_t Slices = ScriptOpts.Requests;
  std::string Input = joinLines(sliceLines(ScriptOpts, Programs, "d"));

  uint64_t Violations = 0, FaultRuns = 0, InjectedRuns = 0;
  const JournalFault Kinds[] = {
      JournalFault::ShortWrite,        JournalFault::WriteEio,
      JournalFault::WriteEnospc,       JournalFault::FlushFail,
      JournalFault::FsyncFail,         JournalFault::CrashBeforeRename,
      JournalFault::CrashAfterRename,
  };

  // One clean pass sizes each kind's ordinal space.
  std::map<JournalFault, uint64_t> Totals;
  {
    removeJournal(JPath);
    FaultyJournalIo Io;
    Audit A("counting pass");
    serveDiskChaos(Opts, Input, JPath, &Io, JournalFailure::Shed, A);
    Violations += A.finishExactlyOnce(Slices);
    for (JournalFault K : Kinds)
      Totals[K] = Io.observed(K);
  }

  for (JournalFault K : Kinds) {
    uint64_t Total = Totals[K];
    if (!Total) {
      violation(Violations,
                "the clean pass performed no %s I/O — the sweep proved "
                "nothing for that fault",
                journalFaultName(K));
      continue;
    }
    // Sample ~10 ordinals per kind; ordinal 1 always runs.
    for (uint64_t At = 1; At <= Total;
         At += std::max<uint64_t>(1, Total / 10)) {
      ++FaultRuns;
      removeJournal(JPath, Opts.QuarantineDir);
      FaultyJournalIo Io;
      Io.arm(K, At);
      Audit A(std::string(journalFaultName(K)) + "@" + std::to_string(At));
      serveDiskChaos(Opts, Input, JPath, &Io, JournalFailure::Shed, A);
      InjectedRuns += Io.injected();
      A.finishExactlyOnce(Slices);
      auditDiskState(Opts, JPath, A);
      Violations += A.Violations;
    }
  }
  if (FaultRuns && !InjectedRuns)
    violation(Violations, "no armed fault ever fired — the sweep proved "
                          "nothing");

  // The --journal-failure policy triad under a disk that stays dead
  // (every write fails, so the very first append latches the loss).
  for (JournalFailure Policy : {JournalFailure::Shed, JournalFailure::Degrade,
                                JournalFailure::Abort}) {
    removeJournal(JPath);
    FaultyJournalIo Io;
    Io.armEvery(JournalFault::WriteEio, 1);
    std::atomic<bool> Stop{false};
    Audit A(std::string("policy ") + journalFailureName(Policy));
    DiskRun R = serveDiskChaos(Opts, Input, JPath, &Io, Policy, A,
                               Policy == JournalFailure::Abort ? &Stop
                                                               : nullptr);
    if (Policy == JournalFailure::Abort) {
      // Abort answers the failing request, then stops accepting.
      if (!R.Aborted || !Stop.load())
        A.fail("dead disk never tripped the abort flag");
      A.answeredOnce();
      if (A.SliceResponses.empty() || A.SliceResponses.size() >= Slices)
        A.fail(std::to_string(A.SliceResponses.size()) + " of " +
               std::to_string(Slices) +
               " requests answered — abort must answer the failing "
               "request and then stop accepting");
    } else {
      A.finishExactlyOnce(Slices);
      if (!R.JournalLost || !R.Final.JournalLost)
        A.fail("dead disk never latched journal_lost");
      uint64_t Shed = R.Final.ShedByCause["journal-failed"];
      if (Policy == JournalFailure::Shed && Shed != Slices)
        A.fail(std::to_string(Shed) + " of " + std::to_string(Slices) +
               " requests refused as journal-failed — the rest were "
               "served with no journal record");
      if (Policy == JournalFailure::Degrade && A.status("shed"))
        A.fail("requests were shed instead of served");
    }
    Violations += A.Violations;
  }

#ifdef JSLICE_HAVE_POSIX_PROCESS
  Audit Tcp("tcp degrade pass");
  diskChaosTcpPass(Opts, Programs, JPath, Tcp);
  Violations += Tcp.Violations;
#endif
  removeJournal(JPath);
  std::printf("jslice_soak: disk chaos — %llu faulted serves over %zu "
              "fault kinds (%llu injected), %llu-request script, %llu "
              "violations\n",
              ull(FaultRuns), sizeof(Kinds) / sizeof(Kinds[0]),
              ull(InjectedRuns), ull(Slices), ull(Violations));
  return Violations ? 1 : 0;
}

#ifdef JSLICE_HAVE_POSIX_PROCESS

/// The volume stream over TCP minus cancellations (the audit needs "one
/// line in, one terminal status out"); --crash-matrix sends the pure
/// slice stream.
int runNetSoak(const SoakOptions &Opts) {
  std::vector<SoakProgram> Programs = buildPrograms(Opts);
  std::vector<std::string> Lines = sliceLines(Opts, Programs);
  uint64_t Slices = Lines.size(), BadLines = 0;
  if (!Opts.CrashMatrix) {
    for (uint64_t I = 0; I != Opts.Requests; ++I)
      BadLines += !volumeLine(Programs, I, Lines[I]);
    Slices -= BadLines;
  }

  ServerOptions SOpts = serverOptions(Opts);
  SOpts.IsolateProcess = SOpts.IsolateProcess || Opts.CrashMatrix;
  InProcessService Svc(SOpts, Opts.Verbose);
  Svc.server().recover();
  if (Opts.CrashMatrix && !Svc.server().supervisor()) {
    std::fprintf(stderr, "jslice_soak: process isolation unavailable on "
                         "this platform; net crash matrix skipped\n");
    return 0;
  }
  TcpServerOptions TOpts;
  TOpts.IdleTimeoutMs = 60000; // Proxy stalls must not read as idleness.
  TOpts.Shards = Opts.Shards;
  ChaosOptions COpts;
  COpts.ResetPermille = COpts.TruncatePermille = 25;
  COpts.StallPermille = 5;
  COpts.StallMs = 200;
  COpts.DelayPermille = 50;
  COpts.DelayMs = 2;
  COpts.Seed = Opts.Seed;
  std::string Err;
  if (!Svc.listen(TOpts, Err) || !Svc.chaos(COpts, Err)) {
    std::fprintf(stderr, "jslice_soak: cannot start the TCP server or the "
                         "chaos proxy: %s\n",
                 Err.c_str());
    return 1;
  }

  // Chaos clients pump the stream through the proxy with aggressive
  // retries; a request whose fate stays unknown counts as lost.
  LoadPump Pump(pumpOptions(Opts, Svc.chaosPort(), Lines.size(),
                            "through the chaos proxy"),
                [&](uint64_t I) { return Lines[I]; });

  // The well-behaved control connection, direct and without retries,
  // must not see the chaos next door (a SIGKILL may legally land on a
  // control request, so the crash matrix asserts transport health only).
  std::atomic<bool> ChaosDone{false};
  uint64_t ControlRequests = 0, ControlErrors = 0;
  std::thread Control([&] {
    ClientOptions CO;
    CO.Port = Svc.port();
    CO.MaxAttempts = 1;
    CO.ResponseTimeoutMs = 60000;
    ClientConnection Conn(CO);
    while (!ChaosDone.load()) {
      ClientResult Res =
          Conn.request(tinyRequest("ctl" + std::to_string(ControlRequests++)));
      const char *Want = Opts.CrashMatrix ? "\"status\":" : "\"status\":\"ok\"";
      if (!Res.Ok || Res.Response.find(Want) == std::string::npos)
        violation(ControlErrors,
                  "well-behaved connection hurt by chaos next door: %s",
                  Res.Ok ? Res.Response.c_str() : Res.TransportError.c_str());
      sleepMs(5);
    }
  });
  std::unique_ptr<Executioner> Chaos;
  if (Opts.CrashMatrix)
    Chaos = std::make_unique<Executioner>(Svc.server(), Opts);

  PumpResult R = Pump.finish();
  ChaosDone.store(true);
  Control.join();
  Audit A;
  A.RequireCrashRepro = Opts.CrashMatrix;
  if (Chaos)
    Chaos->settle(A.Violations);

  // The in-band stats line carries the transport counters, so none of
  // this needs stderr scraping.
  std::string StatsText = ask(Svc.port(), "{\"stats\": true}", 3);
  std::optional<JsonValue> StatsJson = JsonValue::parse(StatsText);
  const JsonValue *Stats =
      StatsJson && StatsJson->isObject() ? StatsJson->find("stats") : nullptr;
  if (!jsonCount(Stats ? Stats->find("transport") : nullptr, "accepted"))
    A.fail("stats reply missing live transport counters: " + StatsText);
  if (SOpts.IsolateProcess && (!Stats || !Stats->find("supervisor")))
    A.fail("stats reply missing supervisor counters in process mode");
  if (Opts.CacheEnabled && (!Stats || !Stats->find("cache")))
    A.fail("stats reply missing cache counters with the cache enabled");

  ChaosStats CS = Svc.chaosStats();
  Svc.finish();
  // Exactly one client-visible terminal status per id: a torn response
  // may run a request twice server-side, but the client ends with one.
  A.lines(R.Responses);
  A.Violations += ControlErrors;
  A.finishExactlyOnce(Slices, R.Lost);

  std::printf("jslice_soak: net soak — %llu requests (%llu slices, %llu bad "
              "lines) over %u clients through chaos (%llu conns, %llu "
              "delays, %llu truncations, %llu resets, %llu stalls)\n",
              ull(Slices + BadLines), ull(Slices), ull(BadLines),
              Opts.NetClients, ull(CS.Connections), ull(CS.Delays),
              ull(CS.Truncations), ull(CS.Resets), ull(CS.Stalls));
  std::printf("               retried requests   %llu (%llu reconnects), "
              "control requests %llu (%llu errors)\n",
              ull(R.Retried), ull(R.Reconnects), ull(ControlRequests),
              ull(ControlErrors));
  if (Chaos)
    std::printf("               kills/restarts     %llu/%llu\n",
                ull(Chaos->Kills), ull(Chaos->Restarts));
  A.printSummary();
  return A.Violations ? 1 : 0;
}

/// A named chaos step; false (reported) stops a wedged matrix.
struct Scenario {
  const char *Name;
  std::function<bool()> Run;
};

/// The process matrices' load: retried past respawn gaps and drain-time
/// sheds, and drawn past --requests until the scenarios end, so every
/// transition happens under load.
PumpOptions matrixPump(const SoakOptions &Opts, uint16_t Port,
                       const char *Scene) {
  PumpOptions PO = pumpOptions(Opts, Port, Opts.Requests, Scene);
  PO.UntilStopped = true;
  PO.RetryToTerminal = true;
  return PO;
}

/// A jslice_serve command line for the process matrices.
std::vector<std::string> serveCommand(const SoakOptions &Opts, uint16_t Port,
                                      const std::string &Journal,
                                      const std::string &Quarantine) {
  std::vector<std::string> A = {
      Opts.ServeBin, "--listen",     "127.0.0.1:" + std::to_string(Port),
      "--journal",   Journal,        "--quarantine",
      Quarantine};
  if (Opts.Shards)
    A.insert(A.end(), {"--shards", std::to_string(Opts.Shards)});
  return A;
}

/// Runs one scenario; a failure names it.
bool play(const Scenario &S) {
  if (S.Run())
    return true;
  std::fprintf(stderr, "jslice_soak: scenario failed: %s\n", S.Name);
  return false;
}

int runUpgradeMatrix(const SoakOptions &CliOpts) {
  SoakOptions Opts = CliOpts;
  if (Opts.JournalPath.empty())
    Opts.JournalPath = "upgrade-matrix-journal.jsonl";
  // A stale journal would make generation 1 quarantine last run's
  // in-flight records and skew this run's audit.
  removeJournal(Opts.JournalPath, Opts.QuarantineDir);

  // --ready-delay-ms keeps every successor in a killable pre-ready
  // window long enough for the chaos to land deterministically; serve
  // propagates it across generations.
  std::vector<std::string> Args =
      serveCommand(Opts, 0, Opts.JournalPath, Opts.QuarantineDir);
  Args.insert(Args.end(), {"--ready-delay-ms", "300"});

  uint64_t Violations = 0, Restarts = 0;
  // The dynasty: every generation's stderr on one pipe.
  ServeNode Node(Opts.Verbose);
  if (Node.spawn(Args) < 0 || !Node.waitUp(15000)) {
    violation(Violations, "generation 1 never announced itself");
    return 1;
  }
  Args[2] = "127.0.0.1:" + std::to_string(Node.port()); // Respawns keep it.

  std::vector<SoakProgram> Programs = buildPrograms(Opts);
  LoadPump Pump(matrixPump(Opts, Node.port(), "across the upgrade matrix"),
                corpus(Programs, "q"));

  // Each scenario starts from a leader and the counters at that moment.
  ServeLogState Before;
  auto until = [&](const std::function<bool(const ServeLogState &)> &Pred,
                   uint64_t Ms, const char *Why) {
    if (Node.await(Pred, Ms))
      return true;
    violation(Violations, "%s", Why);
    return false;
  };
  auto grew = [&](uint64_t ServeLogState::*Count) {
    return [&, Count](const ServeLogState &S) {
      return S.*Count > Before.*Count;
    };
  };
  auto handedOff = grew(&ServeLogState::Handoffs);
  auto pending = [](const ServeLogState &S) { return S.PendingPid > 0; };
  auto upgrade = [&] { ServeNode::signal(Before.LeaderPid, SIGUSR2); };

  const std::vector<Scenario> UpgradeScenarios = {
      {"clean SIGUSR2 handoff",
       [&] {
         upgrade();
         return until(handedOff, 60000, "clean upgrade never became ready");
       }},
      {"kill -9 the old generation mid-drain",
       [&] {
         upgrade();
         if (!until(handedOff, 60000, "mid-drain upgrade never became ready"))
           return false;
         // ESRCH is fine — a fast drain may already have exited.
         ServeNode::signal(Before.LeaderPid, SIGKILL);
         return true;
       }},
      {"kill -9 the successor before it is ready: rollback",
       [&] {
         upgrade();
         if (!until(pending, 30000, "successor never spawned"))
           return false;
         ServeNode::signal(Node.state().PendingPid, SIGKILL);
         return until(grew(&ServeLogState::Rollbacks), 60000,
                      "killed successor never rolled back");
       }},
      {"SIGTERM races the upgrade: drain wins, once",
       [&] {
         upgrade();
         Node.await(pending, 30000);
         long Succ = Node.state().PendingPid;
         ServeNode::signal(Before.LeaderPid, SIGTERM);
         if (!waitFor([&] { return Node.gone(Before.LeaderPid); }, 60000)) {
           violation(Violations,
                     "leader never exited after SIGTERM raced an upgrade");
           return false;
         }
         // The leader rolled the unready successor back before exiting;
         // wait it out and let the reader drain the dynasty's buffered
         // lines, so the dead successor's announce cannot be adopted.
         if (Succ > 0)
           waitFor([&] { return Node.gone(Succ); }, 30000);
         sleepMs(200);
         Node.log().setLeader(-1);
         if (Node.spawn(Args) < 0 || !Node.waitUp(30000)) {
           violation(Violations, "post-SIGTERM respawn never announced");
           return false;
         }
         ++Restarts;
         return true;
       }},
      {"back-to-back SIGUSR2: the second is refused",
       [&] {
         upgrade();
         if (!until(pending, 30000, "successor never spawned"))
           return false;
         upgrade();
         return until(handedOff, 60000,
                      "double-upgrade handoff never ready") &&
                until(grew(&ServeLogState::Refusals), 10000,
                      "second SIGUSR2 was never refused");
       }},
  };
  for (uint64_t Iter = 0;; ++Iter) {
    Before = Node.state();
    if (Before.Handoffs >= Opts.Upgrades)
      break;
    if (Before.LeaderPid <= 0) {
      violation(Violations, "no leader to drive");
      break;
    }
    if (!play(UpgradeScenarios[Iter % UpgradeScenarios.size()]))
      break;
  }

  PumpResult R = Pump.finish();
  if (!Node.terminate(Node.leader(), 60000))
    violation(Violations, "final drain never finished");
  ServeLogState Fin = Node.state();

  Audit A;
  A.lines(R.Responses);
  A.Violations += Violations;
  A.finishExactlyOnce(R.Sent, R.Lost);
  if (Fin.Handoffs < Opts.Upgrades)
    A.fail("only " + std::to_string(Fin.Handoffs) + " of " +
           std::to_string(Opts.Upgrades) + " handoffs completed");
  if (!Fin.Rollbacks)
    A.fail("no readiness-failure rollback was exercised — the matrix "
           "proved nothing about rollback");
  if (!Fin.Refusals)
    A.fail("no double-upgrade refusal was observed");
  std::printf("jslice_soak: upgrade matrix — %llu requests over %u "
              "clients, %llu handoffs, %llu rollbacks, %llu refusals, "
              "%llu restarts\n",
              ull(R.Sent), Opts.NetClients, ull(Fin.Handoffs),
              ull(Fin.Rollbacks), ull(Fin.Refusals), ull(Restarts));
  std::printf("               retried requests   %llu\n", ull(R.Retried));
  A.printSummary();
  return A.Violations ? 1 : 0;
}

using Counters = std::map<std::string, uint64_t>;

/// The numbers (booleans as 0/1) in the "replication" object of a
/// standby's {"health"} or a primary's {"stats"}; nullopt when the node
/// is unreachable.
std::optional<Counters> replCounters(uint16_t Port, bool Primary) {
  std::optional<JsonValue> V = JsonValue::parse(
      ask(Port, Primary ? "{\"stats\": true}" : "{\"health\": true}", 2));
  const JsonValue *R =
      V && V->isObject() ? (Primary ? V->find("stats") : &*V) : nullptr;
  R = R && R->isObject() ? R->find("replication") : nullptr;
  if (!R || !R->isObject())
    return std::nullopt;
  Counters Out;
  for (const auto &[Key, N] : R->members())
    Out[Key] = N.isBool() ? N.asBool() : jsonCount(R, Key.c_str());
  Out["reattaches"] = Out["resumes"] + Out["snapshots"];
  return Out;
}

/// Waits until the standby reconnected and applied past the primary's
/// seq at reattach time (under load absolute lag never reaches zero).
bool standbyCaughtUp(uint16_t Port, uint64_t TimeoutMs) {
  uint64_t Goal = 0;
  return waitFor(
      [&] {
        std::optional<Counters> C = replCounters(Port, false);
        if (!C || !(*C)["connected"])
          return false;
        if (!Goal)
          Goal = std::max<uint64_t>(1, (*C)["primary_seq"]);
        return (*C)["applied_seq"] >= Goal;
      },
      TimeoutMs);
}

/// Ids of every verifiable begin record in \p Path — the replica-side
/// evidence for the acked-durability audit.
std::set<std::string> journalBeginIds(const std::string &Path) {
  std::set<std::string> Out;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    std::optional<JournalRecord> R = decodeJournalLine(Line);
    if (R && R->Event == "begin" && !R->Id.empty())
      Out.insert(R->Id);
  }
  return Out;
}

int runFailoverMatrix(const SoakOptions &Opts) {
  // Journals and quarantine dirs belong to the node *slot*, not the
  // role: a promoted standby keeps appending to its replica journal.
  std::string Stem =
      Opts.JournalPath.empty() ? "failover-matrix" : Opts.JournalPath;
  const std::string JPath[2] = {Stem + "-a.jsonl", Stem + "-b.jsonl"};
  const std::string QDir[2] = {Opts.QuarantineDir + "-a",
                               Opts.QuarantineDir + "-b"};
  for (int I = 0; I != 2; ++I)
    removeJournal(JPath[I], QDir[I]);
  uint64_t Violations = 0;
  auto fail = [&](const std::string &Why) {
    violation(Violations, "%s", Why.c_str());
    return false;
  };

  auto serveArgs = [&](int Slot, uint16_t Port, uint16_t StandbyOf) {
    std::vector<std::string> A =
        serveCommand(Opts, Port, JPath[Slot], QDir[Slot]);
    A.insert(A.end(), {"--repl-ack", replAckPolicyName(Opts.ReplAck)});
    if (StandbyOf)
      A.insert(A.end(),
               {"--standby-of", "127.0.0.1:" + std::to_string(StandbyOf)});
    return A;
  };

  // Each node gets its own pipe: both are alive at once and their logs
  // must not be conflated.
  int PriSlot = 0, StbSlot = 1;
  auto Pri = std::make_unique<ServeNode>(Opts.Verbose);
  if (Pri->spawn(serveArgs(PriSlot, 0, 0)) < 0 || !Pri->waitUp(15000)) {
    fail("initial primary never announced itself");
    return 1;
  }
  uint16_t PriPort = Pri->port();

  // The replication link runs through a chaos proxy that keeps its port
  // (the --standby-of target) and follows the primary. A faulty link
  // tears frames continuously: every reconnect resumes from the ack.
  std::unique_ptr<ChaosProxy> Proxy;
  uint16_t ProxyPort = 0;
  auto relink = [&](uint64_t Seed, bool Faulty) {
    if (Proxy)
      Proxy->stop();
    ChaosOptions CO;
    CO.ListenPort = ProxyPort;
    CO.UpstreamPort = PriPort;
    if (Faulty) {
      CO.ResetPermille = CO.TruncatePermille = 15;
      CO.DelayPermille = 30;
      CO.DelayMs = 1;
    }
    CO.Seed = Seed;
    Proxy = std::make_unique<ChaosProxy>(CO);
    std::string Err;
    if (!Proxy->start(Err))
      return fail("cannot (re)build the replication proxy: " + Err);
    ProxyPort = Proxy->port();
    return true;
  };
  if (!relink(Opts.Seed, true))
    return 1;

  // (Re)seeds the standby slot, rebinding its previous port (if any) so
  // the clients' endpoint list stays valid across the matrix.
  std::unique_ptr<ServeNode> Stb;
  uint16_t StbPort = 0;
  auto seedStandby = [&](const char *Why) {
    removeJournal(JPath[StbSlot]);
    Stb = std::make_unique<ServeNode>(Opts.Verbose);
    if (Stb->spawn(serveArgs(StbSlot, StbPort, ProxyPort)) < 0 ||
        !Stb->waitUp(15000) ||
        !waitFor(
            [&] {
              std::optional<Counters> C = replCounters(Stb->port(), false);
              return C && (*C)["connected"];
            },
            30000))
      return fail(std::string("cannot seed a standby ") + Why);
    StbPort = Stb->port();
    return true;
  };
  if (!seedStandby("at start"))
    return 1;

  // Client load carries both endpoints and rotates on transport
  // failure — the Client failover machinery under test.
  std::vector<SoakProgram> Programs = buildPrograms(Opts);
  PumpOptions PO = matrixPump(Opts, PriPort, "across the failover matrix");
  PO.Client.Endpoints = {"127.0.0.1:" + std::to_string(PriPort),
                         "127.0.0.1:" + std::to_string(StbPort)};
  LoadPump Pump(PO, corpus(Programs, "f"));
  // Real traffic first, so the first kill lands mid-request.
  waitFor([&] { return Pump.answered() >= Opts.NetClients * 2ull; }, 30000);

  uint64_t Epoch = 0;
  auto promote = [&](uint16_t Port) -> uint64_t {
    std::string Resp = ask(Port, "{\"promote\": true}", 4);
    std::optional<JsonValue> V = JsonValue::parse(Resp);
    bool Ok = Resp.find("\"status\":\"ok\"") != std::string::npos;
    return Ok && V ? jsonCount(&*V, "epoch") : 0;
  };
  // The old primary dies, the promoted standby takes its role, and the
  // freed slot re-seeds as standby behind a retargeted link.
  auto swapRoles = [&](uint64_t Seed, const char *Why) {
    ServeNode::signal(Pri->leader(), SIGKILL);
    std::swap(PriSlot, StbSlot);
    std::swap(PriPort, StbPort);
    Pri = std::move(Stb);
    return relink(Seed, true) && seedStandby(Why);
  };
  // A rebuilt link must re-attach the stream (the hub's resume or
  // snapshot count advances, never silence) and catch up. A partition
  // stays down while load runs ahead; a tear returns on a clean link.
  auto reattach = [&](uint64_t Seed, bool Partition, const char *Fault) {
    auto Base = replCounters(PriPort, true);
    uint64_t Was = Base ? (*Base)["reattaches"] : 0;
    Proxy->stop(); // Severs the stream mid-frame.
    if (Partition)
      sleepMs(750);
    if (!relink(Seed, Partition))
      return false;
    if (Base && !waitFor(
                    [&] {
                      auto Now = replCounters(PriPort, true);
                      return Now && (*Now)["reattaches"] > Was;
                    },
                    30000))
      return fail(std::string(Fault) +
                  " never re-attached the stream (no resume, no snapshot)");
    if (!standbyCaughtUp(StbPort, 30000))
      return fail(std::string("standby never caught up after the ") + Fault);
    return true;
  };

  const std::vector<Scenario> FailoverScenarios = {
      {"kill -9 the primary mid-request, promote the standby",
       [&] {
         ServeNode::signal(Pri->leader(), SIGKILL);
         for (unsigned Try = 0; Try != 25 && !Epoch; ++Try)
           if (!(Epoch = promote(StbPort)))
             sleepMs(200);
         if (!Epoch)
           return fail("standby never promoted after the primary's kill -9");
         if (Epoch < 2)
           fail("promotion did not advance the epoch past the dead "
                "primary's");
         return swapRoles(Opts.Seed + 2, "after the first failover");
       }},
      {"kill -9 the standby, re-seed from snapshot",
       [&] {
         // A sync ack policy must not wedge admission with no subscriber.
         ServeNode::signal(Stb->leader(), SIGKILL);
         Stb.reset();
         std::string Resp = ask(
             PriPort,
             soakRequest(Programs, 0, "s2-probe", false).toJson().str(), 8);
         if (Resp.find("\"status\":") == std::string::npos)
           fail("primary stopped answering while the standby was down");
         return seedStandby("after its kill -9");
       }},
      {"partition the replication link, heal it",
       [&] { return reattach(Opts.Seed + 3, true, "healed partition"); }},
      {"promote while the old primary lives: epoch fence",
       [&] {
         uint64_t E = promote(StbPort);
         if (E <= Epoch)
           return fail("live-primary promotion did not advance the epoch");
         Epoch = E;
         // Zero split-brain serves: the ex-primary must refuse (or be
         // unreachable, also a refusal).
         for (unsigned I = 0; I != 8; ++I) {
           ServiceRequest R = soakRequest(Programs, I,
                                          "fence" + std::to_string(I), false);
           R.MinEpoch = Epoch;
           std::string Resp = ask(PriPort, R.toJson().str());
           if (!Resp.empty() &&
               (Resp.find("\"status\":\"shed\"") == std::string::npos ||
                Resp.find("fenced") == std::string::npos))
             fail("ex-primary served a request fenced at epoch " +
                  std::to_string(Epoch) + ": " + Resp);
         }
         // Resolve the split brain the way the watchdog does.
         return swapRoles(Opts.Seed + 4, "after the fenced failover");
       }},
      {"tear the replication stream, resume over a clean link",
       [&] {
         // Caught up first, the re-subscribe is a resume (a snapshot if
         // a rotation crosses the ack in the tear window). The endgame
         // link is clean so the durability audit measures the policy.
         if (!standbyCaughtUp(StbPort, 30000))
           return fail("standby never caught up before the stream tear");
         return reattach(Opts.Seed + 5, false, "torn stream");
       }},
  };
  for (const Scenario &S : FailoverScenarios)
    if (!play(S))
      break;
  PumpResult R = Pump.finish();

  // The acked-durability audit: under --repl-ack=sync every response
  // follows the standby's durable ack of its begin, so each ok response
  // of a tail batch must find its begin in the replica journal, and a
  // kill -9 of the primary afterwards must not disturb the replica.
  // The replica is read right after each response, before the next
  // request: once the tail's end lands too, the replica's own rotation
  // past --journal-rotate-bytes may compact the finished pair away, and
  // only a later append can trigger that. Sync-ack timeouts legally
  // waive the check; a response served with no standby registered
  // (sync_no_standby) does not. The closing reattach waited for the
  // hub's subscribe count, which moves in the same critical section
  // as the registration, so the batch starts with a subscriber.
  uint64_t TailOk = 0;
  if (!Violations && Opts.ReplAck == ReplAckPolicy::Sync && Stb) {
    auto Before = replCounters(PriPort, true);
    std::vector<std::string> Unreplicated;
    for (unsigned I = 0; I != 16; ++I) {
      std::string Id = "tail" + std::to_string(I);
      std::string Resp = ask(
          PriPort, soakRequest(Programs, I, Id, false).toJson().str(), 8);
      if (Resp.find("\"status\":\"ok\"") == std::string::npos)
        continue;
      ++TailOk;
      if (!journalBeginIds(JPath[StbSlot]).count(Id))
        Unreplicated.push_back(Id);
    }
    auto After = replCounters(PriPort, true);
    auto Replica = replCounters(StbPort, false);
    bool Strict = Before && After &&
                  (*After)["sync_timeouts"] == (*Before)["sync_timeouts"];
    ServeNode::signal(Pri->leader(), SIGKILL);
    Pri.reset();
    if (!Stb->terminate(Stb->leader(), 30000))
      fail("standby never drained for the post-matrix scan");
    Stb.reset();
    JournalScan Scan = scanJournalDetailed(JPath[StbSlot]);
    if (Scan.CorruptRecords)
      fail("replica journal holds mid-file corruption after the matrix");
    if (Scan.MaxEpoch < Epoch)
      fail("replica journal never saw the final fencing epoch " +
           std::to_string(Epoch));
    if (!TailOk)
      fail("acked-durability tail batch produced no ok responses — the "
           "audit proved nothing");
    if (!Strict) {
      std::fprintf(stderr, "jslice_soak: sync ack timeouts during the tail "
                           "batch; acked-durability audit skipped\n");
    } else if (!Unreplicated.empty()) {
      for (const std::string &Id : Unreplicated)
        fail("acknowledged-but-lost: response for id " + Id +
             " has no replica-journal record");
      // Enough state to tell a lost ack from a lost record in a CI log.
      for (const auto &[What, C] : {std::pair{"before", &Before},
                                    std::pair{"after", &After}}) {
        std::fprintf(stderr, "jslice_soak: primary replication %s the tail "
                             "batch:", What);
        for (const auto &[Key, N] : **C)
          std::fprintf(stderr, " %s=%llu", Key.c_str(), ull(N));
        std::fprintf(stderr, "\n");
      }
      std::fprintf(stderr,
                   "jslice_soak: replica applied_seq=%llu, last journal "
                   "seq=%llu\n",
                   ull(Replica ? (*Replica)["applied_seq"] : 0),
                   ull(Scan.MaxSeq));
    }
  } else if (Stb) {
    Stb->terminate(Stb->leader(), 15000);
  }
  // Coverage: two promotions put the final epoch at 3 or more.
  if (Epoch < 3)
    fail("matrix finished at epoch " + std::to_string(Epoch) +
         " — both promotions must land");

  Audit A;
  A.lines(R.Responses);
  A.Violations += Violations;
  A.finishExactlyOnce(R.Sent, R.Lost);
  std::printf("jslice_soak: failover matrix — %llu requests over %u "
              "clients, final epoch %llu, %llu endpoint failovers, "
              "%llu tail-audited, ack=%s\n",
              ull(R.Sent), Opts.NetClients, ull(Epoch), ull(R.Failovers),
              ull(TailOk), replAckPolicyName(Opts.ReplAck));
  std::printf("               retried requests   %llu\n", ull(R.Retried));
  A.printSummary();
  return A.Violations ? 1 : 0;
}

#else

int unavailable(const char *Mode) {
  std::fprintf(stderr, "jslice_soak: sockets and process control are "
                       "unavailable; --%s skipped\n", Mode);
  return 0;
}
int runNetSoak(const SoakOptions &) { return unavailable("net"); }
int runUpgradeMatrix(const SoakOptions &) { return unavailable("upgrade"); }
int runFailoverMatrix(const SoakOptions &) { return unavailable("failover"); }

#endif

struct BenchRun {
  double WallMs = 0, ThroughputRps = 0;
  ServerStats Stats;
};

using Clock = std::chrono::steady_clock;

BenchRun benchRun(const ServerStats &Stats, Clock::time_point Start,
                  Clock::time_point End) {
  BenchRun R;
  R.Stats = Stats;
  R.WallMs = std::chrono::duration<double, std::milli>(End - Start).count();
  uint64_t Answered = Stats.Served + Stats.Refused + Stats.Errors;
  R.ThroughputRps = R.WallMs > 0 ? Answered / (R.WallMs / 1000.0) : 0;
  return R;
}

/// The stream through the in-process stdin transport.
BenchRun benchStdin(const ServerOptions &SOpts, const std::string &Input) {
  InProcessService Svc(SOpts);
  auto Start = Clock::now();
  Svc.serve(Input);
  return benchRun(Svc.server().stats(), Start, Clock::now());
}

#ifdef JSLICE_HAVE_POSIX_PROCESS
/// \p Lines pipelined over \p Clients raw connections into a server with
/// \p Shards reactor shards; with \p Replica a real StandbyTail
/// subscribes first, and with \p A every response is audited.
std::optional<BenchRun> benchTcp(const ServerOptions &SOpts, unsigned Shards,
                                 const std::vector<std::string> &Lines,
                                 unsigned Clients, Audit *A,
                                 const std::string &Replica = "") {
  InProcessService Svc(SOpts);
  TcpServerOptions TOpts;
  TOpts.Shards = Shards;
  std::string Err;
  if (!Svc.listen(TOpts, Err))
    return std::nullopt;
  Journal ReplicaJournal;
  std::unique_ptr<StandbyTail> Tail;
  if (!Replica.empty()) {
    StandbyTailOptions TO;
    TO.Port = Svc.port();
    if (!ReplicaJournal.open(Replica))
      return std::nullopt;
    Tail = std::make_unique<StandbyTail>(TO, ReplicaJournal);
    if (!Tail->start(Err) ||
        !waitFor([&] { return Tail->stats().Connected; }, 5000, 10))
      return std::nullopt;
  }
  // Pre-framed per-client partitions, so client threads only shovel.
  std::vector<std::string> In(Clients);
  std::vector<uint64_t> Expect(Clients, 0);
  for (size_t I = 0; I != Lines.size(); ++I) {
    In[I % Clients] += Lines[I] + "\n";
    ++Expect[I % Clients];
  }
  std::mutex M;
  std::vector<std::string> Collected;
  auto Start = Clock::now();
  std::vector<std::thread> Pump;
  for (unsigned CI = 0; CI != Clients; ++CI)
    Pump.emplace_back([&, CI] {
      std::string E;
      int Fd = connectTcp("127.0.0.1", Svc.port(), 5000, E);
      if (Fd < 0)
        return; // The exactly-once audit reports the missing responses.
      std::thread Writer([&, Fd] {
        size_t Sent = 0;
        while (Sent < In[CI].size()) {
          int64_t W =
              sendSome(Fd, In[CI].data() + Sent, In[CI].size() - Sent);
          if (W <= 0)
            break;
          Sent += static_cast<size_t>(W);
        }
      });
      std::vector<std::string> Local;
      LineFramer Responses;
      char Chunk[65536];
      for (uint64_t Got = 0; Got < Expect[CI];) {
        int64_t N = recvSome(Fd, Chunk, sizeof(Chunk));
        if (N <= 0)
          break;
        Responses.feed(Chunk, static_cast<size_t>(N));
        while (std::optional<LineFramer::Frame> F = Responses.next()) {
          ++Got;
          if (A)
            Local.emplace_back(F->Line);
        }
      }
      Writer.join();
      closeQuietly(Fd);
      std::lock_guard<std::mutex> Lock(M);
      for (std::string &L : Local)
        Collected.push_back(std::move(L));
    });
  for (std::thread &T : Pump)
    T.join();
  auto End = Clock::now();
  if (Tail)
    Tail->stop();
  // Snapshot after finish(): the last response reaches the socket a
  // breath before the server's own counters settle.
  Svc.finish();
  if (A)
    A->lines(Collected);
  return benchRun(Svc.server().stats(), Start, End);
}

/// A Zipf stream: the rank-r program drawn with weight 1/r — a few hot
/// programs and a long cold tail, the regime the cache is built for.
std::vector<std::string> zipfLines(const SoakOptions &Opts,
                                   const std::vector<SoakProgram> &Programs) {
  std::vector<double> Cdf;
  double Sum = 0;
  for (size_t R = 0; R != Programs.size(); ++R)
    Cdf.push_back(Sum += 1.0 / static_cast<double>(R + 1));
  uint64_t Rng = Opts.Seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull;
  std::vector<std::string> Lines;
  for (uint64_t I = 0; I != Opts.Requests; ++I) {
    Rng ^= Rng << 13;
    Rng ^= Rng >> 7;
    Rng ^= Rng << 17;
    double U =
        static_cast<double>(Rng >> 11) * (1.0 / 9007199254740992.0) * Sum;
    size_t Rank = std::min<size_t>(
        Programs.size() - 1,
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    // The algorithm rotates as in the corpus stream; the program is the
    // drawn one.
    const SoakProgram &P = Programs[Rank];
    ServiceRequest R = soakRequest(Programs, I, "z" + std::to_string(I));
    const Criterion &C = P.Criteria[I % P.Criteria.size()];
    R.Program = P.Source;
    R.Line = C.Line;
    R.Vars = C.Vars;
    Lines.push_back(R.toJson().str());
  }
  return Lines;
}
#endif

JsonValue benchJson(const BenchRun &R) {
  JsonValue V = JsonValue::object();
  V.set("wall_ms", R.WallMs);
  V.set("throughput_rps", R.ThroughputRps);
  V.set("latency_p50_ms", R.Stats.P50Ms);
  V.set("latency_p95_ms", R.Stats.P95Ms);
  V.set("served", R.Stats.Served);
  V.set("degraded", R.Stats.Degraded);
  V.set("refused", R.Stats.Refused);
  V.set("errors", R.Stats.Errors);
  V.set("shed", R.Stats.Shed);
  V.set("crashed", R.Stats.Crashed);
  return V;
}

int runBench(const SoakOptions &Opts) {
  std::vector<SoakProgram> Programs = buildPrograms(Opts);
  std::vector<std::string> Lines = sliceLines(Opts, Programs);
  std::string Input = joinLines(Lines);
  const uint64_t Slices = Lines.size();

  // The mode rows measure isolation and transport overhead, so they
  // run cache-off: a hit-heavy round-robin stream would otherwise turn
  // them into a second cache benchmark.
  ServerOptions Off = serverOptions(Opts);
  Off.JournalPath.clear();
  Off.Cache.Enabled = false;
  ServerOptions ProcessOff = Off;
  ProcessOff.IsolateProcess = true;
  Off.IsolateProcess = false;
  BenchRun Thread = benchStdin(Off, Input);
  BenchRun Process = benchStdin(ProcessOff, Input);
  std::optional<BenchRun> Tcp;
#ifdef JSLICE_HAVE_POSIX_PROCESS
  Tcp = benchTcp(Off, Opts.Shards, Lines, 1, nullptr);
#endif

  JsonValue Root = JsonValue::object();
  Root.set("benchmark", "jslice_soak --bench");
  Root.set("requests", Slices);
  Root.set("programs", static_cast<uint64_t>(Programs.size()));
  Root.set("hardware_concurrency",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  JsonValue Modes = JsonValue::object();
  Modes.set("thread", benchJson(Thread));
  Modes.set("process", benchJson(Process));
  if (Tcp)
    Modes.set("tcp", benchJson(*Tcp));
  Root.set("modes", std::move(Modes));
  JsonValue Overhead = JsonValue::object();
  if (Thread.Stats.P50Ms > 0)
    Overhead.set("p50_ratio", Process.Stats.P50Ms / Thread.Stats.P50Ms);
  if (Process.ThroughputRps > 0)
    Overhead.set("throughput_ratio",
                 Thread.ThroughputRps / Process.ThroughputRps);
  Root.set("process_overhead", std::move(Overhead));
  if (Tcp && Tcp->ThroughputRps > 0) {
    // The socket hop's toll on the same thread-isolated stream.
    JsonValue Net = JsonValue::object();
    Net.set("throughput_ratio", Thread.ThroughputRps / Tcp->ThroughputRps);
    Root.set("tcp_overhead", std::move(Net));
  }

  // The durability ladder: the same stream with the journal at each
  // sync policy. The gap between `full` and `batch` is the per-record
  // fsync's hot-path price (DESIGN.md §16).
  {
    ServerOptions J = Off;
    J.JournalPath =
        Opts.JournalPath.empty() ? "bench-journal.jsonl" : Opts.JournalPath;
    JsonValue Sync = JsonValue::object();
    for (JournalSync Policy : {JournalSync::Full, JournalSync::Batch}) {
      removeJournal(J.JournalPath);
      J.JournalSyncPolicy = Policy;
      Sync.set(journalSyncName(Policy), benchJson(benchStdin(J, Input)));
    }
    Root.set("journal_sync", std::move(Sync));
    removeJournal(J.JournalPath);
  }

  uint64_t ZipfViolations = 0;
#ifdef JSLICE_HAVE_POSIX_PROCESS
  // The replication ladder: journal on, a real standby tailing the
  // stream at each ack policy. `no_replica` is the price of journal +
  // transport alone; async -> flush -> sync is what each narrowing of
  // the acknowledged-loss window costs (DESIGN.md, "Replication &
  // failover").
  {
    ServerOptions J = Off;
    J.JournalPath = "bench-repl-journal.jsonl";
    const std::string Replica = "bench-repl-replica.jsonl";
    JsonValue Repl = JsonValue::object();
    double Baseline = 0;
    removeJournal(J.JournalPath);
    if (std::optional<BenchRun> Base = benchTcp(J, Opts.Shards, Lines, 1,
                                                nullptr)) {
      Baseline = Base->ThroughputRps;
      Repl.set("no_replica", benchJson(*Base));
    }
    for (ReplAckPolicy Policy :
         {ReplAckPolicy::Async, ReplAckPolicy::Flush, ReplAckPolicy::Sync}) {
      removeJournal(J.JournalPath);
      removeJournal(Replica);
      J.ReplAck = Policy;
      std::optional<BenchRun> R =
          benchTcp(J, Opts.Shards, Lines, 1, nullptr, Replica);
      if (!R)
        continue;
      JsonValue Row = benchJson(*R);
      if (Baseline > 0 && R->ThroughputRps > 0)
        Row.set("slowdown_vs_no_replica", Baseline / R->ThroughputRps);
      Repl.set(replAckPolicyName(Policy), std::move(Row));
    }
    removeJournal(J.JournalPath);
    removeJournal(Replica);
    Root.set("replication", std::move(Repl));
  }

  // The cache benchmark: a Zipf draw over the corpus through TCP,
  // cache-off then cache-on with self-audit sampling. Both passes carry
  // the exactly-once audit; cache-on must end with zero mismatches.
  std::vector<std::string> ZLines = zipfLines(Opts, Programs);
  const uint64_t ZSlices = ZLines.size();
  ServerOptions On = Off;
  On.Cache.Enabled = true;
  if (!On.Cache.AuditEvery)
    On.Cache.AuditEvery = 16;
  Audit AOff("zipf cache-off"), AOn("zipf cache-on");
  std::optional<BenchRun> ZOff = benchTcp(Off, Opts.Shards, ZLines, 1, &AOff);
  std::optional<BenchRun> ZOn = benchTcp(On, Opts.Shards, ZLines, 1, &AOn);
  if (ZOff && ZOn) {
    ZipfViolations += AOff.finishExactlyOnce(ZSlices);
    ZipfViolations += AOn.finishExactlyOnce(ZSlices);
    if (ZOn->Stats.Cache.AuditMismatches)
      violation(ZipfViolations,
                "zipf cache-on: %llu self-audit mismatches",
                ull(ZOn->Stats.Cache.AuditMismatches));
    double Speedup =
        ZOff->ThroughputRps > 0 ? ZOn->ThroughputRps / ZOff->ThroughputRps
                                : 0;
    JsonValue Z = JsonValue::object();
    Z.set("distribution", "zipf(s=1)");
    Z.set("requests", ZSlices);
    Z.set("cache_off", benchJson(*ZOff));
    JsonValue OnJ = benchJson(*ZOn);
    OnJ.set("cached_serves", AOn.CachedServes);
    OnJ.set("audited_serves", AOn.AuditedServes);
    OnJ.set("cache", ZOn->Stats.Cache.toJson());
    Z.set("cache_on", std::move(OnJ));
    Z.set("speedup", Speedup);
    Z.set("audit_violations", ZipfViolations);
    Root.set("zipf", std::move(Z));
  } else {
    std::fprintf(stderr, "jslice_soak: zipf bench skipped (no TCP listener)\n");
  }

  // The shard ladder: the Zipf cache-on stream over 8 concurrent
  // connections at 1/2/4/8 reactor shards, every rung audited; the
  // recorded hardware_concurrency bounds what the ladder can show.
  const unsigned LadderClients = 8;
  double Rung1 = 0, Rung8 = 0;
  JsonValue Rungs = JsonValue::array();
  bool LadderOk = true;
  for (unsigned NS : {1u, 2u, 4u, 8u}) {
    Audit LA("zipf shards-" + std::to_string(NS));
    std::optional<BenchRun> LR = benchTcp(On, NS, ZLines, LadderClients, &LA);
    if (!LR) {
      std::fprintf(stderr,
                   "jslice_soak: shard ladder skipped at %u shards (no TCP "
                   "listener)\n",
                   NS);
      LadderOk = false;
      break;
    }
    ZipfViolations += LA.finishExactlyOnce(ZSlices);
    JsonValue E = JsonValue::object();
    E.set("shards", static_cast<uint64_t>(NS));
    E.set("clients", static_cast<uint64_t>(LadderClients));
    E.set("throughput_rps", LR->ThroughputRps);
    E.set("wall_ms", LR->WallMs);
    E.set("latency_p50_ms", LR->Stats.P50Ms);
    Rungs.push(std::move(E));
    if (NS == 1)
      Rung1 = LR->ThroughputRps;
    if (NS == 8)
      Rung8 = LR->ThroughputRps;
  }
  if (LadderOk) {
    JsonValue Ladder = JsonValue::object();
    Ladder.set("distribution", "zipf(s=1)");
    Ladder.set("cache", "on");
    Ladder.set("requests", ZSlices);
    Ladder.set("rungs", std::move(Rungs));
    if (Rung1 > 0)
      Ladder.set("speedup_8v1", Rung8 / Rung1);
    Root.set("shard_ladder", std::move(Ladder));
  }
#endif

  std::string Text = Root.str();
  if (!Opts.OutPath.empty()) {
    std::ofstream OutFile(Opts.OutPath, std::ios::trunc);
    if (!OutFile) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.OutPath.c_str());
      return 1;
    }
    OutFile << Text << "\n";
  }
  std::printf("%s\n", Text.c_str());
  return ZipfViolations ? 1 : 0;
}

/// Per seed: a program (alternating dialects), every mined criterion
/// requested twice through a fresh audit-every-hit server. Identical
/// requests must slice identically, the self-audit must report zero
/// mismatches, and the sweep must actually hit (a vacuously green
/// sweep is a violation, not a pass).
int runAuditSweep(const SoakOptions &CliOpts) {
  SoakOptions Opts = CliOpts;
  Opts.CacheAuditEvery = 1;
  Opts.CacheEnabled = true;
  ServerOptions SOpts = serverOptions(Opts);
  SOpts.Threads = 1;
  uint64_t Violations = 0, Hits = 0, Audits = 0, Pairs = 0, Served = 0;
  // Weiser (the last algorithm) bypasses the cache; rotate over the rest.
  const size_t CachedAlgos = 9;

  for (uint64_t SI = 0; SI != Opts.AuditSeeds; ++SI) {
    GenOptions Gen;
    Gen.Seed = Opts.Seed + SI;
    Gen.TargetStmts = Opts.TargetStmts;
    Gen.AllowGotos = (SI % 2) == 1;
    std::string Source = generateProgram(Gen);
    ErrorOr<Analysis> An = Analysis::fromSource(Source, Budget::unlimited());
    if (!An)
      continue;
    std::vector<Criterion> Crits = reachableWriteCriteria(*An);
    if (Crits.empty())
      continue;
    if (Crits.size() > 3)
      Crits.resize(3); // Three criteria per program keeps 500 seeds fast.

    std::string Stream;
    for (size_t CI = 0; CI != Crits.size(); ++CI) {
      ServiceRequest R;
      R.Program = Source;
      R.Line = Crits[CI].Line;
      R.Vars = Crits[CI].Vars;
      R.Algorithm = AllAlgorithms[(SI + CI) % CachedAlgos];
      for (const char *Pass : {"a", "b"}) {
        R.Id = Pass + std::to_string(CI);
        Stream += R.toJson().str() + "\n";
      }
    }
    Audit A;
    ServerStats Final;
    std::string Text = serveStdin(Opts, SOpts, Stream, A, &Final);
    Violations += A.Violations;

    // Pair the cold build with its cached replay: same status, same
    // lines.
    std::map<std::string, std::string> ById;
    std::istringstream Lines(Text);
    for (std::string Line; std::getline(Lines, Line);) {
      std::optional<JsonValue> V = JsonValue::parse(Line);
      const JsonValue *Id = V && V->isObject() ? V->find("id") : nullptr;
      const JsonValue *St = Id ? V->find("status") : nullptr;
      const JsonValue *Ls = Id ? V->find("lines") : nullptr;
      if (Id && Id->isString() && St && St->isString())
        ById[Id->asString()] = St->asString() + "/" + (Ls ? Ls->str() : "");
    }
    for (size_t CI = 0; CI != Crits.size(); ++CI) {
      auto AIt = ById.find("a" + std::to_string(CI));
      auto BIt = ById.find("b" + std::to_string(CI));
      if (AIt == ById.end() || BIt == ById.end()) {
        violation(Violations, "seed %llu criterion %zu lost a response",
                  ull(Gen.Seed), CI);
        continue;
      }
      ++Pairs;
      if (AIt->second != BIt->second)
        violation(Violations,
                  "seed %llu criterion %zu: cold build and cached replay "
                  "disagree (%s vs %s)",
                  ull(Gen.Seed), CI, AIt->second.c_str(),
                  BIt->second.c_str());
      Served += AIt->second.rfind("ok/", 0) == 0;
    }
    if (std::optional<CacheStats> CS =
            checkCacheStats(Opts, Final, Violations)) {
      Hits += CS->Hits;
      Audits += CS->Audits;
    }
  }
  if (!Hits || !Audits)
    violation(Violations, "audit sweep produced no %s — the sweep proved "
                          "nothing",
              Hits ? "audited hits" : "cache hits");
  std::printf("jslice_soak: audit sweep — %llu seeds, %llu request pairs "
              "(%llu served ok), %llu hits, %llu audits, %llu violations\n",
              ull(Opts.AuditSeeds), ull(Pairs), ull(Served), ull(Hits),
              ull(Audits), ull(Violations));
  return Violations ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  SoakOptions Opts;
  using O = SoakOptions;
  static const std::map<std::string, uint64_t O::*> Wide = {
      {"--requests", &O::Requests},          {"--seed", &O::Seed},
      {"--fault-stride", &O::FaultStride},   {"--upgrades", &O::Upgrades},
      {"--kill-interval-ms", &O::KillIntervalMs},
      {"--cache-entries", &O::CacheEntries}, {"--cache-bytes", &O::CacheBytes},
      {"--cache-audit-every", &O::CacheAuditEvery},
      {"--audit-seeds", &O::AuditSeeds}};
  static const std::map<std::string, unsigned O::*> Narrow = {
      {"--programs", &O::Programs},       {"--stmts", &O::TargetStmts},
      {"--threads", &O::Threads},         {"--workers", &O::Workers},
      {"--breaker-threshold", &O::BreakerThreshold},
      {"--net-clients", &O::NetClients},  {"--shards", &O::Shards}};
  static const std::set<std::string> AtLeastOne = {
      "--programs", "--kill-interval-ms", "--net-clients", "--upgrades"};
  static const std::map<std::string, std::string O::*> Paths = {
      {"--journal", &O::JournalPath}, {"--quarantine", &O::QuarantineDir},
      {"--out", &O::OutPath},         {"--serve-bin", &O::ServeBin}};
  static const std::map<std::string, bool O::*> Modes = {
      {"--crash-matrix", &O::CrashMatrix}, {"--disk-chaos", &O::DiskChaos},
      {"--upgrade-matrix", &O::UpgradeMatrix}, {"--bench", &O::Bench},
      {"--failover-matrix", &O::FailoverMatrix}, {"--net", &O::Net},
      {"--verbose", &O::Verbose}};

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (auto M = Modes.find(Arg); M != Modes.end()) {
      Opts.*M->second = true;
      continue;
    }
    if (I + 1 >= argc) {
      std::fprintf(stderr, "error: unknown option or missing value '%s'\n",
                   Arg.c_str());
      return usage();
    }
    std::string Value = argv[++I];
    std::optional<uint64_t> N =
        parseCount(Value, Narrow.count(Arg) ? UINT_MAX : UINT64_MAX);
    if (AtLeastOne.count(Arg) && N)
      N = std::max<uint64_t>(1, *N);
    bool Numeric = Wide.count(Arg) || Narrow.count(Arg);
    if (Numeric && !N) {
      std::fprintf(stderr,
                   "error: %s expects a non-negative integer in range\n",
                   Arg.c_str());
      return usage();
    }
    if (auto W = Wide.find(Arg); W != Wide.end())
      Opts.*W->second = *N;
    else if (auto Nw = Narrow.find(Arg); Nw != Narrow.end())
      Opts.*Nw->second = static_cast<unsigned>(*N);
    else if (auto P = Paths.find(Arg); P != Paths.end())
      Opts.*P->second = Value;
    else if (Arg == "--cache" && (Value == "on" || Value == "off"))
      Opts.CacheEnabled = Value == "on";
    else if (Arg == "--isolate" && (Value == "process" || Value == "thread"))
      Opts.IsolateProcess = Value == "process";
    else if (Arg == "--repl-ack" && parseReplAckPolicyName(Value, Opts.ReplAck))
      continue;
    else {
      std::fprintf(stderr, "error: bad option or value '%s %s'\n",
                   Arg.c_str(), Value.c_str());
      return usage();
    }
  }

  if ((Opts.UpgradeMatrix || Opts.FailoverMatrix) && Opts.ServeBin.empty()) {
    std::fprintf(stderr, "error: the process matrices require --serve-bin "
                         "PATH\n");
    return 2;
  }
  if (Opts.AuditSeeds)
    return runAuditSweep(Opts);
  if (Opts.DiskChaos)
    return runDiskChaos(Opts);
  if (Opts.UpgradeMatrix)
    return runUpgradeMatrix(Opts);
  if (Opts.FailoverMatrix)
    return runFailoverMatrix(Opts);
  if (Opts.Net)
    return runNetSoak(Opts); // --crash-matrix layers kills on top.
  if (Opts.CrashMatrix)
    return runCrashMatrix(Opts);
  if (Opts.Bench)
    return runBench(Opts);
  return Opts.FaultStride ? runFaultSweep(Opts) : runVolumeSoak(Opts);
}
