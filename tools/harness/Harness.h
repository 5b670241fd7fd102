//===- tools/harness/Harness.h - Scenario harness for the service tools ---===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parts jslice_soak's modes and jslice_watchdog are built from: the
/// soak's flags and request corpus, the Audit ledger, InProcessService,
/// LoadPump, and ServeLog/ServeNode for real jslice_serve processes.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_TOOLS_HARNESS_H
#define JSLICE_TOOLS_HARNESS_H

#include "net/ChaosProxy.h"
#include "net/Client.h"
#include "net/TcpServer.h"
#include "service/Replication.h"
#include "service/Server.h"
#include "support/Pipe.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace jslice {
namespace harness {

/// The soak's flags (jslice_soak --help lists them).
struct SoakOptions {
  uint64_t Requests = 10000, Seed = 1, FaultStride = 0;
  unsigned Programs = 100, TargetStmts = 40, Threads = 0, Workers = 0;
  std::string JournalPath, OutPath;
  std::string QuarantineDir = "poisoned";
  bool IsolateProcess = false, Verbose = false;
  /// Mode selectors.
  bool CrashMatrix = false, Bench = false, Net = false, DiskChaos = false;
  bool UpgradeMatrix = false, FailoverMatrix = false;
  uint64_t AuditSeeds = 0; ///< Nonzero selects the cache audit sweep.
  uint64_t KillIntervalMs = 5;
  unsigned BreakerThreshold = 0; ///< 0 = supervisor default.
  unsigned NetClients = 4;
  unsigned Shards = 0;    ///< Transport reactor shards; 0 = hardware.
  std::string ServeBin;   ///< jslice_serve for the process matrices.
  uint64_t Upgrades = 20; ///< Hot restarts the upgrade matrix completes.
  /// Failover matrix ack policy (sync arms the acked-durability audit).
  ReplAckPolicy ReplAck = ReplAckPolicy::Sync;
  bool CacheEnabled = true;
  /// 0 = CacheOptions defaults; audit-every 0 = no self-audit sampling.
  uint64_t CacheEntries = 0, CacheBytes = 0, CacheAuditEvery = 0;
};

/// The cache flags as server options; the audit PRNG is seeded from
/// --seed so a failure replays.
CacheOptions cacheOptions(const SoakOptions &Opts);
/// Server options for the flags: threads, journal, isolation,
/// supervisor, quarantine, and cache.
ServerOptions serverOptions(const SoakOptions &Opts);

/// One generated program with its usable criteria.
struct SoakProgram {
  std::string Source;
  std::vector<Criterion> Criteria;
};

/// \p Opts.Programs programs (alternating dialects), each mined for
/// criteria. Programs that fail analysis still participate — their
/// requests must come back as clean `error` responses.
std::vector<SoakProgram> buildPrograms(const SoakOptions &Opts);

/// Request \p I of the corpus: program and criterion rotate with \p I,
/// and with \p RotateAlgorithm so does the algorithm.
ServiceRequest soakRequest(const std::vector<SoakProgram> &Programs,
                           uint64_t I, const std::string &Id,
                           bool RotateAlgorithm = true);

/// Every slice algorithm; Weiser last (it bypasses the cache).
extern const SliceAlgorithm AllAlgorithms[10];

/// Prints "VIOLATION: <message>" and counts it.
void violation(uint64_t &Count, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// What the audit saw in a response stream.
struct Audit {
  std::string Tag; ///< Prefixes this ledger's violations.
  uint64_t Responses = 0, CancelAcks = 0, StatsReplies = 0;
  uint64_t Violations = 0;
  std::map<std::string, uint64_t> ByStatus;
  std::map<std::string, uint64_t> SliceResponses; ///< id -> count.
  uint64_t DegradedServes = 0, CachedServes = 0, AuditedServes = 0;
  std::string StatsLine;          ///< Last stats reply, raw.
  bool RequireCrashRepro = false; ///< crashed must name an on-disk repro.

  explicit Audit(std::string Tag = "") : Tag(std::move(Tag)) {}
  /// Audits one response line: a legal status, ok with lines, a
  /// refusal only after the whole ladder.
  void line(const std::string &Line);
  /// Audits every non-empty line of \p Text.
  void text(const std::string &Text);
  void lines(const std::vector<std::string> &Ls) {
    for (const std::string &L : Ls)
      line(L);
  }
  void fail(const std::string &Why);
  uint64_t status(const std::string &S) const {
    return ByStatus.count(S) ? ByStatus.at(S) : 0;
  }
  /// Every id answered at most once.
  void answeredOnce();
  /// The exactly-once tally: \p Lost requests (already reported) count
  /// as violations, no id is answered twice, and the other Sent - Lost
  /// each got one terminal status. Returns the total violations.
  uint64_t finishExactlyOnce(uint64_t Sent, uint64_t Lost = 0);
  /// "status N" rows and the violation count, for the run summary.
  void printSummary() const;
};

/// A Server with optional TCP transport and chaos proxy in front.
/// Responses on the stdin path collect in output().
class InProcessService {
public:
  InProcessService(const ServerOptions &SOpts, bool Verbose = false);
  ~InProcessService() { finish(); }
  InProcessService(const InProcessService &) = delete;
  InProcessService &operator=(const InProcessService &) = delete;

  Server &server() { return S; }
  /// Serves \p Input as one stdin stream (blocks until EOF).
  void serve(const std::string &Input) {
    std::istringstream In(Input);
    S.serve(In);
  }
  std::string output() const { return Out.str(); }
  /// Starts the TCP transport and its event loop thread.
  bool listen(const TcpServerOptions &TOpts, std::string &Err);
  /// Puts a chaos proxy in front of the TCP transport.
  bool chaos(ChaosOptions COpts, std::string &Err);
  uint16_t port() const { return Tcp ? Tcp->port() : 0; }
  uint16_t chaosPort() const { return Proxy ? Proxy->port() : 0; }
  ChaosStats chaosStats() const { return Proxy->stats(); }
  /// Stops proxy and transport, then Server::finish(). Idempotent.
  void finish();

private:
  std::ostringstream Out, Log;
  Server S;
  std::unique_ptr<TcpServer> Tcp;
  std::thread Loop;
  std::unique_ptr<ChaosProxy> Proxy;
  bool Verbose, Finished = false;
};

struct PumpOptions {
  ClientOptions Client; ///< Per-client template; jitter seeded per client.
  unsigned Clients = 1;
  uint64_t Seed = 1;
  uint64_t Requests = 0;     ///< Draws at least this many indices.
  bool UntilStopped = false; ///< Keep drawing past Requests until stop.
  /// Re-send past transport gaps and sheds until a terminal status
  /// lands (the process matrices: respawns and drains are expected).
  bool RetryToTerminal = false;
  std::string Scene; ///< Names the pump in lost-request violations.
};

struct PumpResult {
  std::vector<std::string> Responses;
  uint64_t Sent = 0, Lost = 0, Retried = 0, Reconnects = 0, Failovers = 0;
};

using RequestGen = std::function<std::string(uint64_t)>; ///< Line I.

/// N client threads sharing one index counter; starts on construction.
class LoadPump {
public:
  LoadPump(PumpOptions Opts, RequestGen Gen);
  ~LoadPump() { finish(); }
  LoadPump(const LoadPump &) = delete;
  LoadPump &operator=(const LoadPump &) = delete;
  uint64_t answered() const { return Answered.load(); }
  /// Stops drawing new indices (past Requests), joins, merges.
  PumpResult finish();

private:
  void client(unsigned CI);
  PumpOptions Opts;
  RequestGen Gen;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Next{0}, Answered{0};
  std::mutex M;
  PumpResult Result;
  std::vector<std::thread> Threads;
};

/// One request over a fresh connection to 127.0.0.1:\p Port; empty on
/// transport failure.
std::string ask(uint16_t Port, const std::string &Line, unsigned Attempts = 4,
                const std::string &Host = "127.0.0.1");
/// The number at \p Key of \p V (0 when absent).
uint64_t jsonCount(const JsonValue *V, const char *Key);

/// Polls \p Pred every \p PollMs until it holds or \p TimeoutMs passes.
bool waitFor(const std::function<bool()> &Pred, uint64_t TimeoutMs,
             unsigned PollMs = 20);

/// What jslice_serve's lifecycle lines say about its process tree.
struct ServeLogState {
  uint16_t Port = 0;     ///< From "listening on HOST:PORT".
  long LeaderPid = -1;   ///< The generation serving the port.
  long PendingPid = -1;  ///< Spawned successor, not yet ready.
  uint64_t Handoffs = 0; ///< "ready; draining" events.
  uint64_t Rollbacks = 0;
  uint64_t Refusals = 0; ///< Both refusal flavours.
};

/// The parser of jslice_serve's stderr (tools/jslice_serve.cpp prints
/// the anchors). A successor announces "generation G pid P" as soon as
/// it listens, long before it is ready, so an announce is adopted as
/// leader only when there is none; the pending successor becomes the
/// leader only on "ready; draining", and "rolling back" drops it.
class ServeLog {
public:
  void feed(const std::string &Line);
  ServeLogState state() const;
  /// Forgets the process tree: \p Pid (or nobody) leads, nothing pends.
  void setLeader(long Pid);

private:
  mutable std::mutex M;
  ServeLogState S;
};

#ifdef JSLICE_HAVE_POSIX_PROCESS
/// Real jslice_serve processes with stderr on one pipe. A node with one
/// spawn is one server; a "dynasty" spawns more onto the same pipe and
/// every hot-restart successor inherits it across exec, so the log sees
/// the whole tree. The parent keeps the write end until the node dies.
class ServeNode {
public:
  /// \p Echo copies every line to our stderr.
  explicit ServeNode(bool Echo = false);
  /// SIGKILLs every process the log or spawn() knows, then reaps.
  ~ServeNode();
  ServeNode(const ServeNode &) = delete;
  ServeNode &operator=(const ServeNode &) = delete;

  /// fork/exec \p Args (PATH-searched) with stderr on the pipe; -1 on
  /// failure.
  long spawn(const std::vector<std::string> &Args);
  ServeLog &log() { return Log; }
  ServeLogState state() const { return Log.state(); }
  uint16_t port() const { return Log.state().Port; }
  long leader() const { return Log.state().LeaderPid; }
  /// Polls until the log state satisfies \p Pred, reaping exited
  /// children meanwhile: a zombie predecessor looks alive to its
  /// successor, which then never completes the handoff.
  bool await(const std::function<bool(const ServeLogState &)> &Pred,
             uint64_t TimeoutMs);
  /// Waits until the port and a leader are known.
  bool waitUp(uint64_t TimeoutMs) {
    return await(
        [](const ServeLogState &S) { return S.Port && S.LeaderPid > 0; },
        TimeoutMs);
  }
  /// One {"health"} probe of the port: a parseable answer whose
  /// transport is not wedged (draining is healthy: an upgrading leader
  /// drains by design).
  bool healthy(const std::string &Host = "127.0.0.1") const;
  /// Reaps exited direct children; the status of \p Pid if it was one.
  std::optional<int> reap(long Pid = -1);
  /// True once \p Pid no longer exists (successors are not our
  /// children, so this asks kill(pid, 0) after reaping ours).
  bool gone(long Pid);
  /// SIGTERM, wait \p GraceMs for the drain, SIGKILL if it stalls.
  /// True when the drain finished in time.
  bool terminate(long Pid, uint64_t GraceMs);
  static void signal(long Pid, int Sig);

private:
  void readLoop();
  ServeLog Log;
  bool Echo;
  int Fds[2] = {-1, -1};
  std::atomic<bool> Stop{false};
  std::thread Reader;
  std::vector<long> Children;
};
#endif

} // namespace harness
} // namespace jslice

#endif // JSLICE_TOOLS_HARNESS_H
