//===- tools/jslice_serve.cpp - Long-running slicing server -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The slicing service front end (DESIGN.md, "Serving slices" and
/// "Supervision & overload"): reads JSON-Lines requests from stdin (or
/// --input FILE), answers each with one JSON line on stdout. Requests
/// run concurrently on a worker pool, each under its own resource
/// Budget, through the precision-degradation ladder — the caller
/// always gets a sound slice or a deterministic refusal, never a hang.
///
///   printf '{"id":"r1","program":"read(a);\nwrite(a);\n","line":2,
///            "vars":["a"]}\n' | jslice_serve
///
///   jslice_serve [--input FILE] [--listen HOST:PORT] [--journal FILE]
///                [--quarantine DIR] [--threads N] [--budget-ms N]
///                [--max-steps N] [--poll-stride N] [--no-degrade]
///                [--isolate MODE] [--workers N] [--max-queue-depth N]
///                [--queue-deadline-ms N] [--max-rss-mb N]
///                [--journal-rotate-bytes N] [--max-line-bytes N]
///                [--max-conns N] [--idle-timeout-ms N]
///                [--read-deadline-ms N] [--write-buffer-bytes N]
///                [--drain-grace-ms N] [--send-buffer-bytes N]
///                [--shards N] [--journal-sync full|batch]
///                [--journal-flush-ms N] [--journal-failure shed|degrade|abort]
///                [--journal-reattach-ms N]
///                [--upgrade on|off] [--wedge-threshold-ms N]
///                [--standby-of HOST:PORT] [--repl-ack async|flush|sync]
///                [--repl-ack-timeout-ms N] [--epoch N]
///
///   --input FILE      read requests from FILE instead of stdin
///   --listen HOST:PORT serve over TCP instead of stdin (see
///                     net/TcpServer.h; port 0 binds an ephemeral port,
///                     reported as "listening on HOST:PORT" on stderr).
///                     Per-connection containment: a misbehaving byte
///                     stream costs exactly its own connection
///   --shards N        TCP: reactor shard threads, each owning its
///                     connections outright (default 0 = one per
///                     hardware thread). SO_REUSEPORT listeners when
///                     the platform has them, else round-robin fd
///                     handoff from shard 0
///   --max-line-bytes N refuse request lines longer than N bytes with a
///                     deterministic shed response, on every transport
///                     (default 4 MiB; 0 = unbounded)
///   --max-conns N     TCP: connection cap; accepts beyond it get a
///                     one-line shed refusal (default 256)
///   --idle-timeout-ms N TCP: close connections idle this long
///                     (default 30000; 0 disables)
///   --read-deadline-ms N TCP: a partial line must complete within N ms
///                     (slowloris defense; default 10000; 0 disables)
///   --write-buffer-bytes N TCP: per-connection bound on unsent
///                     response bytes; a stalled reader past it is
///                     disconnected (default 4 MiB)
///   --drain-grace-ms N TCP: how long a drain waits for in-flight
///                     responses before forcing closes (default 10000)
///   --send-buffer-bytes N TCP: shrink each connection's kernel send
///                     buffer (test/ops knob; default 0 = leave alone)
///   --journal FILE    write-ahead request journal; on startup,
///                     requests a crashed predecessor left in flight
///                     are quarantined and refused on resubmission
///   --journal-sync MODE durability policy for journal appends:
///                     `full` (default) fsyncs every record — a kernel
///                     panic loses nothing; `batch` group-commits on a
///                     bounded flush interval — a panic can lose the
///                     last interval's records (a process crash loses
///                     nothing; records are flushed to the kernel per
///                     append)
///   --journal-flush-ms N  batch-mode group-commit interval
///                     (default 25)
///   --journal-failure MODE what to do when the journal fails
///                     persistently (append still failing after a
///                     reopen-and-retry): `shed` (default) keeps the
///                     process up but refuses new slice requests with a
///                     deterministic "journal-failed" shed — crash
///                     recovery stays trustworthy; `degrade` keeps
///                     serving with the journal marked lost — {"health"}
///                     reports degraded ("journal":"lost") and
///                     jslice_client --health exits 1; `abort` drains
///                     in-flight requests and exits 3. Never serves on
///                     while silently recording nothing
///   --journal-reattach-ms N  under --journal-failure=degrade, probe a
///                     lost journal for recovery every N ms; a healed
///                     disk resumes journaling and {"health"} flips
///                     back to "journal":"ok" (default 500; 0 keeps the
///                     old latch-forever behavior)
///   --standby-of HOST:PORT  boot as a warm standby of the primary at
///                     HOST:PORT: tail its replication stream into the
///                     local --journal (required), refuse slice
///                     requests with a deterministic "standby" shed,
///                     and report replication lag in {"health"}. A
///                     {"promote": true} request (jslice_client
///                     --promote) or the watchdog turns this process
///                     into the primary: the tail stops, the replica
///                     journal is recovered (the dead primary's
///                     in-flight requests are quarantined), and the
///                     epoch is bumped past everything the old primary
///                     ever stamped — the fence that keeps a
///                     resurrected ex-primary from double-serving
///   --repl-ack MODE   how hard a journal append pushes toward the
///                     standby before admitting the request: `async`
///                     (default; background shipper), `flush` (record
///                     handed to the standby's transport buffer
///                     inline), `sync` (wait bounded for the standby's
///                     durable ack — zero acknowledged-but-lost
///                     records on failover)
///   --repl-ack-timeout-ms N  sync-mode ack wait bound (default 2000)
///   --epoch N         initial fencing epoch (test/ops override;
///                     default: primaries resume the on-disk epoch,
///                     standbys wait for promotion)
///   --upgrade on|off  TCP: accept SIGUSR2 / {"upgrade"} requests for a
///                     zero-downtime generation handoff (default on;
///                     implies SO_REUSEPORT listeners where available
///                     so the successor can bind alongside)
///   --wedge-threshold-ms N  TCP: a shard whose reactor loop has not
///                     progressed for N ms is reported wedged in
///                     {"health"} and {"stats"} (default 5000)
///   --quarantine DIR  where poisoned reproducers go (default poisoned)
///   --threads N       worker threads (default: hardware concurrency)
///   --budget-ms N     default per-request deadline (requests override)
///   --max-steps N     default per-request step budget
///   --poll-stride N   guard checkpoints between deadline polls
///                     (default 16 — tighter than the library's 256,
///                     because an overshot deadline stalls a worker)
///   --no-degrade      disable the ladder: serve the requested
///                     algorithm or refuse
///   --isolate MODE    `thread` (default) or `process`: run requests in
///                     forked sandbox workers under a self-healing
///                     supervisor — a crash or hang costs one request
///                     (answered `crashed` + quarantined), never the
///                     server
///   --workers N       sandbox processes in process mode (default:
///                     one per dispatcher thread)
///   --max-queue-depth N   shed (refuse) new requests beyond N in
///                     flight (default 0 = unbounded)
///   --queue-deadline-ms N shed admitted requests still queued after
///                     N ms (default 0 = none)
///   --max-rss-mb N    while process RSS exceeds N MiB, evict cached
///                     analyses first and shed only when the cache is
///                     empty (default 0 = no watermark)
///   --journal-rotate-bytes N  rewrite the journal down to its
///                     unmatched begins past N bytes (default 8 MiB)
///   --cache on|off    content-addressed analysis cache: identical
///                     programs share one parsed+analyzed artifact and
///                     coalesce concurrent builds single-flight
///                     (default on; per-worker in process mode)
///   --cache-entries N cache entry cap (default 64)
///   --cache-bytes N   cache cost-estimate cap in bytes (default 256 MiB)
///   --cache-audit-every N  self-audit: re-analyze ~1 in N cache hits
///                     from source and diff the slices; a mismatch
///                     invalidates the entry and serves the fresh
///                     result (default 0 = off)
///   --cache-audit-seed N   seed for the audit sampler (default 1)
///
/// SIGTERM / SIGINT drain gracefully: the server stops accepting,
/// finishes in-flight requests, writes a clean-shutdown journal
/// record, and exits 0. The signal handler only writes one byte to a
/// self-pipe; the serve loop polls it between lines, so the drain
/// happens on a normal thread, never inside a handler.
///
/// SIGUSR2 (TCP mode, --upgrade on) performs a zero-downtime hot
/// restart (DESIGN.md §16): re-exec this binary as generation G+1 on
/// the same port (SO_REUSEPORT, falling back to passing the listener
/// fd over SCM_RIGHTS), wait for the successor's readiness self-probe,
/// then drain generation G exactly like SIGTERM. If the successor dies
/// or never becomes ready, generation G rolls back and keeps serving.
/// A second SIGUSR2 while a handoff is pending is refused; SIGTERM
/// always wins over an upgrade. The flags --generation, --upgrade-from,
/// --ready-fd, --listener-socket, and --ready-delay-ms are internal
/// plumbing between generations (the last one is a test hook delaying
/// the readiness probe).
///
/// Exit codes: 0 — stream served to EOF or drained on signal;
/// 2 — usage error; 3 — the write-ahead journal failed persistently
/// under --journal-failure=abort (in-flight requests were drained and
/// answered first).
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Socket.h"
#include "net/StandbyTail.h"
#include "net/TcpServer.h"
#include "service/Json.h"
#include "service/Server.h"
#include "support/Pipe.h"
#include "support/StringUtils.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#ifdef JSLICE_HAVE_POSIX_PROCESS
#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace jslice;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: jslice_serve [--input FILE] [--listen HOST:PORT] "
               "[--journal FILE]\n"
               "                    [--quarantine DIR] [--threads N] "
               "[--budget-ms N] [--max-steps N]\n"
               "                    [--poll-stride N] [--no-degrade] "
               "[--isolate thread|process]\n"
               "                    [--workers N] [--max-queue-depth N] "
               "[--queue-deadline-ms N]\n"
               "                    [--max-rss-mb N] "
               "[--journal-rotate-bytes N]\n"
               "                    [--max-line-bytes N] [--max-conns N] "
               "[--idle-timeout-ms N]\n"
               "                    [--read-deadline-ms N] "
               "[--write-buffer-bytes N]\n"
               "                    [--drain-grace-ms N] "
               "[--send-buffer-bytes N] [--shards N]\n"
               "                    [--cache on|off] [--cache-entries N] "
               "[--cache-bytes N]\n"
               "                    [--cache-audit-every N] "
               "[--cache-audit-seed N]\n"
               "                    [--journal-sync full|batch] "
               "[--journal-flush-ms N]\n"
               "                    [--journal-failure shed|degrade|abort] "
               "[--journal-reattach-ms N]\n"
               "                    [--upgrade on|off] "
               "[--wedge-threshold-ms N]\n"
               "                    [--standby-of HOST:PORT] "
               "[--repl-ack async|flush|sync]\n"
               "                    [--repl-ack-timeout-ms N] [--epoch N]\n");
  return 2;
}

std::atomic<bool> ShutdownRequested{false};
std::atomic<bool> UpgradeRequested{false};

#ifdef JSLICE_HAVE_POSIX_PROCESS
int SelfPipeWrite = -1;

extern "C" void onShutdownSignal(int) {
  // Async-signal-safe by construction: one flag store, one write.
  ShutdownRequested.store(true, std::memory_order_relaxed);
  if (SelfPipeWrite >= 0) {
    char B = 1;
    [[maybe_unused]] ssize_t N = ::write(SelfPipeWrite, &B, 1);
  }
}

extern "C" void onUpgradeSignal(int) {
  // One flag store; the upgrade monitor thread polls it, so nothing
  // else needs to happen in handler context.
  UpgradeRequested.store(true, std::memory_order_relaxed);
}

/// Installs the signal handlers, once for every transport. No
/// SA_RESTART: a blocked poll or read must break.
void installSignalHandlers(bool Upgradable) {
  struct sigaction SA = {};
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  if (Upgradable) {
    SA.sa_handler = onUpgradeSignal;
    ::sigaction(SIGUSR2, &SA, nullptr);
  }
}

/// Serves the requests on \p Fd (stdin or --input FILE) until EOF or a
/// shutdown signal. poll() watches the fd and a self-pipe the shutdown
/// handler writes, so a signal interrupts even an idle blocking read;
/// Server::serve does the framing under the line cap.
void serveFd(Server &S, int Fd) {
  Pipe Self;
  if (Self.make())
    SelfPipeWrite = Self.WriteFd;
  S.serve([&](char *Buf, size_t Size) -> int64_t {
    int Ready = pollReadable2(Fd, Self.ReadFd, -1);
    if (Ready < 0 || (Ready & 2)) // Self-pipe: a signal landed.
      return -1;
    int64_t N = readSome(Fd, Buf, Size);
    return N < 0 ? 0 : N;
  });
  SelfPipeWrite = -1;
}

/// Everything the upgrade monitor needs to spawn, supervise, and (on
/// failure) roll back a successor generation.
struct UpgradeContext {
  Server *Srv = nullptr;
  TcpServer *Transport = nullptr;
  std::string Host;     ///< Listen host, for the successor's --listen.
  uint16_t Port = 0;    ///< The *bound* port (never 0).
  uint64_t Generation = 1;
  /// The successor's argv: this process's argv with the generation
  /// plumbing flags stripped and --listen rewritten to the bound port.
  std::vector<std::string> RespawnArgs;
  uint64_t ReadyTimeoutMs = 10000;
  std::atomic<bool> Stop{false};
  bool HandedOff = false;
};

/// The successor's readiness gate: connect to the shared port and send
/// {"health"} until the answer carries *our* generation id. During the
/// overlap window both generations accept from the same port, so a
/// probe can land on the predecessor — that is a retry, not a failure.
bool selfProbeReady(const std::string &Host, uint16_t Port, uint64_t Gen,
                    const std::atomic<bool> &Abort) {
  ClientOptions CO;
  CO.Host = Host;
  CO.Port = Port;
  CO.ConnectTimeoutMs = 250;
  CO.ResponseTimeoutMs = 1000;
  ClientConnection Probe(CO);
  for (int Attempt = 0; Attempt != 50; ++Attempt) {
    if (Abort.load(std::memory_order_relaxed))
      return false;
    ClientResult R = Probe.requestOnce("{\"health\":true}");
    Probe.disconnect(); // The next probe may land on the other generation.
    std::optional<JsonValue> V =
        R.Ok ? JsonValue::parse(R.Response, nullptr) : std::nullopt;
    const JsonValue *G = V ? V->find("generation") : nullptr;
    if (G && G->isNumber() && static_cast<uint64_t>(G->asInt()) == Gen)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// One upgrade attempt: fork/exec the successor, pass it the listener
/// fd over SCM_RIGHTS (used only if its own SO_REUSEPORT bind fails),
/// wait bounded for its readiness byte, then either drain this
/// generation or kill the successor and roll back.
void runUpgrade(UpgradeContext &Ctx) {
  uint64_t NextGen = Ctx.Generation + 1;

  // Pin journal rotation for the whole overlap window: the successor
  // opens the same path, and a compaction rewrite-and-rename under its
  // feet would split the journal across two inodes.
  Ctx.Srv->holdJournalRotation(true);

  int ReadyPipe[2];
  if (::pipe(ReadyPipe) != 0) {
    std::fprintf(stderr, "jslice_serve: upgrade failed: cannot create "
                         "readiness pipe\n");
    Ctx.Srv->holdJournalRotation(false);
    return;
  }
  int SP[2] = {-1, -1};
  bool HavePair = makeSocketPair(SP);

  // The successor's argv is built here, before the fork: the child of
  // a multithreaded process may not allocate, since another thread can
  // hold the allocator's lock at the fork and nothing in the child
  // would release it (the child then never reaches exec).
  std::vector<std::string> Args = Ctx.RespawnArgs;
  Args.push_back("--generation");
  Args.push_back(std::to_string(NextGen));
  Args.push_back("--upgrade-from");
  Args.push_back(std::to_string(static_cast<long>(::getpid())));
  Args.push_back("--ready-fd");
  Args.push_back(std::to_string(ReadyPipe[1]));
  if (HavePair) {
    Args.push_back("--listener-socket");
    Args.push_back(std::to_string(SP[1]));
  }
  std::vector<char *> Argv;
  Argv.reserve(Args.size() + 1);
  for (std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);

  pid_t Pid = ::fork();
  if (Pid < 0) {
    std::fprintf(stderr, "jslice_serve: upgrade failed: fork failed\n");
    ::close(ReadyPipe[0]);
    ::close(ReadyPipe[1]);
    if (HavePair) {
      ::close(SP[0]);
      ::close(SP[1]);
    }
    Ctx.Srv->holdJournalRotation(false);
    return;
  }

  if (Pid == 0) {
    // Successor. Neither the ready pipe nor the socketpair carries
    // FD_CLOEXEC, so both survive the exec; everything else (listener
    // fds, journal handle) is close-on-exec and the successor reopens
    // or rebinds its own.
    ::close(ReadyPipe[0]);
    if (HavePair)
      ::close(SP[0]);
    ::execvp(Argv[0], Argv.data());
    _exit(127); // Exec failed; the parent sees death-before-ready.
  }

  // Predecessor: ship a copy of the listener right away so it is
  // buffered in the socketpair whether or not the successor needs it.
  ::close(ReadyPipe[1]);
  if (HavePair) {
    ::close(SP[1]);
    int Lfd = Ctx.Transport->shardZeroListenerFd();
    if (Lfd >= 0)
      sendFdOverSocket(SP[0], Lfd);
    ::close(SP[0]);
  }
  std::fprintf(stderr,
               "jslice_serve: spawning generation %llu (pid %ld)\n",
               static_cast<unsigned long long>(NextGen),
               static_cast<long>(Pid));

  std::chrono::steady_clock::time_point Deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(Ctx.ReadyTimeoutMs);
  bool Ready = false;
  bool Reaped = false;
  while (std::chrono::steady_clock::now() < Deadline) {
    // SIGTERM racing the pending handoff: shutdown wins. Abandon the
    // wait so the rollback below kills the unready successor; this
    // generation's drain proceeds exactly once via the shutdown flag.
    if (ShutdownRequested.load(std::memory_order_relaxed))
      break;
    struct pollfd P;
    P.fd = ReadyPipe[0];
    P.events = POLLIN;
    P.revents = 0;
    int N = ::poll(&P, 1, 50);
    if (N > 0) {
      char B = 0;
      if (::read(ReadyPipe[0], &B, 1) == 1)
        Ready = true;
      break; // A byte means ready; EOF without one means it died.
    }
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Reaped = true;
      break;
    }
    // A second SIGUSR2 while this handoff is pending: refuse it
    // deterministically rather than queueing a surprise double
    // upgrade.
    if (UpgradeRequested.exchange(false, std::memory_order_relaxed))
      std::fprintf(stderr,
                   "jslice_serve: upgrade already in progress; refusing\n");
  }
  ::close(ReadyPipe[0]);

  if (Ready) {
    std::fprintf(
        stderr,
        "jslice_serve: generation %llu ready; draining generation %llu\n",
        static_cast<unsigned long long>(NextGen),
        static_cast<unsigned long long>(Ctx.Generation));
    Ctx.HandedOff = true;
    // The rotation hold stays armed: this generation is exiting, and
    // the successor holds its own until completeHandoff().
    Ctx.Transport->requestStop();
    return;
  }

  if (!Reaped) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, nullptr, 0);
  }
  std::fprintf(stderr,
               "jslice_serve: generation %llu failed before readiness; "
               "rolling back to generation %llu\n",
               static_cast<unsigned long long>(NextGen),
               static_cast<unsigned long long>(Ctx.Generation));
  Ctx.Srv->holdJournalRotation(false);
}

/// The upgrade monitor thread: polls the SIGUSR2 flag and runs at most
/// one handoff. SIGTERM always wins — a shutdown in progress refuses
/// upgrades, and after a successful handoff this generation only
/// drains.
void upgradeMonitor(UpgradeContext &Ctx) {
  while (!Ctx.Stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (!UpgradeRequested.exchange(false, std::memory_order_relaxed))
      continue;
    if (ShutdownRequested.load(std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "jslice_serve: upgrade refused: shutdown in progress\n");
      continue;
    }
    if (Ctx.HandedOff) {
      std::fprintf(stderr,
                   "jslice_serve: upgrade already in progress; refusing\n");
      continue;
    }
    runUpgrade(Ctx);
  }
}
#endif

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  TcpServerOptions TcpOpts;
  std::string InputPath;
  std::string ListenSpec;
  std::string StandbySpec; // --standby-of HOST:PORT
  StandbyTailOptions TailOpts;
  bool UpgradeEnabled = true;   // --upgrade on|off
  int ListenerSocketFd = -1;    // --listener-socket (internal plumbing)
  int ReadyFd = -1;             // --ready-fd (internal plumbing)
  uint64_t ReadyDelayMs = 0;    // --ready-delay-ms (test hook)
  Opts.ShutdownFlag = &ShutdownRequested;
  Opts.AbortFlag = &ShutdownRequested;
  TcpOpts.ShutdownFlag = &ShutdownRequested;

  // Every numeric flag and its field. A value the field's type cannot
  // hold is a usage error, never a silently narrowed one.
  std::map<std::string, std::function<bool(const std::string &)>> Counts;
  auto Count = [&Counts](const char *Flag, auto &Field) {
    Counts[Flag] = [&Field](const std::string &V) {
      return parseCountInto(V, Field);
    };
  };
  Count("--threads", Opts.Threads);
  Count("--budget-ms", Opts.DefaultBudget.DeadlineMs);
  Count("--max-steps", Opts.DefaultBudget.MaxSteps);
  Count("--poll-stride", Opts.DefaultBudget.PollStride);
  Count("--workers", Opts.Super.Workers);
  Count("--max-queue-depth", Opts.MaxQueueDepth);
  Count("--queue-deadline-ms", Opts.QueueDeadlineMs);
  Count("--max-rss-mb", Opts.MaxRssMb);
  Count("--journal-rotate-bytes", Opts.JournalRotateBytes);
  Count("--max-line-bytes", Opts.MaxLineBytes);
  Count("--max-conns", TcpOpts.MaxConnections);
  Count("--idle-timeout-ms", TcpOpts.IdleTimeoutMs);
  Count("--read-deadline-ms", TcpOpts.ReadDeadlineMs);
  Count("--write-buffer-bytes", TcpOpts.MaxWriteBufferBytes);
  Count("--drain-grace-ms", TcpOpts.DrainGraceMs);
  Count("--send-buffer-bytes", TcpOpts.SendBufferBytes);
  Count("--shards", TcpOpts.Shards);
  Count("--journal-flush-ms", Opts.JournalFlushIntervalMs);
  Count("--wedge-threshold-ms", TcpOpts.WedgeThresholdMs);
  Count("--generation", Opts.Generation);
  Count("--upgrade-from", Opts.PredecessorPid);
  Count("--ready-fd", ReadyFd);
  Count("--listener-socket", ListenerSocketFd);
  Count("--ready-delay-ms", ReadyDelayMs);
  Count("--cache-entries", Opts.Cache.MaxEntries);
  Count("--cache-bytes", Opts.Cache.MaxBytes);
  Count("--cache-audit-every", Opts.Cache.AuditEvery);
  Count("--cache-audit-seed", Opts.Cache.AuditSeed);
  Count("--journal-reattach-ms", Opts.JournalReattachIntervalMs);
  Count("--epoch", Opts.Epoch);
  Count("--repl-ack-timeout-ms", Opts.ReplAckTimeoutMs);

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> std::optional<std::string> {
      if (I + 1 >= argc)
        return std::nullopt;
      return std::string(argv[++I]);
    };

    if (Arg == "--cache") {
      std::optional<std::string> Value = NextValue();
      if (!Value || (*Value != "on" && *Value != "off")) {
        std::fprintf(stderr, "error: --cache expects 'on' or 'off'\n");
        return usage();
      }
      Opts.Cache.Enabled = *Value == "on";
    } else if (Arg == "--upgrade") {
      std::optional<std::string> Value = NextValue();
      if (!Value || (*Value != "on" && *Value != "off")) {
        std::fprintf(stderr, "error: --upgrade expects 'on' or 'off'\n");
        return usage();
      }
      UpgradeEnabled = *Value == "on";
    } else if (Arg == "--journal-sync") {
      std::optional<std::string> Value = NextValue();
      if (!Value || !parseJournalSyncName(*Value, Opts.JournalSyncPolicy)) {
        std::fprintf(stderr,
                     "error: --journal-sync expects 'full' or 'batch'\n");
        return usage();
      }
    } else if (Arg == "--journal-failure") {
      std::optional<std::string> Value = NextValue();
      if (!Value ||
          !parseJournalFailureName(*Value, Opts.JournalFailurePolicy)) {
        std::fprintf(stderr,
                     "error: --journal-failure expects 'shed', 'degrade', "
                     "or 'abort'\n");
        return usage();
      }
    } else if (Arg == "--repl-ack") {
      std::optional<std::string> Value = NextValue();
      if (!Value || !parseReplAckPolicyName(*Value, Opts.ReplAck)) {
        std::fprintf(stderr,
                     "error: --repl-ack expects 'async', 'flush', or "
                     "'sync'\n");
        return usage();
      }
    } else if (Arg == "--standby-of") {
      std::optional<std::string> Value = NextValue();
      if (!Value || !parseHostPort(*Value, TailOpts.Host, TailOpts.Port) ||
          !TailOpts.Port) {
        std::fprintf(stderr,
                     "error: --standby-of expects HOST:PORT (port != 0)\n");
        return usage();
      }
      StandbySpec = *Value;
      Opts.Standby = true;
    } else if (Arg == "--input" || Arg == "--listen" || Arg == "--journal" ||
        Arg == "--quarantine" || Arg == "--hang-after-begin" ||
        Arg == "--isolate") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: %s requires an argument\n", Arg.c_str());
        return usage();
      }
      if (Arg == "--input")
        InputPath = *Value;
      else if (Arg == "--listen") {
        ListenSpec = *Value;
        if (!parseHostPort(ListenSpec, TcpOpts.Host, TcpOpts.Port)) {
          std::fprintf(stderr,
                       "error: --listen expects HOST:PORT, got '%s'\n",
                       ListenSpec.c_str());
          return usage();
        }
      } else if (Arg == "--journal")
        Opts.JournalPath = *Value;
      else if (Arg == "--quarantine")
        Opts.QuarantineDir = *Value;
      else if (Arg == "--isolate") {
        if (*Value == "process")
          Opts.IsolateProcess = true;
        else if (*Value == "thread")
          Opts.IsolateProcess = false;
        else {
          std::fprintf(stderr,
                       "error: --isolate expects 'thread' or 'process'\n");
          return usage();
        }
      } else
        Opts.HangAfterBeginId = *Value; // Test hook (see Server.h).
    } else if (auto C = Counts.find(Arg); C != Counts.end()) {
      std::optional<std::string> Value = NextValue();
      if (!Value || !C->second(*Value)) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer in range\n",
                     Arg.c_str());
        return usage();
      }
    } else if (Arg == "--no-degrade") {
      Opts.Ladder.Degrade = false;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    }
  }

  // Zero-downtime restarts are a TCP-transport feature; stdin servers
  // have no port to hand off.
  bool Upgradable = UpgradeEnabled && !ListenSpec.empty();
#ifndef JSLICE_HAVE_POSIX_PROCESS
  Upgradable = false;
#endif
  if (Upgradable) {
    if (!Opts.Generation)
      Opts.Generation = 1;
    Opts.UpgradeFlag = &UpgradeRequested;
    // The kernel admits a second binder on the port only when *every*
    // socket on it carries SO_REUSEPORT — so an upgradable server must
    // opt in from generation 1, even single-sharded.
    TcpOpts.ReusePortAlways = true;
  }
#ifdef JSLICE_HAVE_POSIX_PROCESS
  // The successor's argv: ours minus the per-spawn generation plumbing
  // (fresh values are appended at fork time), with the --listen value
  // rewritten to the actual bound port once known — the original may
  // have asked for port 0.
  std::vector<std::string> RespawnArgs;
  size_t ListenValueIdx = SIZE_MAX;
  for (int I = 0; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--generation" || A == "--upgrade-from" || A == "--ready-fd" ||
        A == "--listener-socket") {
      ++I;
      continue;
    }
    RespawnArgs.push_back(A);
    if (A == "--listen" && I + 1 < argc) {
      RespawnArgs.push_back(argv[++I]);
      ListenValueIdx = RespawnArgs.size() - 1;
    }
  }
#endif

  // Every usage error is decided here, before the Server exists: its
  // constructor opens the journal and recover() may quarantine and
  // compact it, which a rejected command line must never do.
  if (Opts.Standby && Opts.JournalPath.empty()) {
    std::fprintf(stderr,
                 "error: --standby-of requires --journal (the replica "
                 "journal is the warm state)\n");
    return usage();
  }
  if (!ListenSpec.empty() && !InputPath.empty()) {
    std::fprintf(stderr, "error: --listen and --input are exclusive\n");
    return usage();
  }
#ifdef JSLICE_HAVE_POSIX_PROCESS
  int InputFd = 0; // stdin
  if (!InputPath.empty() &&
      (InputFd = ::open(InputPath.c_str(), O_RDONLY | O_CLOEXEC)) < 0) {
#else
  std::ifstream InputFile;
  if (!InputPath.empty() && (InputFile.open(InputPath), !InputFile)) {
#endif
    std::fprintf(stderr, "error: cannot open %s\n", InputPath.c_str());
    return usage();
  }

  Server S(Opts, std::cout, std::cerr);
  if (!Opts.Standby) {
    unsigned Quarantined = S.recover();
    if (Quarantined)
      std::fprintf(stderr,
                   "jslice_serve: recovered journal; %u poisoned request%s "
                   "quarantined under %s\n",
                   Quarantined, Quarantined == 1 ? "" : "s",
                   Opts.QuarantineDir.c_str());
  }

  // Warm standby: tail the primary's replication stream into our
  // journal. The replica starts empty — the subscribe from seq 0 makes
  // the primary send its full backlog (or a snapshot), so a standby
  // restarted mid-life just re-seeds. Recovery happens at promotion,
  // never at standby boot: the replicated unmatched begins are the
  // *primary's* live requests, not casualties.
  std::unique_ptr<StandbyTail> Tail;
  if (Opts.Standby) {
    if (!S.journal().resetForSnapshot()) {
      std::fprintf(stderr,
                   "error: cannot initialize replica journal %s\n",
                   Opts.JournalPath.c_str());
      return 2;
    }
    Tail = std::make_unique<StandbyTail>(TailOpts, S.journal());
    StandbyTail *TP = Tail.get();
    S.setPromoteHook([TP] { TP->stop(); });
    S.setReplProbe([TP] {
      StandbyTailStats St = TP->stats();
      JsonValue R = JsonValue::object();
      R.set("connected", St.Connected);
      R.set("lag_records", St.PrimarySeq > St.AppliedSeq
                               ? St.PrimarySeq - St.AppliedSeq
                               : 0);
      R.set("applied_seq", St.AppliedSeq);
      R.set("primary_seq", St.PrimarySeq);
      R.set("primary_epoch", St.PrimaryEpoch);
      R.set("connects", St.Connects);
      R.set("snapshots", St.Snapshots);
      R.set("duplicates", St.Duplicates);
      R.set("corrupt_frames", St.CorruptFrames);
      return R;
    });
    std::string TailErr;
    if (!Tail->start(TailErr)) {
      std::fprintf(stderr, "error: standby tail: %s\n", TailErr.c_str());
      return 2;
    }
    std::fprintf(stderr, "jslice_serve: standby of %s\n",
                 StandbySpec.c_str());
  }

#ifdef JSLICE_HAVE_POSIX_PROCESS
  installSignalHandlers(Upgradable);
#endif
  std::optional<TcpServer> TOpt;
  if (ListenSpec.empty()) {
#ifdef JSLICE_HAVE_POSIX_PROCESS
    serveFd(S, InputFd);
#else
    S.serve(InputPath.empty() ? std::cin : InputFile);
#endif
  } else {
    TOpt.emplace(S, TcpOpts, std::cerr);
    std::string Err;
    bool Started = TOpt->start(Err);
#ifdef JSLICE_HAVE_POSIX_PROCESS
    if (!Started && ListenerSocketFd >= 0) {
      // Successor fallback: the predecessor shipped its listener over
      // SCM_RIGHTS for exactly this case (no SO_REUSEPORT, or the bind
      // raced a port reuse). Adopt the inherited fd and retry.
      int Lfd = recvFdOverSocket(ListenerSocketFd, 5000);
      if (Lfd >= 0) {
        TcpOpts.InheritedListenerFd = Lfd;
        TOpt.emplace(S, TcpOpts, std::cerr);
        std::string InheritErr;
        Started = TOpt->start(InheritErr);
        if (Started)
          std::fprintf(stderr,
                       "jslice_serve: adopted predecessor's listener fd\n");
        else
          Err += "; inherited listener: " + InheritErr;
      } else {
        Err += "; no listener fd received from predecessor";
      }
    }
    if (ListenerSocketFd >= 0)
      ::close(ListenerSocketFd);
#endif
    if (!Started) {
      std::fprintf(stderr, "error: cannot listen on %s: %s\n",
                   ListenSpec.c_str(), Err.c_str());
      return usage();
    }
    TcpServer &T = *TOpt;
    // Parsable by wrappers (the port matters with --listen HOST:0);
    // keep the port at end of line, scripts anchor on it.
    std::fprintf(stderr, "jslice_serve: listening on %s:%u\n",
                 TcpOpts.Host.c_str(), T.port());
    std::fprintf(stderr, "jslice_serve: transport shards: %u (%s)\n",
                 T.shardCount(),
                 T.usesReusePort() ? "reuseport" : "fd handoff");
#ifdef JSLICE_HAVE_POSIX_PROCESS
    if (Upgradable)
      std::fprintf(stderr, "jslice_serve: generation %llu pid %ld\n",
                   static_cast<unsigned long long>(Opts.Generation),
                   static_cast<long>(::getpid()));

    std::atomic<bool> ThreadsStop{false};

    // Successor readiness gate: probe our own port until the health
    // answer carries our generation, then release the predecessor
    // through the ready pipe. Only then does the old generation drain.
    std::thread ReadyThread;
    if (ReadyFd >= 0) {
      uint64_t Gen = Opts.Generation;
      std::string Host = TcpOpts.Host;
      uint16_t Port = T.port();
      int Fd = ReadyFd;
      uint64_t Delay = ReadyDelayMs;
      ReadyThread = std::thread([&ThreadsStop, Gen, Host, Port, Fd, Delay] {
        for (uint64_t Slept = 0;
             Slept < Delay && !ThreadsStop.load(std::memory_order_relaxed);
             Slept += 20)
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (selfProbeReady(Host, Port, Gen, ThreadsStop)) {
          char B = 'R';
          [[maybe_unused]] ssize_t N = ::write(Fd, &B, 1);
          std::fprintf(stderr,
                       "jslice_serve: generation %llu (pid %ld) ready\n",
                       static_cast<unsigned long long>(Gen),
                       static_cast<long>(::getpid()));
        } else {
          std::fprintf(stderr,
                       "jslice_serve: generation %llu readiness "
                       "self-probe failed\n",
                       static_cast<unsigned long long>(Gen));
        }
        ::close(Fd);
      });
    }

    // Successor handoff: once the predecessor is gone, quarantine
    // exactly the in-flight requests it left behind (earlier-generation
    // stamps only — our own begins are not casualties).
    std::thread HandoffThread;
    if (Opts.PredecessorPid > 0) {
      long Pred = Opts.PredecessorPid;
      HandoffThread = std::thread([&S, &ThreadsStop, Pred] {
        while (!ThreadsStop.load(std::memory_order_relaxed)) {
          if (::kill(static_cast<pid_t>(Pred), 0) != 0 && errno == ESRCH) {
            unsigned N = S.completeHandoff();
            std::fprintf(stderr,
                         "jslice_serve: generation predecessor (pid %ld) "
                         "exited; handoff recovery quarantined %u "
                         "request%s\n",
                         Pred, N, N == 1 ? "" : "s");
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
      });
    }

    UpgradeContext Ctx;
    std::thread UpgradeThread;
    if (Upgradable) {
      Ctx.Srv = &S;
      Ctx.Transport = &T;
      Ctx.Host = TcpOpts.Host;
      Ctx.Port = T.port();
      Ctx.Generation = Opts.Generation;
      if (ListenValueIdx != SIZE_MAX)
        RespawnArgs[ListenValueIdx] =
            TcpOpts.Host + ":" + std::to_string(T.port());
      Ctx.RespawnArgs = RespawnArgs;
      UpgradeThread = std::thread([&Ctx] { upgradeMonitor(Ctx); });
    }

    T.run();

    ThreadsStop.store(true, std::memory_order_relaxed);
    Ctx.Stop.store(true, std::memory_order_relaxed);
    if (UpgradeThread.joinable())
      UpgradeThread.join();
    if (HandoffThread.joinable())
      HandoffThread.join();
    if (ReadyThread.joinable())
      ReadyThread.join();
#else
    T.run();
#endif
  }

  S.finish();
  if (S.journalAborted()) {
    std::fprintf(stderr, "jslice_serve: journal failed; drained and "
                         "exiting (--journal-failure=abort)\n");
    return 3;
  }
  if (ShutdownRequested.load(std::memory_order_relaxed))
    std::fprintf(stderr, "jslice_serve: drained and shut down cleanly\n");
  return 0;
}
