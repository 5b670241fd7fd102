//===- perfbench/service.cpp - Loopback load against jslice_serve ---------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the shipping jslice_serve over loopback TCP, as a client
/// would: default shards, workers and cache, a journal in the run's
/// scratch directory under --journal-sync batch. One process, at most
/// nproc threads and connections: nproc-1 (at most 3) request
/// connections, each owned by one thread, and the operator's control
/// connection on the main thread, which sends {"health"} and {"stats"}
/// at a fixed cadence throughout and snapshots {"stats"} before and
/// after the load for the counter deltas.
///
/// The load runs in rounds of two one-second segments:
///
///  1. Closed loop: each request connection waits for its reply before
///     sending the next request. Gives throughput and the server's CPU
///     time per request.
///  2. Open loop: the round's slice of one seeded Poisson schedule at a
///     fixed rate, spread round-robin over the same connections,
///     pipelined. Latency runs from each request's due time, so a
///     stalled generator or server is charged to every request queued
///     behind the stall; how late the generator itself sent is reported
///     separately.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "net/Socket.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <poll.h>
#include <sstream>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace jslice;
using namespace perfbench;

namespace {

constexpr int ReplyTimeoutMs = 30000;
/// Control cadence: a load-balancer style {"health"} probe every 50 ms
/// and a metrics-scrape style {"stats"} every second.
constexpr unsigned HealthIntervalMs = 50;
constexpr unsigned StatsEvery = 20;
constexpr unsigned SetupRepeats = 9;
/// Span ids: open-loop requests above every closed-loop id, control
/// calls above both.
constexpr uint64_t OpenIdBase = uint64_t(1) << 36;
constexpr uint64_t ControlIdBase = uint64_t(1) << 40;

/// One line-oriented TCP connection.
class Conn {
public:
  Conn() = default;
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;
  ~Conn() { close(); }

  bool open(uint16_t Port, std::string &Err) {
    close();
    Fd = connectTcp("127.0.0.1", Port, 5000, Err);
    if (Fd < 0)
      return false;
    setTcpNoDelay(Fd);
    return true;
  }
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
    Buf.clear();
  }

  bool sendAll(const std::string &S) {
    size_t Off = 0;
    while (Off < S.size()) {
      int64_t N = sendSome(Fd, S.data() + Off, S.size() - Off);
      if (N == NetWouldBlock) {
        pollfd P{Fd, POLLOUT, 0};
        ::poll(&P, 1, 1000);
        continue;
      }
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Pops one complete line already buffered.
  bool takeLine(std::string &Line) {
    size_t NL = Buf.find('\n', Scan);
    if (NL == std::string::npos) {
      Scan = Buf.size();
      return false;
    }
    Line.assign(Buf, 0, NL);
    Buf.erase(0, NL + 1);
    Scan = 0;
    return true;
  }

  /// One poll + recv. >0 bytes read, 0 timeout, -1 EOF or error.
  int fill(int TimeoutMs) { return fillUs(int64_t(TimeoutMs) * 1000); }
  int fillUs(int64_t TimeoutUs) {
    pollfd P{Fd, POLLIN, 0};
    timespec Ts{static_cast<time_t>(TimeoutUs / 1000000),
                static_cast<long>((TimeoutUs % 1000000) * 1000)};
    int R = ::ppoll(&P, 1, &Ts, nullptr);
    if (R == 0)
      return 0;
    if (R < 0)
      return errno == EINTR ? 0 : -1;
    char Tmp[65536];
    int64_t N = recvSome(Fd, Tmp, sizeof(Tmp));
    if (N == NetWouldBlock)
      return 0;
    if (N <= 0)
      return -1;
    Buf.append(Tmp, static_cast<size_t>(N));
    BytesIn += static_cast<uint64_t>(N);
    return static_cast<int>(N);
  }

  /// Blocks for one line: 1 ok, 0 timeout, -1 EOF/error.
  int readLine(std::string &Line, int TimeoutMs) {
    Clock::time_point End = Clock::now() + std::chrono::milliseconds(TimeoutMs);
    while (!takeLine(Line)) {
      int Left = static_cast<int>(msBetween(Clock::now(), End));
      if (Left <= 0)
        return 0;
      if (fill(Left) < 0)
        return -1;
    }
    return 1;
  }

  uint64_t BytesIn = 0;

private:
  int Fd = -1;
  std::string Buf;
  size_t Scan = 0;
};

/// A jslice_serve child process.
class ServerProc {
public:
  ServerProc() = default;
  ServerProc(const ServerProc &) = delete;
  ServerProc &operator=(const ServerProc &) = delete;
  ~ServerProc() { stop(); }

  static std::vector<std::string> flags(const std::string &Dir) {
    return {"--listen",       "127.0.0.1:0",
            "--journal",      Dir + "/journal.jsonl",
            "--journal-sync", "batch",
            "--quarantine",   Dir + "/quarantine"};
  }

  /// Spawns the server and waits until {"health"} answers ok; the time
  /// from spawn to that answer is the set-up time.
  bool start(const std::string &Bin, const std::string &Dir, std::string &Err) {
    std::filesystem::create_directories(Dir);
    std::string Log = Dir + "/serve.log";
    // Emptied here, not by the child, so a stale port from an earlier
    // run in the same directory is never read.
    std::ofstream(Log, std::ios::trunc).flush();
    std::vector<std::string> Args = {Bin};
    for (const std::string &F : flags(Dir))
      Args.push_back(F);
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);

    // posix_spawn, not fork: the set-up time must not grow with the
    // benchmark's own memory, which fork would copy page tables for.
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_addopen(&Actions, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&Actions, 1, 2);
    Clock::time_point T0 = Clock::now();
    pid_t Child = -1;
    int Rc = ::posix_spawn(&Child, Argv[0], &Actions, nullptr, Argv.data(),
                           environ);
    posix_spawn_file_actions_destroy(&Actions);
    if (Rc != 0) {
      Err = std::string("posix_spawn: ") + std::strerror(Rc);
      return false;
    }
    Pid = Child;

    // The port is printed on stderr as "listening on HOST:PORT".
    const std::string Marker = "listening on 127.0.0.1:";
    while (Port == 0) {
      if (msSince(T0) > 20000) {
        Err = "server did not report its port";
        return false;
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "server exited during start-up (see " + Log + ")";
        return false;
      }
      std::ifstream In(Log);
      std::stringstream SS;
      SS << In.rdbuf();
      std::string Text = SS.str();
      size_t At = Text.find(Marker);
      if (At != std::string::npos &&
          Text.find('\n', At) != std::string::npos)
        Port = static_cast<uint16_t>(
            std::atoi(Text.c_str() + At + Marker.size()));
      else
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }

    for (;;) {
      if (msSince(T0) > 20000) {
        Err = "server never answered {\"health\"} ok";
        return false;
      }
      Conn C;
      std::string Line, E;
      if (C.open(Port, E) && C.sendAll("{\"health\":true}\n") &&
          C.readLine(Line, 2000) == 1) {
        std::optional<JsonValue> V = JsonValue::parse(Line);
        const JsonValue *S = V ? V->find("status") : nullptr;
        if (S && S->isString() && S->asString() == "ok")
          break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    SetupS = msSince(T0) / 1000.0;
    return true;
  }

  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    Clock::time_point T0 = Clock::now();
    int Status = 0;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (msSince(T0) > 15000) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Pid = -1;
  }

  long pid() const { return Pid; }
  uint16_t port() const { return Port; }
  double setupSeconds() const { return SetupS; }

private:
  long Pid = -1;
  uint16_t Port = 0;
  double SetupS = 0;
};

/// The counters one {"stats"} snapshot contributes.
struct StatsSnap {
  bool Ok = false;
  std::map<std::string, uint64_t> C;
  std::vector<uint64_t> ShardLines;
  std::vector<uint64_t> ShardAccepts;
};

uint64_t memberCount(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.find(Key);
  return V && V->isNumber() ? static_cast<uint64_t>(V->asInt()) : 0;
}

StatsSnap parseStats(const std::string &Line) {
  StatsSnap S;
  std::optional<JsonValue> V = JsonValue::parse(Line);
  const JsonValue *St = V ? V->find("stats") : nullptr;
  if (!St || !St->isObject())
    return S;
  S.Ok = true;
  for (const char *K : {"received", "served", "degraded", "refused", "errors",
                        "shed", "bad_requests", "crashed", "poisoned",
                        "guard_trips", "journal_append_failures",
                        "journal_reopens", "journal_rotation_failures"})
    S.C[K] = memberCount(*St, K);
  if (const JsonValue *Tiers = St->find("tiers"))
    for (const auto &[Tier, N] : Tiers->members())
      S.C["tier_" + Tier] = N.isNumber() ? static_cast<uint64_t>(N.asInt()) : 0;
  if (const JsonValue *Ca = St->find("cache"))
    for (const char *K : {"hits", "misses", "inserts", "evictions",
                          "coalesced", "build_failures"})
      S.C[std::string("cache_") + K] = memberCount(*Ca, K);
  if (const JsonValue *T = St->find("transport")) {
    for (const char *K : {"accepted", "lines_dispatched", "responses_delivered",
                          "peer_resets", "backpressure_closed"})
      S.C[std::string("transport_") + K] = memberCount(*T, K);
    if (const JsonValue *Per = T->find("per_shard"))
      for (const JsonValue &Sh : Per->elements()) {
        S.ShardLines.push_back(memberCount(Sh, "lines_dispatched"));
        S.ShardAccepts.push_back(memberCount(Sh, "accepted"));
      }
  }
  return S;
}

uint64_t delta(const StatsSnap &A, const StatsSnap &B, const std::string &K) {
  auto IA = A.C.find(K), IB = B.C.find(K);
  uint64_t VA = IA == A.C.end() ? 0 : IA->second;
  uint64_t VB = IB == B.C.end() ? 0 : IB->second;
  return VB >= VA ? VB - VA : 0;
}

/// The operator's connection: periodic health/stats plus snapshots.
struct Control {
  Conn C;
  std::vector<double> HealthUs, StatsMs;
  std::vector<Span> Spans;
  bool Tracing = false;
  uint64_t NextId = ControlIdBase;
  Clock::time_point Epoch;
  bool Failed = false;

  std::optional<std::string> call(const char *Line, const char *Name,
                                  double &Ms) {
    Clock::time_point T0 = Clock::now();
    std::string Reply;
    if (!C.sendAll(Line) || C.readLine(Reply, ReplyTimeoutMs) != 1) {
      Failed = true;
      return std::nullopt;
    }
    Clock::time_point T1 = Clock::now();
    Ms = msBetween(T0, T1);
    if (Tracing)
      Spans.push_back(
          Span{NextId++, Name, "", usBetween(Epoch, T0), Ms * 1000.0});
    return Reply;
  }

  void ping() {
    double Ms = 0;
    if (call("{\"health\":true}\n", "client.health", Ms))
      HealthUs.push_back(Ms * 1000.0);
    if (Pings++ % StatsEvery == 0 &&
        call("{\"stats\":true}\n", "client.stats", Ms))
      StatsMs.push_back(Ms);
  }
  uint64_t Pings = 0;

  StatsSnap snapshot() {
    double Ms = 0;
    std::optional<std::string> R =
        call("{\"stats\":true}\n", "client.stats", Ms);
    return R ? parseStats(*R) : StatsSnap();
  }

  /// Pings every HealthIntervalMs until \p Done reads true.
  void runUntil(const std::atomic<unsigned> &Done, unsigned Want) {
    Clock::time_point Next = Clock::now();
    while (Done.load() < Want) {
      if (Clock::now() >= Next) {
        ping();
        Next += std::chrono::milliseconds(HealthIntervalMs);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
};

/// Request \p Idx as a protocol line with id \p Id ("r<n>").
std::string wireLine(const Workload &W, size_t Idx, uint64_t Id,
                     std::vector<std::string> &Escaped) {
  const Request &R = W.Requests[Idx];
  std::string Esc;
  const std::string *E = &Escaped[R.Prog];
  if (E->empty()) {
    Esc = jsonEscape(W.Programs[R.Prog].Source);
    E = &Esc;
  }
  std::string L = "{\"id\":\"r" + std::to_string(Id) + "\",\"program\":\"";
  L += *E;
  L += "\",\"line\":" + std::to_string(R.Crit.Line) + ",\"vars\":[";
  for (size_t I = 0; I != R.Crit.Vars.size(); ++I)
    L += (I ? ",\"" : "\"") + jsonEscape(R.Crit.Vars[I]) + "\"";
  L += "],\"algorithm\":\"";
  L += algorithmName(R.Algo);
  L += "\"}\n";
  return L;
}

/// Parses a slice response; false when it is not one of ours. \p Id
/// receives the number the request id carried.
bool parseResponse(const std::string &Line, uint64_t &Id, Served &S) {
  std::optional<JsonValue> V = JsonValue::parse(Line);
  if (!V)
    return false;
  const JsonValue *IdV = V->find("id");
  if (!IdV || !IdV->isString() || IdV->asString().size() < 2 ||
      IdV->asString()[0] != 'r')
    return false;
  Id = std::strtoull(IdV->asString().c_str() + 1, nullptr, 10);
  const JsonValue *St = V->find("status");
  S.Ok = St && St->isString() && St->asString() == "ok";
  if (const JsonValue *C = V->find("cached"))
    S.Cached = C->isBool() && C->asBool();
  if (const JsonValue *Ls = V->find("lines"))
    for (const JsonValue &L : Ls->elements())
      S.Lines.push_back(static_cast<unsigned>(L.asInt()));
  std::sort(S.Lines.begin(), S.Lines.end());
  return true;
}

/// Per-thread results of a load phase.
struct ThreadOut {
  std::vector<Served> Responses;
  std::vector<double> LatencyMs; ///< Open loop: from due time.
  std::vector<double> LagMs;     ///< Open loop: send time - due time.
  std::vector<double> DoneAtMs;  ///< Closed loop: completion times.
  uint64_t DoneOk = 0;           ///< ... of which answered ok.
  std::vector<Span> Spans;
  uint64_t Sent = 0;
  uint64_t Lost = 0; ///< Sent but never answered.
  bool PoolWrapped = false;
};

/// The closed-loop pool is the requests before W.OpenBegin. A program
/// fast enough to use it up starts over from the front: on cold_unique
/// those programs left the cache thousands of inserts ago, so they still
/// miss. Ids keep counting, so replies stay unambiguous.
void closedLoop(Conn &C, const Workload &W, std::vector<std::string> &Escaped,
                std::atomic<uint64_t> &Next, Clock::time_point Start,
                Clock::time_point End, bool Tracing, Clock::time_point Epoch,
                ThreadOut &Out) {
  std::map<uint64_t, Clock::time_point> Pending;
  auto sendOne = [&] {
    uint64_t Seq = Next.fetch_add(1);
    Out.PoolWrapped = Out.PoolWrapped || Seq >= W.OpenBegin;
    std::string Wire = wireLine(W, Seq % W.OpenBegin, Seq, Escaped);
    Clock::time_point T0 = Clock::now();
    ++Out.Sent;
    if (!C.sendAll(Wire)) {
      ++Out.Lost;
      return false;
    }
    Pending[Seq] = T0;
    return true;
  };
  bool Stop = !sendOne();
  Clock::time_point Deadline = End + std::chrono::milliseconds(ReplyTimeoutMs);
  std::string Line;
  while (!Pending.empty()) {
    while (C.takeLine(Line)) {
      Clock::time_point T1 = Clock::now();
      Served S;
      uint64_t Seq = 0;
      if (!parseResponse(Line, Seq, S))
        continue;
      auto It = Pending.find(Seq);
      if (It == Pending.end())
        continue;
      S.Req = Seq % W.OpenBegin;
      if (T1 <= End) {
        Out.DoneOk += S.Ok ? 1 : 0;
        Out.DoneAtMs.push_back(msBetween(Start, T1));
      }
      if (Tracing)
        Out.Spans.push_back(Span{Seq, "client.request", "",
                                 usBetween(Epoch, It->second),
                                 usBetween(It->second, T1)});
      Pending.erase(It);
      Out.Responses.push_back(std::move(S));
      if (!Stop && T1 < End)
        Stop = !sendOne();
    }
    if (Pending.empty() || Clock::now() > Deadline || C.fill(50) < 0)
      break;
  }
  Out.Lost += Pending.size();
}

void openLoop(Conn &C, const Workload &W, std::vector<std::string> &Escaped,
              size_t From, size_t To, double OffsetMs, unsigned Lane,
              unsigned Lanes, Clock::time_point Start, bool Tracing,
              Clock::time_point Epoch, ThreadOut &Out) {
  auto dueOf = [&](size_t K) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           W.OpenDueMs[K] - OffsetMs));
  };
  std::map<size_t, std::pair<Clock::time_point, Clock::time_point>> Pending;
  size_t K = From + (Lane + Lanes - From % Lanes) % Lanes;
  Clock::time_point Deadline = (To > From ? dueOf(To - 1) : Start) +
                               std::chrono::milliseconds(ReplyTimeoutMs);
  std::string Line;
  while (K < To || !Pending.empty()) {
    Clock::time_point Now = Clock::now();
    while (K < To && dueOf(K) <= Now) {
      size_t Idx = W.OpenBegin + K;
      // Open-loop ids follow every id the closed loop can reach.
      std::string Wire = wireLine(W, Idx, OpenIdBase + Idx, Escaped);
      Clock::time_point Sent = Clock::now();
      ++Out.Sent;
      if (!C.sendAll(Wire)) {
        Out.Lost += 1 + Pending.size();
        return;
      }
      Out.LagMs.push_back(msBetween(dueOf(K), Sent));
      Pending[Idx] = {dueOf(K), Sent};
      K += Lanes;
      Now = Clock::now();
    }
    while (C.takeLine(Line)) {
      Clock::time_point Recv = Clock::now();
      Served S;
      uint64_t Id = 0;
      if (!parseResponse(Line, Id, S) || Id < OpenIdBase)
        continue;
      S.Req = Id - OpenIdBase;
      auto It = Pending.find(S.Req);
      if (It == Pending.end())
        continue;
      Out.LatencyMs.push_back(msBetween(It->second.first, Recv));
      if (Tracing)
        Out.Spans.push_back(Span{Id, "client.request", "",
                                 usBetween(Epoch, It->second.second),
                                 usBetween(It->second.second, Recv)});
      Pending.erase(It);
      Out.Responses.push_back(std::move(S));
    }
    if (Now > Deadline)
      break;
    // Sleep in the kernel until the next due time or a reply, whichever
    // comes first (microsecond timeout: no busy-waiting on the cores
    // the server needs).
    int64_t WaitUs = 50000;
    if (K < To)
      WaitUs = std::clamp<int64_t>(
          static_cast<int64_t>(usBetween(Clock::now(), dueOf(K))), 0, 50000);
    if (C.fillUs(WaitUs) < 0)
      break;
  }
  Out.Lost += Pending.size();
}

double ratioOr0(double A, double B) { return B > 0 ? A / B : 0; }

/// The share of this machine's CPU time the hypervisor gave to other
/// guests ("steal") since construction; reported per round so noisy
/// neighbours are visible in the provenance.
class StealMeter {
public:
  StealMeter() { read(Steal0, Total0); }
  double share() const {
    uint64_t S = 0, T = 0;
    read(S, T);
    return T > Total0 ? double(S - Steal0) / double(T - Total0) : 0;
  }

private:
  static void read(uint64_t &Steal, uint64_t &Total) {
    std::ifstream In("/proc/stat");
    std::string Cpu;
    In >> Cpu;
    uint64_t V = 0;
    Steal = Total = 0;
    for (int I = 0; I != 8 && In >> V; ++I) {
      Total += V;
      if (I == 7)
        Steal = V;
    }
  }
  uint64_t Steal0 = 0, Total0 = 0;
};

/// User + system CPU seconds the process \p Pid has consumed.
double cpuSeconds(long Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Text((std::istreambuf_iterator<char>(In)), {});
  size_t Close = Text.rfind(')');
  if (Close == std::string::npos)
    return 0;
  std::istringstream SS(Text.substr(Close + 2));
  std::string F;
  double Ut = 0, St = 0;
  for (int I = 3; I <= 15 && SS >> F; ++I) {
    if (I == 14)
      Ut = std::atof(F.c_str());
    if (I == 15)
      St = std::atof(F.c_str());
  }
  return (Ut + St) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

} // namespace

void perfbench::runService(const Options &O, Workload &W, RunResult &R,
                           SpanLog *Spans) {
  const unsigned Lanes = std::clamp(O.Nproc - 1, 1u, 3u);
  Clock::time_point Epoch = Clock::now();

  // Set-up, several times; the last server carries the load.
  std::vector<double> SetupS;
  std::unique_ptr<ServerProc> Srv;
  for (unsigned I = 0; I != SetupRepeats; ++I) {
    Srv.reset();
    Srv = std::make_unique<ServerProc>();
    std::string Err;
    std::string Dir = O.WorkDir + "/serve" + std::to_string(I);
    if (!Srv->start(O.ServeBin, Dir, Err)) {
      R.Errors.push_back(Err);
      return;
    }
    SetupS.push_back(Srv->setupSeconds());
  }
  R.EndToEnd["setup_s"] = {median(SetupS), "s"};

  std::vector<std::string> Escaped(W.Programs.size());
  if (W.Programs.size() <= 1000)
    for (size_t P = 0; P != W.Programs.size(); ++P)
      Escaped[P] = jsonEscape(W.Programs[P].Source);

  Control Ctl;
  Ctl.Epoch = Epoch;
  Ctl.Tracing = Spans != nullptr;
  std::string Err;
  std::vector<std::unique_ptr<Conn>> Conns;
  if (!Ctl.C.open(Srv->port(), Err)) {
    R.Errors.push_back("connect: " + Err);
    return;
  }
  // Each request connection on a shard of its own, away from the
  // control connection where the shards allow it. The kernel's
  // reuseport hash would otherwise stack connections on one reactor in
  // some runs and not others, and the spread would measure the hash.
  std::vector<int> Placement;
  // The control connection's shard is the one its own {"stats"} lines
  // were dispatched on.
  int CtlShard = -1;
  {
    StatsSnap A = Ctl.snapshot(), B = Ctl.snapshot();
    for (size_t I = 0; I < A.ShardLines.size() && I < B.ShardLines.size(); ++I)
      if (B.ShardLines[I] > A.ShardLines[I])
        CtlShard = static_cast<int>(I);
  }
  for (unsigned L = 0; L != Lanes; ++L) {
    Conns.push_back(std::make_unique<Conn>());
    for (unsigned Try = 0;; ++Try) {
      StatsSnap Before = Ctl.snapshot();
      if (!Conns.back()->open(Srv->port(), Err)) {
        R.Errors.push_back("connect: " + Err);
        return;
      }
      // The accept shows up in per_shard only once the shard ran it.
      int Shard = -1;
      for (unsigned Wait = 0; Shard < 0 && Wait != 200; ++Wait) {
        StatsSnap After = Ctl.snapshot();
        for (size_t I = 0; I < After.ShardAccepts.size() &&
                           I < Before.ShardAccepts.size(); ++I)
          if (After.ShardAccepts[I] > Before.ShardAccepts[I])
            Shard = static_cast<int>(I);
        if (Shard < 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      size_t Shards = Before.ShardAccepts.size();
      bool Taken = std::count(Placement.begin(), Placement.end(), Shard) > 0 ||
                   (Shard == CtlShard && Lanes < Shards);
      if (!Taken || Shards < 2 || Try == 64) {
        Placement.push_back(Shard);
        break;
      }
      Conns.back()->close();
    }
  }

  std::vector<ThreadOut> Outs;
  auto runPhase = [&](auto Body) {
    std::vector<ThreadOut> PhaseOut(Lanes);
    std::atomic<unsigned> Done{0};
    std::vector<std::thread> Ts;
    for (unsigned L = 0; L != Lanes; ++L)
      Ts.emplace_back([&, L] {
        Body(L, PhaseOut[L]);
        Done.fetch_add(1);
      });
    Ctl.runUntil(Done, Lanes);
    for (std::thread &T : Ts)
      T.join();
    return PhaseOut;
  };

  // Rounds: each is a closed-loop segment, then an open-loop segment.
  // Contention from other tenants of a shared host comes in bursts of
  // seconds; per-round figures and their medians keep one burst from
  // deciding a run. A traced run alternates untraced and traced rounds,
  // so the tracing overhead is measured, not assumed.
  const unsigned Rounds = std::max(1u, O.Seconds / 2);
  const double SegS = O.Seconds / 2.0 / Rounds;
  auto seg = [&](double S) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(S));
  };
  StatsSnap S0 = Ctl.snapshot();
  std::atomic<uint64_t> Next{0};
  std::vector<double> RoundThr, RoundThrTraced, RoundP50, RoundP99, RoundSteal;
  std::vector<double> RoundCpuMs;
  std::vector<double> Lat, Lag;
  double ClosedDone = 0, ClosedOk = 0, ClosedSecs = 0, ClosedCpu = 0;
  double OpenWallS = 0, OpenCpu = 0, OpenDone = 0;
  bool Wrapped = false;
  size_t K0 = 0;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    bool Tracing = Spans && Round % 2 == 1;
    StealMeter Steal;
    double Cpu0 = cpuSeconds(Srv->pid());
    Clock::time_point T0 = Clock::now();
    Clock::time_point End = T0 + seg(SegS);
    std::vector<ThreadOut> P = runPhase([&](unsigned L, ThreadOut &Out) {
      closedLoop(*Conns[L], W, Escaped, Next, T0, End, Tracing, Epoch, Out);
    });
    double RoundCpu = cpuSeconds(Srv->pid()) - Cpu0;
    ClosedCpu += RoundCpu;
    double Done = 0;
    for (ThreadOut &T : P) {
      Done += static_cast<double>(T.DoneAtMs.size());
      ClosedOk += static_cast<double>(T.DoneOk);
      Wrapped = Wrapped || T.PoolWrapped;
      Outs.push_back(std::move(T));
    }
    ClosedDone += Done;
    ClosedSecs += SegS;
    RoundCpuMs.push_back(ratioOr0(RoundCpu * 1000.0, Done));
    (Tracing ? RoundThrTraced : RoundThr).push_back(Done / SegS);

    // This round's slice of the open-loop schedule.
    size_t K1 = K0;
    while (K1 < W.OpenDueMs.size() &&
           W.OpenDueMs[K1] < (Round + 1) * SegS * 1000.0)
      ++K1;
    double OffsetMs = Round * SegS * 1000.0;
    double OpenCpu0 = cpuSeconds(Srv->pid());
    Clock::time_point OpenStart = Clock::now() + std::chrono::milliseconds(20);
    std::vector<ThreadOut> Q = runPhase([&](unsigned L, ThreadOut &Out) {
      openLoop(*Conns[L], W, Escaped, K0, K1, OffsetMs, L, Lanes, OpenStart,
               Spans != nullptr, Epoch, Out);
    });
    OpenWallS += msSince(OpenStart) / 1000.0;
    OpenCpu += cpuSeconds(Srv->pid()) - OpenCpu0;
    OpenDone += static_cast<double>(K1 - K0);
    K0 = K1;
    std::vector<double> RLat;
    for (ThreadOut &T : Q) {
      RLat.insert(RLat.end(), T.LatencyMs.begin(), T.LatencyMs.end());
      Lag.insert(Lag.end(), T.LagMs.begin(), T.LagMs.end());
      Outs.push_back(std::move(T));
    }
    RoundP50.push_back(quantile(RLat, 0.5));
    RoundP99.push_back(quantile(RLat, tailQuantileFor(RLat.size())));
    Lat.insert(Lat.end(), RLat.begin(), RLat.end());
    RoundSteal.push_back(Steal.share());
  }
  StatsSnap S2 = Ctl.snapshot();
  double RssMb = peakRssMb(Srv->pid());

  uint64_t BytesIn = 0;
  for (auto &C : Conns)
    BytesIn += C->BytesIn;
  Conns.clear();
  Ctl.C.close();
  Srv->stop();

  // Correctness and error accounting over both phases.
  std::vector<Served> All;
  uint64_t Sent = 0, Lost = 0;
  for (ThreadOut &T : Outs) {
    Sent += T.Sent;
    Lost += T.Lost;
    for (Served &S : T.Responses)
      All.push_back(std::move(S));
    if (Spans)
      Spans->addAll(std::move(T.Spans));
  }
  if (Spans)
    Spans->addAll(std::move(Ctl.Spans));
  uint64_t NotOk = 0;
  for (const Served &S : All)
    NotOk += S.Ok ? 0 : 1;
  R.Attempted = Sent;
  R.Failed = Lost + NotOk;
  R.Gate = checkResponses(W, All, O.Seed, O.Nproc);
  if (Ctl.Failed)
    R.Errors.push_back("control connection failed");
  if (!S0.Ok || !S2.Ok)
    R.Errors.push_back("a {\"stats\"} snapshot failed");

  // End-to-end: what the server spends, which contention from other
  // tenants of the host does not move. The client-observed figures are
  // reported too, as per-layer metrics (see README.md).
  double TailQ = tailQuantileFor(Lat.size());
  R.EndToEnd["peak_rss_mb"] = {RssMb, "MiB"};
  R.EndToEnd["cpu_ms_per_request"] = {median(RoundCpuMs), "ms"};
  R.PerLayer["client.throughput_rps"] = {median(RoundThr), "req/s"};
  R.PerLayer["client.criteria_per_s"] = {
      median(RoundThr) * ratioOr0(ClosedOk, ClosedDone), "1/s"};
  R.PerLayer["client.latency_p50_ms"] = {median(RoundP50), "ms"};
  R.PerLayer["client.latency_p99_ms"] = {quantile(Lat, TailQ), "ms"};

  // Per-layer: counter deltas across both phases, control RTTs, wire.
  uint64_t Hits = delta(S0, S2, "cache_hits");
  uint64_t Misses = delta(S0, S2, "cache_misses");
  uint64_t Inserts = delta(S0, S2, "cache_inserts");
  R.PerLayer["service.cache_hit_ratio"] = {
      ratioOr0(double(Hits), double(Hits + Misses)), "ratio"};
  R.PerLayer["service.cache_hits_per_insert"] = {
      Inserts ? double(Hits) / double(Inserts) : double(Hits), "ratio"};
  R.PerLayer["service.cache_evictions"] = {
      double(delta(S0, S2, "cache_evictions")), "count"};
  R.PerLayer["service.cache_coalesced"] = {
      double(delta(S0, S2, "cache_coalesced")), "count"};
  R.PerLayer["service.shed"] = {double(delta(S0, S2, "shed")), "count"};
  R.PerLayer["service.refused"] = {double(delta(S0, S2, "refused")), "count"};
  R.PerLayer["service.degraded"] = {double(delta(S0, S2, "degraded")), "count"};
  R.PerLayer["service.stats_rtt_ms"] = {quantile(Ctl.StatsMs, 0.5), "ms"};
  R.PerLayer["service.stats_rtt_max_ms"] = {quantile(Ctl.StatsMs, 1.0), "ms"};
  R.PerLayer["net.health_rtt_us"] = {quantile(Ctl.HealthUs, 0.5), "us"};
  R.PerLayer["net.health_rtt_p99_us"] = {
      quantile(Ctl.HealthUs, tailQuantileFor(Ctl.HealthUs.size())), "us"};
  R.PerLayer["net.bytes_out_per_request"] = {
      ratioOr0(double(BytesIn), double(All.size())), "B"};
  double ShardMax = 0, ShardMin = 0;
  if (S0.ShardLines.size() == S2.ShardLines.size() && !S2.ShardLines.empty()) {
    std::vector<double> Ds;
    for (size_t I = 0; I != S2.ShardLines.size(); ++I)
      Ds.push_back(double(S2.ShardLines[I] -
                          std::min(S2.ShardLines[I], S0.ShardLines[I])));
    ShardMax = *std::max_element(Ds.begin(), Ds.end());
    ShardMin = *std::min_element(Ds.begin(), Ds.end());
  }
  R.PerLayer["net.shard_served_max_over_min"] = {
      ShardMax / std::max(ShardMin, 1.0), "ratio"};
  R.PerLayer["bench.generator_lag_ms_p99"] = {
      quantile(Lag, tailQuantileFor(Lag.size())), "ms"};
  R.PerLayer["bench.open_loop_samples"] = {double(Lat.size()), "count"};
  if (Spans && !RoundThrTraced.empty())
    R.PerLayer["bench.trace_overhead"] = {
        ratioOr0(median(RoundThr), median(RoundThrTraced)), "ratio"};

  JsonValue P = JsonValue::object();
  JsonValue Fl = JsonValue::array();
  for (const std::string &F : ServerProc::flags("<work>"))
    Fl.push(F);
  P.set("server_flags", std::move(Fl));
  P.set("request_connections", static_cast<uint64_t>(Lanes));
  JsonValue Pl = JsonValue::array();
  for (int Sh : Placement)
    Pl.push(static_cast<int64_t>(Sh));
  P.set("request_connection_shards", std::move(Pl));
  P.set("control_connection_shard", static_cast<int64_t>(CtlShard));
  P.set("control_connections", static_cast<uint64_t>(1));
  P.set("load_threads", static_cast<uint64_t>(Lanes + 1));
  P.set("open_loop_rate_rps", W.OpenRate);
  P.set("open_loop_achieved_rps", ratioOr0(double(Lat.size()), OpenWallS));
  P.set("open_loop_samples", static_cast<uint64_t>(Lat.size()));
  P.set("latency_tail_quantile", TailQ);
  P.set("generator_lag_ms_p50", quantile(Lag, 0.5));
  P.set("generator_lag_ms_p99", quantile(Lag, tailQuantileFor(Lag.size())));
  P.set("closed_loop_completed", static_cast<uint64_t>(ClosedDone));
  P.set("closed_loop_rps_overall", ratioOr0(ClosedDone, ClosedSecs));
  auto arr = [](const std::vector<double> &V) {
    JsonValue A = JsonValue::array();
    for (double X : V)
      A.push(X);
    return A;
  };
  JsonValue Rs = JsonValue::object();
  Rs.set("closed_rps", arr(RoundThr));
  Rs.set("closed_rps_traced", arr(RoundThrTraced));
  Rs.set("open_p50_ms", arr(RoundP50));
  Rs.set("open_tail_ms", arr(RoundP99));
  Rs.set("host_steal_share", arr(RoundSteal));
  Rs.set("closed_cpu_ms_per_request", arr(RoundCpuMs));
  P.set("rounds", std::move(Rs));
  P.set("open_loop_cpu_ms_per_request", ratioOr0(OpenCpu * 1000.0, OpenDone));
  P.set("closed_loop_pool_wrapped", Wrapped);
  P.set("setup_samples_s", arr(SetupS));
  JsonValue D = JsonValue::object();
  for (const auto &[K, V] : S2.C)
    D.set(K, delta(S0, S2, K));
  P.set("stats_delta", std::move(D));
  R.Provenance.set("service", std::move(P));
}

void perfbench::probeControlPlane(const Options &O, RunResult &R,
                                  SpanLog *Spans) {
  ServerProc Srv;
  std::string Err;
  if (!Srv.start(O.ServeBin, O.WorkDir + "/probe", Err)) {
    R.Errors.push_back(Err);
    return;
  }
  Control Ctl;
  Ctl.Epoch = Clock::now();
  Ctl.Tracing = Spans != nullptr;
  if (!Ctl.C.open(Srv.port(), Err)) {
    R.Errors.push_back("connect: " + Err);
    return;
  }
  StatsSnap S0 = Ctl.snapshot();
  for (unsigned I = 0; I != 40; ++I) {
    Ctl.ping();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  StatsSnap S1 = Ctl.snapshot();
  Ctl.C.close();
  Srv.stop();
  if (Ctl.Failed || !S0.Ok || !S1.Ok)
    R.Errors.push_back("control-plane probe failed");
  if (Spans)
    Spans->addAll(std::move(Ctl.Spans));
  // No slice traffic: the cache and shed counters stay at zero.
  for (const char *K :
       {"service.cache_hit_ratio", "service.cache_hits_per_insert"})
    R.PerLayer[K] = {0, "ratio"};
  for (const char *K : {"service.cache_evictions", "service.cache_coalesced",
                        "service.shed", "service.refused", "service.degraded"})
    R.PerLayer[K] = {0, "count"};
  R.PerLayer["net.bytes_out_per_request"] = {0, "B"};
  R.PerLayer["net.shard_served_max_over_min"] = {1, "ratio"};
  R.PerLayer["bench.open_loop_samples"] = {0, "count"};
  R.PerLayer["service.stats_rtt_ms"] = {quantile(Ctl.StatsMs, 0.5), "ms"};
  R.PerLayer["service.stats_rtt_max_ms"] = {quantile(Ctl.StatsMs, 1.0), "ms"};
  R.PerLayer["net.health_rtt_us"] = {quantile(Ctl.HealthUs, 0.5), "us"};
  R.PerLayer["net.health_rtt_p99_us"] = {
      quantile(Ctl.HealthUs, tailQuantileFor(Ctl.HealthUs.size())), "us"};
}
