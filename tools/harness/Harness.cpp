//===- tools/harness/Harness.cpp - Scenario harness for the service tools -===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include "gen/ProgramGenerator.h"
#include "support/LineFramer.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#ifdef JSLICE_HAVE_POSIX_PROCESS
#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace jslice {
namespace harness {

const SliceAlgorithm AllAlgorithms[10] = {
    SliceAlgorithm::Conventional,    SliceAlgorithm::Agrawal,
    SliceAlgorithm::AgrawalLst,      SliceAlgorithm::Structured,
    SliceAlgorithm::Conservative,    SliceAlgorithm::BallHorwitz,
    SliceAlgorithm::Lyle,            SliceAlgorithm::Gallagher,
    SliceAlgorithm::JiangZhouRobson, SliceAlgorithm::Weiser,
};

CacheOptions cacheOptions(const SoakOptions &Opts) {
  CacheOptions C;
  C.Enabled = Opts.CacheEnabled;
  if (Opts.CacheEntries)
    C.MaxEntries = static_cast<unsigned>(Opts.CacheEntries);
  if (Opts.CacheBytes)
    C.MaxBytes = Opts.CacheBytes;
  C.AuditEvery = static_cast<unsigned>(Opts.CacheAuditEvery);
  C.AuditSeed = Opts.Seed ? Opts.Seed : 1;
  return C;
}

ServerOptions serverOptions(const SoakOptions &Opts) {
  ServerOptions S;
  S.Threads = Opts.Threads;
  S.JournalPath = Opts.JournalPath;
  S.IsolateProcess = Opts.IsolateProcess;
  S.Super.Workers = Opts.Workers;
  if (Opts.BreakerThreshold)
    S.Super.BreakerThreshold = Opts.BreakerThreshold;
  S.QuarantineDir = Opts.QuarantineDir;
  S.Cache = cacheOptions(Opts);
  return S;
}

std::vector<SoakProgram> buildPrograms(const SoakOptions &Opts) {
  std::vector<SoakProgram> Out;
  for (unsigned I = 0; I != Opts.Programs; ++I) {
    GenOptions Gen;
    Gen.Seed = Opts.Seed + I;
    Gen.TargetStmts = Opts.TargetStmts;
    Gen.AllowGotos = (I % 2) == 1;
    SoakProgram P;
    P.Source = generateProgram(Gen);
    ErrorOr<Analysis> A = Analysis::fromSource(P.Source, Budget::unlimited());
    if (A)
      P.Criteria = reachableWriteCriteria(*A);
    if (P.Criteria.empty())
      P.Criteria.push_back(Criterion(1, {}));
    Out.push_back(std::move(P));
  }
  return Out;
}

ServiceRequest soakRequest(const std::vector<SoakProgram> &Programs,
                           uint64_t I, const std::string &Id,
                           bool RotateAlgorithm) {
  const SoakProgram &P = Programs[I % Programs.size()];
  const Criterion &C = P.Criteria[I % P.Criteria.size()];
  ServiceRequest R;
  R.Id = Id;
  R.Program = P.Source;
  R.Line = C.Line;
  R.Vars = C.Vars;
  if (RotateAlgorithm)
    R.Algorithm = AllAlgorithms[I % 10];
  return R;
}

void violation(uint64_t &Count, const char *Fmt, ...) {
  ++Count;
  char Buf[8192]; // One write, so concurrent reporters never interleave.
  std::va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  std::fprintf(stderr, "VIOLATION: %s\n", Buf);
}

void Audit::fail(const std::string &Why) {
  violation(Violations, "%s%s%s", Tag.c_str(), Tag.empty() ? "" : ": ",
            Why.c_str());
}

void Audit::line(const std::string &Line) {
  ++Responses;
  std::optional<JsonValue> V = JsonValue::parse(Line);
  if (!V || !V->isObject())
    return fail("unparseable response line: " + Line);
  if (V->find("cancel")) {
    ++CancelAcks;
    return;
  }
  if (V->find("stats")) {
    ++StatsReplies;
    StatsLine = Line;
    return;
  }
  const JsonValue *Status = V->find("status");
  if (!Status || !Status->isString())
    return fail("response without status: " + Line);
  std::string S = Status->asString();
  ++ByStatus[S];
  if (S != "ok" && S != "resource-exhausted" && S != "error" &&
      S != "bad-request" && S != "cancelled" && S != "poisoned" &&
      S != "crashed" && S != "shed")
    return fail("unknown status: " + Line);
  if (const JsonValue *Id = V->find("id"))
    if (Id->isString() && !Id->asString().empty())
      ++SliceResponses[Id->asString()];
  auto flag = [&](const char *Key) {
    const JsonValue *B = V->find(Key);
    return B && B->isBool() && B->asBool();
  };
  if (S == "crashed" && RequireCrashRepro) {
    const JsonValue *Repro = V->find("repro");
    if (!Repro || !Repro->isString() ||
        !std::filesystem::exists(Repro->asString()))
      fail("crashed response without an on-disk reproducer: " + Line);
  }
  if (S == "ok") {
    DegradedServes += flag("degraded");
    CachedServes += flag("cached");
    AuditedServes += flag("audited");
    if (!V->find("lines") || !V->find("lines")->isArray())
      fail("ok response without lines: " + Line);
  } else if (S == "resource-exhausted") {
    // A refusal is only legal once the whole ladder was consumed:
    // every attempted rung tripped or was skipped as unsound.
    const JsonValue *Attempts = V->find("attempts");
    if (!Attempts || !Attempts->isArray() || Attempts->elements().empty())
      return fail("refusal without ladder attempts: " + Line);
    for (const JsonValue &At : Attempts->elements()) {
      const JsonValue *Outcome = At.find("outcome");
      if (!Outcome || !Outcome->isString() || Outcome->asString() == "served")
        fail("refusal whose attempts claim a served rung: " + Line);
    }
  }
}

void Audit::text(const std::string &Text) {
  std::istringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    if (!L.empty())
      line(L);
}

void Audit::answeredOnce() {
  for (const auto &[Id, N] : SliceResponses)
    if (N != 1)
      fail("id " + Id + " answered " + std::to_string(N) + " times");
}

uint64_t Audit::finishExactlyOnce(uint64_t Sent, uint64_t Lost) {
  Violations += Lost;
  answeredOnce();
  if (SliceResponses.size() != Sent - Lost)
    fail(std::to_string(Sent) + " requests sent, " +
         std::to_string(SliceResponses.size()) +
         " distinct terminal statuses — responses were lost");
  return Violations;
}

void Audit::printSummary() const {
  for (const auto &[S, N] : ByStatus)
    std::printf("               %-18s %llu\n", S.c_str(),
                static_cast<unsigned long long>(N));
  std::printf("               violations         %llu\n",
              static_cast<unsigned long long>(Violations));
}

InProcessService::InProcessService(const ServerOptions &SOpts, bool Verbose)
    : S(SOpts, Out, Log), Verbose(Verbose) {}

bool InProcessService::listen(const TcpServerOptions &TOpts,
                              std::string &Err) {
  Tcp = std::make_unique<TcpServer>(S, TOpts, Log);
  if (!Tcp->start(Err)) {
    Tcp.reset();
    return false;
  }
  Loop = std::thread([this] { Tcp->run(); });
  return true;
}

bool InProcessService::chaos(ChaosOptions COpts, std::string &Err) {
  COpts.UpstreamPort = port();
  Proxy = std::make_unique<ChaosProxy>(COpts);
  return Proxy->start(Err);
}

void InProcessService::finish() {
  if (Finished)
    return;
  Finished = true;
  if (Proxy)
    Proxy->stop();
  if (Tcp) {
    Tcp->requestStop();
    Loop.join();
  }
  S.finish();
  if (Verbose && !Log.str().empty())
    std::fputs(Log.str().c_str(), stderr);
}

LoadPump::LoadPump(PumpOptions O, RequestGen G)
    : Opts(std::move(O)), Gen(std::move(G)) {
  for (unsigned CI = 0; CI != std::max(1u, Opts.Clients); ++CI)
    Threads.emplace_back([this, CI] { client(CI); });
}

void LoadPump::client(unsigned CI) {
  ClientOptions CO = Opts.Client;
  CO.JitterSeed = Opts.Seed + CI + 1;
  ClientConnection Conn(CO);
  PumpResult Local;
  for (;;) {
    uint64_t I = Next.fetch_add(1);
    if (I >= Opts.Requests && (!Opts.UntilStopped || Stop.load()))
      break;
    std::string Line = Gen(I);
    ++Local.Sent;
    bool Done = false, Retried = false;
    ClientResult Res;
    for (unsigned Try = 0; !Done && Try != (Opts.RetryToTerminal ? 120 : 1);
         ++Try) {
      Res = Conn.request(Line);
      Retried = Retried || Try || Res.Attempts > 1;
      if (Opts.RetryToTerminal && !Res.Ok) {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      } else if (Opts.RetryToTerminal &&
                 Res.Response.find("\"status\":\"shed\"") !=
                     std::string::npos) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      } else if (Res.Ok) {
        Local.Responses.push_back(std::move(Res.Response));
        ++Answered;
        Done = true;
      }
    }
    Local.Retried += Retried;
    if (!Done) {
      std::lock_guard<std::mutex> Lock(M);
      violation(Local.Lost, "request lost %s after %u attempts (%s): %.80s",
                Opts.Scene.c_str(), Res.Attempts, Res.TransportError.c_str(),
                Line.c_str());
    }
  }
  std::lock_guard<std::mutex> Lock(M);
  for (std::string &L : Local.Responses)
    Result.Responses.push_back(std::move(L));
  Result.Sent += Local.Sent;
  Result.Lost += Local.Lost;
  Result.Retried += Local.Retried;
  Result.Reconnects += Conn.reconnects();
  Result.Failovers += Conn.failovers();
}

PumpResult LoadPump::finish() {
  Stop.store(true);
  for (std::thread &T : Threads)
    T.join();
  Threads.clear();
  return Result;
}

std::string ask(uint16_t Port, const std::string &Line, unsigned Attempts,
                const std::string &Host) {
  ClientOptions CO;
  CO.Host = Host;
  CO.Port = Port;
  CO.MaxAttempts = Attempts;
  CO.ConnectTimeoutMs = 2000;
  CO.BackoffBaseMs = 20;
  CO.BackoffCapMs = 200;
  CO.ResponseTimeoutMs = 10000;
  ClientConnection Conn(CO);
  ClientResult R = Conn.request(Line);
  return R.Ok ? R.Response : std::string();
}

uint64_t jsonCount(const JsonValue *V, const char *Key) {
  const JsonValue *N = V && V->isObject() ? V->find(Key) : nullptr;
  return N && N->isNumber() && N->asInt() > 0 ? N->asInt() : 0;
}

bool waitFor(const std::function<bool()> &Pred, uint64_t TimeoutMs,
             unsigned PollMs) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  for (;;) {
    if (Pred())
      return true;
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(PollMs));
  }
}

/// The decimal number starting at \p At in \p Line; -1 when none.
static long numberAt(const std::string &Line, size_t At) {
  if (At >= Line.size() || Line[At] < '0' || Line[At] > '9')
    return -1;
  return std::strtol(Line.c_str() + At, nullptr, 10);
}

void ServeLog::feed(const std::string &Line) {
  std::lock_guard<std::mutex> Lock(M);
  size_t At;
  if (Line.find("listening on ") != std::string::npos) {
    // The port is the end of the line; scripts anchor on that too.
    long P = numberAt(Line, Line.rfind(':') + 1);
    if (P > 0 && P <= 65535)
      S.Port = static_cast<uint16_t>(P);
  } else if ((At = Line.find("spawning generation ")) != std::string::npos) {
    size_t Pid = Line.find("(pid ", At);
    if (Pid != std::string::npos)
      S.PendingPid = numberAt(Line, Pid + 5);
  } else if (Line.find("ready; draining generation ") != std::string::npos) {
    if (S.PendingPid > 0)
      S.LeaderPid = S.PendingPid;
    S.PendingPid = -1;
    ++S.Handoffs;
  } else if (Line.find("rolling back to generation ") != std::string::npos) {
    S.PendingPid = -1;
    ++S.Rollbacks;
  } else if (Line.find("upgrade already in progress") != std::string::npos ||
             Line.find("upgrade refused: shutdown in progress") !=
                 std::string::npos) {
    ++S.Refusals;
  } else if ((At = Line.find("generation ")) != std::string::npos &&
             Line.find("(pid") == std::string::npos) {
    // "generation G pid P": adopted only when nobody leads — a
    // successor prints it too, before it is ready.
    size_t Pid = Line.find(" pid ", At);
    if (Pid != std::string::npos && S.LeaderPid < 0)
      S.LeaderPid = numberAt(Line, Pid + 5);
  }
}

ServeLogState ServeLog::state() const {
  std::lock_guard<std::mutex> Lock(M);
  return S;
}

void ServeLog::setLeader(long Pid) {
  std::lock_guard<std::mutex> Lock(M);
  S.LeaderPid = Pid;
  S.PendingPid = -1;
}

#ifdef JSLICE_HAVE_POSIX_PROCESS

ServeNode::ServeNode(bool Echo) : Echo(Echo) {
  if (::pipe(Fds) != 0) {
    Fds[0] = Fds[1] = -1;
    return;
  }
  // Neither end leaks into exec'd children except as a child's fd 2
  // (dup2 clears close-on-exec on the copy).
  ::fcntl(Fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(Fds[1], F_SETFD, FD_CLOEXEC);
  Reader = std::thread([this] { readLoop(); });
}

ServeNode::~ServeNode() {
  ServeLogState St = Log.state();
  for (long Pid : {St.LeaderPid, St.PendingPid})
    if (Pid > 0)
      signal(Pid, SIGKILL);
  for (long Pid : Children)
    signal(Pid, SIGKILL);
  for (long Pid : Children)
    ::waitpid(static_cast<pid_t>(Pid), nullptr, 0);
  Stop.store(true);
  if (Reader.joinable())
    Reader.join();
  for (int Fd : Fds)
    if (Fd >= 0)
      ::close(Fd);
}

void ServeNode::readLoop() {
  LineFramer Lines;
  char Chunk[4096];
  while (!Stop.load()) {
    int Ready = pollReadable2(Fds[0], -1, 100);
    if (Ready < 0)
      break;
    if (!(Ready & 1))
      continue;
    int64_t N = readSome(Fds[0], Chunk, sizeof(Chunk));
    if (N <= 0)
      break;
    Lines.feed(Chunk, static_cast<size_t>(N));
    while (std::optional<LineFramer::Frame> F = Lines.next()) {
      std::string Line(F->Line);
      Log.feed(Line);
      if (Echo)
        std::fprintf(stderr, "%s\n", Line.c_str());
    }
  }
}

long ServeNode::spawn(const std::vector<std::string> &Args) {
  if (Fds[1] < 0 || Args.empty())
    return -1;
  std::vector<char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    ::dup2(Fds[1], 2);
    ::execvp(Argv[0], Argv.data());
    _exit(127);
  }
  Children.push_back(Pid);
  return Pid;
}

bool ServeNode::await(
    const std::function<bool(const ServeLogState &)> &Pred,
    uint64_t TimeoutMs) {
  return waitFor(
      [&] {
        reap();
        return Pred(Log.state());
      },
      TimeoutMs);
}

bool ServeNode::healthy(const std::string &Host) const {
  std::optional<JsonValue> V =
      JsonValue::parse(ask(port(), "{\"health\":true}", 1, Host));
  if (!V || !V->isObject() || !V->find("status"))
    return false;
  const JsonValue *T = V->find("transport");
  return !(T && T->find("wedged"));
}

std::optional<int> ServeNode::reap(long Pid) {
  std::optional<int> Out;
  for (size_t I = 0; I != Children.size();) {
    int Status = 0;
    if (::waitpid(static_cast<pid_t>(Children[I]), &Status, WNOHANG) ==
        static_cast<pid_t>(Children[I])) {
      if (Children[I] == Pid)
        Out = Status;
      Children.erase(Children.begin() + static_cast<long>(I));
    } else {
      ++I;
    }
  }
  return Out;
}

bool ServeNode::gone(long Pid) {
  reap();
  return ::kill(static_cast<pid_t>(Pid), 0) != 0 && errno == ESRCH;
}

bool ServeNode::terminate(long Pid, uint64_t GraceMs) {
  if (Pid <= 0 || gone(Pid))
    return true;
  signal(Pid, SIGTERM);
  if (waitFor([&] { return gone(Pid); }, GraceMs, 50))
    return true;
  signal(Pid, SIGKILL);
  waitFor([&] { return gone(Pid); }, 5000, 50);
  return false;
}

void ServeNode::signal(long Pid, int Sig) {
  if (Pid > 0)
    ::kill(static_cast<pid_t>(Pid), Sig);
}

#endif

} // namespace harness
} // namespace jslice
