//===- service/Supervisor.cpp - Self-healing sandbox-worker fleet ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Supervisor.h"

#include "service/Ipc.h"
#include "support/Pipe.h"

#include <algorithm>
#include <cerrno>

#ifdef JSLICE_HAVE_POSIX_PROCESS
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace jslice;

using Clock = std::chrono::steady_clock;

Supervisor::Supervisor(const SupervisorOptions &Opts) : Opts(Opts) {
  this->Opts.Workers = std::max(1u, Opts.Workers);
}

Supervisor::~Supervisor() { stop(); }

#ifdef JSLICE_HAVE_POSIX_PROCESS

namespace {

/// Blocking waitpid, EINTR-looped. Returns false when the pid cannot
/// be waited (already reaped — a supervisor bug, treated as exited).
bool waitPid(long Pid, int &Status) {
  for (;;) {
    pid_t R = ::waitpid(static_cast<pid_t>(Pid), &Status, 0);
    if (R == static_cast<pid_t>(Pid))
      return true;
    if (R < 0 && errno == EINTR)
      continue;
    return false;
  }
}

uint64_t xorshift(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

} // namespace

bool Supervisor::start() {
  std::lock_guard<std::mutex> Lock(M);
  if (Started)
    return true;
  // Dead workers surface as EPIPE on write, not SIGPIPE: the whole
  // crash-detection scheme depends on this process surviving writes to
  // closed pipes.
  ::signal(SIGPIPE, SIG_IGN);
  Slots.resize(Opts.Workers);
  unsigned Alive = 0;
  for (Slot &S : Slots)
    Alive += spawnLocked(S);
  if (!Alive) {
    Slots.clear();
    return false;
  }
  Started = true;
  Stopping = false;
  Monitor = std::thread([this] { monitorMain(); });
  return true;
}

bool Supervisor::spawnLocked(Slot &S) {
  Pipe Down, Up; // Supervisor -> worker, worker -> supervisor.
  if (!Down.make() || !Up.make())
    return false;

  // Everything the child must NOT inherit: the parent-side ends of
  // every other worker's pipes. A sibling holding a copy of another
  // worker's write end would defeat both EOF shutdown and EPIPE
  // dead-worker detection.
  std::vector<int> CloseInChild;
  for (const Slot &Other : Slots) {
    if (Other.ToChild >= 0)
      CloseInChild.push_back(Other.ToChild);
    if (Other.FromChild >= 0)
      CloseInChild.push_back(Other.FromChild);
  }

  pid_t Pid = ::fork();
  if (Pid < 0)
    return false;

  if (Pid == 0) {
    // Child: sandbox worker. Close the parent-side ends and every
    // sibling fd, restore default signal dispositions (the server may
    // have SIGTERM/SIGINT routed to a self-pipe the child must not
    // share), run the loop, and _exit without flushing the stdio
    // buffers forked from the parent.
    for (int Fd : CloseInChild)
      ::close(Fd);
    Down.closeWrite();
    Up.closeRead();
    ::signal(SIGTERM, SIG_DFL);
    ::signal(SIGINT, SIG_DFL);
    int Code = sandboxWorkerMain(Down.ReadFd, Up.WriteFd, Opts.Exec);
    ::_exit(Code);
  }

  // Parent.
  Down.closeRead();
  Up.closeWrite();
  S.Pid = Pid;
  S.ToChild = Down.WriteFd;
  S.FromChild = Up.ReadFd;
  Down.WriteFd = -1; // Ownership moved into the slot.
  Up.ReadFd = -1;
  S.St = Slot::State::Idle;
  if (S.EverStarted)
    ++Counters.Restarts;
  S.EverStarted = true;
  ++Counters.Spawns;
  SlotFree.notify_all();
  return true;
}

void Supervisor::markDeadLocked(Slot &S, bool CountCrash) {
  closeQuietly(S.ToChild);
  closeQuietly(S.FromChild);
  S.Pid = -1;
  S.St = Slot::State::Dead;
  S.ChaosKillPending = false;
  if (CountCrash) {
    ++S.ConsecutiveCrashes;
    unsigned Shift = std::min(S.ConsecutiveCrashes - 1, 16u);
    uint64_t Delay = std::min<uint64_t>(
        static_cast<uint64_t>(Opts.BackoffBaseMs) << Shift, Opts.BackoffCapMs);
    S.RespawnAt = Clock::now() + std::chrono::milliseconds(Delay);
    noteCrashLocked();
  } else {
    S.RespawnAt = Clock::now();
  }
}

void Supervisor::noteCrashLocked() {
  ++Counters.Crashes;
  Clock::time_point Now = Clock::now();
  CrashTimes.push_back(Now);
  while (!CrashTimes.empty() &&
         Now - CrashTimes.front() >
             std::chrono::milliseconds(Opts.BreakerWindowMs))
    CrashTimes.pop_front();
  if (CrashTimes.size() >= Opts.BreakerThreshold &&
      Now >= BreakerOpenUntil) {
    BreakerOpenUntil = Now + std::chrono::milliseconds(Opts.BreakerCooldownMs);
    BreakerOpenUntilMs.store(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            BreakerOpenUntil.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
    ++Counters.BreakerOpens;
  }
}

bool Supervisor::breakerOpenLocked() const {
  return Clock::now() < BreakerOpenUntil;
}

/// Finds and claims a usable slot before \p Deadline: an idle worker
/// wins; otherwise a dead slot past its backoff is respawned. Returns
/// the slot index, -1 on deadline, -2 when the breaker is open.
int Supervisor::acquireSlot(Clock::time_point Deadline) {
  std::unique_lock<std::mutex> Lock(M);
  for (;;) {
    if (Stopping)
      return -1;
    if (breakerOpenLocked()) {
      ++Counters.BreakerRefusals;
      return -2;
    }
    Clock::time_point Now = Clock::now();
    for (size_t I = 0; I != Slots.size(); ++I) {
      if (Slots[I].St == Slot::State::Idle) {
        Slots[I].St = Slot::State::Busy;
        return static_cast<int>(I);
      }
    }
    for (size_t I = 0; I != Slots.size(); ++I) {
      Slot &S = Slots[I];
      if (S.St == Slot::State::Dead && Now >= S.RespawnAt) {
        if (spawnLocked(S)) {
          S.St = Slot::State::Busy;
          return static_cast<int>(I);
        }
        // Fork failed (fd/process pressure): back off like a crash
        // would, without counting one.
        S.RespawnAt = Now + std::chrono::milliseconds(Opts.BackoffCapMs);
      }
    }
    if (Now >= Deadline)
      return -1;
    SlotFree.wait_until(Lock, std::min(Deadline,
                                       Now + std::chrono::milliseconds(20)));
  }
}

DispatchResult Supervisor::dispatch(const ServiceRequest &R,
                                    int64_t TimeoutMs) {
  DispatchResult Out;
  if (TimeoutMs <= 0)
    TimeoutMs = static_cast<int64_t>(Opts.DefaultDispatchTimeoutMs);
  TimeoutMs += static_cast<int64_t>(Opts.HangGraceMs);
  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);

  std::string Payload;
  R.appendJson(Payload);

  // A worker found dead *before* the request reached it proves nothing
  // about the request — retry on a fresh worker, bounded so a fork
  // storm cannot loop forever.
  for (int Attempt = 0; Attempt != 3; ++Attempt) {
    int Idx = acquireSlot(Deadline);
    if (Idx == -2) {
      Out.K = DispatchResult::Kind::BreakerOpen;
      Out.CrashDetail = "restart-storm circuit breaker open";
      return Out;
    }
    if (Idx < 0) {
      Out.K = DispatchResult::Kind::Crashed;
      Out.Hung = true;
      Out.CrashDetail = "no worker available before the dispatch deadline";
      return Out;
    }
    Slot &S = Slots[static_cast<size_t>(Idx)];
    long Pid = S.Pid;
    int ToChild = S.ToChild;
    int FromChild = S.FromChild;

    if (!writeFrame(ToChild, Payload)) {
      // EPIPE: the worker died while idle, before delivery. Reap,
      // respawn bookkeeping, and retry — the request is innocent.
      int Status = 0;
      waitPid(Pid, Status);
      std::lock_guard<std::mutex> Lock(M);
      markDeadLocked(S, /*CountCrash=*/true);
      SlotFree.notify_all();
      continue;
    }

    int64_t LeftMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                         Deadline - Clock::now())
                         .count();
    std::string Response;
    FrameReadStatus RS =
        readFrame(FromChild, Response,
                  static_cast<int>(std::max<int64_t>(0, LeftMs)));

    if (RS == FrameReadStatus::Ok) {
      std::lock_guard<std::mutex> Lock(M);
      S.St = Slot::State::Idle;
      S.ConsecutiveCrashes = 0;
      SlotFree.notify_all();
      Out.K = DispatchResult::Kind::Served;
      Out.ResponseJson = std::move(Response);
      return Out;
    }

    // Dead or hung with our request on board.
    bool Hung = RS == FrameReadStatus::Timeout;
    if (Hung)
      ::kill(static_cast<pid_t>(Pid), SIGKILL);
    int Status = 0;
    bool HaveStatus = waitPid(Pid, Status);
    {
      std::lock_guard<std::mutex> Lock(M);
      markDeadLocked(S, /*CountCrash=*/true);
      if (Hung)
        ++Counters.Hangs;
      SlotFree.notify_all();
    }
    Out.K = DispatchResult::Kind::Crashed;
    Out.Hung = Hung;
    if (Hung)
      Out.CrashDetail = "worker hung past the response deadline; killed (" +
                        describeWaitStatus(Status) + ")";
    else
      Out.CrashDetail = HaveStatus ? describeWaitStatus(Status)
                                   : "worker vanished (already reaped)";
    return Out;
  }

  Out.K = DispatchResult::Kind::Crashed;
  Out.CrashDetail = "workers died before delivery on every retry";
  return Out;
}

void Supervisor::monitorMain() {
  for (;;) {
    {
      std::unique_lock<std::mutex> Lock(M);
      if (Stopping)
        return;
      Clock::time_point Now = Clock::now();
      for (Slot &S : Slots) {
        if (S.St == Slot::State::Idle) {
          // Reap idle deaths (chaos kills, OOM kills between requests).
          int Status = 0;
          pid_t R = ::waitpid(static_cast<pid_t>(S.Pid), &Status, WNOHANG);
          if (R == static_cast<pid_t>(S.Pid))
            markDeadLocked(S, /*CountCrash=*/true);
        }
        if (S.St == Slot::State::Dead && Now >= S.RespawnAt &&
            !breakerOpenLocked())
          spawnLocked(S); // Self-healing respawn.
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Opts.ReapIntervalMs));
  }
}

void Supervisor::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Started)
      return;
    Stopping = true;
    SlotFree.notify_all();
  }
  if (Monitor.joinable())
    Monitor.join();

  std::lock_guard<std::mutex> Lock(M);
  for (Slot &S : Slots) {
    if (S.Pid < 0)
      continue;
    closeQuietly(S.ToChild); // EOF: the worker loop retires cleanly.
    closeQuietly(S.FromChild);
    int Status = 0;
    bool Reaped = false;
    for (int I = 0; I != 50; ++I) { // ~500ms grace.
      pid_t R = ::waitpid(static_cast<pid_t>(S.Pid), &Status, WNOHANG);
      if (R == static_cast<pid_t>(S.Pid)) {
        Reaped = true;
        break;
      }
      if (R < 0 && errno != EINTR) {
        Reaped = true; // Not ours to wait on anymore.
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!Reaped) {
      ::kill(static_cast<pid_t>(S.Pid), SIGKILL);
      waitPid(S.Pid, Status);
    }
    S.Pid = -1;
    S.St = Slot::State::Dead;
  }
  Started = false;
}

long Supervisor::chaosKillWorker(uint64_t &Rng) {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<size_t> Live;
  for (size_t I = 0; I != Slots.size(); ++I)
    if (Slots[I].Pid > 0 && Slots[I].St != Slot::State::Dead &&
        !Slots[I].ChaosKillPending)
      Live.push_back(I);
  if (Live.empty())
    return -1;
  size_t Pick = Live[xorshift(Rng) % Live.size()];
  Slots[Pick].ChaosKillPending = true;
  long Pid = Slots[Pick].Pid;
  ::kill(static_cast<pid_t>(Pid), SIGKILL);
  return Pid;
}

#else // !JSLICE_HAVE_POSIX_PROCESS

bool Supervisor::start() { return false; }
void Supervisor::stop() {}
bool Supervisor::spawnLocked(Slot &) { return false; }
void Supervisor::markDeadLocked(Slot &, bool) {}
void Supervisor::noteCrashLocked() {}
bool Supervisor::breakerOpenLocked() const { return false; }
int Supervisor::acquireSlot(Clock::time_point) { return -1; }
void Supervisor::monitorMain() {}

DispatchResult Supervisor::dispatch(const ServiceRequest &, int64_t) {
  DispatchResult Out;
  Out.K = DispatchResult::Kind::Failed;
  Out.CrashDetail = "process isolation unsupported on this platform";
  return Out;
}

long Supervisor::chaosKillWorker(uint64_t &) { return -1; }

#endif

SupervisorStats Supervisor::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  SupervisorStats S = Counters;
  for (const Slot &Sl : Slots)
    if (Sl.St != Slot::State::Dead) {
      ++S.WorkersAlive;
      S.LivePids.push_back(Sl.Pid);
    }
  return S;
}

uint64_t Supervisor::restarts() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters.Restarts;
}

uint64_t Supervisor::crashes() const {
  std::lock_guard<std::mutex> Lock(M);
  return Counters.Crashes;
}
