//===- service/Supervisor.h - Self-healing sandbox-worker fleet ------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-level request isolation (DESIGN.md, "Supervision &
/// overload"): the one failure class the in-process guards cannot
/// survive — a segfault, stack overflow, or OOM kill inside the
/// analysis — must cost exactly one request, not the whole service.
/// The Supervisor forks a small fleet of sandbox workers
/// (service/SandboxWorker.h), ships each request over a
/// length-prefixed pipe (service/Ipc.h), and converts every way a
/// worker can die into a per-request verdict:
///
///   * worker answers            -> Served (response passed through)
///   * worker dies mid-request   -> Crashed, with the waitpid() status
///   * worker misses its response
///     deadline (hung)           -> SIGKILL, then Crashed ("hung")
///   * worker found dead before
///     the request was delivered -> respawn and retry (the request
///                                  never reached it; it is innocent)
///
/// Self-healing: a monitor thread reaps workers that die while idle
/// and respawns every dead slot under exponential backoff
/// (BackoffBaseMs doubling per consecutive crash of that slot, capped
/// at BackoffCapMs; one successful serve resets it). A restart storm —
/// BreakerThreshold crashes inside BreakerWindowMs — opens a circuit
/// breaker: no respawns and deterministic BreakerOpen refusals until
/// BreakerCooldownMs passes, so a poison flood degrades into fast
/// refusals instead of a fork bomb.
///
/// The chaos hook (chaosKillWorker) SIGKILLs a random live worker
/// *under the supervisor lock, before it is reaped* — the only
/// pid-recycling-safe place to do it — and exists for the crash-matrix
/// soak, which asserts that random kills across a 10k-request run lose
/// zero responses and that restarts() converges to exactly the kill
/// count.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_SUPERVISOR_H
#define JSLICE_SERVICE_SUPERVISOR_H

#include "service/SandboxWorker.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace jslice {

/// Fleet configuration. The backoff and breaker constants are
/// justified in DESIGN.md ("Supervision & overload").
struct SupervisorOptions {
  /// Sandbox processes to keep alive.
  unsigned Workers = 2;

  /// Per-request execution settings shipped to every worker.
  ExecConfig Exec;

  /// Response deadline when the caller does not supply one (0 is not
  /// allowed to mean "forever": a hung worker holding a slot is the
  /// exact failure this layer exists to bound).
  uint64_t DefaultDispatchTimeoutMs = 60000;

  /// Extra slack on top of a request's own worst-case ladder latency
  /// before a silent worker is declared hung.
  uint64_t HangGraceMs = 3000;

  /// First respawn delay after a crash; doubles per consecutive crash
  /// of the same slot, capped at BackoffCapMs.
  unsigned BackoffBaseMs = 10;
  unsigned BackoffCapMs = 1000;

  /// Crashes within BreakerWindowMs that open the circuit breaker,
  /// and how long it stays open.
  unsigned BreakerThreshold = 10;
  uint64_t BreakerWindowMs = 2000;
  uint64_t BreakerCooldownMs = 1000;

  /// Monitor thread cadence for reaping idle deaths and respawning.
  uint64_t ReapIntervalMs = 20;
};

/// One dispatch's verdict.
struct DispatchResult {
  enum class Kind {
    Served,      ///< ResponseJson holds the worker's response line.
    Crashed,     ///< Worker died or hung on this request.
    BreakerOpen, ///< Refused without running: restart storm cooldown.
    Failed,      ///< Infrastructure failure (fork unsupported/denied).
  };
  Kind K = Kind::Failed;
  std::string ResponseJson;
  std::string CrashDetail; ///< Wait status / hang description.
  bool Hung = false;       ///< Crashed because the deadline passed.
};

/// Counters, for {"stats"} and the crash-matrix audit.
struct SupervisorStats {
  uint64_t Spawns = 0;   ///< Every fork, including the initial fleet.
  uint64_t Restarts = 0; ///< Respawns of previously-started slots.
  uint64_t Crashes = 0;  ///< Worker deaths (busy or idle) + hangs.
  uint64_t Hangs = 0;    ///< Subset of Crashes: killed for silence.
  uint64_t BreakerRefusals = 0;
  uint64_t BreakerOpens = 0;
  unsigned WorkersAlive = 0;
  std::vector<long> LivePids; ///< The WorkersAlive workers' pids.

  bool isLive(int64_t Pid) const {
    return std::find(LivePids.begin(), LivePids.end(), Pid) != LivePids.end();
  }
};

class Supervisor {
public:
  explicit Supervisor(const SupervisorOptions &Opts);
  ~Supervisor();

  Supervisor(const Supervisor &) = delete;
  Supervisor &operator=(const Supervisor &) = delete;

  /// Forks the initial fleet and starts the monitor. False when the
  /// platform cannot fork/pipe (the server then stays thread-mode).
  bool start();

  /// Drains the fleet: EOFs every worker, reaps with a short grace,
  /// SIGKILLs stragglers, joins the monitor. Idempotent.
  void stop();

  /// Ships \p R to an idle worker and waits for its response.
  /// \p TimeoutMs bounds the wait (<= 0 uses the option default plus
  /// grace). Blocks while all workers are busy — admission control
  /// above this layer (Server's bounded queue) bounds that wait.
  DispatchResult dispatch(const ServiceRequest &R, int64_t TimeoutMs);

  SupervisorStats stats() const;
  uint64_t restarts() const;
  uint64_t crashes() const;

  /// Lock-free breaker probe for the {"health"} control line: stats()
  /// takes the fleet mutex, which a health endpoint must never wait
  /// on. Reads the atomic mirror of the breaker deadline.
  bool breakerOpenNow() const {
    int64_t Until = BreakerOpenUntilMs.load(std::memory_order_relaxed);
    if (!Until)
      return false;
    int64_t Now = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
    return Now < Until;
  }

  /// Chaos hook for the crash-matrix soak: SIGKILL one live worker
  /// chosen by \p Rng (xorshift state, advanced in place). Returns the
  /// killed pid, or -1 when no worker is live. Safe against pid
  /// recycling: the victim is chosen and signalled under the lock,
  /// before anything can reap it. At most one kill per worker life:
  /// a slot whose kill has not been reaped yet is not picked again
  /// (signalling the zombie would count a kill with no matching
  /// death), so kills and restarts stay one-to-one.
  long chaosKillWorker(uint64_t &Rng);

private:
  struct Slot {
    long Pid = -1;
    int ToChild = -1;   ///< Parent-held write end.
    int FromChild = -1; ///< Parent-held read end.
    enum class State { Dead, Idle, Busy } St = State::Dead;
    unsigned ConsecutiveCrashes = 0;
    bool EverStarted = false;
    bool ChaosKillPending = false; ///< SIGKILLed, reap not observed yet.
    std::chrono::steady_clock::time_point RespawnAt;
  };

  bool spawnLocked(Slot &S);
  void markDeadLocked(Slot &S, bool CountCrash);
  void noteCrashLocked();
  bool breakerOpenLocked() const;
  int acquireSlot(std::chrono::steady_clock::time_point Deadline);
  void monitorMain();

  SupervisorOptions Opts;
  mutable std::mutex M;
  std::condition_variable SlotFree;
  std::vector<Slot> Slots;
  std::deque<std::chrono::steady_clock::time_point> CrashTimes;
  std::chrono::steady_clock::time_point BreakerOpenUntil;
  /// Steady-clock ms mirror of BreakerOpenUntil for breakerOpenNow().
  std::atomic<int64_t> BreakerOpenUntilMs{0};
  SupervisorStats Counters;
  bool Started = false;
  bool Stopping = false;
  std::thread Monitor;
};

} // namespace jslice

#endif // JSLICE_SERVICE_SUPERVISOR_H
