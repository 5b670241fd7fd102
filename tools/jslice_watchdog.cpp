//===- tools/jslice_watchdog.cpp - Process-level liveness supervisor ------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The outermost supervision ring (DESIGN.md §16): keeps one
/// `jslice_serve --listen` leader alive across crashes, wedges, and
/// zero-downtime upgrades. Where the in-process Supervisor restarts
/// sandbox *workers* and the transport contains *connections*, the
/// watchdog restarts the server *process* — the one failure domain
/// nothing inside the process can heal.
///
///   jslice_watchdog [options] -- jslice_serve --listen HOST:PORT ...
///
///   --health-interval-ms N   probe cadence (default 1000)
///   --health-failures K      consecutive probe failures before a
///                            managed restart (default 3)
///   --grace-ms N             SIGTERM-to-SIGKILL drain grace on a
///                            managed restart (default 10000)
///   --restart-threshold N    restarts within the window that trip the
///                            storm breaker (default 5)
///   --restart-window-ms N    breaker window (default 30000)
///   --restart-cooldown-ms N  pause before respawning once the breaker
///                            trips (default 5000)
///   --standby HOST:PORT      failover mode: when the leader dies or
///                            fails K consecutive probes, do NOT
///                            restart it — kill whatever is left of
///                            it, send {"promote": true} to the warm
///                            standby at HOST:PORT, and exit 0 once
///                            the promotion is acknowledged. The
///                            kill-before-promote order matters: the
///                            old primary must be dead (or fenced by
///                            the promotion epoch) before the standby
///                            starts serving, so there is no window
///                            where both serve. Exit 1 if the standby
///                            cannot be promoted — the operator's cue
///                            that the service is down for real
///
/// The leader's stderr flows through the watchdog (teed to its own
/// stderr) into the harness's ServeLog (tools/harness/Harness.h), the
/// one parser of jslice_serve's lifecycle lines. From it the watchdog
/// learns the bound port ("listening on HOST:PORT" — a respawn pins it,
/// so a crash-restart keeps the address even when the original asked
/// for port 0) and the current leader. A successor generation inherits
/// the same stderr pipe; it becomes the watched leader only on
/// "ready; draining", and "rolling back" drops it, so a successor that
/// dies before readiness never displaces the generation still serving.
/// When the direct child exits after a handoff, the watchdog keeps
/// watching the successor by pid instead of declaring a death.
///
/// A health probe fails on transport errors or a "wedged":true
/// transport (a reactor shard that stopped making progress); K
/// consecutive failures trigger a managed restart: SIGTERM, bounded
/// drain, SIGKILL if the drain stalls, respawn. Respawns run through a
/// restart-storm circuit breaker (the Supervisor's crash-loop policy
/// at process granularity): more than N restarts inside the window and
/// the watchdog cools down before trying again, so a persistent
/// boot-crash cannot hot-loop.
///
/// SIGTERM / SIGINT shut the tree down: forward SIGTERM to the leader,
/// wait for the drain, exit 0. SIGUSR2 forwards to the leader to
/// trigger an upgrade.
///
/// Exit codes: 0 — shut down on signal, or (--standby) failover
/// complete; 1 — (--standby) the standby could not be promoted;
/// 2 — usage error.
///
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "net/Socket.h"
#include "support/StringUtils.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace jslice;
using namespace jslice::harness;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: jslice_watchdog [--health-interval-ms N] "
      "[--health-failures K]\n"
      "                       [--grace-ms N] [--restart-threshold N]\n"
      "                       [--restart-window-ms N] "
      "[--restart-cooldown-ms N]\n"
      "                       [--standby HOST:PORT]\n"
      "                       -- jslice_serve --listen HOST:PORT ...\n");
  return 2;
}

std::atomic<bool> ShutdownRequested{false};
std::atomic<bool> UpgradeRequested{false};

#ifdef JSLICE_HAVE_POSIX_PROCESS

extern "C" void onWatchdogShutdown(int) {
  ShutdownRequested.store(true, std::memory_order_relaxed);
}
extern "C" void onWatchdogUpgrade(int) {
  UpgradeRequested.store(true, std::memory_order_relaxed);
}

uint64_t steadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct WatchdogOptions {
  uint64_t HealthIntervalMs = 1000;
  unsigned HealthFailures = 3;
  uint64_t GraceMs = 10000;
  unsigned RestartThreshold = 5;
  uint64_t RestartWindowMs = 30000;
  uint64_t RestartCooldownMs = 5000;
  std::string StandbyHost; ///< --standby: promote instead of restart.
  uint16_t StandbyPort = 0;
};

/// Sends {"promote": true} to the standby; true when it acknowledged
/// with "status":"ok".
bool promoteStandby(const std::string &Host, uint16_t Port) {
  std::optional<JsonValue> V =
      JsonValue::parse(ask(Port, "{\"promote\": true}", 1, Host));
  const JsonValue *S = V && V->isObject() ? V->find("status") : nullptr;
  return S && S->isString() && S->asString() == "ok";
}

/// The leader tree the watchdog maintains.
struct Leader {
  long DirectChild = -1; ///< Our fork child; -1 after a handoff.
  long Pid = -1;         ///< Current leader (from the log; may differ).
};

#endif // JSLICE_HAVE_POSIX_PROCESS

} // namespace

#ifdef JSLICE_HAVE_POSIX_PROCESS

int main(int argc, char **argv) {
  WatchdogOptions Opts;
  std::vector<std::string> ServeArgs;

  int I = 1;
  for (; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--") {
      ++I;
      break;
    }
    auto NextValue = [&]() -> std::optional<std::string> {
      if (I + 1 >= argc)
        return std::nullopt;
      return std::string(argv[++I]);
    };
    if (Arg == "--standby") {
      std::optional<std::string> Value = NextValue();
      if (!Value ||
          !parseHostPort(*Value, Opts.StandbyHost, Opts.StandbyPort) ||
          !Opts.StandbyPort) {
        std::fprintf(stderr,
                     "error: --standby expects HOST:PORT (port != 0)\n");
        return usage();
      }
    } else if (Arg == "--health-interval-ms" || Arg == "--health-failures" ||
        Arg == "--grace-ms" || Arg == "--restart-threshold" ||
        Arg == "--restart-window-ms" || Arg == "--restart-cooldown-ms") {
      std::optional<std::string> Value = NextValue();
      std::string V = Value.value_or("");
      bool Ok;
      if (Arg == "--health-interval-ms")
        Ok = parseCountInto(V, Opts.HealthIntervalMs);
      else if (Arg == "--health-failures")
        Ok = parseCountInto(V, Opts.HealthFailures);
      else if (Arg == "--grace-ms")
        Ok = parseCountInto(V, Opts.GraceMs);
      else if (Arg == "--restart-threshold")
        Ok = parseCountInto(V, Opts.RestartThreshold);
      else if (Arg == "--restart-window-ms")
        Ok = parseCountInto(V, Opts.RestartWindowMs);
      else
        Ok = parseCountInto(V, Opts.RestartCooldownMs);
      if (!Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer in range\n",
                     Arg.c_str());
        return usage();
      }
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    }
  }
  for (; I < argc; ++I)
    ServeArgs.push_back(argv[I]);
  if (ServeArgs.empty()) {
    std::fprintf(stderr, "error: no server command after --\n");
    return usage();
  }

  // The respawn command pins the listen address once the first leader
  // reports its bound port, so a crash-restart keeps the address even
  // when the original spec asked for HOST:0.
  size_t ListenValueIdx = SIZE_MAX;
  std::string Host = "127.0.0.1";
  for (size_t A = 0; A + 1 < ServeArgs.size(); ++A)
    if (ServeArgs[A] == "--listen") {
      ListenValueIdx = A + 1;
      uint16_t IgnoredPort = 0;
      parseHostPort(ServeArgs[A + 1], Host, IgnoredPort);
      break;
    }

  struct sigaction SA = {};
  SA.sa_handler = onWatchdogShutdown;
  sigemptyset(&SA.sa_mask);
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  struct sigaction UA = {};
  UA.sa_handler = onWatchdogUpgrade;
  sigemptyset(&UA.sa_mask);
  ::sigaction(SIGUSR2, &UA, nullptr);

  // One stderr pipe for the whole run: every leader (and every
  // successor it execs — inherited fd 2 crosses the exec) writes there,
  // teed to ours, and the log keeps reading across restarts.
  ServeNode Node(/*Echo=*/true);
  Leader L;
  std::deque<uint64_t> RestartTimes;

  auto respawn = [&]() -> bool {
    uint64_t Now = steadyMs();
    while (!RestartTimes.empty() &&
           Now - RestartTimes.front() > Opts.RestartWindowMs)
      RestartTimes.pop_front();
    if (RestartTimes.size() >= Opts.RestartThreshold) {
      std::fprintf(stderr,
                   "jslice_watchdog: restart storm: %zu restarts in %llu "
                   "ms; cooling down %llu ms\n",
                   RestartTimes.size(),
                   static_cast<unsigned long long>(Opts.RestartWindowMs),
                   static_cast<unsigned long long>(Opts.RestartCooldownMs));
      uint64_t Until = steadyMs() + Opts.RestartCooldownMs;
      while (steadyMs() < Until &&
             !ShutdownRequested.load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (ShutdownRequested.load(std::memory_order_relaxed))
        return false;
      RestartTimes.clear();
    }
    std::vector<std::string> Args = ServeArgs;
    if (ListenValueIdx != SIZE_MAX && Node.port())
      Args[ListenValueIdx] = Host + ":" + std::to_string(Node.port());
    long Pid = Node.spawn(Args);
    if (Pid < 0) {
      std::fprintf(stderr, "jslice_watchdog: fork failed\n");
      return false;
    }
    RestartTimes.push_back(steadyMs());
    Node.log().setLeader(Pid);
    L.DirectChild = Pid;
    L.Pid = Pid;
    std::fprintf(stderr, "jslice_watchdog: started pid %ld\n", Pid);
    return true;
  };

  if (!respawn())
    return 2;

  unsigned ConsecutiveFailures = 0;
  uint64_t NextProbeAt = steadyMs() + Opts.HealthIntervalMs;

  // Failover mode: the leader is not restarted — whatever is left of
  // it is killed (no split-brain window), the standby is promoted, and
  // the watchdog's job is done. The promotion is retried briefly: a
  // standby mid-reconnect still answers {"promote"} on the next try.
  auto failOver = [&](const char *Why) -> int {
    std::fprintf(stderr,
                 "jslice_watchdog: %s; failing over to standby %s:%u\n",
                 Why, Opts.StandbyHost.c_str(), Opts.StandbyPort);
    Node.terminate(L.Pid, Opts.GraceMs);
    bool Promoted = false;
    for (int A = 0; A < 10 && !Promoted; ++A) {
      Promoted = promoteStandby(Opts.StandbyHost, Opts.StandbyPort);
      if (!Promoted)
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    if (Promoted) {
      std::fprintf(stderr,
                   "jslice_watchdog: standby %s:%u promoted; failover "
                   "complete\n",
                   Opts.StandbyHost.c_str(), Opts.StandbyPort);
      return 0;
    }
    std::fprintf(stderr,
                 "jslice_watchdog: standby %s:%u could not be promoted; "
                 "service is down\n",
                 Opts.StandbyHost.c_str(), Opts.StandbyPort);
    return 1;
  };

  while (!ShutdownRequested.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    // A successor that declared readiness is the new leader.
    long Ready = Node.leader();
    if (Ready > 0 && Ready != L.Pid) {
      std::fprintf(stderr, "jslice_watchdog: now watching leader pid %ld\n",
                   Ready);
      L.Pid = Ready;
    }

    if (UpgradeRequested.exchange(false, std::memory_order_relaxed) &&
        L.Pid > 0)
      ::kill(static_cast<pid_t>(L.Pid), SIGUSR2);

    // Direct-child exit: a handoff leaves a live successor behind (not
    // a death); anything else is a crash to respawn from.
    bool LeaderDied = false;
    if (L.DirectChild > 0) {
      if (std::optional<int> Status = Node.reap(L.DirectChild)) {
        L.Pid = Node.leader();
        if (L.Pid != L.DirectChild && !Node.gone(L.Pid)) {
          std::fprintf(stderr,
                       "jslice_watchdog: pid %ld handed off to pid %ld\n",
                       L.DirectChild, L.Pid);
          L.DirectChild = -1; // Successor is not our child; watch by pid.
        } else {
          std::fprintf(stderr,
                       "jslice_watchdog: leader pid %ld died (%s)\n",
                       L.DirectChild, describeWaitStatus(*Status).c_str());
          LeaderDied = true;
        }
      }
    } else if (Node.gone(L.Pid)) {
      std::fprintf(stderr, "jslice_watchdog: leader pid %ld died\n", L.Pid);
      LeaderDied = true;
    }
    if (LeaderDied) {
      if (Opts.StandbyPort)
        return failOver("leader died");
      if (!respawn())
        break;
      ConsecutiveFailures = 0;
      NextProbeAt = steadyMs() + Opts.HealthIntervalMs;
      continue;
    }

    // Liveness probing: a wedged or unreachable leader gets a managed
    // restart after K consecutive failures.
    if (Node.port() && steadyMs() >= NextProbeAt) {
      NextProbeAt = steadyMs() + Opts.HealthIntervalMs;
      // Drain/breaker degradation is healthy: killing a leader
      // mid-upgrade would turn every upgrade into an outage.
      if (Node.healthy(Host)) {
        ConsecutiveFailures = 0;
      } else if (++ConsecutiveFailures >= Opts.HealthFailures) {
        if (Opts.StandbyPort)
          return failOver("health probe failed repeatedly");
        std::fprintf(stderr,
                     "jslice_watchdog: health probe failed %u times; "
                     "restarting leader pid %ld\n",
                     ConsecutiveFailures, L.Pid);
        Node.terminate(L.Pid, Opts.GraceMs);
        L.DirectChild = -1;
        L.Pid = -1;
        ConsecutiveFailures = 0;
        if (!respawn())
          break;
        NextProbeAt = steadyMs() + Opts.HealthIntervalMs;
      }
    }
  }

  // Shutdown: drain the leader.
  if (L.Pid > 0) {
    std::fprintf(stderr,
                 "jslice_watchdog: shutting down leader pid %ld\n", L.Pid);
    Node.terminate(L.Pid, Opts.GraceMs);
  }
  std::fprintf(stderr, "jslice_watchdog: shut down cleanly\n");
  return 0;
}

#else // !JSLICE_HAVE_POSIX_PROCESS

int main() {
  std::fprintf(stderr,
               "jslice_watchdog: process supervision unavailable on this "
               "platform\n");
  return 2;
}

#endif
