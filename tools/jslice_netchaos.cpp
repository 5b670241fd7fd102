//===- tools/jslice_netchaos.cpp - Network chaos proxy ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The standalone front end over net/ChaosProxy.h: sits between
/// clients and a `jslice_serve --listen` upstream and injects the
/// network failure modes the transport and client must survive —
/// delays, byte-level truncation, mid-response resets, stalled reads.
/// Faults are seeded, so a failing run is reproducible from its seed.
///
///   jslice_netchaos --listen HOST:PORT --upstream HOST:PORT
///                   [--reset-permille N] [--truncate-permille N]
///                   [--stall-permille N] [--delay-permille N]
///                   [--delay-ms N] [--stall-ms N] [--seed N]
///
/// Runs until SIGTERM/SIGINT, then prints fault counters on stderr and
/// exits 0. The bound port is reported as "listening on HOST:PORT" on
/// stderr (parsable, for --listen HOST:0).
///
//===----------------------------------------------------------------------===//

#include "net/ChaosProxy.h"
#include "net/Socket.h"
#include "support/StringUtils.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>

using namespace jslice;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: jslice_netchaos --listen HOST:PORT --upstream HOST:PORT\n"
      "                       [--reset-permille N] [--truncate-permille N]\n"
      "                       [--stall-permille N] [--delay-permille N]\n"
      "                       [--delay-ms N] [--stall-ms N] [--seed N]\n");
  return 2;
}

std::atomic<bool> StopRequested{false};

extern "C" void onStopSignal(int) {
  StopRequested.store(true, std::memory_order_relaxed);
}

} // namespace

int main(int argc, char **argv) {
  ChaosOptions Opts;
  std::string ListenSpec, UpstreamSpec;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> std::optional<std::string> {
      if (I + 1 >= argc)
        return std::nullopt;
      return std::string(argv[++I]);
    };

    if (Arg == "--listen" || Arg == "--upstream") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: %s requires an argument\n",
                     Arg.c_str());
        return usage();
      }
      if (Arg == "--listen")
        ListenSpec = *Value;
      else
        UpstreamSpec = *Value;
    } else if (Arg == "--reset-permille" || Arg == "--truncate-permille" ||
               Arg == "--stall-permille" || Arg == "--delay-permille" ||
               Arg == "--delay-ms" || Arg == "--stall-ms" ||
               Arg == "--seed") {
      std::optional<std::string> Value = NextValue();
      std::string V = Value.value_or("");
      bool Ok;
      if (Arg == "--reset-permille")
        Ok = parseCountInto(V, Opts.ResetPermille);
      else if (Arg == "--truncate-permille")
        Ok = parseCountInto(V, Opts.TruncatePermille);
      else if (Arg == "--stall-permille")
        Ok = parseCountInto(V, Opts.StallPermille);
      else if (Arg == "--delay-permille")
        Ok = parseCountInto(V, Opts.DelayPermille);
      else if (Arg == "--delay-ms")
        Ok = parseCountInto(V, Opts.DelayMs);
      else if (Arg == "--stall-ms")
        Ok = parseCountInto(V, Opts.StallMs);
      else
        Ok = parseCountInto(V, Opts.Seed);
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

  if (ListenSpec.empty() || UpstreamSpec.empty()) {
    std::fprintf(stderr, "error: need --listen and --upstream\n");
    return usage();
  }
  if (!parseHostPort(ListenSpec, Opts.ListenHost, Opts.ListenPort)) {
    std::fprintf(stderr, "error: --listen expects HOST:PORT, got '%s'\n",
                 ListenSpec.c_str());
    return usage();
  }
  if (!parseHostPort(UpstreamSpec, Opts.UpstreamHost, Opts.UpstreamPort) ||
      Opts.UpstreamPort == 0) {
    std::fprintf(stderr, "error: --upstream expects HOST:PORT, got '%s'\n",
                 UpstreamSpec.c_str());
    return usage();
  }

  ChaosProxy Proxy(Opts);
  std::string Err;
  if (!Proxy.start(Err)) {
    std::fprintf(stderr, "error: cannot start proxy: %s\n", Err.c_str());
    return usage();
  }

  std::signal(SIGTERM, onStopSignal);
  std::signal(SIGINT, onStopSignal);

  std::fprintf(stderr, "jslice_netchaos: listening on %s:%u -> %s\n",
               Opts.ListenHost.c_str(), Proxy.port(), UpstreamSpec.c_str());

  while (!StopRequested.load(std::memory_order_relaxed))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Proxy.stop();
  ChaosStats S = Proxy.stats();
  std::fprintf(stderr,
               "jslice_netchaos: %llu connections, %llu bytes; faults: "
               "%llu delays, %llu truncations, %llu resets, %llu stalls\n",
               static_cast<unsigned long long>(S.Connections),
               static_cast<unsigned long long>(S.BytesForwarded),
               static_cast<unsigned long long>(S.Delays),
               static_cast<unsigned long long>(S.Truncations),
               static_cast<unsigned long long>(S.Resets),
               static_cast<unsigned long long>(S.Stalls));
  return 0;
}
