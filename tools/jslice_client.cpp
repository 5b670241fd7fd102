//===- tools/jslice_client.cpp - Retrying slicing-service client ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The CLI over net/Client.h: sends JSON-Lines requests to a
/// `jslice_serve --listen` endpoint (directly or through
/// jslice_netchaos) and prints each response line on stdout. Transport
/// failures — refused connects, torn responses, resets, deadlines —
/// are retried on fresh connections with exponential backoff and
/// jitter; retried submission is safe because the server deduplicates
/// crashed requests by the journal's content key (see net/Client.h for
/// the full retry contract).
///
///   jslice_client --connect HOST:PORT --request LINE
///   jslice_client --connect HOST:PORT --stats
///   jslice_client --connect HOST:PORT --health
///   jslice_client --connect HOST:PORT --promote
///   jslice_client --connect HOST:PORT --input FILE   (- = stdin)
///
/// --connect may repeat: extra endpoints are failover targets, rotated
/// on any transport failure. Resubmitting after a failover is safe for
/// the same reason retrying is — the service dedups by content key and
/// slicing is a pure function of the request.
///
///   --request LINE    send one raw protocol line
///   --stats           send {"stats": true} and pretty-print the
///                     counters (server, cache, supervisor, transport)
///                     one per line; use --request '{"stats": true}'
///                     for the raw JSON line
///   --health          send {"health": true} and pretty-print the
///                     liveness answer (uptime, generation, shard
///                     heartbeats, breaker). LB-probe exit discipline:
///                     0 healthy, 1 degraded (draining, breaker open,
///                     or a wedged shard), 4 unreachable
///   --promote         send {"promote": true}: turn a warm standby
///                     into the primary (exit 0 on "ok"; promoting a
///                     server that is already primary is an ok no-op)
///   --input FILE      send every line of FILE in order ("-" = stdin)
///   --connect-timeout-ms N  per-connect deadline (default 5000)
///   --timeout-ms N    per-response deadline (default 30000)
///   --attempts N      total attempts per request (default 4)
///   --backoff-ms N    backoff base, doubling per attempt (default 50)
///   --backoff-cap-ms N  backoff ceiling (default 2000)
///   --retry-budget-ms N  total retry wall-clock per request; once
///                     spent, fail fast with exit 4 instead of
///                     sleeping through more backoff (default 30000;
///                     0 = unbounded, the old behavior)
///   --seed N          jitter PRNG seed (0 = per-process)
///
/// Exit taxonomy (machine-readable, mirrors slicer exit discipline):
///   0  every response ok at the requested tier
///   1  some response carried a deterministic non-ok status
///      (error / resource-exhausted / bad-request / shed / poisoned /
///      cancelled / crashed) — the refusal is the answer; retrying the
///      same request yields the same verdict
///   2  usage error
///   3  every response ok, but at least one served degraded
///   4  transport failure after all retries — the request's fate is
///      unknown to this client (the server may still have served it)
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Socket.h"
#include "service/Json.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

using namespace jslice;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: jslice_client --connect HOST:PORT [--connect HOST:PORT ...]\n"
      "                     (--request LINE | --stats | --health | "
      "--promote | --input FILE)\n"
      "                     [--connect-timeout-ms N] [--timeout-ms N]\n"
      "                     [--attempts N] [--backoff-ms N]\n"
      "                     [--backoff-cap-ms N] [--retry-budget-ms N] "
      "[--seed N]\n");
  return 2;
}

/// Severity of one response for the exit taxonomy.
enum class Verdict { Ok, Degraded, Refused, Transport };

Verdict classify(const ClientResult &R) {
  if (!R.Ok)
    return Verdict::Transport;
  // The response is one JSON line from Request.h's taxonomy; key
  // matching is enough (ids and programs are JSON-escaped strings, so
  // a literal `"status":"ok"` cannot appear inside them).
  if (R.Response.find("\"status\":\"ok\"") == std::string::npos)
    return Verdict::Refused;
  if (R.Response.find("\"degraded\":true") != std::string::npos)
    return Verdict::Degraded;
  return Verdict::Ok;
}

/// Recursive "key: value" renderer for the {"stats"} reply. Byte
/// counters get a MiB gloss so watermark headroom is readable at a
/// glance.
void printStatsValue(const std::string &Name, const JsonValue &V,
                     unsigned Indent) {
  std::string Pad(Indent, ' ');
  if (V.isObject()) {
    std::printf("%s%s:\n", Pad.c_str(), Name.c_str());
    for (const auto &[Key, Member] : V.members())
      printStatsValue(Key, Member, Indent + 2);
    return;
  }
  if (V.isNumber() && Name.size() > 6 &&
      Name.compare(Name.size() - 6, 6, "_bytes") == 0) {
    std::printf("%s%s: %lld (%.1f MiB)\n", Pad.c_str(), Name.c_str(),
                static_cast<long long>(V.asInt()),
                static_cast<double>(V.asInt()) / (1024.0 * 1024.0));
    return;
  }
  std::printf("%s%s: %s\n", Pad.c_str(), Name.c_str(), V.str().c_str());
}

/// Pretty-prints one stats response line; false when it does not look
/// like one (caller falls back to the raw line).
bool printStatsPretty(const std::string &Line) {
  std::optional<JsonValue> V = JsonValue::parse(Line);
  if (!V || !V->isObject())
    return false;
  const JsonValue *S = V->find("stats");
  if (!S || !S->isObject())
    return false;
  for (const auto &[Key, Member] : S->members())
    printStatsValue(Key, Member, 0);
  return true;
}

/// Pretty-prints one health response line (the response *is* the
/// health object — no wrapper key); false when it does not look like
/// one.
bool printHealthPretty(const std::string &Line) {
  std::optional<JsonValue> V = JsonValue::parse(Line);
  if (!V || !V->isObject() || !V->find("status"))
    return false;
  for (const auto &[Key, Member] : V->members())
    printStatsValue(Key, Member, 0);
  return true;
}

} // namespace

int main(int argc, char **argv) {
  ClientOptions Opts;
  Opts.RetryBudgetMs = 30000; // Bounded by default; 0 restores legacy.
  std::vector<std::string> Connects;
  std::string RequestLine, InputPath;
  bool HaveRequest = false, WantStats = false, WantHealth = false;
  bool WantPromote = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> std::optional<std::string> {
      if (I + 1 >= argc)
        return std::nullopt;
      return std::string(argv[++I]);
    };

    if (Arg == "--stats") {
      WantStats = true;
    } else if (Arg == "--health") {
      WantHealth = true;
    } else if (Arg == "--promote") {
      WantPromote = true;
    } else if (Arg == "--connect" || Arg == "--request" ||
               Arg == "--input") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: %s requires an argument\n",
                     Arg.c_str());
        return usage();
      }
      if (Arg == "--connect")
        Connects.push_back(*Value);
      else if (Arg == "--request") {
        RequestLine = *Value;
        HaveRequest = true;
      } else
        InputPath = *Value;
    } else if (Arg == "--connect-timeout-ms" || Arg == "--timeout-ms" ||
               Arg == "--attempts" || Arg == "--backoff-ms" ||
               Arg == "--backoff-cap-ms" || Arg == "--retry-budget-ms" ||
               Arg == "--seed") {
      std::optional<std::string> Value = NextValue();
      std::string V = Value.value_or("");
      bool Ok;
      if (Arg == "--connect-timeout-ms")
        Ok = parseCountInto(V, Opts.ConnectTimeoutMs);
      else if (Arg == "--timeout-ms")
        Ok = parseCountInto(V, Opts.ResponseTimeoutMs);
      else if (Arg == "--attempts")
        Ok = parseCountInto(V, Opts.MaxAttempts);
      else if (Arg == "--backoff-ms")
        Ok = parseCountInto(V, Opts.BackoffBaseMs);
      else if (Arg == "--backoff-cap-ms")
        Ok = parseCountInto(V, Opts.BackoffCapMs);
      else if (Arg == "--retry-budget-ms")
        Ok = parseCountInto(V, Opts.RetryBudgetMs);
      else
        Ok = parseCountInto(V, Opts.JitterSeed);
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

  if (Connects.empty() ||
      (HaveRequest + WantStats + WantHealth + WantPromote +
       !InputPath.empty()) != 1) {
    std::fprintf(stderr, "error: need --connect and exactly one of "
                         "--request / --stats / --health / --promote / "
                         "--input\n");
    return usage();
  }
  for (const std::string &Spec : Connects) {
    std::string Host;
    uint16_t Port = 0;
    if (!parseHostPort(Spec, Host, Port) || Port == 0) {
      std::fprintf(stderr, "error: --connect expects HOST:PORT, got '%s'\n",
                   Spec.c_str());
      return usage();
    }
  }
  parseHostPort(Connects.front(), Opts.Host, Opts.Port);
  if (Connects.size() > 1)
    Opts.Endpoints = Connects;
  if (WantStats)
    RequestLine = "{\"stats\": true}";
  if (WantHealth)
    RequestLine = "{\"health\": true}";
  if (WantPromote)
    RequestLine = "{\"promote\": true}";

  ClientConnection Conn(Opts);

  // Aggregate across lines: transport loss dominates (the caller
  // cannot trust anything after it), then deterministic refusals,
  // then degradation.
  bool SawTransport = false, SawRefused = false, SawDegraded = false;

  auto sendOne = [&](const std::string &Line) {
    if (Line.empty() ||
        Line.find_first_not_of(" \t\r") == std::string::npos)
      return;
    ClientResult R = Conn.request(Line);
    switch (classify(R)) {
    case Verdict::Transport:
      SawTransport = true;
      std::fprintf(stderr, "jslice_client: transport failure after %u "
                           "attempt%s: %s\n",
                   R.Attempts, R.Attempts == 1 ? "" : "s",
                   R.TransportError.c_str());
      return;
    case Verdict::Refused:
      SawRefused = true;
      break;
    case Verdict::Degraded:
      SawDegraded = true;
      break;
    case Verdict::Ok:
      break;
    }
    if (WantStats && printStatsPretty(R.Response))
      return;
    if (WantHealth && printHealthPretty(R.Response))
      return;
    std::cout << R.Response << "\n";
  };

  if (!InputPath.empty()) {
    std::ifstream File;
    std::istream *In = &std::cin;
    if (InputPath != "-") {
      File.open(InputPath);
      if (!File) {
        std::fprintf(stderr, "error: cannot open %s\n", InputPath.c_str());
        return usage();
      }
      In = &File;
    }
    std::string Line;
    while (std::getline(*In, Line))
      sendOne(Line);
  } else {
    sendOne(RequestLine);
  }

  if (SawTransport)
    return 4;
  // Health probes collapse the taxonomy for load balancers: anything
  // short of a clean "ok" answer is 1, reachable-but-degraded.
  if (WantHealth)
    return SawRefused || SawDegraded ? 1 : 0;
  if (SawRefused)
    return 1;
  if (SawDegraded)
    return 3;
  return 0;
}
