//===- net/Client.h - Retrying JSON-Lines client ---------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the TCP transport: one connection, strict
/// request/response (one line out, one line back), with timeouts on
/// every blocking step and bounded retries over fresh connections.
///
/// The retry contract (DESIGN.md, "TCP transport & fault containment"):
/// a transport failure — connect refused, send error, torn or absent
/// response, response deadline — closes the connection, backs off
/// (exponential with jitter, bounded), reconnects, and resubmits the
/// *same line*. Resubmission is safe for slice requests because the
/// server deduplicates by the journal's content key: a request that
/// crashed the service before answering is quarantined, and the
/// resubmission draws a deterministic `poisoned` verdict instead of
/// crashing the service twice. A request that *completed* before the
/// response was torn re-runs from scratch — slicing is a pure function
/// of the request, so the client observes the same terminal status
/// (the one duplicate-side-effect-free case a stateless resubmit
/// needs). A `bad-request` naming an id already in flight is also
/// retried, since it means the first submission is still being served.
///
/// Responses are never interleaved across retries: every retry starts
/// on a fresh connection, so a late response to a previous attempt can
/// only land on a socket this client has already closed.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_NET_CLIENT_H
#define JSLICE_NET_CLIENT_H

#include "support/LineFramer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace jslice {

struct ClientOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0;

  /// Failover set: "host:port" endpoints tried in order. When
  /// non-empty this overrides Host/Port; a transport failure rotates
  /// to the next endpoint before the retry reconnects, so a request
  /// that dies with the primary is resubmitted to the standby.
  /// Resubmission across endpoints is idempotent for the same reason
  /// same-endpoint retries are: the server dedups crashed work by the
  /// journal's content key, and slicing is a pure function of the
  /// request (DESIGN.md, "Replication & failover").
  std::vector<std::string> Endpoints;

  int ConnectTimeoutMs = 5000;
  /// Deadline for the full response line, measured from the moment the
  /// request was sent.
  int ResponseTimeoutMs = 30000;

  /// Total attempts per request (1 = never retry).
  unsigned MaxAttempts = 4;
  /// Exponential backoff between attempts: min(Cap, Base << (n-1))
  /// plus up to half that again in jitter.
  uint64_t BackoffBaseMs = 50;
  uint64_t BackoffCapMs = 2000;
  /// Total retry wall-clock budget per request() call, in
  /// milliseconds: once elapsed time crosses it no further attempt
  /// starts and the sleep before a retry is clipped to what remains.
  /// A dead endpoint then costs a bounded, deterministic failure
  /// instead of the full backoff ladder. 0 = unbounded (the historical
  /// behavior).
  uint64_t RetryBudgetMs = 0;
  /// Seed for the jitter PRNG; 0 = derived from this object's address
  /// (distinct across concurrent clients, which is all jitter needs).
  uint64_t JitterSeed = 0;
};

/// The outcome of one request after all retries.
struct ClientResult {
  bool Ok = false;          ///< A complete response line arrived.
  std::string Response;     ///< The line (without newline) when Ok.
  std::string TransportError; ///< Last failure when !Ok.
  unsigned Attempts = 0;    ///< Connections consumed (1 = first try).
};

/// One logical connection to a jslice_serve --listen endpoint.
/// Reconnects under the hood; not thread-safe (one request in flight).
class ClientConnection {
public:
  explicit ClientConnection(const ClientOptions &Opts);
  ~ClientConnection();

  ClientConnection(const ClientConnection &) = delete;
  ClientConnection &operator=(const ClientConnection &) = delete;

  /// Sends \p Line (newline appended) and waits for one response line,
  /// retrying over fresh connections per the options.
  ClientResult request(const std::string &Line);

  /// Like request() but never retries and tolerates no response (used
  /// for fire-and-forget control lines during shutdown races).
  ClientResult requestOnce(const std::string &Line);

  /// Drops the current connection (next request reconnects).
  void disconnect();

  /// Total reconnects performed across the connection's lifetime.
  uint64_t reconnects() const { return Reconnects; }

  /// Endpoint failovers performed (rotations through Opts.Endpoints).
  uint64_t failovers() const { return Failovers; }

  /// The "host:port" the next attempt will connect to.
  std::string currentEndpoint() const;

  /// True when the last request() stopped because RetryBudgetMs ran
  /// out rather than because attempts were exhausted.
  bool budgetExhausted() const { return BudgetExhausted; }

private:
  bool ensureConnected(std::string &Err);
  /// One attempt: send + read one line. False = transport failure (the
  /// connection is closed on the way out).
  bool attempt(const std::string &Line, std::string &Response,
               std::string &Err);
  void backoff(unsigned Attempt, uint64_t MaxSleepMs);
  void rotateEndpoint();

  ClientOptions Opts;
  int Fd = -1;
  LineFramer In; ///< Responses; uncapped, the server is trusted.
  bool EverConnected = false;
  uint64_t Reconnects = 0;
  uint64_t Failovers = 0;
  size_t EndpointIdx = 0; ///< Index into Opts.Endpoints (when set).
  bool BudgetExhausted = false;
  uint64_t JitterState;
};

/// True when \p Response is a bad-request naming an id already in
/// flight — the one *protocol-level* response the retry loop treats as
/// transient (the original submission is still being served; back off
/// and resubmit to collect its verdict).
bool isRetriableInFlight(const std::string &Response);

} // namespace jslice

#endif // JSLICE_NET_CLIENT_H
