//===- service/Request.h - Slicing-service wire protocol -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON-Lines protocol jslice_serve speaks (DESIGN.md, "Serving
/// slices"). One request per line:
///
///   {"id": "r1", "program": "read(c);\nwrite(c);\n", "line": 2,
///    "vars": ["c"], "algorithm": "agrawal-fig7",
///    "budget_ms": 200, "max_steps": 500000}
///   {"cancel": "r1"}
///   {"stats": true}
///   {"health": true}
///   {"upgrade": true}
///   {"promote": true}
///   {"repl_subscribe": 0}
///   {"repl_ack": 42}
///
/// The last three belong to the replication/failover protocol
/// (DESIGN.md, "Replication & failover"): `promote` turns a warm
/// standby into the primary under a fresh fencing epoch;
/// `repl_subscribe` turns the connection into a journal-record stream
/// resuming past the given sequence; `repl_ack` reports the standby's
/// durable high-water mark. Slice requests may carry `"min_epoch"`: a
/// server whose epoch is lower sheds the request ("fenced").
///
/// and one JSON response line per request. Response `status` mirrors
/// the library's DiagKind taxonomy plus the service-level outcomes:
///
///   ok                 served (served_tier == requested, or a degraded
///                      tier — `degraded` and `attempts` tell which)
///   resource-exhausted DiagKind::ResourceExhausted on every rung of
///                      the degradation ladder — a deterministic
///                      refusal, with each rung's trip site recorded
///   error              DiagKind::Error — malformed program or a
///                      criterion that resolves to nothing; retrying is
///                      pointless
///   bad-request        the request line itself is not valid protocol
///   cancelled          a {"cancel": id} stopped it (queued or mid-run)
///   poisoned           matched a quarantined request from a previous
///                      crashed run (see Journal.h); `repro` names the
///                      dumped reproducer
///   crashed            process isolation only: the sandbox worker
///                      running this request died (`error` quotes the
///                      wait status) or hung past its deadline; the
///                      request is quarantined and `repro` names the
///                      reproducer
///   shed               overload control refused it without running:
///                      the admission queue was full, the queue
///                      deadline passed before a worker was free, the
///                      memory watermark tripped, the restart-storm
///                      circuit breaker was open, the server was
///                      draining for shutdown, or the write-ahead
///                      journal failed persistently under
///                      --journal-failure=shed|abort ("journal-failed"
///                      in the shed_by_cause stats breakdown), the
///                      server is an unpromoted standby ("standby"),
///                      or the request's min_epoch outranks the
///                      server's epoch ("fenced")
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_REQUEST_H
#define JSLICE_SERVICE_REQUEST_H

#include "service/Json.h"
#include "slicer/Slicers.h"

#include <string>
#include <string_view>
#include <vector>

namespace jslice {

/// What one parsed request line asks for.
enum class RequestKind {
  Slice,         ///< Analyze + slice one (program, criterion).
  Cancel,        ///< Cancel an earlier slice request by id.
  Stats,         ///< Full snapshot: counters, tier histogram, latencies.
  Health,        ///< Lock-free liveness/readiness probe (LB-friendly).
  Upgrade,       ///< Request a zero-downtime generation handoff.
  Promote,       ///< Promote a warm standby to primary (fenced by epoch).
  ReplSubscribe, ///< Standby: stream journal records from a sequence.
  ReplAck,       ///< Standby: records durable through this sequence.
};

/// One parsed request.
struct ServiceRequest {
  RequestKind Kind = RequestKind::Slice;

  std::string Id;      ///< Slice: caller's correlation id (required).
  std::string Program; ///< Slice: Mini-C source text.
  /// Slice: the program as the request line spelled it between its
  /// quotes, when that spelling is canonical — the bytes the JSON
  /// writer produces for Program — so the journal copies it instead of
  /// escaping Program again; empty otherwise. A view into the line
  /// parseRequestLine read: valid only while that line lives, and
  /// cleared before the request outlives it (Server::serveLine).
  std::string_view ProgramLiteral;
  unsigned Line = 0;   ///< Slice: criterion line (required).
  std::vector<std::string> Vars; ///< Slice: empty = vars used at line.
  SliceAlgorithm Algorithm = SliceAlgorithm::Agrawal;
  uint64_t BudgetMs = 0; ///< 0 = server default deadline.
  uint64_t MaxSteps = 0; ///< 0 = server default step budget.

  /// Slice: fencing token. A server whose replication epoch is below
  /// this sheds the request ("fenced") — how a client that has seen a
  /// promotion keeps a resurrected ex-primary from double-serving.
  uint64_t MinEpoch = 0;

  std::string CancelTarget; ///< Cancel: the id to stop.

  uint64_t ReplFromSeq = 0; ///< ReplSubscribe: resume past this seq.
  uint64_t AckSeq = 0;      ///< ReplAck: durable through this seq.

  /// Content key for poison matching: identical program + criterion +
  /// algorithm hash to the same key regardless of id, so a crashing
  /// request stays quarantined when resubmitted under a fresh id. The
  /// value is stable within one build only: keys are never persisted.
  std::string contentKey() const;

  /// The request as a protocol JSON object.
  JsonValue toJson() const;

  /// For a slice request: appends toJson()'s serialization to \p Out
  /// without building the tree, copying ProgramLiteral where it is set
  /// (journal begin records and sandbox frames are written through
  /// this; neither carries any other kind).
  void appendJson(std::string &Out) const;
};

/// Parses one request line. On failure the string is a human-readable
/// reason (the server wraps it in a bad-request response). A slice
/// request's ProgramLiteral views \p Line.
struct ParsedRequest {
  bool Ok = false;
  ServiceRequest Request;
  std::string Error;
  std::string Id; ///< Best-effort id even when !Ok, for the response.
};
ParsedRequest parseRequestLine(const std::string &Line);

/// Reconstructs a slice request from a journal "request" object,
/// moving its strings out of \p V. Returns false when required fields
/// are missing.
bool requestFromJson(JsonValue &&V, ServiceRequest &Out);

/// Response statuses, as wire strings.
enum class ResponseStatus {
  Ok,
  ResourceExhausted,
  Error,
  BadRequest,
  Cancelled,
  Poisoned,
  Crashed,
  Shed,
};
const char *responseStatusName(ResponseStatus S);

/// Inverse of responseStatusName (the supervisor passes worker
/// responses through as text; the server still needs the enum for its
/// counters). Nullopt on an unknown string.
std::optional<ResponseStatus> responseStatusByName(const std::string &Name);

/// One rung of the degradation ladder as reported to the caller.
struct TierReport {
  std::string Tier;
  std::string Outcome; ///< "served" | "resource-exhausted" | "skipped"
  std::string Detail;  ///< Trip site or skip reason.
};

/// One response line.
struct ServiceResponse {
  std::string Id;
  ResponseStatus Status = ResponseStatus::Ok;
  std::string Requested;  ///< Requested algorithm name (slices only).
  std::string ServedTier; ///< Algorithm actually served (when Ok).
  bool Degraded = false;
  bool FromCache = false; ///< Served from the analysis cache.
  bool Audited = false;   ///< Cache hit re-verified against a fresh run.
  LineList Lines; ///< The slice, as source lines (when Ok).
  std::vector<TierReport> Attempts;
  std::string Error;     ///< Diagnostics (error / refusal statuses).
  std::string ReproPath; ///< Poisoned: where the reproducer lives.
  double LatencyMs = -1; ///< < 0 = omitted.

  /// Serializes as one JSON line (no trailing newline).
  std::string str() const;
};

} // namespace jslice

#endif // JSLICE_SERVICE_REQUEST_H
