//===- service/SandboxWorker.h - Sandbox worker request loop ---------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one sandbox worker does, and the one function both isolation
/// modes share. executeSliceRequest() is the full per-request slicing
/// path — budget assembly, the precision-degradation ladder, the
/// attempts report — exactly as the threaded server has always run it;
/// Server calls it in-process in thread mode, and sandboxWorkerMain()
/// calls it inside a forked child in process mode, so the two modes
/// cannot drift apart: a request is served bit-identically either way,
/// the only difference being which process the pointer-chasing happens
/// in.
///
/// The worker loop itself is deliberately dumb: read one framed
/// request (service/Ipc.h), execute, write one framed response, loop
/// until EOF. No state survives a request, so a worker that crashes
/// can be replaced by a fresh fork with nothing to reconstruct — the
/// supervisor's whole recovery story is "respawn and move on".
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_SANDBOXWORKER_H
#define JSLICE_SERVICE_SANDBOXWORKER_H

#include "service/AnalysisCache.h"
#include "service/Ladder.h"
#include "service/Request.h"

#include <atomic>
#include <optional>

namespace jslice {

/// The per-request execution configuration both isolation modes share.
struct ExecConfig {
  /// Defaults; a request's budget_ms / max_steps override dimensions.
  Budget DefaultBudget;

  /// Ladder behaviour (rung-1 budget inside is rebuilt per request).
  LadderOptions Ladder;

  /// Analysis-cache knobs. Thread mode shares one instance across the
  /// pool (Server owns it); process mode builds one per worker from
  /// this config inside sandboxWorkerMain.
  CacheOptions Cache;
};

/// What the server's admission probe (AnalysisCache::probe) learned
/// about a request's cache entry, carried to the pool in thread mode so
/// executeSliceRequest neither hashes the program again nor repeats a
/// lookup the probe already counted.
struct CacheAdmission {
  /// rawProgramKey(R.Program), hashed once at admission.
  std::string RawKey;
  /// The probe's answer for RawKey. A Hit here is one the reading
  /// thread did not serve because the sampler picked it for an audit.
  AnalysisCache::ProbeResult Probe;
  /// The pool serves through the plain ladder, cache untouched: the
  /// guard tripped at the probe's cache.lookup checkpoint (nothing
  /// counted), or the probe's counted hit was unusable on the reading
  /// thread (a guard trip, or a criterion that does not resolve).
  bool SkipCache = false;
};

/// Thread mode's admission front: probes \p Cache for \p Adm.RawKey
/// under the request's own budget and, for a ready hit the sampler did
/// not pick, serves it through the same code as a pool-side hit.
/// Parses, waits and builds nothing, so it may run on a transport
/// thread. Nullopt leaves in \p Adm what the pool needs to serve the
/// request.
std::optional<ServiceResponse> serveReadyHit(const ServiceRequest &R,
                                             const ExecConfig &Cfg,
                                             const std::atomic<bool> *Cancel,
                                             AnalysisCache &Cache,
                                             CacheAdmission &Adm);

/// Runs one slice request through the degradation ladder and renders
/// the response (status, served tier, lines, attempts; LatencyMs is
/// left for the caller, who owns the clock that matters to it).
/// \p Cancel, when non-null, is polled by the guard; \p RungTrips,
/// when non-null, receives how many ladder rungs tripped a budget.
///
/// \p Cache, when non-null and enabled, short-circuits the pipeline:
/// the canonical program key is resolved, a ready artifact serves the
/// slice under the request's own budget (FromCache, optionally
/// Audited), and a miss makes this request the single-flight build
/// leader — it runs the ladder as usual and publishes the serving
/// rung's analysis (or reports buildFailed, promoting one waiting
/// follower). A raw-key
/// memo miss parses once, for the key, and the ladder's first rung
/// analyzes that tree. Every cache deviation — unparseable program,
/// tripped guard, a first hit's closure build tripping, coalesce
/// timeout — falls back to the plain ladder, so responses
/// differ from the cache-less path only by the `cached`/`audited`
/// markers, never by content. \p Adm, when non-null, is the admission
/// probe's answer for \p R in \p Cache: its raw key stands in for
/// hashing the program, and an audited hit it carries for the lookup.
ServiceResponse executeSliceRequest(const ServiceRequest &R,
                                    const ExecConfig &Cfg,
                                    const std::atomic<bool> *Cancel,
                                    uint64_t *RungTrips,
                                    AnalysisCache *Cache = nullptr,
                                    const CacheAdmission *Adm = nullptr);

/// The sandbox child's main loop: framed requests in on \p InFd,
/// framed responses out on \p OutFd, until EOF on \p InFd. Returns the
/// child's exit code (0 on clean EOF shutdown). The caller must leave
/// the process via _exit() — the child shares the parent's stdio
/// buffers and must not flush them on the way out.
int sandboxWorkerMain(int InFd, int OutFd, const ExecConfig &Cfg);

} // namespace jslice

#endif // JSLICE_SERVICE_SANDBOXWORKER_H
