//===- service/SandboxWorker.cpp - Sandbox worker request loop -------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/SandboxWorker.h"

#include "lang/Parser.h"
#include "service/Ipc.h"
#include "slicer/Criterion.h"

#include <unistd.h>

using namespace jslice;

namespace {

/// Serves \p R from a cached artifact under the request's own budget.
/// Nullopt sends the caller to the full ladder: an unresolvable
/// criterion (the ladder produces the canonical diagnostic), an
/// algorithm without a cache-backed path, or a guard trip mid-walk
/// (the ladder's fresh rung guards then give budget-parity with the
/// cache-less server — a partial cached walk is never served).
std::optional<ServiceResponse> serveFromArtifact(const ServiceRequest &R,
                                                 const AnalysisArtifact &Art,
                                                 const Budget &B) {
  ResourceGuard G(B);
  if (!G.checkpoint("cache.hit"))
    return std::nullopt;
  ErrorOr<ResolvedCriterion> RC =
      resolveCriterion(Art.A, Criterion(R.Line, R.Vars));
  if (!RC)
    return std::nullopt;
  std::optional<SliceResult> S = Art.BS.sliceShared(*RC, R.Algorithm, G);
  if (!S || G.exhausted())
    return std::nullopt;

  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.Requested = algorithmName(R.Algorithm);
  Resp.Status = ResponseStatus::Ok;
  Resp.ServedTier = Resp.Requested;
  Resp.Degraded = false;
  Resp.FromCache = true;
  Resp.Lines = S->lineSet(Art.A.cfg());
  TierReport T;
  T.Tier = Resp.ServedTier;
  T.Outcome = "served";
  T.Detail = "analysis-cache";
  Resp.Attempts.push_back(std::move(T));
  return Resp;
}

/// Self-audit: re-derives the slice from source under a fresh guard
/// and diffs the line sets. True = match, false = mismatch (cached
/// artifact is wrong; \p FreshLines holds the trusted result), nullopt
/// = inconclusive (budget tripped or the fresh pipeline failed) — an
/// inconclusive audit must not invalidate.
std::optional<bool> auditHit(const ServiceRequest &R, const Budget &B,
                             const LineList &CachedLines,
                             LineList &FreshLines) {
  {
    ResourceGuard Probe(B);
    if (!Probe.checkpoint("cache.audit"))
      return std::nullopt;
  }
  ErrorOr<Analysis> A = Analysis::fromSource(R.Program, B);
  if (!A)
    return std::nullopt;
  ErrorOr<ResolvedCriterion> RC =
      resolveCriterion(*A, Criterion(R.Line, R.Vars));
  if (!RC)
    return std::nullopt;
  SliceResult S = computeSlice(*A, *RC, R.Algorithm);
  if (A->guard().exhausted())
    return std::nullopt;
  FreshLines = S.lineSet(A->cfg());
  return FreshLines == CachedLines;
}

/// The request's budget: the configured defaults, with the request's
/// budget_ms / max_steps overriding those dimensions.
Budget requestBudget(const ServiceRequest &R, const ExecConfig &Cfg,
                     const std::atomic<bool> *Cancel) {
  Budget B = Cfg.DefaultBudget;
  if (R.BudgetMs)
    B.DeadlineMs = R.BudgetMs;
  if (R.MaxSteps)
    B.MaxSteps = R.MaxSteps;
  B.Cancel = Cancel;
  return B;
}

} // namespace

std::optional<ServiceResponse>
jslice::serveReadyHit(const ServiceRequest &R, const ExecConfig &Cfg,
                      const std::atomic<bool> *Cancel, AnalysisCache &Cache,
                      CacheAdmission &Adm) {
  Budget B = requestBudget(R, Cfg, Cancel);
  {
    ResourceGuard KeyG(B);
    Adm.Probe = Cache.probe(Adm.RawKey, R.Algorithm, KeyG);
  }
  if (Adm.Probe.Tripped) {
    Adm.SkipCache = true;
    return std::nullopt;
  }
  if (!Adm.Probe.Hit || Adm.Probe.Audit)
    return std::nullopt;
  if (std::optional<ServiceResponse> Hit =
          serveFromArtifact(R, *Adm.Probe.Hit, B))
    return Hit;
  Adm.Probe.Hit.reset();
  Adm.SkipCache = true;
  return std::nullopt;
}

ServiceResponse jslice::executeSliceRequest(const ServiceRequest &R,
                                            const ExecConfig &Cfg,
                                            const std::atomic<bool> *Cancel,
                                            uint64_t *RungTrips,
                                            AnalysisCache *Cache,
                                            const CacheAdmission *Adm) {
  ServiceResponse Resp;
  Resp.Id = R.Id;
  Resp.Requested = algorithmName(R.Algorithm);

  Budget B = requestBudget(R, Cfg, Cancel);

  // Cache front half: key, lookup, hit, or become the leader.
  // A raw-key memo miss parses here, once: the tree is keyed and then
  // handed to the ladder as an Analysis whose parse stage is built.
  // What an admission probe already learned is not asked again.
  std::string LeaderKey;
  std::optional<Analysis> Parsed;
  if (Cache && Cache->options().Enabled &&
      R.Algorithm != SliceAlgorithm::Weiser && !(Adm && Adm->SkipCache)) {
    // An audited probed hit was charged, counted and sampled by the
    // probe; only its key is needed here.
    bool Probed = Adm && Adm->Probe.Hit;
    std::string OwnRawK;
    const std::string &RawK =
        Adm ? Adm->RawKey : (OwnRawK = rawProgramKey(R.Program));
    std::optional<std::string> Key;
    bool Memoized = false;
    if (Probed) {
      Key = Adm->Probe.Key;
    } else {
      ResourceGuard KeyG(B);
      Key = Cache->canonicalKeyFor(RawK);
      Memoized = Key.has_value();
      if (!Key && KeyG.checkpoint("cache.key")) {
        ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(R.Program, KeyG);
        if (Prog && !KeyG.exhausted()) {
          Key = canonicalProgramKey(**Prog);
          Parsed.emplace(std::move(*Prog));
        }
      }
      if (Key && !KeyG.checkpoint("cache.lookup"))
        Key.reset();
    }
    if (Key) {
      AnalysisCache::LookupResult L;
      if (Probed) {
        L = {AnalysisCache::Outcome::Hit, Adm->Probe.Hit, Adm->Probe.Audit};
      } else {
        // Coalesced waits are bounded by the request's own deadline.
        auto Deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(B.DeadlineMs ? B.DeadlineMs : 1000);
        L = Cache->lookup(*Key, Deadline);
        // Memoize only programs the cache holds or is about to: a
        // declined one-shot would push the repeated programs out.
        if (!Memoized && L.K != AnalysisCache::Outcome::Bypass)
          Cache->rememberCanonicalKey(RawK, *Key);
      }
      switch (L.K) {
      case AnalysisCache::Outcome::Hit: {
        std::optional<ServiceResponse> Hit = serveFromArtifact(R, *L.Artifact, B);
        if (Hit) {
          if (L.Audit) {
            Hit->Audited = true;
            LineList Fresh;
            std::optional<bool> Same = auditHit(R, B, Hit->Lines, Fresh);
            if (Same && !*Same) {
              // The fresh pipeline is ground truth: drop the entry and
              // serve the recomputed slice.
              Cache->auditMismatch(*Key);
              Hit->Lines = std::move(Fresh);
            }
          }
          return std::move(*Hit);
        }
        break; // Hit unusable under this budget: plain ladder.
      }
      case AnalysisCache::Outcome::MustBuild:
        LeaderKey = *Key;
        break;
      case AnalysisCache::Outcome::Bypass:
        break;
      }
    }
  }

  LadderOptions L = Cfg.Ladder;
  L.B = B;
  LadderResult Res =
      runLadder(Parsed ? std::move(*Parsed) : Analysis(R.Program),
                Criterion(R.Line, R.Vars), R.Algorithm, L);

  for (const LadderAttempt &A : Res.Attempts) {
    TierReport T;
    T.Tier = algorithmName(A.Tier);
    T.Outcome = A.Served ? "served"
               : A.Skipped ? "skipped"
                           : "resource-exhausted";
    T.Detail = A.Served ? "" : (A.Skipped ? A.SkipReason : A.Trip);
    if (!A.Served && !A.Skipped && RungTrips)
      ++*RungTrips;
    Resp.Attempts.push_back(std::move(T));
  }

  if (Res.Ok) {
    Resp.Status = ResponseStatus::Ok;
    Resp.ServedTier = algorithmName(Res.Served);
    Resp.Degraded = Res.Degraded;
    Resp.Lines = std::move(Res.Lines);
  } else if (Cancel && Cancel->load(std::memory_order_relaxed)) {
    Resp.Status = ResponseStatus::Cancelled;
    Resp.Error = "cancelled";
  } else if (Res.Diags.hasKind(DiagKind::ResourceExhausted)) {
    Resp.Status = ResponseStatus::ResourceExhausted;
    Resp.Error = Res.Diags.str();
  } else {
    Resp.Status = ResponseStatus::Error;
    Resp.Error = Res.Diags.str();
  }

  // Cache back half: the leader must resolve its slot — publish a
  // usable artifact, or report failure so exactly one waiting follower
  // is promoted.
  if (!LeaderKey.empty()) {
    bool Published = false;
    if (Res.Ok && Res.A) {
      // Published without closure caches: the first hit builds them
      // under its own guard (BatchSlicer::sliceShared).
      auto Art = std::make_shared<AnalysisArtifact>(std::move(*Res.A));
      if (Art->A.guard().checkpoint("cache.insert")) {
        Art->CostBytes = estimateArtifactCost(*Art, R.Program);
        Cache->publish(LeaderKey, std::move(Art));
        Published = true;
      }
    }
    if (!Published)
      Cache->buildFailed(LeaderKey);
  }
  return Resp;
}

int jslice::sandboxWorkerMain(int InFd, int OutFd, const ExecConfig &Cfg) {
  // Process mode: each (single-threaded) worker owns its own cache, so
  // a crash takes the cache down with the worker — nothing poisoned
  // survives into the replacement fork. Counters ride each response
  // frame as worker_cache/worker_pid; the server strips and aggregates
  // them before the frame reaches the client.
  std::optional<AnalysisCache> Cache;
  if (Cfg.Cache.Enabled)
    Cache.emplace(Cfg.Cache);

  std::string Payload;
  for (;;) {
    FrameReadStatus S = readFrame(InFd, Payload, /*TimeoutMs=*/-1);
    if (S == FrameReadStatus::Eof)
      return 0; // The supervisor closed the channel: clean retirement.
    if (S != FrameReadStatus::Ok)
      return 1;

    ServiceResponse Resp;
    std::optional<JsonValue> V = JsonValue::parse(Payload);
    ServiceRequest R;
    if (V && requestFromJson(std::move(*V), R)) {
      Resp = executeSliceRequest(R, Cfg, /*Cancel=*/nullptr,
                                 /*RungTrips=*/nullptr,
                                 Cache ? &*Cache : nullptr);
    } else {
      // The supervisor only ships requests it already parsed, so this
      // is a framing bug, not client garbage — still answer rather
      // than die, so the bug surfaces as an error response upstream.
      Resp.Status = ResponseStatus::Error;
      Resp.Error = "sandbox worker: unparseable request frame";
    }
    std::string Out = Resp.str();
    if (Cache) {
      if (std::optional<JsonValue> Frame = JsonValue::parse(Out)) {
        Frame->set("worker_cache", Cache->stats().toJson());
        Frame->set("worker_pid", static_cast<int64_t>(getpid()));
        Out = Frame->str();
      }
    }
    if (!writeFrame(OutFd, Out))
      return 1; // Supervisor went away mid-response.
  }
}
