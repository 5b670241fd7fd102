//===- perfbench/layers.cpp - Traced per-layer replay ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers, measured from outside the
/// program: a fixed prefix of the workload's request stream is replayed
/// in-process through each layer's public functions, in the order the
/// server runs them —
///
///   parseRequestLine → Journal::begin → rawProgramKey →
///   canonicalProgramKey (raw-key memo miss only) → executeSliceRequest
///   (with an in-process AnalysisCache) → ServiceResponse::str →
///   Journal::end
///
/// — and, for every request the cache misses, the cold pipeline stage
/// by stage: parseProgram → Cfg::build → buildLexicalSuccessorTree →
/// computePostDominators → DefUse::build → ReachingDefinitions::compute
/// → buildControlDependence / buildDataDependence → augmented graph +
/// PDT + CD, then Analysis::fromSource whole (the gap to the stage sum
/// is what a lazier analysis would remove), computeSlice, BatchSlicer
/// and runLadder. Each request then goes once more through an
/// in-process Server::serveLine, timed to its sink callback. A request
/// the cache missed is re-issued once as a hit probe, so the hit path is
/// measured on every workload.
///
/// Times are p50 per call. Counts (*_steps, nodes, edges, sccs) are
/// deterministic: ResourceGuard deltas or structure sizes, reported as
/// means per call. The replay runs twice from fresh state and the two
/// count sequences must be identical; their digest is returned so runs
/// on the same seed can be compared too.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "cfg/LexicalSuccessorTree.h"
#include "dataflow/DefUse.h"
#include "dataflow/ReachingDefinitions.h"
#include "graph/Dominators.h"
#include "lang/Parser.h"
#include "pdg/ControlDependence.h"
#include "service/AnalysisCache.h"
#include "service/Journal.h"
#include "service/Ladder.h"
#include "service/Request.h"
#include "service/SandboxWorker.h"
#include "service/Server.h"
#include "slicer/BatchSlicer.h"

#include <condition_variable>
#include <filesystem>
#include <memory>
#include <ostream>
#include <streambuf>

using namespace jslice;
using namespace perfbench;

namespace {

/// Replay prefix lengths: enough calls for stable per-call medians.
size_t replayLength(const Workload &W) {
  switch (W.Kind) {
  case WorkloadKind::ColdUnique:
    return 150;
  case WorkloadKind::ZipfHot:
    return 3000;
  case WorkloadKind::BatchLarge:
    return 64;
  }
  return 0;
}

constexpr uint64_t ReplayIdBase = uint64_t(1) << 41;

class NullBuf : public std::streambuf {
protected:
  int overflow(int C) override { return C == EOF ? 0 : C; }
  std::streamsize xsputn(const char *, std::streamsize N) override { return N; }
};

/// Per-name samples: times (p50 reported) and counts (mean reported).
struct Samples {
  std::map<std::string, std::vector<double>> Times;
  std::map<std::string, std::vector<double>> Counts;
  std::vector<uint64_t> CountSeq; ///< Every count, in replay order.
};

/// Times one call, records its sample and span.
template <typename F>
auto timed(Samples &S, SpanLog &Spans, uint64_t Id, const char *Name,
           double Scale, F &&Fn) {
  Clock::time_point T0 = Clock::now();
  auto R = Fn();
  Clock::time_point T1 = Clock::now();
  S.Times[Name].push_back(msBetween(T0, T1) * Scale);
  Spans.add(Id, Name, "replay.request", T0, T1);
  return R;
}

void count(Samples &S, const char *Name, uint64_t V) {
  S.Counts[Name].push_back(static_cast<double>(V));
  S.CountSeq.push_back(V);
}

std::string requestLine(const Workload &W, size_t Idx) {
  const Request &Q = W.Requests[Idx];
  ServiceRequest SR;
  SR.Id = "r" + std::to_string(Idx);
  SR.Program = W.Programs[Q.Prog].Source;
  SR.Line = Q.Crit.Line;
  SR.Vars = Q.Crit.Vars;
  SR.Algorithm = Q.Algo;
  return SR.toJson().str();
}

/// The cold pipeline stage by stage, as Analysis builds it.
void replayStages(const ProgramSpec &P, const Request &Q, uint64_t Id,
                  Samples &S, SpanLog &Spans) {
  ResourceGuard G;
  auto Parsed = timed(S, Spans, Id, "lang.parse_ms", 1.0,
                      [&] { return parseProgram(P.Source, G); });
  count(S, "lang.parse_steps", G.steps());
  if (!Parsed)
    return;
  auto Built = timed(S, Spans, Id, "cfg.build_ms", 1.0,
                     [&] { return Cfg::build(**Parsed, &G); });
  if (!Built)
    return;
  const Cfg &C = *Built;
  count(S, "cfg.nodes", C.numNodes());
  LexicalSuccessorTree Lst = timed(S, Spans, Id, "cfg.lst_ms", 1.0, [&] {
    return buildLexicalSuccessorTree(C);
  });
  DomTree Pdt = timed(S, Spans, Id, "graph.pdt_ms", 1.0, [&] {
    return computePostDominators(C.graph(), C.exit(), &G);
  });
  DefUse DU = timed(S, Spans, Id, "dataflow.defuse_ms", 1.0,
                    [&] { return DefUse::build(C); });
  uint64_t Before = G.steps();
  ReachingDefinitions RD =
      timed(S, Spans, Id, "dataflow.reaching_defs_ms", 1.0,
            [&] { return ReachingDefinitions::compute(C, DU, &G); });
  count(S, "dataflow.reaching_defs_steps", G.steps() - Before);
  Digraph Control = timed(S, Spans, Id, "pdg.control_dep_ms", 1.0, [&] {
    return buildControlDependence(C.graph(), Pdt, &G);
  });
  Digraph Data = timed(S, Spans, Id, "dataflow.data_dep_ms", 1.0,
                       [&] { return buildDataDependence(C, DU, RD); });
  count(S, "pdg.edges", Control.numEdges() + Data.numEdges());
  Digraph Aug = C.buildAugmentedGraph(Lst.parents());
  DomTree AugPdt = timed(S, Spans, Id, "graph.aug_pdt_ms", 1.0, [&] {
    return computePostDominators(Aug, C.exit(), &G);
  });
  timed(S, Spans, Id, "pdg.aug_control_dep_ms", 1.0, [&] {
    return buildControlDependence(Aug, AugPdt, &G).numEdges();
  });

  // The whole bundle, then the two engines over it.
  auto A = timed(S, Spans, Id, "slicer.analysis_ms", 1.0,
                 [&] { return Analysis::fromSource(P.Source); });
  if (!A)
    return;
  count(S, "slicer.analysis_steps", A->guard().steps());
  Before = A->guard().steps();
  timed(S, Spans, Id, "slicer.single_shot_ms", 1.0, [&] {
    ErrorOr<SliceResult> R = computeSlice(*A, Q.Crit, Q.Algo);
    return R ? R->Nodes.size() : 0;
  });
  count(S, "slicer.single_shot_steps", A->guard().steps() - Before);
  auto BS = timed(S, Spans, Id, "slicer.closure_build_ms", 1.0,
                  [&] { return std::make_unique<BatchSlicer>(*A); });
  count(S, "slicer.sccs", BS->closures().numSccs());
}

/// Serves one line through an in-process Server, timed to the sink.
double serveLineUs(Server &Srv, const std::string &Line) {
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  Clock::time_point T0 = Clock::now(), T1;
  Srv.serveLine(Line, [&](const std::string &) {
    std::lock_guard<std::mutex> L(M);
    T1 = Clock::now();
    Done = true;
    CV.notify_all();
  });
  std::unique_lock<std::mutex> L(M);
  CV.wait(L, [&] { return Done; });
  return msBetween(T0, T1) * 1000.0;
}

/// One replay pass from fresh state.
void replayPass(const Options &O, const Workload &W, unsigned PassNo,
                Samples &S, SpanLog &Spans) {
  std::string Dir = O.WorkDir + "/replay" + std::to_string(PassNo);
  std::filesystem::create_directories(Dir);
  NullBuf NB;
  std::ostream Null(&NB);

  ExecConfig Cfg;
  Cfg.DefaultBudget = ServerOptions::serviceDefaultBudget();
  AnalysisCache Cache(Cfg.Cache);
  Journal Wal;
  Wal.open(Dir + "/wal.jsonl", 0, JournalSync::Batch);

  ServerOptions SO;
  SO.JournalPath = Dir + "/server-journal.jsonl";
  SO.JournalSyncPolicy = JournalSync::Batch;
  SO.QuarantineDir = Dir + "/quarantine";
  Server Srv(SO, Null, Null);
  Srv.recover();

  // Per-program artifacts for the hit-path query (sliceShared).
  std::map<unsigned, std::unique_ptr<AnalysisArtifact>> Arts;
  std::set<std::string> Memo;
  uint64_t JournalBytes = 0, Requests = 0;

  // Batch requests are every line of four programs: stride across them.
  size_t N = std::min(replayLength(W), W.Requests.size());
  size_t Stride =
      W.Kind == WorkloadKind::BatchLarge ? W.Requests.size() / N : 1;
  for (size_t K = 0; K != N; ++K) {
    size_t I = K * Stride;
    const Request &Q = W.Requests[I];
    const ProgramSpec &P = W.Programs[Q.Prog];
    uint64_t Id = ReplayIdBase + (uint64_t(PassNo) << 32) + I;
    Clock::time_point RootStart = Clock::now();
    std::string Line = requestLine(W, I);

    ParsedRequest Parsed =
        timed(S, Spans, Id, "service.request_parse_us", 1000.0,
              [&] { return parseRequestLine(Line); });
    if (!Parsed.Ok)
      continue;
    uint64_t B0 = Wal.bytes();
    timed(S, Spans, Id, "journal.begin", 1000.0,
          [&] { return Wal.begin(Parsed.Request); });
    double JournalUs = S.Times["journal.begin"].back();
    std::string Raw = timed(S, Spans, Id, "service.raw_key_us", 1000.0,
                            [&] { return rawProgramKey(P.Source); });
    if (Memo.insert(Raw).second) {
      ResourceGuard KG;
      timed(S, Spans, Id, "service.key_ms", 1.0,
            [&] { return canonicalProgramKey(P.Source, KG); });
    }
    Clock::time_point E0 = Clock::now();
    ServiceResponse Resp =
        executeSliceRequest(Parsed.Request, Cfg, nullptr, nullptr, &Cache);
    Clock::time_point E1 = Clock::now();
    bool Hit = Resp.FromCache;
    const char *ExecName =
        Hit ? "service.execute_hit_us" : "service.execute_miss_ms";
    S.Times[ExecName].push_back(msBetween(E0, E1) * (Hit ? 1000.0 : 1.0));
    Spans.add(Id, ExecName, "replay.request", E0, E1);
    count(S, "service.response_lines", Resp.Lines.size());
    std::string Out = timed(S, Spans, Id, "service.response_encode_us", 1000.0,
                            [&] { return Resp.str(); });
    timed(S, Spans, Id, "journal.end", 1000.0,
          [&] {
            return Wal.end(Parsed.Request.Id, responseStatusName(Resp.Status));
          });
    JournalUs += S.Times["journal.end"].back();
    S.Times["service.journal_append_us"].push_back(JournalUs);
    JournalBytes += Wal.bytes() - B0;
    ++Requests;

    if (!Hit) {
      replayStages(P, Q, Id, S, Spans);
      timed(S, Spans, Id, "service.ladder_ms", 1.0, [&] {
        LadderOptions L = Cfg.Ladder;
        L.B = Cfg.DefaultBudget;
        return runLadder(P.Source, Q.Crit, Q.Algo, L).Ok;
      });
      if (!Arts.count(Q.Prog))
        if (ErrorOr<Analysis> A = Analysis::fromSource(P.Source))
          Arts[Q.Prog] = std::make_unique<AnalysisArtifact>(std::move(*A));
      // Hit probe: the same request again, now resident.
      Clock::time_point H0 = Clock::now();
      ServiceResponse Again =
          executeSliceRequest(Parsed.Request, Cfg, nullptr, nullptr, &Cache);
      Clock::time_point H1 = Clock::now();
      if (Again.FromCache) {
        S.Times["service.execute_hit_us"].push_back(msBetween(H0, H1) * 1000.0);
        Spans.add(Id, "service.execute_hit_us", "replay.request", H0, H1);
      }
    }
    auto ArtIt = Arts.find(Q.Prog);
    if (ArtIt != Arts.end()) {
      const AnalysisArtifact &Art = *ArtIt->second;
      ErrorOr<ResolvedCriterion> RC = resolveCriterion(Art.A, Q.Crit);
      if (RC) {
        ResourceGuard QG;
        timed(S, Spans, Id, "slicer.shared_query_us", 1000.0, [&] {
          return Art.BS.sliceShared(*RC, Q.Algo, QG).has_value();
        });
      }
    }
    double LineUs = serveLineUs(Srv, Line);
    S.Times["service.serve_line_us"].push_back(LineUs);
    Spans.add(Id, "replay.request", "", RootStart, Clock::now());
  }
  Srv.finish();
  S.Times["service.journal_bytes_per_request"].push_back(
      Requests ? double(JournalBytes) / double(Requests) : 0);
}

/// runAll over every line criterion of up to four of the workload's
/// programs, at nproc threads and at one: (query seconds, speed-up).
std::pair<double, double> batchLadder(const Options &O, const Workload &W,
                                      SpanLog &Spans) {
  std::vector<unsigned> Picks;
  for (unsigned P = 0; P != W.Programs.size() && Picks.size() < 4; ++P)
    if (W.Programs[P].Corpus < 0)
      Picks.push_back(P);
  double Wide = 0, Narrow = 0;
  for (unsigned P : Picks) {
    ErrorOr<Analysis> A = Analysis::fromSource(W.Programs[P].Source);
    if (!A)
      continue;
    BatchSlicer BS(*A);
    std::vector<Criterion> Crits = allLineCriteria(*A);
    for (unsigned Threads : {O.Nproc, 1u}) {
      BatchOptions BO;
      BO.Threads = Threads;
      Clock::time_point T0 = Clock::now();
      std::vector<BatchEntry> Es = BS.runAll(Crits, BO);
      Clock::time_point T1 = Clock::now();
      Spans.add(P, Threads == 1 ? "slicer.run_all_1" : "slicer.run_all_n", "",
                T0, T1);
      (Threads == 1 ? Narrow : Wide) += msBetween(T0, T1) / 1000.0;
    }
  }
  return {Wide, Wide > 0 ? Narrow / Wide : 0};
}

std::string digestOf(const std::vector<uint64_t> &Seq) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t V : Seq)
    H = mix64(H ^ V);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx:%zu",
                static_cast<unsigned long long>(H), Seq.size());
  return Buf;
}

} // namespace

std::string perfbench::replayLayers(const Options &O, const Workload &W,
                                    RunResult &R, SpanLog &Spans) {
  Samples A, B;
  replayPass(O, W, 0, A, Spans);
  replayPass(O, W, 1, B, Spans);
  if (A.CountSeq != B.CountSeq)
    R.Errors.push_back(
        "per-layer counts differ between two replays of one seed");

  // Timings pool both passes; counts come from the first (identical).
  for (auto &[Name, V] : B.Times)
    A.Times[Name].insert(A.Times[Name].end(), V.begin(), V.end());
  static const std::map<std::string, std::string> Units = {
      {"lang.parse_ms", "ms"},           {"cfg.build_ms", "ms"},
      {"cfg.lst_ms", "ms"},              {"graph.pdt_ms", "ms"},
      {"graph.aug_pdt_ms", "ms"},        {"dataflow.defuse_ms", "ms"},
      {"dataflow.reaching_defs_ms", "ms"}, {"dataflow.data_dep_ms", "ms"},
      {"pdg.control_dep_ms", "ms"},      {"pdg.aug_control_dep_ms", "ms"},
      {"slicer.analysis_ms", "ms"},      {"slicer.single_shot_ms", "ms"},
      {"slicer.closure_build_ms", "ms"}, {"slicer.shared_query_us", "us"},
      {"service.request_parse_us", "us"}, {"service.response_encode_us", "us"},
      {"service.key_ms", "ms"},          {"service.raw_key_us", "us"},
      {"service.execute_hit_us", "us"},  {"service.execute_miss_ms", "ms"},
      {"service.ladder_ms", "ms"},       {"service.journal_append_us", "us"},
      {"service.serve_line_us", "us"},
  };
  for (const auto &[Name, Unit] : Units)
    R.PerLayer[Name] = {median(A.Times[Name]), Unit};
  R.PerLayer["service.journal_bytes_per_request"] = {
      median(A.Times["service.journal_bytes_per_request"]), "B"};
  for (const char *Name :
       {"lang.parse_steps", "cfg.nodes", "dataflow.reaching_defs_steps",
        "pdg.edges", "slicer.analysis_steps", "slicer.single_shot_steps",
        "slicer.sccs"}) {
    const std::vector<double> &V = A.Counts[Name];
    double Sum = 0;
    for (double X : V)
      Sum += X;
    R.PerLayer[Name] = {V.empty() ? 0 : Sum / double(V.size()), "count"};
  }

  auto [QueryS, Speedup] = batchLadder(O, W, Spans);
  R.PerLayer["slicer.batch_query_s"] = {QueryS, "s"};
  R.PerLayer["slicer.batch_thread_speedup"] = {Speedup, "ratio"};

  JsonValue P = JsonValue::object();
  P.set("replayed_requests", static_cast<uint64_t>(std::min(
                                 replayLength(W), W.Requests.size())));
  JsonValue Calls = JsonValue::object();
  for (const auto &[Name, V] : A.Times)
    Calls.set(Name, static_cast<uint64_t>(V.size()));
  P.set("calls", std::move(Calls));
  std::string Digest = digestOf(A.CountSeq);
  P.set("count_digest", Digest);
  R.Provenance.set("replay", std::move(P));
  return Digest;
}
