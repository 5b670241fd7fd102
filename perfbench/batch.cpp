//===- perfbench/batch.cpp - The in-process batch_large workload ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BatchSlicer::runAll over every line criterion (allLineCriteria) of
/// four large unstructured programs at nproc threads, with no service,
/// transport or journal in the way. Set-up is the Analysis plus
/// BatchSlicer construction of all four programs; one request is one
/// program's all-criteria runAll job, as an IDE or regression-triage
/// client would submit it.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "slicer/BatchSlicer.h"

#include <memory>
#include <sys/resource.h>

using namespace jslice;
using namespace perfbench;

namespace {

constexpr unsigned SetupRepeats = 7;

/// User + system CPU seconds of this process, all threads.
double processCpuSeconds() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

struct Built {
  std::unique_ptr<Analysis> A;
  std::unique_ptr<BatchSlicer> BS;
  std::vector<Criterion> Crits;
};

} // namespace

void perfbench::runBatch(const Options &O, Workload &W, RunResult &R,
                         SpanLog *Spans) {
  std::vector<double> SetupS;
  std::vector<Built> Progs;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    Progs.clear();
    Clock::time_point T0 = Clock::now();
    for (const ProgramSpec &P : W.Programs) {
      ErrorOr<Analysis> A = Analysis::fromSource(P.Source);
      if (!A) {
        R.Errors.push_back("batch program failed to analyse: " +
                           A.diags().str());
        return;
      }
      Built B;
      B.A = std::make_unique<Analysis>(std::move(*A));
      B.BS = std::make_unique<BatchSlicer>(*B.A);
      Progs.push_back(std::move(B));
    }
    SetupS.push_back(msSince(T0) / 1000.0);
    if (Spans)
      Spans->add(Rep, "client.setup", "", T0, Clock::now());
  }
  double Setup = median(SetupS);
  R.EndToEnd["setup_s"] = {Setup, "s"};

  // Every line criterion becomes a request, so the correctness gate
  // (and the traced replay) see exactly what runAll answered.
  W.Requests.clear();
  std::vector<size_t> FirstReq;
  for (unsigned P = 0; P != Progs.size(); ++P) {
    Progs[P].Crits = allLineCriteria(*Progs[P].A);
    FirstReq.push_back(W.Requests.size());
    for (const Criterion &C : Progs[P].Crits) {
      Request Q;
      Q.Prog = P;
      Q.Crit = C;
      Q.Algo = SliceAlgorithm::Agrawal;
      W.Requests.push_back(std::move(Q));
    }
  }

  BatchOptions BO;
  BO.Algorithm = SliceAlgorithm::Agrawal;
  BO.Threads = O.Nproc;

  // The first pass is untimed: its answers feed the correctness gate.
  // Timed passes then run back to back until the time is spent, each
  // checked against the first by slice sizes. A traced run times its
  // second half of passes with spans on, for the tracing overhead.
  std::vector<Served> FirstPass;
  std::vector<std::vector<size_t>> FirstSizes(Progs.size());
  uint64_t CriteriaDone = 0, Failed = 0, Drift = 0;
  for (unsigned P = 0; P != Progs.size(); ++P) {
    std::vector<BatchEntry> Es = Progs[P].BS->runAll(Progs[P].Crits, BO);
    for (size_t I = 0; I != Es.size(); ++I) {
      Served S;
      S.Req = FirstReq[P] + I;
      S.Ok = Es[I].Ok;
      S.Cached = true; // Closure-served: the gate checks single-shot.
      std::set<unsigned> Lines = Es[I].Result.lineSet(Progs[P].A->cfg());
      S.Lines.assign(Lines.begin(), Lines.end());
      FirstPass.push_back(std::move(S));
      FirstSizes[P].push_back(Es[I].Result.Nodes.size());
    }
  }

  // One request is one pass: all four programs' runAll jobs.
  std::vector<double> PassMs, PassTracedMs, PassCpuMs;
  // The generator's own lag: from one pass's end to the next one's start.
  std::vector<double> GapMs;
  std::optional<Clock::time_point> LastEnd;
  Clock::time_point Start = Clock::now();
  double Budget = O.Seconds * 1000.0;
  while (msSince(Start) < Budget) {
    bool Tracing = Spans && msSince(Start) >= Budget / 2;
    double PassCpu0 = processCpuSeconds();
    Clock::time_point T0 = Clock::now();
    if (LastEnd)
      GapMs.push_back(msBetween(*LastEnd, T0));
    for (unsigned P = 0; P != Progs.size(); ++P) {
      // A job ends when its answers have been read and released: the
      // per-criterion result sets are part of what runAll costs a caller.
      Clock::time_point J0 = Clock::now();
      {
        std::vector<BatchEntry> Es = Progs[P].BS->runAll(Progs[P].Crits, BO);
        for (size_t I = 0; I != Es.size(); ++I) {
          ++CriteriaDone;
          if (!Es[I].Ok)
            ++Failed;
          else if (Es[I].Result.Nodes.size() != FirstSizes[P][I])
            ++Drift;
        }
      }
      if (Tracing)
        Spans->add(P, "client.batch_job", "client.batch_pass", J0,
                   Clock::now());
    }
    Clock::time_point T1 = Clock::now();
    LastEnd = T1;
    (Tracing ? PassTracedMs : PassMs).push_back(msBetween(T0, T1));
    PassCpuMs.push_back((processCpuSeconds() - PassCpu0) * 1000.0);
    if (Tracing)
      Spans->add(PassMs.size() + PassTracedMs.size(), "client.batch_pass", "",
                 T0, T1);
  }
  double WallS = msSince(Start) / 1000.0;
  double RssMb = peakRssMb(0);

  R.Attempted = CriteriaDone;
  R.Failed = Failed;
  R.Gate = checkResponses(W, FirstPass, O.Seed, O.Nproc);
  R.Gate.WrongSlices += Drift;
  if (Drift)
    R.Gate.Notes.push_back(
        "a timed runAll pass answered differently from the first");

  std::vector<double> AllPass = PassMs;
  AllPass.insert(AllPass.end(), PassTracedMs.begin(), PassTracedMs.end());
  double CritPerPass = static_cast<double>(W.Requests.size());
  R.EndToEnd["peak_rss_mb"] = {RssMb, "MiB"};
  R.EndToEnd["cpu_ms_per_request"] = {median(PassCpuMs), "ms"};
  R.PerLayer["client.throughput_rps"] = {
      static_cast<double>(AllPass.size()) / WallS, "req/s"};
  R.PerLayer["client.latency_p50_ms"] = {quantile(AllPass, 0.5), "ms"};
  R.PerLayer["client.latency_p99_ms"] = {
      quantile(AllPass, tailQuantileFor(AllPass.size())), "ms"};
  R.PerLayer["client.criteria_per_s"] = {
      CritPerPass / (Setup + median(AllPass) / 1000.0), "1/s"};
  if (Spans && !PassTracedMs.empty() && !PassMs.empty())
    R.PerLayer["bench.trace_overhead"] = {median(PassTracedMs) / median(PassMs),
                                          "ratio"};
  R.PerLayer["bench.generator_lag_ms_p99"] = {
      quantile(GapMs, tailQuantileFor(GapMs.size())), "ms"};

  JsonValue P = JsonValue::object();
  P.set("threads", static_cast<uint64_t>(BO.Threads));
  P.set("criteria_per_pass", static_cast<uint64_t>(W.Requests.size()));
  P.set("passes", static_cast<uint64_t>(AllPass.size()));
  P.set("latency_samples", static_cast<uint64_t>(AllPass.size()));
  P.set("latency_tail_quantile", tailQuantileFor(AllPass.size()));
  JsonValue SS = JsonValue::array();
  for (double S : SetupS)
    SS.push(S);
  P.set("setup_samples_s", std::move(SS));
  R.Provenance.set("batch", std::move(P));
}
