//===- perfbench/bench.h - Repository benchmark: shared declarations ------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the benchmark program (see README.md in this directory):
/// seeded workload generation (inputs.cpp), the loopback load generator
/// against a spawned jslice_serve (service.cpp), the in-process batch
/// workload (batch.cpp), the correctness gate (oracle.cpp), and the
/// traced per-layer replay (layers.cpp). main.cpp wires them together
/// and prints the one-line JSON result.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "service/Json.h"
#include "slicer/Slicers.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T).count();
}
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// The `q`-quantile (0..1) of \p V by linear interpolation; 0 when empty.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);

/// The highest percentile of \p N samples that still has at least ten
/// samples beyond it, capped at 0.99 (the latency reporting rule).
double tailQuantileFor(size_t N);

/// splitmix64: the one seeded mixer every generator here derives from.
uint64_t mix64(uint64_t X);

/// One generated (or paper-corpus) program.
struct ProgramSpec {
  std::string Source;
  unsigned Lines = 0;       ///< Source lines.
  int Corpus = -1;          ///< Index into paperExamples(), or -1.
  std::vector<jslice::Criterion> Crits; ///< Reachable write criteria.
};

/// One slice request of a workload's stream.
struct Request {
  unsigned Prog = 0;
  jslice::Criterion Crit;
  jslice::SliceAlgorithm Algo = jslice::SliceAlgorithm::Agrawal;
  /// Corpus requests: the line set the paper's figure shows.
  std::optional<std::set<unsigned>> PaperLines;
};

enum class WorkloadKind { ColdUnique, ZipfHot, BatchLarge };

struct Workload {
  std::string Name;
  WorkloadKind Kind = WorkloadKind::ColdUnique;
  std::vector<ProgramSpec> Programs;
  /// Service workloads: the closed-loop request pool, then the
  /// open-loop schedule's requests (OpenBegin splits them). Batch: a
  /// sample of line criteria, used only by the traced replay.
  std::vector<Request> Requests;
  size_t OpenBegin = 0;
  /// Open-loop Poisson rate (requests/s) and due times (ms from the
  /// phase start), one per request from OpenBegin on.
  double OpenRate = 0;
  std::vector<double> OpenDueMs;
  bool service() const { return Kind != WorkloadKind::BatchLarge; }
};

struct Options {
  std::string WorkloadName;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string ServeBin;
  std::string WorkDir; ///< Scratch space for journals and quarantines.
  std::string OutDir;  ///< Result, span and count files.
  std::string Commit = "unknown";
  std::string Sources = "unknown"; ///< Digest of the compiled sources.
  unsigned Nproc = 1;
};

/// Builds the seeded inputs of \p O.WorkloadName (nullopt: unknown name).
std::optional<Workload> makeWorkload(const Options &O);

/// Named metric values a run reports.
struct Metric {
  double Value = 0;
  std::string Unit;
};
using MetricMap = std::map<std::string, Metric>;

/// One served response as the client saw it.
struct Served {
  size_t Req = 0;     ///< Index into Workload::Requests.
  bool Ok = false;
  bool Cached = false;
  std::vector<unsigned> Lines; ///< Ascending.
};

/// What the correctness gate found.
struct GateResult {
  uint64_t Checked = 0;
  uint64_t WrongSlices = 0;   ///< Engine or paper mismatches.
  uint64_t PaperChecked = 0;
  uint64_t Behavioural = 0;   ///< Projection-oracle checks run.
  uint64_t BehaviouralWrong = 0;
  std::vector<std::string> Notes; ///< First few mismatch descriptions.
  /// Reproducers for the first few mismatches: (criterion text, source).
  std::vector<std::pair<std::string, std::string>> Repros;
};

/// Checks every ok response against the other slice engine, corpus
/// requests against the paper, and a seeded sample behaviourally.
GateResult checkResponses(const Workload &W, const std::vector<Served> &Rs,
                          uint64_t Seed, unsigned Threads);

/// A client-side span: what the traced run writes out.
struct Span {
  uint64_t Id = 0;     ///< Request (or control call) id; shared by its spans.
  std::string Name;
  std::string Parent;  ///< Enclosing span's name, empty at the root.
  double StartUs = 0;  ///< From the run's epoch.
  double DurUs = 0;
};

/// Thread-safe span sink (kept in memory, written at the end).
class SpanLog {
public:
  explicit SpanLog(Clock::time_point Epoch) : Epoch(Epoch) {}
  void add(uint64_t Id, const std::string &Name, const std::string &Parent,
           Clock::time_point Start, Clock::time_point End);
  void addAll(std::vector<Span> &&More);
  double usFromEpoch(Clock::time_point T) const { return usBetween(Epoch, T); }
  bool write(const std::string &Path) const;

private:
  Clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<Span> Spans;
};

/// Results of one workload run.
struct RunResult {
  MetricMap EndToEnd;
  MetricMap PerLayer;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  GateResult Gate;
  jslice::JsonValue Provenance = jslice::JsonValue::object();
  std::vector<std::string> Errors; ///< Anything that makes the run invalid.
};

/// The service workloads (cold_unique, zipf_hot) against a spawned
/// jslice_serve.
void runService(const Options &O, Workload &W, RunResult &R, SpanLog *Spans);

/// Starts a server and measures only its control plane (health and
/// stats round trips): the traced batch run's view of the service.
void probeControlPlane(const Options &O, RunResult &R, SpanLog *Spans);

/// The in-process batch workload.
void runBatch(const Options &O, Workload &W, RunResult &R, SpanLog *Spans);

/// The traced run's in-process replay of the layer functions; fills
/// per-layer metrics and returns the deterministic-count digest.
std::string replayLayers(const Options &O, const Workload &W, RunResult &R,
                         SpanLog &Spans);

/// VmHWM of \p Pid ("self" when 0) in MiB; 0 when unreadable.
double peakRssMb(long Pid);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
