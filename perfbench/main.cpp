//===- perfbench/main.cpp - Repository benchmark program ------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           --serve-bin PATH --work-dir DIR --out-dir DIR [--commit ID]
///           [--sources DIGEST]
///
/// Runs one workload (cold_unique, zipf_hot, batch_large) and prints,
/// as its last stdout line, one JSON object with exactly the keys
/// correct, attempted, failed and metrics. --trace 0 reports the
/// end-to-end metrics; --trace 1 runs the same load with client spans,
/// the per-layer replay and the count check, and reports the per-layer
/// metrics. run.py narrows them to the ones BENCHMARK.json names. The
/// line before it is the run's provenance, also written
/// with the spans and the count digest under --out-dir. run.py in this
/// directory builds the program and calls this; see README.md.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace jslice;
using namespace perfbench;

namespace {

/// The seed later claims must also be confirmed on; never used while
/// tuning the benchmark.
constexpr uint64_t HeldOutSeed = 20261016;

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve-bin PATH --work-dir DIR "
               "--out-dir DIR [--commit ID] [--sources DIGEST]\n",
               Why);
  return 2;
}

JsonValue sizeHistogram(const Workload &W) {
  // Source lines of the generated programs, in doubling bins.
  std::map<std::string, uint64_t> Bins;
  for (const ProgramSpec &P : W.Programs) {
    if (P.Corpus >= 0)
      continue;
    unsigned Lo = 50;
    while (Lo * 2 <= P.Lines)
      Lo *= 2;
    Bins[std::to_string(Lo) + "-" + std::to_string(Lo * 2 - 1)]++;
  }
  JsonValue H = JsonValue::object();
  for (const auto &[K, V] : Bins)
    H.set(K, V);
  return H;
}

/// Metrics as JSON text, every value with all its digits (JsonValue
/// rounds doubles for display).
std::string metricsText(const MetricMap &M) {
  std::string Out = "{";
  char Buf[64];
  for (const auto &[Name, Mt] : M) {
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(Mt.Value) ? Mt.Value : 0.0);
    if (Out.size() > 1)
      Out += ",";
    Out += "\"" + jsonEscape(Name) + "\":{\"value\":" + Buf + ",\"unit\":\"" +
           jsonEscape(Mt.Unit) + "\"}";
  }
  return Out + "}";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  uint64_t Trace = 0, Seconds = 0;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      O.WorkloadName = V;
    else if (A == "--seed")
      HaveSeed = parseU64(V, O.Seed);
    else if (A == "--seconds")
      HaveSeconds = parseU64(V, Seconds) && Seconds >= 1 && Seconds <= 600;
    else if (A == "--trace")
      HaveTrace = parseU64(V, Trace) && Trace <= 1;
    else if (A == "--serve-bin")
      O.ServeBin = V;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else if (A == "--out-dir")
      O.OutDir = V;
    else if (A == "--commit")
      O.Commit = V;
    else if (A == "--sources")
      O.Sources = V;
    else
      return usage(("unknown flag " + A).c_str());
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.WorkloadName.empty() ||
      O.ServeBin.empty() || O.WorkDir.empty() || O.OutDir.empty())
    return usage("missing or malformed flags");
  O.Seconds = static_cast<unsigned>(Seconds);
  O.Trace = Trace == 1;
  long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  O.Nproc = N > 0 ? static_cast<unsigned>(N) : 1;
  std::filesystem::create_directories(O.WorkDir);
  std::filesystem::create_directories(O.OutDir);

  std::optional<Workload> W = makeWorkload(O);
  if (!W)
    return usage(("unknown workload " + O.WorkloadName).c_str());

  Clock::time_point Epoch = Clock::now();
  std::unique_ptr<SpanLog> Spans;
  if (O.Trace)
    Spans = std::make_unique<SpanLog>(Epoch);

  RunResult R;
  if (W->service()) {
    runService(O, *W, R, Spans.get());
  } else {
    runBatch(O, *W, R, Spans.get());
    if (O.Trace && R.Errors.empty())
      probeControlPlane(O, R, Spans.get());
  }

  std::string Tag = O.WorkloadName + "-seed" + std::to_string(O.Seed);
  if (O.Trace && R.Errors.empty()) {
    std::string Digest = replayLayers(O, *W, R, *Spans);
    // Two traced runs of one seed on the same sources must agree on
    // every count.
    std::string CountFile = O.OutDir + "/" + Tag + "-" + O.Sources + ".counts";
    if (std::filesystem::exists(CountFile)) {
      std::string Prev = readFile(CountFile);
      if (Prev != Digest)
        R.Errors.push_back("per-layer counts differ from an earlier traced run "
                           "of this seed (" + Prev + " vs " + Digest + ")");
    } else {
      std::ofstream(CountFile) << Digest;
    }
  }
  R.PerLayer["bench.wrong_slices"] = {double(R.Gate.WrongSlices), "count"};
  R.PerLayer["bench.error_rate"] = {
      R.Attempted ? double(R.Failed) / double(R.Attempted) : 0, "ratio"};

  std::vector<std::string> Errors = R.Errors;
  // run.py keeps the metrics BENCHMARK.json names and checks none is missing.
  const MetricMap &Report = O.Trace ? R.PerLayer : R.EndToEnd;
  if (R.Attempted == 0)
    Errors.push_back("no requests attempted");
  if (R.Gate.Checked == 0)
    Errors.push_back("correctness gate checked nothing");
  bool Correct = Errors.empty() && R.Gate.WrongSlices == 0;

  // Provenance: where and how these numbers were made.
  JsonValue P = R.Provenance;
  P.set("workload", O.WorkloadName);
  P.set("seed", O.Seed);
  P.set("held_out_seed", HeldOutSeed);
  P.set("seconds", static_cast<uint64_t>(O.Seconds));
  P.set("trace", O.Trace);
  P.set("nproc", static_cast<uint64_t>(O.Nproc));
  P.set("hardware_concurrency",
        static_cast<uint64_t>(std::thread::hardware_concurrency()));
  P.set("compiler", PERFBENCH_CXX_COMPILER);
  P.set("build_type", PERFBENCH_BUILD_TYPE);
  P.set("commit", O.Commit);
  P.set("sources", O.Sources);
  P.set("program_lines_histogram", sizeHistogram(*W));
  P.set("programs", static_cast<uint64_t>(W->Programs.size()));
  P.set("wrong_slices", R.Gate.WrongSlices);
  P.set("error_rate",
        R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0);
  JsonValue Gate = JsonValue::object();
  Gate.set("checked", R.Gate.Checked);
  Gate.set("paper_checked", R.Gate.PaperChecked);
  Gate.set("behavioural_checked", R.Gate.Behavioural);
  Gate.set("behavioural_wrong", R.Gate.BehaviouralWrong);
  JsonValue Notes = JsonValue::array();
  for (const std::string &S : R.Gate.Notes)
    Notes.push(S);
  Gate.set("notes", std::move(Notes));
  P.set("gate", std::move(Gate));
  JsonValue Errs = JsonValue::array();
  for (const std::string &E : Errors)
    Errs.push(E);
  P.set("errors", std::move(Errs));

  std::string ProvText = "{\"provenance\":" + P.str() +
                         ",\"end_to_end\":" + metricsText(R.EndToEnd) +
                         ",\"per_layer\":" + metricsText(R.PerLayer) + "}";
  std::string Stem = O.OutDir + "/" + Tag + "-trace" + std::to_string(Trace);
  std::ofstream(Stem + ".json") << ProvText << "\n";
  if (Spans)
    Spans->write(Stem + ".spans.jsonl");

  for (const std::string &E : Errors)
    std::fprintf(stderr, "perfbench: %s\n", E.c_str());
  for (const std::string &S : R.Gate.Notes)
    std::fprintf(stderr, "perfbench: wrong slice: %s\n", S.c_str());
  for (size_t I = 0; I != R.Gate.Repros.size(); ++I) {
    std::string Path = Stem + "-wrong" + std::to_string(I) + ".mc";
    std::ofstream(Path) << R.Gate.Repros[I].second;
    std::ofstream(Path + ".txt") << R.Gate.Repros[I].first << "\n";
    std::fprintf(stderr, "perfbench: reproducer written to %s\n", Path.c_str());
  }

  std::printf("%s\n", ProvText.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              metricsText(Report).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
