//===- perfbench/util.cpp - Statistics, seeds, spans, RSS ----------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

using namespace perfbench;

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = std::clamp(Q, 0.0, 1.0) * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

double perfbench::tailQuantileFor(size_t N) {
  if (N == 0)
    return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(N), 0.5, 0.99);
}

uint64_t perfbench::mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

void SpanLog::add(uint64_t Id, const std::string &Name,
                  const std::string &Parent, Clock::time_point Start,
                  Clock::time_point End) {
  Span S{Id, Name, Parent, usFromEpoch(Start), usBetween(Start, End)};
  std::lock_guard<std::mutex> L(M);
  Spans.push_back(std::move(S));
}

void SpanLog::addAll(std::vector<Span> &&More) {
  std::lock_guard<std::mutex> L(M);
  for (Span &S : More)
    Spans.push_back(std::move(S));
  More.clear();
}

bool SpanLog::write(const std::string &Path) const {
  std::lock_guard<std::mutex> L(M);
  std::ofstream Out(Path);
  char Buf[64];
  for (const Span &S : Spans) {
    Out << "{\"id\":" << S.Id << ",\"name\":\"" << jslice::jsonEscape(S.Name)
        << "\",\"parent\":\"" << jslice::jsonEscape(S.Parent) << "\"";
    std::snprintf(Buf, sizeof(Buf), ",\"start_us\":%.3f,\"dur_us\":%.3f}\n",
                  S.StartUs, S.DurUs);
    Out << Buf;
  }
  return static_cast<bool>(Out);
}

double perfbench::peakRssMb(long Pid) {
  std::ifstream In(Pid > 0 ? "/proc/" + std::to_string(Pid) + "/status"
                           : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream SS(Line.substr(6));
      double Kb = 0;
      SS >> Kb;
      return Kb / 1024.0;
    }
  return 0;
}
