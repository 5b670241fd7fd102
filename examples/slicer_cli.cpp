//===- examples/slicer_cli.cpp - Command-line slicer --------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// A small command-line front end:
///
///   slicer_cli FILE --line N [--vars a,b] [--algo NAME] [--all]
///              [--all-criteria] [--threads N] [--fallback]
///              [--max-steps N] [--deadline-ms N]
///
///   --line N         criterion line (required unless --all-criteria)
///   --vars a,b       criterion variables (default: those used on the line)
///   --algo NAME      conventional | agrawal-fig7 | agrawal-fig7-lst |
///                    structured-fig12 | conservative-fig13 | ball-horwitz |
///                    lyle | gallagher | jiang-zhou-robson | weiser
///                    (default agrawal-fig7)
///   --all            print every algorithm's line set instead of one slice
///   --all-criteria   slice every statement line through the batch engine
///                    (shared closure cache); prints one summary per line
///   --threads N      worker threads for --all-criteria (default:
///                    hardware concurrency)
///   --fallback       on budget exhaustion, walk the service's
///                    precision-degradation ladder (requested algorithm,
///                    then conservative-fig13 where sound, then lyle)
///                    under progressively smaller budgets; the tier that
///                    served is reported on stderr
///   --max-steps N    resource budget: analysis/slicing checkpoint limit
///   --deadline-ms N  resource budget: soft wall-clock deadline
///
/// Exit-code taxonomy:
///   0  success
///   1  analysis error: unreadable file, malformed program, criterion
///      that resolves to nothing, or an exhausted resource budget —
///      a diagnostic is printed to stderr
///   2  usage error: unknown flag, missing/malformed flag argument,
///      missing FILE or --line, empty --vars list
///   3  served degraded: --fallback produced a sound slice, but from a
///      cheaper (more conservative) tier than the one requested
///
//===----------------------------------------------------------------------===//

#include "jslice/jslice.h"
#include "service/Ladder.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>

using namespace jslice;

namespace {

enum ExitCode {
  ExitOk = 0,
  ExitAnalysisError = 1,
  ExitUsage = 2,
  ExitDegraded = 3,
};

const SliceAlgorithm AllAlgorithms[] = {
    SliceAlgorithm::Conventional,   SliceAlgorithm::Agrawal,
    SliceAlgorithm::AgrawalLst,     SliceAlgorithm::Structured,
    SliceAlgorithm::Conservative,   SliceAlgorithm::BallHorwitz,
    SliceAlgorithm::Lyle,           SliceAlgorithm::Gallagher,
    SliceAlgorithm::JiangZhouRobson, SliceAlgorithm::Weiser,
};

std::optional<SliceAlgorithm> parseAlgorithm(const std::string &Name) {
  for (SliceAlgorithm Algorithm : AllAlgorithms)
    if (Name == algorithmName(Algorithm))
      return Algorithm;
  return std::nullopt;
}

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s FILE --line N [--vars a,b] [--algo NAME] [--all]\n"
               "       [--all-criteria] [--threads N] [--fallback]\n"
               "       [--max-steps N] [--deadline-ms N]\n"
               "exit codes: 0 ok, 1 analysis error, 2 usage error, "
               "3 served degraded\n",
               Prog);
  return ExitUsage;
}

} // namespace

int main(int argc, char **argv) {
  std::string File;
  unsigned Line = 0;
  std::vector<std::string> Vars;
  SliceAlgorithm Algorithm = SliceAlgorithm::Agrawal;
  bool All = false;
  bool AllCriteria = false;
  bool Fallback = false;
  unsigned Threads = 0; // 0 = BatchSlicer::defaultThreads().
  Budget B;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires an argument\n", Flag);
        return nullptr;
      }
      return argv[++I];
    };

    if (Arg == "--line") {
      const char *Value = NextValue("--line");
      if (!Value)
        return usage(argv[0]);
      std::optional<uint64_t> Parsed = parseCount(Value, UINT32_MAX);
      if (!Parsed || *Parsed == 0) {
        std::fprintf(stderr, "error: --line expects a positive line number, "
                             "got '%s'\n",
                     Value);
        return usage(argv[0]);
      }
      Line = static_cast<unsigned>(*Parsed);
    } else if (Arg == "--vars") {
      const char *Value = NextValue("--vars");
      if (!Value)
        return usage(argv[0]);
      std::stringstream Stream(Value);
      std::string Var;
      Vars.clear();
      while (std::getline(Stream, Var, ','))
        if (!Var.empty())
          Vars.push_back(Var);
      if (Vars.empty()) {
        std::fprintf(stderr, "error: --vars requires at least one "
                             "variable name\n");
        return usage(argv[0]);
      }
    } else if (Arg == "--algo") {
      const char *Value = NextValue("--algo");
      if (!Value)
        return usage(argv[0]);
      std::optional<SliceAlgorithm> Parsed = parseAlgorithm(Value);
      if (!Parsed) {
        std::fprintf(stderr, "error: unknown algorithm '%s'\n", Value);
        return usage(argv[0]);
      }
      Algorithm = *Parsed;
    } else if (Arg == "--max-steps") {
      const char *Value = NextValue("--max-steps");
      if (!Value)
        return usage(argv[0]);
      std::optional<uint64_t> Parsed = parseCount(Value);
      if (!Parsed) {
        std::fprintf(stderr, "error: --max-steps expects a number, got "
                             "'%s'\n",
                     Value);
        return usage(argv[0]);
      }
      B.MaxSteps = *Parsed;
    } else if (Arg == "--deadline-ms") {
      const char *Value = NextValue("--deadline-ms");
      if (!Value)
        return usage(argv[0]);
      std::optional<uint64_t> Parsed = parseCount(Value);
      if (!Parsed) {
        std::fprintf(stderr, "error: --deadline-ms expects a number, got "
                             "'%s'\n",
                     Value);
        return usage(argv[0]);
      }
      B.DeadlineMs = *Parsed;
    } else if (Arg == "--all") {
      All = true;
    } else if (Arg == "--fallback") {
      Fallback = true;
    } else if (Arg == "--all-criteria") {
      AllCriteria = true;
    } else if (Arg == "--threads") {
      const char *Value = NextValue("--threads");
      if (!Value)
        return usage(argv[0]);
      std::optional<uint64_t> Parsed = parseCount(Value, 1024);
      if (!Parsed || *Parsed == 0) {
        std::fprintf(stderr, "error: --threads expects a worker count in "
                             "[1, 1024], got '%s'\n",
                     Value);
        return usage(argv[0]);
      }
      Threads = static_cast<unsigned>(*Parsed);
    } else if (Arg.size() > 1 && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage(argv[0]);
    } else if (File.empty()) {
      File = Arg;
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s' (input file "
                           "already given: %s)\n",
                   Arg.c_str(), File.c_str());
      return usage(argv[0]);
    }
  }
  if (File.empty()) {
    std::fprintf(stderr, "error: no input file\n");
    return usage(argv[0]);
  }
  if (Line == 0 && !AllCriteria) {
    std::fprintf(stderr, "error: --line is required (or use --all-criteria)\n");
    return usage(argv[0]);
  }
  if (AllCriteria && (Line != 0 || All)) {
    std::fprintf(stderr, "error: --all-criteria replaces --line/--all\n");
    return usage(argv[0]);
  }
  if (Fallback && (All || AllCriteria)) {
    std::fprintf(stderr,
                 "error: --fallback applies to a single slice only\n");
    return usage(argv[0]);
  }

  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", File.c_str());
    return ExitAnalysisError;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  if (Fallback) {
    // The ladder runs the whole pipeline per rung itself.
    LadderOptions Opts;
    Opts.B = B;
    LadderResult Res =
        runLadder(Buffer.str(), Criterion(Line, Vars), Algorithm, Opts);
    for (const LadderAttempt &At : Res.Attempts)
      if (!At.Served)
        std::fprintf(stderr, "# %s: %s\n", algorithmName(At.Tier),
                     At.Skipped ? At.SkipReason.c_str() : At.Trip.c_str());
    if (!Res.Ok) {
      std::fprintf(stderr, "%s\n", Res.Diags.str().c_str());
      return ExitAnalysisError;
    }
    std::printf("%s", printSlice(*Res.A, Res.Result).c_str());
    std::fprintf(stderr, "# served by %s%s: %s\n", algorithmName(Res.Served),
                 Res.Degraded ? " (degraded)" : "",
                 summarizeSlice(*Res.A, Res.Result).c_str());
    return Res.Degraded ? ExitDegraded : ExitOk;
  }

  ErrorOr<Analysis> A = Analysis::fromSource(Buffer.str(), B);
  if (!A) {
    std::fprintf(stderr, "%s\n", A.diags().str().c_str());
    return ExitAnalysisError;
  }

  if (AllCriteria) {
    BatchSlicer Batch(*A);
    BatchOptions Opts;
    Opts.Algorithm = Algorithm;
    Opts.Threads = Threads;
    std::vector<Criterion> Crits = allLineCriteria(*A);
    std::vector<BatchEntry> Entries = Batch.runAll(Crits, Opts);
    bool AnyFailed = false;
    for (const BatchEntry &Entry : Entries) {
      if (Entry.Ok) {
        std::printf("line %-4u %s\n", Entry.Crit.Line,
                    summarizeSlice(*A, Entry.Result).c_str());
      } else {
        AnyFailed = true;
        std::fprintf(stderr, "line %u: %s\n", Entry.Crit.Line,
                     Entry.Diags.str().c_str());
      }
    }
    return AnyFailed ? ExitAnalysisError : ExitOk;
  }

  Criterion Crit(Line, Vars);
  if (All) {
    for (SliceAlgorithm Algo : AllAlgorithms) {
      ErrorOr<SliceResult> R = computeSlice(*A, Crit, Algo);
      if (!R) {
        std::fprintf(stderr, "%s\n", R.diags().str().c_str());
        return ExitAnalysisError;
      }
      std::printf("%-20s %s\n", algorithmName(Algo),
                  summarizeSlice(*A, *R).c_str());
    }
    return ExitOk;
  }

  ErrorOr<SliceResult> R = computeSlice(*A, Crit, Algorithm);
  if (!R) {
    std::fprintf(stderr, "%s\n", R.diags().str().c_str());
    return ExitAnalysisError;
  }
  std::printf("%s", printSlice(*A, *R).c_str());
  std::fprintf(stderr, "# %s: %s\n", algorithmName(Algorithm),
               summarizeSlice(*A, *R).c_str());
  return ExitOk;
}
