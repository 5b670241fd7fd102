//===- tools/jslice_stress.cpp - Differential crash-triage harness ------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The robustness harness behind DESIGN.md's "Robustness contract":
/// fans seeded generator programs (structured and goto dialects) through
/// the whole pipeline under a resource Budget, checks every sound
/// slicing algorithm against the projection-interpreter oracle on the
/// survivors, and triages every oracle mismatch with a greedy
/// statement-deletion reducer that writes a minimized repro to disk.
///
/// Every program additionally runs through the slice engine under both
/// closure sources (BatchSlicer's cache and computeSlice's walk): all
/// line criteria, every PDG-based algorithm, cross-checked against the
/// std::set reference slicers (tests/reference) on nodes, labels and
/// traversal counters. A divergence is triaged exactly like an oracle
/// mismatch — reduced and written out as a repro.
///
///   jslice_stress [--seeds A..B] [--budget tight|default|unlimited]
///                 [--dialect structured|goto|both] [--stmts N]
///                 [--max-criteria N] [--trials N] [--fault-stride N]
///                 [--no-batch-check] [--replay-journal FILE]
///                 [--verify-journal FILE] [--corpus DIR] [--out DIR]
///                 [--verbose]
///
///   --seeds A..B     generator seed range, inclusive (default 1..50;
///                    a bare N means 1..N)
///   --budget NAME    resource budget each pipeline runs under
///                    (default tight — exhaustion must degrade, never
///                    crash or hang)
///   --dialect NAME   which generator dialects to fan out (default both)
///   --stmts N        target statements per generated program (default 40)
///   --max-criteria N criteria checked per generated program (default 4;
///                    corpus files check every reachable write criterion)
///   --trials N       oracle inputs per criterion (default 3)
///   --fault-stride N additionally re-run each program's pipeline with a
///                    fault injected at every Nth checkpoint (default 0
///                    = off); every injected failure must surface as
///                    diagnostics and the disarmed re-run must succeed
///   --no-batch-check skip the engine-vs-reference cross-check
///   --replay-journal FILE
///                    push every request a crashed jslice_serve left in
///                    flight in FILE (its write-ahead journal) through
///                    the differential triage + ddmin reducer — the
///                    poison-quarantine-to-root-cause path
///   --verify-journal FILE
///                    scrub mode: verify every record checksum in FILE
///                    (see Journal.h's framing) and report records,
///                    in-flight begins, sequence regressions, and whether the file ends in
///                    a clean shutdown, a torn tail, or mid-file
///                    corruption; runs nothing else. Exit 0 when every
///                    record verifies (a torn tail — the expected
///                    kill -9 residue — is reported but still clean),
///                    1 on mid-file corruption or a sequence regression
///   --corpus DIR     also push every file under DIR through the
///                    pipeline (the checked-in fuzz seeds), checking
///                    every reachable write criterion
///   --out DIR        where minimized repros are written
///                    (default stress-repros)
///
/// Exit codes: 0 — every pipeline either succeeded or degraded with
/// diagnostics and the oracle found no mismatch; 1 — at least one
/// oracle mismatch (repros written) or contract violation (a failure
/// without diagnostics); 2 — usage error.
///
//===----------------------------------------------------------------------===//

#include "ReferenceSlicer.h"
#include "gen/ProgramGenerator.h"
#include "jslice/jslice.h"
#include "service/Journal.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

using namespace jslice;

namespace {

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct StressOptions {
  uint64_t SeedLo = 1;
  uint64_t SeedHi = 50;
  Budget B = Budget::tight();
  bool Structured = true;
  bool Gotos = true;
  unsigned TargetStmts = 40;
  unsigned MaxCriteria = 4;
  unsigned Trials = 3;
  uint64_t FaultStride = 0;
  bool BatchCheck = true;
  std::string ReplayJournal;
  std::string VerifyJournal;
  std::string CorpusDir;
  std::string OutDir = "stress-repros";
  bool Verbose = false;
};

/// Sound on every exit-reachable program, jumps or not (Figures 12/13
/// are only defined for structured programs, so the differential check
/// sticks to the generally-sound set).
const SliceAlgorithm OracleAlgorithms[] = {
    SliceAlgorithm::Agrawal,
    SliceAlgorithm::AgrawalLst,
    SliceAlgorithm::BallHorwitz,
    SliceAlgorithm::Lyle,
};

/// Every PDG-based algorithm (Weiser's dataflow slicer has a single
/// implementation, so there is nothing to cross-check). Soundness is
/// irrelevant here — the check is engine == reference, not slice ==
/// behaviour.
const SliceAlgorithm BatchAlgorithms[] = {
    SliceAlgorithm::Conventional, SliceAlgorithm::Agrawal,
    SliceAlgorithm::AgrawalLst,   SliceAlgorithm::Structured,
    SliceAlgorithm::Conservative, SliceAlgorithm::BallHorwitz,
    SliceAlgorithm::Lyle,         SliceAlgorithm::Gallagher,
    SliceAlgorithm::JiangZhouRobson,
};

struct Tally {
  uint64_t Pipelines = 0;        ///< Generator programs + corpus files.
  uint64_t Analyzed = 0;         ///< Full analyses that succeeded.
  uint64_t Degraded = 0;         ///< Budget exhaustions (the contract path).
  uint64_t InputErrors = 0;      ///< Non-resource diagnostics.
  uint64_t SlicesChecked = 0;    ///< (criterion, algorithm) slices run.
  uint64_t OracleRuns = 0;       ///< Interpreter comparisons executed.
  uint64_t Mismatches = 0;       ///< Oracle disagreements (repro written).
  uint64_t BatchCompared = 0;    ///< Engine-vs-reference comparisons.
  uint64_t BatchDivergences = 0; ///< Engine disagreements (repro written).
  uint64_t FaultRuns = 0;        ///< Fault-injected pipeline re-runs.
  uint64_t ContractViolations = 0; ///< Failure without diagnostics.
};

int usage() {
  std::fprintf(
      stderr,
      "usage: jslice_stress [--seeds A..B] [--budget tight|default|"
      "unlimited]\n"
      "                     [--dialect structured|goto|both] [--stmts N]\n"
      "                     [--max-criteria N] [--trials N] "
      "[--fault-stride N]\n"
      "                     [--no-batch-check] [--replay-journal FILE]\n"
      "                     [--verify-journal FILE] [--corpus DIR] "
      "[--out DIR]\n"
      "                     [--verbose]\n");
  return 2;
}

bool parseSeedRange(const std::string &Text, StressOptions &Opts) {
  size_t Dots = Text.find("..");
  if (Dots == std::string::npos) {
    std::optional<uint64_t> N = parseCount(Text);
    if (!N || *N == 0)
      return false;
    Opts.SeedLo = 1;
    Opts.SeedHi = *N;
    return true;
  }
  std::optional<uint64_t> Lo = parseCount(Text.substr(0, Dots));
  std::optional<uint64_t> Hi = parseCount(Text.substr(Dots + 2));
  if (!Lo || !Hi || *Lo == 0 || *Hi < *Lo)
    return false;
  Opts.SeedLo = *Lo;
  Opts.SeedHi = *Hi;
  return true;
}

//===----------------------------------------------------------------------===//
// Pipeline under test
//===----------------------------------------------------------------------===//

/// One oracle disagreement, with everything needed to reproduce it.
struct Mismatch {
  SliceAlgorithm Algorithm;
  Criterion Crit;
  std::vector<int64_t> Input;
  std::vector<int64_t> Expected;
  std::vector<int64_t> Actual;
};

/// Deterministic oracle inputs for one (program, criterion) pair.
std::vector<std::vector<int64_t>> oracleInputs(uint64_t Seed,
                                               unsigned Trials) {
  std::mt19937_64 Rng(Seed * 6364136223846793005ull + 1442695040888963407ull);
  std::vector<std::vector<int64_t>> Out;
  for (unsigned Trial = 0; Trial != Trials; ++Trial) {
    std::vector<int64_t> Input;
    unsigned Len = static_cast<unsigned>(Rng() % 6);
    for (unsigned I = 0; I != Len; ++I)
      Input.push_back(static_cast<int64_t>(Rng() % 21) - 10);
    Out.push_back(std::move(Input));
  }
  return Out;
}

/// Differential check of one analyzed program: every sound algorithm,
/// every (capped) reachable write criterion, a few deterministic
/// inputs. Returns the first mismatch found, if any. Oracle executions
/// run with their own step cap (not the analysis budget) so slicing
/// degradation and behavioural checking stay independent.
std::optional<Mismatch> checkOracle(const Analysis &A, uint64_t Seed,
                                    const StressOptions &Opts,
                                    Tally *Counts) {
  if (!A.cfg().unreachableNodes().empty())
    return std::nullopt; // The paper's guarantees assume no dead code.

  std::vector<Criterion> Criteria = reachableWriteCriteria(A);
  if (Criteria.size() > Opts.MaxCriteria)
    Criteria.resize(Opts.MaxCriteria);

  for (const Criterion &Crit : Criteria) {
    ErrorOr<ResolvedCriterion> RC = resolveCriterion(A, Crit);
    if (!RC)
      continue; // E.g. a criterion var the reduced program no longer has.
    for (SliceAlgorithm Algorithm : OracleAlgorithms) {
      SliceResult R = computeSlice(A, *RC, Algorithm);
      if (A.guard().exhausted())
        return std::nullopt; // Degraded mid-slice; nothing to compare.
      if (Counts)
        ++Counts->SlicesChecked;
      std::set<unsigned> Kept = R.Nodes;
      Kept.insert(A.cfg().exit());

      for (const std::vector<int64_t> &Input :
           oracleInputs(Seed + Crit.Line, Opts.Trials)) {
        ExecOptions Exec;
        Exec.Input = Input;
        Exec.MaxSteps = 100000;
        ExecResult Orig = runOriginal(A, RC->Node, RC->VarIds, Exec);
        if (!Orig.Completed)
          continue; // Original diverges; Weiser's criterion is vacuous.
        if (Counts)
          ++Counts->OracleRuns;
        ExecResult Sliced = runProjection(A, Kept, RC->Node, RC->VarIds, Exec);
        if (Sliced.Completed &&
            Sliced.CriterionValues == Orig.CriterionValues)
          continue;
        Mismatch M;
        M.Algorithm = Algorithm;
        M.Crit = Crit;
        M.Input = Input;
        M.Expected = Orig.CriterionValues;
        M.Actual = Sliced.CriterionValues;
        return M;
      }
    }
  }
  return std::nullopt;
}

/// One disagreement between the slice engine and the reference
/// slicers (tests/reference).
struct BatchDivergence {
  SliceAlgorithm Algorithm = SliceAlgorithm::Agrawal;
  const char *Via = ""; ///< The engine's closure source: cache or walk.
  Criterion Crit;
  std::set<unsigned> EngineLines;
  std::set<unsigned> ReferenceLines;
  bool OkMismatch = false; ///< One side sliced, the other failed.
};

/// Cross-checks the slice engine under both closure sources — the
/// cache (BatchSlicer::runAll) and the walk (computeSlice) — against
/// the reference slicers on every line criterion of \p Source, every
/// PDG-based algorithm. Each engine side runs on its own Analysis (own
/// ResourceGuard) so a budget tripped by one cannot skew the other; a
/// side that degrades on the budget is skipped for that criterion. The
/// reference runs unmetered on a third Analysis.
std::optional<BatchDivergence> checkBatchAgreement(const std::string &Source,
                                                   const StressOptions &Opts,
                                                   Tally *Counts) {
  for (SliceAlgorithm Algorithm : BatchAlgorithms) {
    ErrorOr<Analysis> BatchA = Analysis::fromSource(Source, Opts.B);
    ErrorOr<Analysis> SingleA = Analysis::fromSource(Source, Opts.B);
    ErrorOr<Analysis> RefA = Analysis::fromSource(Source);
    if (!BatchA || !SingleA || !RefA)
      return std::nullopt; // Analysis degradation is the pipeline's story.

    BatchSlicer Batch(*BatchA);
    std::vector<Criterion> Crits = allLineCriteria(*RefA);
    BatchOptions BatchOpts;
    BatchOpts.Algorithm = Algorithm;
    BatchOpts.Threads = 1; // Deterministic budget trip points.
    std::vector<BatchEntry> Entries = Batch.runAll(Crits, BatchOpts);

    for (size_t I = 0; I != Entries.size(); ++I) {
      ErrorOr<ResolvedCriterion> RC = resolveCriterion(*RefA, Crits[I]);
      std::optional<SliceResult> Ref;
      if (RC)
        Ref = reference::computeSlice(*RefA, *RC, Algorithm);
      ErrorOr<SliceResult> Single = computeSlice(*SingleA, Crits[I], Algorithm);

      struct Side {
        const char *Via;
        const SliceResult *Got;
        bool Degraded;
      } Sides[] = {
          {"cache", Entries[I].Ok ? &Entries[I].Result : nullptr,
           Entries[I].Diags.hasKind(DiagKind::ResourceExhausted)},
          {"walk", Single ? &*Single : nullptr,
           !Single && Single.diags().hasKind(DiagKind::ResourceExhausted)},
      };
      for (const Side &S : Sides) {
        if (S.Degraded)
          continue; // Not comparable with an unmetered run.
        BatchDivergence D;
        D.Algorithm = Algorithm;
        D.Via = S.Via;
        D.Crit = Crits[I];
        if (!S.Got != !Ref) {
          D.OkMismatch = true;
          return D;
        }
        if (!S.Got)
          continue; // Both failed to resolve — agreed.
        if (Counts)
          ++Counts->BatchCompared;
        if (S.Got->Nodes != Ref->Nodes ||
            S.Got->ReassociatedLabels != Ref->ReassociatedLabels ||
            S.Got->Traversals != Ref->Traversals ||
            S.Got->ProductiveTraversals != Ref->ProductiveTraversals ||
            S.Got->TraversalAdditions != Ref->TraversalAdditions) {
          D.EngineLines = S.Got->lineSet(RefA->cfg());
          D.ReferenceLines = Ref->lineSet(RefA->cfg());
          return D;
        }
      }
    }
  }
  return std::nullopt;
}

/// Whether \p Source still exhibits *some* oracle failure (any sound
/// algorithm, any criterion). This is the reducer's interestingness
/// test: statement deletion moves line numbers, so the criterion is
/// re-derived from the candidate rather than pinned.
bool exhibitsFailure(const std::string &Source, const StressOptions &Opts) {
  ErrorOr<Analysis> A = Analysis::fromSource(Source, Opts.B);
  if (!A)
    return false;
  return checkOracle(*A, /*Seed=*/17, Opts, nullptr).has_value();
}

/// Greedy ddmin-style line deletion: try dropping chunks of lines,
/// halving the chunk size down to single lines, keeping any deletion
/// that preserves \p Interesting. Candidates that no longer parse or
/// analyze simply fail the interestingness test and are skipped.
template <typename Predicate>
std::string reduceWhile(const std::string &Source, Predicate Interesting) {
  std::vector<std::string> Lines = splitLines(Source);
  auto Render = [](const std::vector<std::string> &Ls) {
    std::string Out;
    for (const std::string &L : Ls)
      Out += L + "\n";
    return Out;
  };

  for (size_t Chunk = std::max<size_t>(1, Lines.size() / 2); Chunk >= 1;
       Chunk /= 2) {
    bool Shrunk = true;
    while (Shrunk) {
      Shrunk = false;
      for (size_t Start = 0; Start + 1 <= Lines.size() && Lines.size() > 1;
           /* advance below */) {
        std::vector<std::string> Candidate;
        Candidate.reserve(Lines.size());
        size_t End = std::min(Lines.size(), Start + Chunk);
        Candidate.insert(Candidate.end(), Lines.begin(),
                         Lines.begin() + static_cast<long>(Start));
        Candidate.insert(Candidate.end(),
                         Lines.begin() + static_cast<long>(End),
                         Lines.end());
        if (!Candidate.empty() && Interesting(Render(Candidate))) {
          Lines = std::move(Candidate);
          Shrunk = true;
          // Stay at the same Start: the next chunk slid into place.
        } else {
          Start += Chunk;
        }
      }
    }
    if (Chunk == 1)
      break;
  }
  return Render(Lines);
}

std::string reduceFailure(const std::string &Source,
                          const StressOptions &Opts) {
  return reduceWhile(Source, [&](const std::string &Candidate) {
    return exhibitsFailure(Candidate, Opts);
  });
}

std::string reduceBatchDivergence(const std::string &Source,
                                  const StressOptions &Opts) {
  return reduceWhile(Source, [&](const std::string &Candidate) {
    return checkBatchAgreement(Candidate, Opts, nullptr).has_value();
  });
}

std::string describeInput(const std::vector<int64_t> &Values) {
  std::vector<std::string> Parts;
  for (int64_t V : Values)
    Parts.push_back(std::to_string(V));
  return "[" + join(Parts, ", ") + "]";
}

/// Writes \p Reduced to OutDir/<Name>.mc and \p Meta plus the reduction
/// summary to the .txt sidecar; returns the .mc path.
std::string writeReproFiles(const std::string &Name,
                            const std::string &Original,
                            const std::string &Reduced,
                            const std::string &Meta,
                            const StressOptions &Opts) {
  std::error_code Ec;
  std::filesystem::create_directories(Opts.OutDir, Ec);
  std::string Base = Opts.OutDir + "/" + Name;
  std::ofstream(Base + ".mc") << Reduced;
  std::ofstream(Base + ".txt") << Meta << "reduced from "
                               << splitLines(Original).size() << " to "
                               << splitLines(Reduced).size() << " lines\n";
  return Base + ".mc";
}

/// Writes the minimized repro plus a metadata sidecar; returns the path.
std::string writeRepro(const std::string &Tag, const std::string &Original,
                       const std::string &Reduced, const Mismatch &M,
                       const StressOptions &Opts) {
  std::ostringstream Out;
  Out << "algorithm: " << algorithmName(M.Algorithm) << "\n"
      << "criterion: line " << M.Crit.Line << " vars "
      << join(M.Crit.Vars, ",") << " (line number refers to the\n"
      << "  original program; re-derive criteria on the reduced one)\n"
      << "input: " << describeInput(M.Input) << "\n"
      << "expected criterion values: " << describeInput(M.Expected) << "\n"
      << "actual criterion values:   " << describeInput(M.Actual) << "\n";
  return writeReproFiles("repro_" + Tag, Original, Reduced, Out.str(), Opts);
}

/// Writes a minimized engine-divergence repro plus metadata; returns the
/// path.
std::string writeBatchRepro(const std::string &Tag,
                            const std::string &Original,
                            const std::string &Reduced,
                            const BatchDivergence &D,
                            const StressOptions &Opts) {
  std::ostringstream Out;
  Out << "engine-vs-reference divergence (closure source: " << D.Via
      << ")\n"
      << "algorithm: " << algorithmName(D.Algorithm) << "\n"
      << "criterion: line " << D.Crit.Line << " (line number refers to "
      << "the\n  original program; re-derive criteria on the reduced "
      << "one)\n";
  if (D.OkMismatch)
    Out << "one side produced a slice, the other a diagnostic\n";
  else
    Out << "engine lines:    " << formatLineSet(D.EngineLines) << "\n"
        << "reference lines: " << formatLineSet(D.ReferenceLines) << "\n";
  return writeReproFiles("batch_" + Tag, Original, Reduced, Out.str(), Opts);
}

/// Re-runs \p Source's pipeline with a fault injected at every
/// \p Stride-th checkpoint, asserting the contract: the injected run
/// fails with diagnostics (or survives, when the ordinal lands past
/// the pipeline's checkpoints) and the disarmed re-run succeeds again.
void runFaultSweep(const std::string &Source, const std::string &Tag,
                   const StressOptions &Opts, Tally &Counts) {
  // Size the pipeline: one clean run, counting checkpoints.
  FaultInjection::resetCount();
  {
    ErrorOr<Analysis> A = Analysis::fromSource(Source, Opts.B);
    if (!A)
      return; // Degraded before any fault; nothing to sweep.
  }
  uint64_t Total = FaultInjection::observedCheckpoints();

  for (uint64_t At = 1; At <= Total; At += Opts.FaultStride) {
    FaultInjection::ScopedArm Arm(At);
    ++Counts.FaultRuns;
    ErrorOr<Analysis> A = Analysis::fromSource(Source, Opts.B);
    if (!A && A.diags().empty()) {
      ++Counts.ContractViolations;
      std::fprintf(stderr,
                   "CONTRACT VIOLATION: %s fault@%llu failed without "
                   "diagnostics\n",
                   Tag.c_str(), static_cast<unsigned long long>(At));
    }
  }

  // Disarmed, the pipeline must succeed again (no sticky global state).
  ErrorOr<Analysis> A = Analysis::fromSource(Source, Opts.B);
  if (!A) {
    ++Counts.ContractViolations;
    std::fprintf(stderr,
                 "CONTRACT VIOLATION: %s does not recover after the fault "
                 "sweep: %s\n",
                 Tag.c_str(), A.diags().str().c_str());
  }
}

/// Pushes one source through analysis + differential oracle; triages
/// any mismatch. \p Tag names repro files.
void runPipeline(const std::string &Source, const std::string &Tag,
                 uint64_t Seed, const StressOptions &Opts, Tally &Counts) {
  ++Counts.Pipelines;
  ErrorOr<Analysis> A = Analysis::fromSource(Source, Opts.B);
  if (!A) {
    if (A.diags().empty()) {
      ++Counts.ContractViolations;
      std::fprintf(stderr, "CONTRACT VIOLATION: %s failed without "
                           "diagnostics\n",
                   Tag.c_str());
      return;
    }
    if (A.diags().hasKind(DiagKind::ResourceExhausted)) {
      ++Counts.Degraded;
      if (Opts.Verbose)
        std::fprintf(stderr, "degraded %s: %s\n", Tag.c_str(),
                     A.diags().str().c_str());
    } else {
      ++Counts.InputErrors;
      if (Opts.Verbose)
        std::fprintf(stderr, "rejected %s: %s\n", Tag.c_str(),
                     A.diags().str().c_str());
    }
    return;
  }
  ++Counts.Analyzed;

  std::optional<Mismatch> M = checkOracle(*A, Seed, Opts, &Counts);
  if (M) {
    ++Counts.Mismatches;
    std::string Reduced = reduceFailure(Source, Opts);
    std::string Path = writeRepro(Tag, Source, Reduced, *M, Opts);
    std::fprintf(stderr,
                 "MISMATCH %s: %s slice diverges on criterion line %u; "
                 "minimized repro: %s\n",
                 Tag.c_str(), algorithmName(M->Algorithm), M->Crit.Line,
                 Path.c_str());
  }

  if (Opts.BatchCheck) {
    std::optional<BatchDivergence> D =
        checkBatchAgreement(Source, Opts, &Counts);
    if (D) {
      ++Counts.BatchDivergences;
      std::string Reduced = reduceBatchDivergence(Source, Opts);
      std::string Path = writeBatchRepro(Tag, Source, Reduced, *D, Opts);
      std::fprintf(stderr,
                   "ENGINE DIVERGENCE %s: %s slice (%s) differs from "
                   "the reference on criterion line %u; minimized repro: "
                   "%s\n",
                   Tag.c_str(), algorithmName(D->Algorithm), D->Via,
                   D->Crit.Line, Path.c_str());
    }
  }

  if (Opts.FaultStride)
    runFaultSweep(Source, Tag, Opts, Counts);
}

} // namespace

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

int main(int argc, char **argv) {
  StressOptions Opts;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> std::optional<std::string> {
      if (I + 1 >= argc)
        return std::nullopt;
      return std::string(argv[++I]);
    };

    if (Arg == "--seeds") {
      std::optional<std::string> Value = NextValue();
      if (!Value || !parseSeedRange(*Value, Opts)) {
        std::fprintf(stderr, "error: --seeds expects N or A..B\n");
        return usage();
      }
    } else if (Arg == "--budget") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: --budget requires an argument\n");
        return usage();
      }
      if (*Value == "tight")
        Opts.B = Budget::tight();
      else if (*Value == "default" || *Value == "unlimited")
        Opts.B = Budget::unlimited();
      else {
        std::fprintf(stderr, "error: unknown budget '%s'\n", Value->c_str());
        return usage();
      }
    } else if (Arg == "--dialect") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: --dialect requires an argument\n");
        return usage();
      }
      Opts.Structured = *Value == "structured" || *Value == "both";
      Opts.Gotos = *Value == "goto" || *Value == "both";
      if (!Opts.Structured && !Opts.Gotos) {
        std::fprintf(stderr, "error: unknown dialect '%s'\n", Value->c_str());
        return usage();
      }
    } else if (Arg == "--stmts" || Arg == "--max-criteria" ||
               Arg == "--trials" || Arg == "--fault-stride") {
      std::optional<std::string> Value = NextValue();
      std::string V = Value.value_or("");
      bool Ok;
      if (Arg == "--stmts")
        Ok = parseCountInto(V, Opts.TargetStmts);
      else if (Arg == "--max-criteria")
        Ok = parseCountInto(V, Opts.MaxCriteria);
      else if (Arg == "--trials")
        Ok = parseCountInto(V, Opts.Trials);
      else
        Ok = parseCountInto(V, Opts.FaultStride);
      if (!Ok) {
        std::fprintf(stderr,
                     "error: %s expects a non-negative integer in range\n",
                     Arg.c_str());
        return usage();
      }
    } else if (Arg == "--replay-journal") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: --replay-journal requires a file\n");
        return usage();
      }
      Opts.ReplayJournal = *Value;
    } else if (Arg == "--verify-journal") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: --verify-journal requires a file\n");
        return usage();
      }
      Opts.VerifyJournal = *Value;
    } else if (Arg == "--corpus") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: --corpus requires a directory\n");
        return usage();
      }
      Opts.CorpusDir = *Value;
    } else if (Arg == "--out") {
      std::optional<std::string> Value = NextValue();
      if (!Value) {
        std::fprintf(stderr, "error: --out requires a directory\n");
        return usage();
      }
      Opts.OutDir = *Value;
    } else if (Arg == "--no-batch-check") {
      Opts.BatchCheck = false;
    } else if (Arg == "--verbose") {
      Opts.Verbose = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage();
    }
  }

  // Scrub mode: verify the journal's record checksums and classify its
  // ending, nothing else. A torn tail is the normal residue of a kill
  // -9 mid-append (recovery truncates it); mid-file corruption means
  // the disk or a foreign writer damaged records recovery depends on.
  if (!Opts.VerifyJournal.empty()) {
    JournalScan Scan = scanJournalDetailed(Opts.VerifyJournal);
    if (!Scan.Exists) {
      std::fprintf(stderr, "error: cannot read journal %s\n",
                   Opts.VerifyJournal.c_str());
      return 2;
    }
    const char *Ending = Scan.CleanShutdown ? "clean shutdown"
                         : Scan.TornTail    ? "torn tail"
                                            : "no shutdown record";
    std::printf("jslice_stress: %s — %llu records, %llu in flight, "
                "ends: %s\n",
                Opts.VerifyJournal.c_str(),
                static_cast<unsigned long long>(Scan.Records),
                static_cast<unsigned long long>(Scan.InFlight.size()),
                Ending);
    if (Scan.CorruptRecords || Scan.SeqRegressions) {
      std::printf("               CORRUPT: %llu damaged record%s mid-file, "
                  "%llu sequence regression%s\n",
                  static_cast<unsigned long long>(Scan.CorruptRecords),
                  Scan.CorruptRecords == 1 ? "" : "s",
                  static_cast<unsigned long long>(Scan.SeqRegressions),
                  Scan.SeqRegressions == 1 ? "" : "s");
      return 1;
    }
    if (Scan.TornTail)
      std::printf("               torn tail after byte %llu (normal after "
                  "a crash mid-append; recovery truncates it)\n",
                  static_cast<unsigned long long>(Scan.GoodBytes));
    return 0;
  }

  Tally Counts;

  // Requests a crashed server left in flight: each poisoned program
  // goes through the same triage + ddmin as a generator mismatch, so
  // the quarantine turns into a root cause.
  if (!Opts.ReplayJournal.empty()) {
    std::vector<PoisonedRequest> Poisoned =
        scanJournalDetailed(Opts.ReplayJournal).InFlight;
    if (Poisoned.empty())
      std::fprintf(stderr, "jslice_stress: no poisoned requests in %s\n",
                   Opts.ReplayJournal.c_str());
    for (const PoisonedRequest &P : Poisoned) {
      std::string Tag = "journal_";
      for (char C : P.Id)
        Tag += std::isalnum(static_cast<unsigned char>(C)) ? C : '_';
      runPipeline(P.Request.Program, Tag, /*Seed=*/1, Opts, Counts);
    }
  }

  // Checked-in fuzz seeds first: fixed adversarial shapes. They are few
  // and each was checked in for some criterion, so none is capped.
  if (!Opts.CorpusDir.empty()) {
    StressOptions CorpusOpts = Opts;
    CorpusOpts.MaxCriteria = std::numeric_limits<unsigned>::max();
    std::error_code Ec;
    std::filesystem::directory_iterator It(Opts.CorpusDir, Ec), End;
    if (Ec) {
      std::fprintf(stderr, "error: cannot read corpus directory %s: %s\n",
                   Opts.CorpusDir.c_str(), Ec.message().c_str());
      return usage();
    }
    std::vector<std::filesystem::path> Files;
    for (; It != End; ++It)
      if (It->is_regular_file())
        Files.push_back(It->path());
    std::sort(Files.begin(), Files.end());
    for (const std::filesystem::path &File : Files) {
      std::ifstream In(File);
      std::stringstream Buffer;
      Buffer << In.rdbuf();
      runPipeline(Buffer.str(), "corpus_" + File.stem().string(),
                  /*Seed=*/1, CorpusOpts, Counts);
    }
  }

  // Generator fan-out over both dialects.
  for (uint64_t Seed = Opts.SeedLo; Seed <= Opts.SeedHi; ++Seed) {
    for (int Dialect = 0; Dialect != 2; ++Dialect) {
      bool Gotos = Dialect == 1;
      if ((Gotos && !Opts.Gotos) || (!Gotos && !Opts.Structured))
        continue;
      GenOptions Gen;
      Gen.Seed = Seed;
      Gen.TargetStmts = Opts.TargetStmts;
      Gen.AllowGotos = Gotos;
      std::string Tag = std::string(Gotos ? "goto" : "structured") +
                        "_seed" + std::to_string(Seed);
      runPipeline(generateProgram(Gen), Tag, Seed, Opts, Counts);
    }
  }

  std::printf("jslice_stress: %llu pipelines — %llu analyzed, %llu degraded "
              "under budget, %llu input errors\n",
              static_cast<unsigned long long>(Counts.Pipelines),
              static_cast<unsigned long long>(Counts.Analyzed),
              static_cast<unsigned long long>(Counts.Degraded),
              static_cast<unsigned long long>(Counts.InputErrors));
  std::printf("               %llu slices checked, %llu oracle runs, "
              "%llu mismatches, %llu fault runs, %llu contract "
              "violations\n",
              static_cast<unsigned long long>(Counts.SlicesChecked),
              static_cast<unsigned long long>(Counts.OracleRuns),
              static_cast<unsigned long long>(Counts.Mismatches),
              static_cast<unsigned long long>(Counts.FaultRuns),
              static_cast<unsigned long long>(Counts.ContractViolations));
  std::printf("               %llu engine-vs-reference comparisons, %llu "
              "divergences\n",
              static_cast<unsigned long long>(Counts.BatchCompared),
              static_cast<unsigned long long>(Counts.BatchDivergences));

  return Counts.Mismatches || Counts.ContractViolations ||
                 Counts.BatchDivergences
             ? 1
             : 0;
}
