//===- tests/AllocationBoundTest.cpp - Heap allocations of one analysis ----===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Counts the global operator new calls `Analysis::fromProgram` makes.
/// The analysis keeps its graphs, trees and dataflow facts in flat
/// arrays, so the count is a small constant: it must not grow with the
/// program (the parse, which builds one heap node per AST node, is
/// excluded by parsing before counting).
///
/// The same holds for a ready cache hit: serving it (`serveReadyHit`)
/// and encoding its response keep the slice's lines in one flat array
/// and write the response in one pass, and the journal writes its
/// begin and end records without a JSON tree, so none of them may
/// allocate per slice line.
///
//===----------------------------------------------------------------------===//

#include "gen/ProgramGenerator.h"
#include "service/Journal.h"
#include "service/SandboxWorker.h"
#include "slicer/Analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

namespace {

std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *countedAlignedAlloc(std::size_t Size, std::align_val_t Align) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t A = static_cast<std::size_t>(Align);
  if (void *P = std::aligned_alloc(A, (Size + A - 1) / A * A))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  try {
    return countedAlloc(Size);
  } catch (...) {
    return nullptr;
  }
}
void *operator new(std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void *operator new[](std::size_t Size, std::align_val_t Align) {
  return countedAlignedAlloc(Size, Align);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, std::size_t, std::align_val_t) noexcept {
  std::free(P);
}

using namespace jslice;

namespace {

/// A generated program of at least \p Stmts lines, shaped like the
/// benchmark's cold requests (six variables, gotos allowed).
std::unique_ptr<Program> programOfSize(unsigned Stmts) {
  for (uint64_t Seed = 1;; ++Seed) {
    GenOptions Opts;
    Opts.Seed = Seed;
    Opts.TargetStmts = Stmts;
    Opts.NumVars = 6;
    Opts.AllowGotos = true;
    std::string Source = generateProgram(Opts);
    if (static_cast<unsigned>(std::count(Source.begin(), Source.end(),
                                         '\n')) < Stmts)
      continue;
    ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source);
    if (Prog && Analysis::fromSource(Source))
      return std::move(*Prog);
  }
}

/// Operator new calls made by Analysis::fromProgram on \p Prog.
uint64_t allocationsOfAnalysis(std::unique_ptr<Program> Prog) {
  Allocations.store(0);
  Counting.store(true);
  ErrorOr<Analysis> A = Analysis::fromProgram(std::move(Prog));
  Counting.store(false);
  EXPECT_TRUE(A.hasValue());
  return Allocations.load();
}

TEST(AllocationBoundTest, CountsTheAllocator) {
  Allocations.store(0);
  Counting.store(true);
  auto *P = new int(1);
  Counting.store(false);
  delete P;
  EXPECT_EQ(Allocations.load(), 1u) << "operator new is not replaced";
}

TEST(AllocationBoundTest, FourHundredStatementAnalysisStaysUnderAThousand) {
  uint64_t N = allocationsOfAnalysis(programOfSize(400));
  EXPECT_LE(N, 1000u);
  std::printf("allocations for a 400-statement analysis: %llu\n",
              static_cast<unsigned long long>(N));
}

TEST(AllocationBoundTest, CountDoesNotGrowWithTheProgram) {
  uint64_t Small = allocationsOfAnalysis(programOfSize(100));
  uint64_t Large = allocationsOfAnalysis(programOfSize(800));
  std::printf("allocations: 100 statements %llu, 800 statements %llu\n",
              static_cast<unsigned long long>(Small),
              static_cast<unsigned long long>(Large));
  EXPECT_LE(Large * 10, Small * 11) << "more than 10% growth";
}

/// A straight-line program whose last line's slice is every one of its
/// \p Assignments + 2 lines.
std::string chainProgram(unsigned Assignments) {
  std::string Source = "read(v0);\n";
  for (unsigned I = 1; I <= Assignments; ++I)
    Source += "v" + std::to_string(I) + " = v" + std::to_string(I - 1) +
              " + 1;\n";
  Source += "write(v" + std::to_string(Assignments) + ");\n";
  return Source;
}

/// Operator new calls made answering a ready cache hit on a
/// \p Assignments-chain program, probe to encoded response; the
/// served line count goes to \p Lines.
uint64_t allocationsOfReadyHit(unsigned Assignments, size_t &Lines) {
  ExecConfig Cfg;
  AnalysisCache Cache(Cfg.Cache);
  ServiceRequest R;
  R.Id = "hit-request";
  R.Program = chainProgram(Assignments);
  R.Line = Assignments + 2;
  // The first request builds the artifact, the second its closures.
  for (int Warm = 0; Warm != 2; ++Warm)
    EXPECT_EQ(executeSliceRequest(R, Cfg, nullptr, nullptr, &Cache).Status,
              ResponseStatus::Ok);
  CacheAdmission Adm;
  Adm.RawKey = rawProgramKey(R.Program);
  Allocations.store(0);
  Counting.store(true);
  std::optional<ServiceResponse> Resp =
      serveReadyHit(R, Cfg, nullptr, Cache, Adm);
  std::string Line = Resp ? Resp->str() : std::string();
  Counting.store(false);
  EXPECT_TRUE(Resp.has_value()) << "not served as a ready hit";
  EXPECT_NE(Line.find("\"cached\":true"), std::string::npos) << Line;
  Lines = Resp ? Resp->Lines.size() : 0;
  return Allocations.load();
}

TEST(AllocationBoundTest, ReadyHitAndItsResponseDoNotGrowWithTheSlice) {
  uint64_t First = 0;
  for (unsigned Assignments : {8u, 64u, 512u, 2048u}) {
    size_t Lines = 0;
    uint64_t N = allocationsOfReadyHit(Assignments, Lines);
    EXPECT_EQ(Lines, Assignments + 2u);
    std::printf("ready hit + encode, %zu-line slice: %llu allocations\n",
                Lines, static_cast<unsigned long long>(N));
    EXPECT_LE(N, 12u) << Lines << "-line slice";
    if (!First)
      First = N;
    EXPECT_EQ(N, First) << "grows with the slice: " << Lines << " lines";
  }
}

TEST(AllocationBoundTest, JournalBeginAndEndDoNotGrowWithTheRequest) {
  std::string Path = ::testing::TempDir() + "jslice_alloc_bound.jsonl";
  std::remove(Path.c_str());
  Journal J;
  ASSERT_TRUE(J.open(Path));
  J.setGeneration(2);
  J.setEpoch(3);
  uint64_t FirstBegin = 0, FirstEnd = 0;
  for (unsigned Assignments : {8u, 64u, 512u, 2048u}) {
    // The request as the server holds it: parsed from its line, the
    // program literal viewing that line.
    ServiceRequest Spec;
    Spec.Id = "journaled-request-" + std::to_string(Assignments);
    Spec.Program = chainProgram(Assignments);
    Spec.Line = Assignments + 2;
    Spec.Vars = {"v" + std::to_string(Assignments)};
    std::string Line = Spec.toJson().str();
    ParsedRequest P = parseRequestLine(Line);
    ASSERT_TRUE(P.Ok);
    ASSERT_FALSE(P.Request.ProgramLiteral.empty());

    Allocations.store(0);
    Counting.store(true);
    bool Began = J.begin(P.Request);
    Counting.store(false);
    uint64_t Begin = Allocations.load();
    Allocations.store(0);
    Counting.store(true);
    bool Ended = J.end(P.Request.Id, "ok");
    Counting.store(false);
    uint64_t End = Allocations.load();
    EXPECT_TRUE(Began && Ended);
    std::printf("journal, %zu-byte program: begin %llu, end %llu "
                "allocations\n",
                Spec.Program.size(), static_cast<unsigned long long>(Begin),
                static_cast<unsigned long long>(End));
    EXPECT_LE(Begin, 6u);
    EXPECT_LE(End, 3u);
    if (!FirstBegin) {
      FirstBegin = Begin;
      FirstEnd = End;
    }
    EXPECT_EQ(Begin, FirstBegin) << Spec.Program.size() << "-byte program";
    EXPECT_EQ(End, FirstEnd) << Spec.Program.size() << "-byte program";
  }
  std::remove(Path.c_str());
}

} // namespace
