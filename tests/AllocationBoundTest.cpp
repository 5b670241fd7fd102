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
//===----------------------------------------------------------------------===//

#include "gen/ProgramGenerator.h"
#include "slicer/Analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

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

} // namespace
