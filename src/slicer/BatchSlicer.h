//===- slicer/BatchSlicer.h - All-criteria slicing engine --------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch front end of the slice engine. The paper's algorithms are
/// defined per criterion, but realistic clients (IDE highlighting,
/// regression triage, the analysis cache's hits) slice the same program
/// against *many* criteria. Walking the dependence graphs per query
/// (what computeSlice does for a single one) repeats work across them,
/// so this front end condenses the PDG into strongly connected
/// components once (Tarjan over the union of control and data edges)
/// and caches every SCC's backward-reachability closure as a dense
/// bitset: each closure step of a query becomes one bitset union.
///
/// The closure caches are built on first use, not at construction: an
/// artifact the analysis cache publishes but never hits never pays for
/// them. Each build is charged to the guard of the query that needs it
/// (sliceShared: the hit's own guard) under a mutex, so concurrent
/// first queries build once; a build whose guard trips keeps nothing,
/// and the next query retries under its own guard. runAll builds before
/// it fans out, so workers only read.
///
/// The traversals are the single-shot path's own (SlicerInternal.h):
/// only the closure source differs, so results equal computeSlice's for
/// every algorithm when the resource budget is not exhausted; a tripped
/// budget degrades per criterion into a DiagKind::ResourceExhausted
/// diagnostic, never a crash (see DESIGN.md, "Batch slicing engine").
///
/// runAll fans independent criteria across a thread pool sharing the
/// Analysis' ResourceGuard through stride-batched charges (GuardRef in
/// SlicerInternal.h): overshoot past the budget is bounded by threads x
/// stride checkpoints, and *which* criterion observes a trip depends on
/// scheduling, so budget-sensitive tests run single-threaded.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_BATCHSLICER_H
#define JSLICE_SLICER_BATCHSLICER_H

#include "slicer/Slicers.h"
#include "support/BitVector.h"
#include "support/LazyBuild.h"

#include <optional>
#include <vector>

namespace jslice {

/// SCC condensation of one dependence graph plus the memoized backward
/// transitive closure of every component, as bitsets over CFG node ids.
/// Built once per (program, dependence graph); immutable afterwards, so
/// reads are freely shareable across threads.
class DependenceClosure {
public:
  /// An empty, invalid cache.
  DependenceClosure() = default;

  /// Condenses \p P (control and data edges together) over \p NumNodes
  /// nodes and computes every SCC's closure, charging one \p Guard
  /// checkpoint per node visited and per closure built. On exhaustion
  /// construction stops early and valid() is false.
  DependenceClosure(PdgView P, unsigned NumNodes,
                    ResourceGuard *Guard = nullptr);

  /// False when the guard tripped mid-build (closures unusable).
  bool valid() const { return Valid; }

  unsigned numNodes() const { return static_cast<unsigned>(SccId.size()); }
  unsigned numSccs() const { return static_cast<unsigned>(Closure.size()); }

  /// The component of \p Node (components are numbered in Tarjan
  /// completion order; ids are stable for one build only).
  unsigned sccOf(unsigned Node) const { return SccId[Node]; }

  /// The backward dependence closure of \p Node — every node it
  /// transitively depends on, itself included. Shared by all members of
  /// a component.
  const BitVector &closureOf(unsigned Node) const {
    return Closure[SccId[Node]];
  }

private:
  std::vector<unsigned> SccId;
  std::vector<BitVector> Closure;
  bool Valid = false;
};

/// One criterion's outcome in a batch run. `Result` is meaningful only
/// when `Ok`; otherwise `Diags` explains (unresolvable criterion or an
/// exhausted resource budget).
struct BatchEntry {
  Criterion Crit;
  bool Ok = false;
  SliceResult Result;
  DiagList Diags;
};

/// Knobs for BatchSlicer::runAll.
struct BatchOptions {
  SliceAlgorithm Algorithm = SliceAlgorithm::Agrawal;

  /// Worker threads; 0 means the hardware concurrency. Algorithms
  /// without a closure-cache implementation (Weiser) always run
  /// single-threaded.
  unsigned Threads = 0;
};

/// The all-criteria slicing engine. The first query condenses the PDG
/// and builds the closure cache; each query is then a bitset union plus
/// the (cheap) jump-augmentation layer of the chosen algorithm.
class BatchSlicer {
public:
  /// Builds nothing yet. \p A must outlive the BatchSlicer.
  explicit BatchSlicer(const Analysis &A);
  ~BatchSlicer();

  BatchSlicer(const BatchSlicer &) = delete;
  BatchSlicer &operator=(const BatchSlicer &) = delete;

  const Analysis &analysis() const { return A; }

  /// The cache over the unaugmented PDG (for tests and introspection),
  /// built now charging A.guard() if no query has built it yet. Invalid
  /// when that build trips the guard.
  const DependenceClosure &closures() const;

  /// One slice through the cache, building it charged to A.guard() on
  /// first use. Equal to computeSlice(A, RC, Algorithm) modulo resource
  /// exhaustion;
  /// algorithms without a cache-backed implementation (Weiser) dispatch
  /// to the single-shot slicer.
  SliceResult slice(const ResolvedCriterion &RC,
                    SliceAlgorithm Algorithm) const;

  /// Cache-backed slice charged against an *external* per-request
  /// guard \p G instead of the analysis' own — the cross-request
  /// analysis cache's hit path, where the artifact's guard belongs to
  /// the request that built it (its deadline long expired) and must
  /// not be charged or raced on by later requests. A closure cache
  /// (or the augmented bundle) this query needs and no earlier query
  /// built is built now, charged to \p G. Returns nullopt when the
  /// algorithm has no cache-backed implementation (Weiser) or when that
  /// build trips \p G; the caller then serves without the cache, and
  /// the next query retries the build. A returned slice equals
  /// slice() modulo exhaustion of \p G (check
  /// G.exhausted(): a tripped guard means a partial slice that must be
  /// discarded).
  std::optional<SliceResult> sliceShared(const ResolvedCriterion &RC,
                                         SliceAlgorithm Algorithm,
                                         ResourceGuard &G) const;

  /// True when the closure cache \p Algorithm reads (closuresFor) is
  /// already built, so sliceShared builds nothing: one acquire load. The
  /// analysis cache's hit probe serves such queries on the thread that
  /// read the request. False for Weiser, which reads no closure cache.
  bool closuresReady(SliceAlgorithm Algorithm) const {
    if (Algorithm == SliceAlgorithm::Weiser)
      return false;
    return (Algorithm == SliceAlgorithm::BallHorwitz ? Aug : Plain).get() !=
           nullptr;
  }

  /// Resolves and slices every criterion, fanning across
  /// Opts.Threads workers. The closure cache the algorithm reads is
  /// built first, charged to A.guard(), before any worker starts.
  /// Entry order matches \p Crits. Exhaustion of the shared budget
  /// degrades the remaining entries into ResourceExhausted diagnostics.
  std::vector<BatchEntry> runAll(const std::vector<Criterion> &Crits,
                                 const BatchOptions &Opts = {}) const;

  /// The thread count used when BatchOptions::Threads is 0:
  /// std::thread::hardware_concurrency(), at least 1.
  static unsigned defaultThreads();

private:
  const Analysis &A;
  /// Closure caches over the plain PDG and the augmented PDG
  /// (Ball–Horwitz only), each built on first use.
  mutable LazyBuild<DependenceClosure> Plain;
  mutable LazyBuild<DependenceClosure> Aug;

  /// The closure cache \p Algorithm reads — the augmented PDG's for
  /// Ball–Horwitz, the plain PDG's otherwise — built on first use
  /// charged to \p G. Null when that build trips \p G.
  const DependenceClosure *closuresFor(SliceAlgorithm Algorithm,
                                       ResourceGuard &G) const;
};

/// One criterion per source line that holds a statement (empty variable
/// list, i.e. "the variables used at that line") — the batch engine's
/// "slice everything" enumeration, ascending by line.
std::vector<Criterion> allLineCriteria(const Analysis &A);

} // namespace jslice

#endif // JSLICE_SLICER_BATCHSLICER_H
