//===- slicer/SlicerInternal.h - The slice engine's shared machinery ---------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one slice engine's internals. Every PDG-based algorithm has a
/// single traversal, over a BitVector slice, parameterized only by its
/// ClosureSource: how a node's backward dependence closure gets into
/// the slice. computeSlice walks the dependence graphs (one query per
/// program: nothing to amortize); BatchSlicer reads its SCC closure
/// cache (many queries per program). Not part of the public API.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_SLICERINTERNAL_H
#define JSLICE_SLICER_SLICERINTERNAL_H

#include "slicer/Slicers.h"
#include "support/BitVector.h"

#include <atomic>
#include <mutex>
#include <optional>
#include <vector>

namespace jslice {

class DependenceClosure;

namespace detail {

/// Coordination for one fan-out run over a shared ResourceGuard
/// (which is single-threaded by design): the mutex serializes bulk
/// charges, the flag latches an observed trip so every worker's fast
/// path is one relaxed atomic load.
struct BatchGuardState {
  std::mutex M;
  std::atomic<bool> Tripped{false};
};

/// The engine's view of the pipeline guard. Direct (no shared state)
/// for a single-threaded caller: every checkpoint polls the guard,
/// preserving exact per-checkpoint fault-injection ordinals. When
/// criteria fan out across workers, each GuardRef buffers its
/// checkpoints locally and flushes them to the shared guard in
/// stride-sized batches through ResourceGuard::charge() — the shared
/// mutex is taken once per stride, not once per checkpoint. A trip
/// observed by any worker latches the shared flag; others notice at
/// their next checkpoint, so overshoot is bounded by one buffered
/// stride per worker.
class GuardRef {
public:
  explicit GuardRef(ResourceGuard &G, BatchGuardState *Shared = nullptr)
      : G(G), Shared(Shared),
        FlushStride(Shared ? G.budget().effectivePollStride() : 0) {}

  GuardRef(const GuardRef &) = delete;
  GuardRef &operator=(const GuardRef &) = delete;

  /// Merge-on-exit: steps buffered below the flush stride still reach
  /// the shared meter when the worker finishes its criterion.
  ~GuardRef() {
    if (Shared && Pending)
      flushPending("batch.flush");
  }

  bool checkpoint(const char *Site) const {
    return Shared ? charge(1, Site) : G.checkpoint(Site);
  }

  /// \p N checkpoints' worth of steps in one call (a direct guard sees
  /// one fault-injection observation; ResourceGuard::charge).
  bool charge(uint64_t N, const char *Site) const {
    if (!Shared)
      return G.charge(N, Site);
    if (Shared->Tripped.load(std::memory_order_relaxed))
      return false;
    if ((Pending += N) < FlushStride)
      return true;
    return flushPending(Site);
  }

  bool exhausted() const;
  Diag toDiag() const;

private:
  bool flushPending(const char *Site) const;

  ResourceGuard &G;
  BatchGuardState *Shared;
  uint64_t FlushStride;
  mutable uint64_t Pending = 0;
};

/// The plain closure step: adds the backward dependence closure of
/// \p Node over \p P (control and data edges, \p Node included) to
/// \p Slice, charging one \p Guard checkpoint per node added (null:
/// unmetered). The walk stops at nodes already in \p Slice, so it is
/// exact only when \p Slice is dependence-closed over \p P on entry —
/// every member's closure already in it (see ClosureSource::add).
/// Returns false when the guard trips; \p Slice is then partial.
bool addDependenceClosure(PdgView P, BitVector &Slice, unsigned Node,
                          const GuardRef *Guard = nullptr);

/// Where a traversal gets a node's backward dependence closure from,
/// and the guard it charges.
class ClosureSource {
public:
  /// Walks \p Deps per request (addDependenceClosure).
  ClosureSource(PdgView Deps, const GuardRef &Guard)
      : Walk(Deps), Guard(Guard) {}
  /// Reads \p Cache: one bitset union per request.
  ClosureSource(const DependenceClosure &Cache, const GuardRef &Guard)
      : Cache(&Cache), Guard(Guard) {}

  /// Adds \p Node's backward dependence closure to \p Slice.
  ///
  /// Precondition: \p Slice is dependence-closed — it holds the
  /// closure of each of its members. Both sources rely on it (the walk
  /// prunes at members; a member's cached closure is skipped), and
  /// every algorithm meets it: closures are only added on top of other
  /// closures, and the bare jumps Figures 12/13 and Jiang–Zhou–Robson
  /// insert come after their last closure step. Returns false when the
  /// guard trips (\p Slice is then partial).
  bool add(BitVector &Slice, unsigned Node) const;

  const GuardRef &guard() const { return Guard; }

private:
  std::optional<PdgView> Walk;
  const DependenceClosure *Cache = nullptr;
  const GuardRef &Guard;
};

/// Figure 7's two questions: a node's nearest postdominator and nearest
/// lexical successor in \p Slice, i.e. its nearest proper PDT and LST
/// ancestors in it (Exit, the root of both trees, ends every walk). A
/// walk stops at Exit, a member, or the first node already answered in
/// this epoch, and stamps the nodes it passed with the answer: within an
/// epoch each tree node is walked at most once. The memo is per thread
/// (24 B per node of the largest CFG the thread has sliced), reused and
/// never cleared; its 64-bit epoch only grows, so a new view starts one.
class NearestInSlice {
public:
  NearestInSlice(const Analysis &A, const BitVector &Slice);

  unsigned postdom(unsigned Node) { return nearest(Node, false); }
  unsigned lexSucc(unsigned Node) { return nearest(Node, true); }

  /// The decisive test: a jump is needed exactly when deleting it
  /// would change where control falls relative to the slice.
  bool jumpNeeded(unsigned J) { return postdom(J) != lexSucc(J); }

  /// \p Slice gained members (it only grows): every answer is stale.
  void sliceGrew();

  struct Scratch;

private:
  unsigned nearest(unsigned Node, bool Lex);

  const Analysis &A;
  const BitVector &Slice;
  Scratch &S;
  uint64_t Epoch;
};

/// The single dispatch over every algorithm, each a traversal that
/// gets its dependence closures from \p Close. Weiser's dataflow
/// slicer ignores \p Close.
SliceResult computeSlice(const Analysis &A, const ResolvedCriterion &RC,
                         SliceAlgorithm Algorithm,
                         const ClosureSource &Close);

/// Runs the Figure 7 final step (label re-association) over the
/// slice's jumps and moves the working bitset into \p R's node set.
void finishResult(const Analysis &A, BitVector Slice, SliceResult &R);

/// The closure of \p Seeds plus the conditional-jump adaptation to a
/// fixpoint — the conventional slice every algorithm starts from.
/// Returns false when the guard trips (partial slice).
bool closeWithAdaptation(const Analysis &A, const ClosureSource &Close,
                         BitVector &Slice,
                         const std::vector<unsigned> &Seeds);

// The related-work traversals (RelatedWork.cpp), each growing a
// conventional slice with the jumps its rule selects.
void addLyleJumps(const Analysis &A, const ClosureSource &Close,
                  BitVector &Slice);
void addGallagherJumps(const Analysis &A, const ClosureSource &Close,
                       BitVector &Slice);
void addJiangZhouRobsonJumps(const Analysis &A, BitVector &Slice);

} // namespace detail
} // namespace jslice

#endif // JSLICE_SLICER_SLICERINTERNAL_H
