//===- slicer/BatchSlicer.cpp - All-criteria slicing engine ------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Implementation notes. The cache answers "backward dependence closure
/// of node n" in O(numNodes / 64) words; every slicing algorithm is then
/// re-expressed over bitsets:
///
///  * the conventional core (closure of the seeds plus the
///    conditional-jump adaptation fixpoint) becomes a union of cached
///    closures, iterated over the (predicate, jump) pair list;
///  * the Figure 7 / 12 / 13 layers keep their exact traversal
///    structure — same trees, same visit order, same add conditions —
///    but membership tests and closure growth run on the bitset;
///  * the related-work baselines (Lyle, Gallagher, JZR, Ball–Horwitz)
///    follow the same scheme; only Weiser, whose iterative-dataflow
///    machinery shares nothing with the PDG, dispatches to the
///    single-shot slicer.
///
/// Equality with the single-shot slicers is enforced by unit tests on
/// every paper figure, a PropertyTest generator case, and the stress
/// harness's batch cross-check (tools/jslice_stress.cpp).
///
//===----------------------------------------------------------------------===//

#include "slicer/BatchSlicer.h"

#include "slicer/SlicerInternal.h"
#include "support/WorkerPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

using namespace jslice;
using namespace jslice::detail;

//===----------------------------------------------------------------------===//
// DependenceClosure: Tarjan condensation + per-SCC closure bitsets
//===----------------------------------------------------------------------===//

namespace {

/// Iterative Tarjan SCC over the union of the control and data edges
/// (recursion would overflow on the deep dependence chains long
/// generated programs produce). Fills \p SccId and returns the SCC
/// member lists in Tarjan completion order (every component is emitted
/// after all components it has edges into).
class TarjanScc {
public:
  TarjanScc(PdgView P, unsigned NumNodes, ResourceGuard *Guard)
      : P(P), NumNodes(NumNodes), Guard(Guard) {}

  bool run(std::vector<unsigned> &SccId,
           std::vector<std::vector<unsigned>> &Components) {
    Index.assign(NumNodes, Unvisited);
    LowLink.assign(NumNodes, 0);
    OnStack.assign(NumNodes, false);
    SccId.assign(NumNodes, 0);

    for (unsigned Root = 0; Root != NumNodes; ++Root) {
      if (Index[Root] != Unvisited)
        continue;
      if (!strongConnect(Root, SccId, Components))
        return false;
    }
    return true;
  }

private:
  static constexpr unsigned Unvisited = ~0u;

  /// One DFS frame: the node and the position within its (virtual)
  /// successor list, where positions [0, control) index control succs
  /// and [control, control + data) index data succs.
  struct Frame {
    unsigned Node;
    unsigned NextSucc = 0;
  };

  unsigned succCount(unsigned Node) const {
    return static_cast<unsigned>(P.Control.succs(Node).size() +
                                 P.Data.succs(Node).size());
  }

  unsigned succAt(unsigned Node, unsigned I) const {
    const auto &Ctrl = P.Control.succs(Node);
    if (I < Ctrl.size())
      return Ctrl[I];
    return P.Data.succs(Node)[I - Ctrl.size()];
  }

  bool strongConnect(unsigned Root, std::vector<unsigned> &SccId,
                     std::vector<std::vector<unsigned>> &Components) {
    std::vector<Frame> Dfs;
    Dfs.push_back({Root});
    Index[Root] = LowLink[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;

    while (!Dfs.empty()) {
      if (Guard && !Guard->checkpoint("batch.scc"))
        return false;
      Frame &Top = Dfs.back();
      unsigned Node = Top.Node;
      if (Top.NextSucc < succCount(Node)) {
        unsigned Succ = succAt(Node, Top.NextSucc++);
        if (Index[Succ] == Unvisited) {
          Index[Succ] = LowLink[Succ] = NextIndex++;
          Stack.push_back(Succ);
          OnStack[Succ] = true;
          Dfs.push_back({Succ});
        } else if (OnStack[Succ]) {
          LowLink[Node] = std::min(LowLink[Node], Index[Succ]);
        }
        continue;
      }

      if (LowLink[Node] == Index[Node]) {
        std::vector<unsigned> Members;
        unsigned Member;
        do {
          Member = Stack.back();
          Stack.pop_back();
          OnStack[Member] = false;
          SccId[Member] = static_cast<unsigned>(Components.size());
          Members.push_back(Member);
        } while (Member != Node);
        Components.push_back(std::move(Members));
      }

      Dfs.pop_back();
      if (!Dfs.empty()) {
        unsigned Parent = Dfs.back().Node;
        LowLink[Parent] = std::min(LowLink[Parent], LowLink[Node]);
      }
    }
    return true;
  }

  PdgView P;
  unsigned NumNodes;
  ResourceGuard *Guard;

  unsigned NextIndex = 0;
  std::vector<unsigned> Index;
  std::vector<unsigned> LowLink;
  std::vector<bool> OnStack;
  std::vector<unsigned> Stack;
};

} // namespace

DependenceClosure::DependenceClosure(PdgView P, unsigned NumNodes,
                                     ResourceGuard *Guard) {
  std::vector<std::vector<unsigned>> Components;
  if (!TarjanScc(P, NumNodes, Guard).run(SccId, Components))
    return; // Guard tripped; Valid stays false.

  // Closure of a component = its own members plus the closures of every
  // predecessor component. Tarjan emits a component only after every
  // component it points *into*, so its predecessors (the components
  // pointing into it) appear later in emission order — walking the
  // emission list in reverse therefore sees every predecessor's closure
  // before it is needed.
  unsigned NumSccs = static_cast<unsigned>(Components.size());
  Closure.assign(NumSccs, BitVector());
  std::vector<unsigned> LastMerged(NumSccs, ~0u);

  for (unsigned Scc = NumSccs; Scc-- != 0;) {
    if (Guard && !Guard->checkpoint("batch.closure"))
      return; // Valid stays false.
    BitVector &Out = Closure[Scc];
    Out.resize(NumNodes);
    for (unsigned Node : Components[Scc]) {
      Out.set(Node);
      auto MergePreds = [&](const Digraph &G) {
        for (unsigned Pred : G.preds(Node)) {
          unsigned PredScc = SccId[Pred];
          if (PredScc == Scc || LastMerged[PredScc] == Scc)
            continue;
          LastMerged[PredScc] = Scc;
          Out |= Closure[PredScc];
        }
      };
      MergePreds(P.Control);
      MergePreds(P.Data);
    }
  }
  Valid = true;
}

//===----------------------------------------------------------------------===//
// Guard sharing across worker threads
//===----------------------------------------------------------------------===//

namespace {

/// Coordination for one fan-out run over a shared ResourceGuard
/// (which is single-threaded by design): the mutex serializes bulk
/// charges, the flag latches an observed trip so every worker's fast
/// path is one relaxed atomic load.
struct BatchGuardState {
  std::mutex M;
  std::atomic<bool> Tripped{false};
};

/// The batch engine's view of the pipeline guard: direct in
/// single-threaded runs (preserving exact per-checkpoint
/// fault-injection ordinals). When criteria fan out across workers,
/// each GuardRef buffers its checkpoints locally and flushes them to
/// the shared guard in stride-sized batches through
/// ResourceGuard::charge() — the shared mutex is taken once per
/// stride, not once per checkpoint, which is what lets the pool scale
/// past a single core. A trip observed by any worker latches the
/// shared flag; others notice at their next checkpoint, so overshoot
/// is bounded by one buffered stride per worker.
class GuardRef {
public:
  GuardRef(ResourceGuard &G, BatchGuardState *Shared)
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
    if (!Shared)
      return G.checkpoint(Site);
    if (Shared->Tripped.load(std::memory_order_relaxed))
      return false;
    if (++Pending < FlushStride)
      return true;
    return flushPending(Site);
  }

  bool exhausted() const {
    if (!Shared)
      return G.exhausted();
    if (Pending)
      flushPending("batch.flush");
    if (Shared->Tripped.load(std::memory_order_relaxed))
      return true;
    std::lock_guard<std::mutex> Lock(Shared->M);
    if (!G.exhausted())
      return false;
    Shared->Tripped.store(true, std::memory_order_relaxed);
    return true;
  }

  Diag toDiag() const {
    if (!Shared)
      return G.toDiag();
    std::lock_guard<std::mutex> Lock(Shared->M);
    return G.toDiag();
  }

private:
  bool flushPending(const char *Site) const {
    uint64_t N = Pending;
    Pending = 0;
    std::lock_guard<std::mutex> Lock(Shared->M);
    if (G.charge(N, Site))
      return true;
    Shared->Tripped.store(true, std::memory_order_relaxed);
    return false;
  }

  ResourceGuard &G;
  BatchGuardState *Shared;
  uint64_t FlushStride;
  mutable uint64_t Pending = 0;
};

//===----------------------------------------------------------------------===//
// Bitset re-implementations of the slicing algorithms
//===----------------------------------------------------------------------===//

/// closeWithAdaptation over the closure cache: union the seeds'
/// closures, then iterate the conditional-jump adaptation (a predicate
/// in the slice drags in its jump, with the jump's closure) to a
/// fixpoint. Returns false when the guard trips (partial slice, exactly
/// like the single-shot path).
bool closeBV(const Analysis &A, const DependenceClosure &Cache,
             const GuardRef &Guard, BitVector &Slice,
             const std::vector<unsigned> &Seeds) {
  for (unsigned Seed : Seeds) {
    if (!Guard.checkpoint("batch.close"))
      return false;
    Slice |= Cache.closureOf(Seed);
  }
  for (;;) {
    bool Adapted = false;
    for (auto [Pred, Jump] : A.condJumpPairs()) {
      if (Slice.test(Pred) && !Slice.test(Jump)) {
        if (!Guard.checkpoint("batch.close"))
          return false;
        Slice |= Cache.closureOf(Jump);
        Adapted = true;
      }
    }
    if (!Adapted)
      return true;
  }
}

unsigned nearestPostdomInSliceBV(const Analysis &A, unsigned Node,
                                 const BitVector &Slice) {
  int Cur = A.pdt().idom(Node);
  while (Cur >= 0) {
    unsigned N = static_cast<unsigned>(Cur);
    if (N == A.cfg().exit() || Slice.test(N))
      return N;
    Cur = A.pdt().idom(N);
  }
  return A.cfg().exit();
}

unsigned nearestLexSuccInSliceBV(const Analysis &A, unsigned Node,
                                 const BitVector &Slice) {
  int Cur = A.lst().parent(Node);
  while (Cur >= 0) {
    unsigned N = static_cast<unsigned>(Cur);
    if (N == A.cfg().exit() || Slice.test(N))
      return N;
    Cur = A.lst().parent(N);
  }
  return A.cfg().exit();
}

bool hasControllingPredicateBV(const Pdg &P, unsigned Node,
                               const BitVector &Slice) {
  for (unsigned Pred : P.Control.preds(Node))
    if (Slice.test(Pred))
      return true;
  return false;
}

bool allControllingPredicatesBV(const Pdg &P, unsigned Node,
                                const BitVector &Slice) {
  for (unsigned Pred : P.Control.preds(Node))
    if (!Slice.test(Pred))
      return false;
  return true;
}

/// Converts the working bitset into the public SliceResult form and
/// runs the Figure 7 final step (label re-association).
void finishResult(const Analysis &A, const BitVector &Slice,
                  SliceResult &R) {
  Slice.forEachSetBit([&](size_t Node) {
    R.Nodes.insert(static_cast<unsigned>(Node));
  });
  R.ReassociatedLabels = reassociateLabels(A, R.Nodes);
}

SliceResult sliceAgrawalBV(const Analysis &A, const DependenceClosure &Cache,
                           const GuardRef &Guard,
                           const ResolvedCriterion &RC, TraversalTree Tree) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  BitVector Slice(A.cfg().numNodes());
  if (!closeBV(A, Cache, Guard, Slice, RC.Seeds)) {
    finishResult(A, Slice, R);
    return R;
  }

  const std::vector<unsigned> &Order = Tree == TraversalTree::PostDominator
                                           ? A.pdt().preorder()
                                           : A.lst().preorder();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++R.Traversals;
    std::vector<unsigned> AddedThisPass;
    for (unsigned J : Order) {
      if (!A.cfg().node(J).isJump() || Slice.test(J))
        continue;
      if (!Guard.checkpoint("batch.traversal")) {
        if (Changed) {
          ++R.ProductiveTraversals;
          R.TraversalAdditions.push_back(std::move(AddedThisPass));
        }
        finishResult(A, Slice, R);
        return R;
      }
      unsigned NearestPd = nearestPostdomInSliceBV(A, J, Slice);
      unsigned NearestLs = nearestLexSuccInSliceBV(A, J, Slice);
      if (NearestPd == NearestLs)
        continue;
      if (!closeBV(A, Cache, Guard, Slice, {J})) {
        AddedThisPass.push_back(J);
        ++R.ProductiveTraversals;
        R.TraversalAdditions.push_back(std::move(AddedThisPass));
        finishResult(A, Slice, R);
        return R;
      }
      AddedThisPass.push_back(J);
      Changed = true;
    }
    if (Changed) {
      ++R.ProductiveTraversals;
      R.TraversalAdditions.push_back(std::move(AddedThisPass));
    }
  }

  finishResult(A, Slice, R);
  return R;
}

SliceResult sliceStructuredBV(const Analysis &A,
                              const DependenceClosure &Cache,
                              const GuardRef &Guard,
                              const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  BitVector Slice(A.cfg().numNodes());
  closeBV(A, Cache, Guard, Slice, RC.Seeds);

  R.Traversals = 1;
  for (unsigned J : A.pdt().preorder()) {
    if (!A.cfg().node(J).isJump() || Slice.test(J))
      continue;
    if (!hasControllingPredicateBV(A.pdg(), J, Slice))
      continue;
    if (nearestPostdomInSliceBV(A, J, Slice) ==
        nearestLexSuccInSliceBV(A, J, Slice))
      continue;
    Slice.set(J);
    R.ProductiveTraversals = 1;
  }

  finishResult(A, Slice, R);
  return R;
}

SliceResult sliceConservativeBV(const Analysis &A,
                                const DependenceClosure &Cache,
                                const GuardRef &Guard,
                                const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  BitVector Slice(A.cfg().numNodes());
  closeBV(A, Cache, Guard, Slice, RC.Seeds);

  for (unsigned J : jumpNodes(A.cfg()))
    if (!Slice.test(J) && hasControllingPredicateBV(A.pdg(), J, Slice))
      Slice.set(J);

  finishResult(A, Slice, R);
  return R;
}

SliceResult sliceLyleBV(const Analysis &A, const DependenceClosure &Cache,
                        const GuardRef &Guard, const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  std::vector<unsigned> Seeds = RC.Seeds;
  for (unsigned J : jumpNodes(A.cfg()))
    Seeds.push_back(J);
  BitVector Slice(A.cfg().numNodes());
  closeBV(A, Cache, Guard, Slice, Seeds);
  finishResult(A, Slice, R);
  return R;
}

/// Mirrors RelatedWork.cpp's basicBlockFrom (Gallagher's target-block
/// rule needs the same block notion the single-shot slicer uses).
std::vector<unsigned> basicBlockFromBV(const Cfg &C, unsigned Head) {
  std::vector<unsigned> Block;
  unsigned Cur = Head;
  for (;;) {
    if (Cur == C.exit() || Cur == C.entry())
      break;
    Block.push_back(Cur);
    if (C.graph().succs(Cur).size() != 1)
      break;
    unsigned Next = C.graph().succs(Cur).front();
    if (C.graph().preds(Next).size() != 1)
      break;
    Cur = Next;
  }
  return Block;
}

SliceResult sliceGallagherBV(const Analysis &A,
                             const DependenceClosure &Cache,
                             const GuardRef &Guard,
                             const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  BitVector Slice(A.cfg().numNodes());
  closeBV(A, Cache, Guard, Slice, RC.Seeds);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned J : jumpNodes(A.cfg())) {
      if (Slice.test(J))
        continue;
      std::optional<unsigned> Target = A.cfg().jumpTarget(J);
      if (!Target)
        continue;
      bool TargetBlockInSlice = *Target == A.cfg().exit();
      for (unsigned Node : basicBlockFromBV(A.cfg(), *Target))
        if (Slice.test(Node))
          TargetBlockInSlice = true;
      if (!TargetBlockInSlice)
        continue;
      if (!allControllingPredicatesBV(A.pdg(), J, Slice))
        continue;
      if (!closeBV(A, Cache, Guard, Slice, {J})) {
        finishResult(A, Slice, R);
        return R;
      }
      Changed = true;
    }
  }

  finishResult(A, Slice, R);
  return R;
}

SliceResult sliceJzrBV(const Analysis &A, const DependenceClosure &Cache,
                       const GuardRef &Guard, const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  BitVector Slice(A.cfg().numNodes());
  closeBV(A, Cache, Guard, Slice, RC.Seeds);

  for (unsigned J : jumpNodes(A.cfg())) {
    if (Slice.test(J))
      continue;
    std::optional<unsigned> Target = A.cfg().jumpTarget(J);
    if (!Target)
      continue;
    bool TargetInSlice = *Target == A.cfg().exit() || Slice.test(*Target);
    if (TargetInSlice && allControllingPredicatesBV(A.pdg(), J, Slice))
      Slice.set(J);
  }

  finishResult(A, Slice, R);
  return R;
}

SliceResult sliceSimpleClosureBV(const Analysis &A,
                                 const DependenceClosure &Cache,
                                 const GuardRef &Guard,
                                 const ResolvedCriterion &RC) {
  SliceResult R;
  R.CriterionNode = RC.Node;
  BitVector Slice(A.cfg().numNodes());
  closeBV(A, Cache, Guard, Slice, RC.Seeds);
  finishResult(A, Slice, R);
  return R;
}

/// The algorithm switch over the bitset implementations. \p Cache is
/// the one the algorithm reads (BatchSlicer::closuresFor).
SliceResult dispatchBV(const Analysis &A, const DependenceClosure &Cache,
                       const GuardRef &Guard, const ResolvedCriterion &RC,
                       SliceAlgorithm Algorithm) {
  switch (Algorithm) {
  case SliceAlgorithm::Conventional:
    return sliceSimpleClosureBV(A, Cache, Guard, RC);
  case SliceAlgorithm::Agrawal:
    return sliceAgrawalBV(A, Cache, Guard, RC,
                          TraversalTree::PostDominator);
  case SliceAlgorithm::AgrawalLst:
    return sliceAgrawalBV(A, Cache, Guard, RC,
                          TraversalTree::LexicalSuccessor);
  case SliceAlgorithm::Structured:
    return sliceStructuredBV(A, Cache, Guard, RC);
  case SliceAlgorithm::Conservative:
    return sliceConservativeBV(A, Cache, Guard, RC);
  case SliceAlgorithm::BallHorwitz:
    return sliceSimpleClosureBV(A, Cache, Guard, RC);
  case SliceAlgorithm::Lyle:
    return sliceLyleBV(A, Cache, Guard, RC);
  case SliceAlgorithm::Gallagher:
    return sliceGallagherBV(A, Cache, Guard, RC);
  case SliceAlgorithm::JiangZhouRobson:
    return sliceJzrBV(A, Cache, Guard, RC);
  case SliceAlgorithm::Weiser:
    break; // Handled by the callers (no cache-backed implementation).
  }
  assert(false && "unknown slicing algorithm");
  return SliceResult();
}

} // namespace

//===----------------------------------------------------------------------===//
// BatchSlicer
//===----------------------------------------------------------------------===//

BatchSlicer::BatchSlicer(const Analysis &A) : A(A) {}

BatchSlicer::~BatchSlicer() = default;

const DependenceClosure *
BatchSlicer::closuresFor(SliceAlgorithm Algorithm, ResourceGuard &G) const {
  // A build whose guard trips returns null, so LazyBuild keeps nothing
  // and the next caller rebuilds under its own guard.
  auto Keep = [](std::unique_ptr<DependenceClosure> C) {
    if (!C->valid())
      C.reset();
    return C;
  };
  unsigned N = A.cfg().numNodes();
  if (Algorithm != SliceAlgorithm::BallHorwitz)
    return Plain.getOrBuild([&] {
      return Keep(std::make_unique<DependenceClosure>(A.pdg(), N, &G));
    });
  return Aug.getOrBuild([&]() -> std::unique_ptr<DependenceClosure> {
    const Analysis::Augmented *Bundle = A.augmented(G);
    if (!Bundle)
      return nullptr;
    return Keep(
        std::make_unique<DependenceClosure>(A.augPdg(*Bundle), N, &G));
  });
}

const DependenceClosure &BatchSlicer::closures() const {
  static const DependenceClosure Invalid;
  const DependenceClosure *C = closuresFor(SliceAlgorithm::Agrawal, A.guard());
  return C ? *C : Invalid;
}

SliceResult BatchSlicer::slice(const ResolvedCriterion &RC,
                               SliceAlgorithm Algorithm) const {
  if (Algorithm == SliceAlgorithm::Weiser)
    return computeSlice(A, RC, SliceAlgorithm::Weiser);
  if (std::optional<SliceResult> R = sliceShared(RC, Algorithm, A.guard()))
    return std::move(*R);
  // The guard tripped building the cache and is latched: the same
  // empty partial slice a failed first checkpoint would produce.
  SliceResult R;
  R.CriterionNode = RC.Node;
  finishResult(A, BitVector(A.cfg().numNodes()), R);
  return R;
}

std::optional<SliceResult>
BatchSlicer::sliceShared(const ResolvedCriterion &RC,
                         SliceAlgorithm Algorithm, ResourceGuard &G) const {
  if (Algorithm == SliceAlgorithm::Weiser)
    return std::nullopt; // Iterative dataflow; nothing cached to reuse.
  const DependenceClosure *Cache = closuresFor(Algorithm, G);
  if (!Cache)
    return std::nullopt; // Build tripped G; the next hit retries.
  GuardRef Guard{G, nullptr};
  return dispatchBV(A, *Cache, Guard, RC, Algorithm);
}

unsigned BatchSlicer::defaultThreads() {
  if (const char *Env = std::getenv("JSLICE_THREADS")) {
    char *End = nullptr;
    long N = std::strtol(Env, &End, 10);
    if (End && *End == '\0' && N > 0 && N <= 1024)
      return static_cast<unsigned>(N);
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw ? Hw : 1;
}

std::vector<BatchEntry>
BatchSlicer::runAll(const std::vector<Criterion> &Crits,
                    const BatchOptions &Opts) const {
  std::vector<BatchEntry> Out(Crits.size());
  for (size_t I = 0; I != Crits.size(); ++I)
    Out[I].Crit = Crits[I];

  unsigned Threads = Opts.Threads ? Opts.Threads : defaultThreads();
  // Weiser has no cache-backed implementation: its single-shot slicer
  // polls the guard directly, so concurrent criteria would race on it.
  bool Weiser = Opts.Algorithm == SliceAlgorithm::Weiser;
  if (Weiser)
    Threads = 1;
  if (Threads > Crits.size())
    Threads = static_cast<unsigned>(Crits.size() ? Crits.size() : 1);

  // Build before fanning out, so workers only read the cache.
  const DependenceClosure *Cache =
      Weiser ? nullptr : closuresFor(Opts.Algorithm, A.guard());

  BatchGuardState Shared;
  BatchGuardState *SharedPtr = Threads > 1 ? &Shared : nullptr;

  auto SliceOne = [&](size_t I) {
    BatchEntry &Entry = Out[I];
    GuardRef Guard{A.guard(), SharedPtr};
    if ((!Weiser && !Cache) || Guard.exhausted()) {
      Entry.Diags.report(SourceLoc(), Guard.toDiag().Message,
                         DiagKind::ResourceExhausted);
      return;
    }
    ErrorOr<ResolvedCriterion> RC = resolveCriterion(A, Entry.Crit);
    if (!RC) {
      Entry.Diags = RC.diags();
      return;
    }
    SliceResult R =
        Weiser ? computeSlice(A, *RC, SliceAlgorithm::Weiser)
               : dispatchBV(A, *Cache, Guard, *RC, Opts.Algorithm);
    if (Guard.exhausted()) {
      Entry.Diags.report(SourceLoc(), Guard.toDiag().Message,
                         DiagKind::ResourceExhausted);
      return;
    }
    Entry.Ok = true;
    Entry.Result = std::move(R);
  };

  WorkerPool::parallelFor(Threads, Crits.size(), SliceOne);
  return Out;
}

//===----------------------------------------------------------------------===//
// Criterion enumeration
//===----------------------------------------------------------------------===//

std::vector<Criterion> jslice::allLineCriteria(const Analysis &A) {
  std::set<unsigned> Lines;
  const Cfg &C = A.cfg();
  for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node)
    if (const Stmt *S = C.node(Node).S)
      if (S->getLoc().isValid())
        Lines.insert(S->getLoc().Line);
  std::vector<Criterion> Out;
  Out.reserve(Lines.size());
  for (unsigned Line : Lines)
    Out.emplace_back(Line, std::vector<std::string>());
  return Out;
}
