//===- slicer/BatchSlicer.cpp - All-criteria slicing engine ------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The closure cache and the batch front ends. The cache answers
/// "backward dependence closure of node n" in O(numNodes / 64) words;
/// the slicing itself is the engine's (SlicerInternal.h): the same
/// per-algorithm traversals computeSlice runs, handed a ClosureSource
/// that reads this cache instead of walking the dependence graphs.
/// Only Weiser, whose iterative-dataflow machinery shares nothing with
/// the PDG, has no cache-backed path.
///
//===----------------------------------------------------------------------===//

#include "slicer/BatchSlicer.h"

#include "slicer/SlicerInternal.h"
#include "support/WorkerPool.h"

#include <algorithm>
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
  GuardRef Guard(G);
  return detail::computeSlice(A, RC, Algorithm, ClosureSource(*Cache, Guard));
}

unsigned BatchSlicer::defaultThreads() {
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
    GuardRef Guard(A.guard(), SharedPtr);
    if ((!Weiser && !Cache) || Guard.exhausted()) {
      Entry.Diags = Guard.toDiag();
      return;
    }
    ErrorOr<ResolvedCriterion> RC = resolveCriterion(A, Entry.Crit);
    if (!RC) {
      Entry.Diags = RC.diags();
      return;
    }
    SliceResult R =
        Weiser ? computeSlice(A, *RC, SliceAlgorithm::Weiser)
               : detail::computeSlice(A, *RC, Opts.Algorithm,
                                      ClosureSource(*Cache, Guard));
    if (Guard.exhausted()) {
      Entry.Diags = Guard.toDiag();
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
