//===- graph/Dominators.cpp - Dominator / postdominator trees --------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "graph/Dominators.h"

#include <cassert>

using namespace jslice;

DomTree::DomTree(unsigned Root, std::vector<int> IDomIn)
    : Root(Root), IDom(std::move(IDomIn)), Tree(Root, IDom) {}

//===----------------------------------------------------------------------===//
// Cooper–Harvey–Kennedy iterative algorithm
//===----------------------------------------------------------------------===//

DomTree jslice::computeDominatorsIterative(const Digraph &G, unsigned Root,
                                           ResourceGuard *Guard) {
  unsigned N = G.numNodes();
  std::vector<unsigned> RPO = reversePostorder(G, Root);
  std::vector<int> RPONum(N, -1);
  for (unsigned I = 0, E = static_cast<unsigned>(RPO.size()); I != E; ++I)
    RPONum[RPO[I]] = static_cast<int>(I);

  // IDom in node indices; -1 = not yet known / unreachable.
  std::vector<int> IDom(N, -1);
  IDom[Root] = static_cast<int>(Root); // Temporarily self, per CHK.

  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (RPONum[static_cast<unsigned>(A)] >
             RPONum[static_cast<unsigned>(B)])
        A = IDom[static_cast<unsigned>(A)];
      while (RPONum[static_cast<unsigned>(B)] >
             RPONum[static_cast<unsigned>(A)])
        B = IDom[static_cast<unsigned>(B)];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Node : RPO) {
      if (Guard && !Guard->checkpoint("dominators.iterate")) {
        // Budget exhausted: abandon the fixpoint. The caller observes
        // the tripped guard and discards this (unconverged) tree.
        IDom[Root] = -1;
        return DomTree(Root, std::move(IDom));
      }
      if (Node == Root)
        continue;
      int NewIDom = -1;
      for (unsigned Pred : G.preds(Node)) {
        if (RPONum[Pred] < 0 || IDom[Pred] < 0)
          continue; // Unreachable or unprocessed predecessor.
        NewIDom = NewIDom < 0 ? static_cast<int>(Pred)
                              : Intersect(NewIDom, static_cast<int>(Pred));
      }
      if (NewIDom >= 0 && IDom[Node] != NewIDom) {
        IDom[Node] = NewIDom;
        Changed = true;
      }
    }
  }

  IDom[Root] = -1; // Root has no immediate dominator.
  return DomTree(Root, std::move(IDom));
}

//===----------------------------------------------------------------------===//
// Lengauer–Tarjan (simple eval/link variant)
//===----------------------------------------------------------------------===//

namespace {

/// State for one Lengauer–Tarjan run. Vertices are renumbered by DFS
/// discovery order (1-based, 0 = undiscovered), per the original paper.
struct LengauerTarjan {
  const Digraph &G;
  unsigned Root;

  std::vector<unsigned> DfsNum;    // node -> dfs number (0 = unreachable)
  std::vector<unsigned> Vertex;    // dfs number -> node
  std::vector<unsigned> ParentOf;  // dfs number -> dfs number
  std::vector<unsigned> Semi;      // dfs number -> dfs number
  std::vector<unsigned> Ancestor;  // forest for eval/link (0 = none)
  std::vector<unsigned> Label;     // eval/link labels
  std::vector<std::vector<unsigned>> Bucket;
  std::vector<unsigned> Dom; // dfs number -> dfs number

  LengauerTarjan(const Digraph &G, unsigned Root) : G(G), Root(Root) {
    unsigned N = G.numNodes();
    DfsNum.assign(N, 0);
    Vertex.assign(N + 1, 0);
    ParentOf.assign(N + 1, 0);
    Semi.assign(N + 1, 0);
    Ancestor.assign(N + 1, 0);
    Label.assign(N + 1, 0);
    Bucket.assign(N + 1, {});
    Dom.assign(N + 1, 0);
  }

  unsigned Count = 0;

  void dfs() {
    std::vector<std::pair<unsigned, size_t>> Stack;
    DfsNum[Root] = ++Count;
    Vertex[Count] = Root;
    Semi[Count] = Count;
    Label[Count] = Count;
    Stack.emplace_back(Root, 0);
    while (!Stack.empty()) {
      auto &[Node, NextIdx] = Stack.back();
      const auto &Succs = G.succs(Node);
      if (NextIdx >= Succs.size()) {
        Stack.pop_back();
        continue;
      }
      unsigned Succ = Succs[NextIdx++];
      if (DfsNum[Succ] != 0)
        continue;
      DfsNum[Succ] = ++Count;
      Vertex[Count] = Succ;
      Semi[Count] = Count;
      Label[Count] = Count;
      ParentOf[Count] = DfsNum[Node];
      Stack.emplace_back(Succ, 0);
    }
  }

  /// Path-compressing eval: returns the label with minimal semi on the
  /// forest path to \p V.
  unsigned eval(unsigned V) {
    if (Ancestor[V] == 0)
      return Label[V];
    compress(V);
    return Label[V];
  }

  void compress(unsigned V) {
    // Iterative path compression from V to the forest root.
    std::vector<unsigned> Path;
    unsigned Cur = V;
    while (Ancestor[Ancestor[Cur]] != 0) {
      Path.push_back(Cur);
      Cur = Ancestor[Cur];
    }
    for (auto It = Path.rbegin(), E = Path.rend(); It != E; ++It) {
      unsigned Node = *It;
      unsigned Anc = Ancestor[Node];
      if (Semi[Label[Anc]] < Semi[Label[Node]])
        Label[Node] = Label[Anc];
      Ancestor[Node] = Ancestor[Anc];
    }
  }

  std::vector<int> run() {
    dfs();

    for (unsigned W = Count; W >= 2; --W) {
      unsigned WNode = Vertex[W];
      // Step 2: semidominators.
      for (unsigned PredNode : G.preds(WNode)) {
        unsigned V = DfsNum[PredNode];
        if (V == 0)
          continue; // Predecessor unreachable from the root.
        unsigned U = eval(V);
        if (Semi[U] < Semi[W])
          Semi[W] = Semi[U];
      }
      Bucket[Semi[W]].push_back(W);
      Ancestor[W] = ParentOf[W]; // link(parent(w), w)

      // Step 3: implicit idoms for the parent's bucket.
      for (unsigned V : Bucket[ParentOf[W]]) {
        unsigned U = eval(V);
        Dom[V] = Semi[U] < Semi[V] ? U : ParentOf[W];
      }
      Bucket[ParentOf[W]].clear();
    }

    // Step 4: explicit idoms in DFS order.
    for (unsigned W = 2; W <= Count; ++W) {
      if (Dom[W] != Semi[W])
        Dom[W] = Dom[Dom[W]];
    }

    std::vector<int> IDom(G.numNodes(), -1);
    for (unsigned W = 2; W <= Count; ++W)
      IDom[Vertex[W]] = static_cast<int>(Vertex[Dom[W]]);
    return IDom;
  }
};

} // namespace

DomTree jslice::computeDominatorsLengauerTarjan(const Digraph &G,
                                                unsigned Root) {
  LengauerTarjan LT(G, Root);
  return DomTree(Root, LT.run());
}
