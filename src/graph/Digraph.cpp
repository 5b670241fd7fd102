//===- graph/Digraph.cpp - Simple directed graph ----------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "graph/Digraph.h"

#include <algorithm>

using namespace jslice;

Digraph::Digraph(unsigned NumNodes) { layout(NumNodes, 0); }

void Digraph::layout(unsigned NumNodes, size_t NumEdges) {
  N = NumNodes;
  E = NumEdges;
  Data.assign(2 * (size_t(N) + 1) + 2 * E, 0);
}

Digraph Digraph::reversed() const {
  Digraph Rev;
  Rev.layout(N, E);
  // The reversed successors: a counting sort of the edges by target,
  // visiting sources in ascending order.
  std::copy(predOff(), predOff() + N + 1, Rev.succOff());
  std::vector<unsigned> Next(predOff(), predOff() + N);
  for (unsigned From = 0; From != N; ++From)
    for (unsigned To : succs(From))
      Rev.succTo()[Next[To]++] = From;
  // The reversed predecessors are the successors, as they are.
  std::copy(succOff(), succOff() + N + 1, Rev.predOff());
  std::copy(succTo(), succTo() + E, Rev.predFrom());
  return Rev;
}

void Digraph::addEdge(unsigned From, unsigned To) {
  DigraphBuilder B(*this);
  B.addEdge(From, To);
  *this = B.freeze();
}

Digraph DigraphBuilder::freeze() const {
  const unsigned N = NumNodes;
  const size_t M = Edges.size();
  const unsigned BaseN = Base ? Base->numNodes() : 0;
  // Scratch, one allocation: ByFrom[N + 1] buckets the new edges by
  // source, Order[M] lists them bucket by bucket in insertion order,
  // Mark[N] is the per-source duplicate stamp (then a fill cursor), and
  // Keep[M] flags each new edge's first occurrence.
  std::vector<unsigned> Scratch(2 * (size_t(N) + M) + 1, 0);
  unsigned *ByFrom = Scratch.data();
  unsigned *Order = ByFrom + N + 1;
  unsigned *Mark = Order + M;
  unsigned *Keep = Mark + N;

  for (const auto &[From, To] : Edges)
    ++ByFrom[From + 1];
  for (unsigned V = 0; V != N; ++V)
    ByFrom[V + 1] += ByFrom[V];
  std::copy(ByFrom, ByFrom + N, Mark);
  for (size_t I = 0; I != M; ++I)
    Order[Mark[Edges[I].first]++] = static_cast<unsigned>(I);

  const unsigned NoMark = ~0u;
  std::fill(Mark, Mark + N, NoMark);
  size_t Kept = 0;
  for (unsigned From = 0; From != N; ++From) {
    if (From < BaseN)
      for (unsigned To : Base->succs(From))
        Mark[To] = From;
    for (unsigned K = ByFrom[From]; K != ByFrom[From + 1]; ++K) {
      unsigned To = Edges[Order[K]].second;
      if (Mark[To] == From)
        continue;
      Mark[To] = From;
      Keep[Order[K]] = 1;
      ++Kept;
    }
  }

  Digraph G;
  G.layout(N, (Base ? Base->numEdges() : 0) + Kept);

  // Successors: the base list, then the kept new edges in order.
  unsigned *SuccOff = G.succOff(), *SuccTo = G.succTo();
  unsigned Pos = 0;
  for (unsigned From = 0; From != N; ++From) {
    SuccOff[From] = Pos;
    if (From < BaseN)
      for (unsigned To : Base->succs(From))
        SuccTo[Pos++] = To;
    for (unsigned K = ByFrom[From]; K != ByFrom[From + 1]; ++K)
      if (Keep[Order[K]])
        SuccTo[Pos++] = Edges[Order[K]].second;
  }
  SuccOff[N] = Pos;

  // Predecessors: count, then fill the base lists and the kept new
  // edges in insertion order through the Mark cursors.
  unsigned *PredOff = G.predOff(), *PredFrom = G.predFrom();
  for (unsigned To = 0; To != BaseN; ++To)
    PredOff[To + 1] = static_cast<unsigned>(Base->preds(To).size());
  for (size_t I = 0; I != M; ++I)
    if (Keep[I])
      ++PredOff[Edges[I].second + 1];
  for (unsigned V = 0; V != N; ++V)
    PredOff[V + 1] += PredOff[V];
  std::copy(PredOff, PredOff + N, Mark);
  for (unsigned To = 0; To != BaseN; ++To)
    for (unsigned From : Base->preds(To))
      PredFrom[Mark[To]++] = From;
  for (size_t I = 0; I != M; ++I)
    if (Keep[I])
      PredFrom[Mark[Edges[I].second]++] = Edges[I].first;
  return G;
}

std::vector<bool> jslice::reachableFrom(const Digraph &G, unsigned Root) {
  std::vector<bool> Seen(G.numNodes(), false);
  if (Root >= G.numNodes())
    return Seen;
  std::vector<unsigned> Worklist;
  Worklist.reserve(G.numNodes());
  Worklist.push_back(Root);
  Seen[Root] = true;
  while (!Worklist.empty()) {
    unsigned Node = Worklist.back();
    Worklist.pop_back();
    for (unsigned Succ : G.succs(Node)) {
      if (Seen[Succ])
        continue;
      Seen[Succ] = true;
      Worklist.push_back(Succ);
    }
  }
  return Seen;
}

std::vector<unsigned> jslice::reversePostorder(const Digraph &G,
                                               unsigned Root) {
  std::vector<unsigned> Postorder;
  Postorder.reserve(G.numNodes());
  std::vector<uint8_t> State(G.numNodes(), 0); // 0 new, 1 open, 2 done.
  // Iterative DFS storing (node, next-successor-index) frames.
  std::vector<std::pair<unsigned, size_t>> Stack;
  Stack.reserve(G.numNodes());
  Stack.emplace_back(Root, 0);
  State[Root] = 1;
  while (!Stack.empty()) {
    auto &[Node, NextIdx] = Stack.back();
    NodeList Succs = G.succs(Node);
    if (NextIdx < Succs.size()) {
      unsigned Succ = Succs[NextIdx++];
      if (State[Succ] == 0) {
        State[Succ] = 1;
        Stack.emplace_back(Succ, 0);
      }
      continue;
    }
    State[Node] = 2;
    Postorder.push_back(Node);
    Stack.pop_back();
  }
  std::reverse(Postorder.begin(), Postorder.end());
  return Postorder;
}
