//===- pdg/ControlDependence.cpp - FOW control dependence -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "pdg/ControlDependence.h"

#include <cassert>

using namespace jslice;

Digraph jslice::buildControlDependence(const Digraph &FlowGraph,
                                       const DomTree &Pdt,
                                       ResourceGuard *Guard) {
  DigraphBuilder CD(FlowGraph.numNodes());
  addControlDependence(CD, FlowGraph, Pdt, Guard);
  return CD.freeze();
}

void jslice::addControlDependence(DigraphBuilder &CD,
                                  const Digraph &FlowGraph,
                                  const DomTree &Pdt, ResourceGuard *Guard) {
  CD.reserveEdges(2 * size_t(FlowGraph.numNodes()));
  for (unsigned X = 0, N = FlowGraph.numNodes(); X != N; ++X) {
    for (unsigned Y : FlowGraph.succs(X)) {
      if (Guard && !Guard->checkpoint("controldep.edge"))
        return; // Partial; the caller checks the guard.
      if (Pdt.dominates(Y, X))
        continue;
      // Walk the postdominator tree from Y up to (exclusive) ipdom(X);
      // every node on the way is control dependent on X. This includes
      // X itself for loop predicates (the classic self-dependence).
      assert(Pdt.isReachable(X) && "flowgraph node missing from PDT");
      int Stop = Pdt.idom(X);
      int Z = static_cast<int>(Y);
      while (Z >= 0 && Z != Stop) {
        CD.addEdge(X, static_cast<unsigned>(Z));
        Z = Pdt.idom(static_cast<unsigned>(Z));
      }
    }
  }
}
