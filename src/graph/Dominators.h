//===- graph/Dominators.h - Dominator / postdominator trees ----------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator-tree construction. Two independent implementations are
/// provided and cross-checked by the test suite:
///
///  * the iterative algorithm of Cooper, Harvey & Kennedy ("A Simple,
///    Fast Dominance Algorithm"), the default; and
///  * Lengauer & Tarjan's algorithm [20 in the paper], kept as an oracle
///    and for benchmarks on large graphs.
///
/// The paper's postdominator trees (its Figures 4-b, 6-b, 9-b, 11-b,
/// 15-b) are dominator trees of the reversed flowgraph rooted at Exit,
/// exactly as Section 3 prescribes; cfg/ exposes that composition.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_GRAPH_DOMINATORS_H
#define JSLICE_GRAPH_DOMINATORS_H

#include "graph/Digraph.h"
#include "graph/Tree.h"
#include "support/ResourceGuard.h"

#include <vector>

namespace jslice {

/// A rooted dominator tree over the node indices of some Digraph.
/// Nodes unreachable from the root are absent (isReachable == false).
class DomTree {
public:
  DomTree(unsigned Root, std::vector<int> IDomIn);

  unsigned root() const { return Root; }

  bool isReachable(unsigned Node) const {
    return Node == Root || IDom[Node] >= 0;
  }

  /// Immediate dominator; -1 for the root and for unreachable nodes.
  int idom(unsigned Node) const { return IDom[Node]; }
  const std::vector<int> &idoms() const { return IDom; }

  /// Children of \p Node in the tree, ascending.
  NodeList children(unsigned Node) const { return Tree.children(Node); }

  /// True when \p A dominates \p B (reflexively).
  bool dominates(unsigned A, unsigned B) const {
    if (!isReachable(A) || !isReachable(B))
      return false;
    return Tree.isAncestor(A, B);
  }

  bool properlyDominates(unsigned A, unsigned B) const {
    return A != B && dominates(A, B);
  }

  /// Tree preorder over reachable nodes, children in ascending node
  /// order (deterministic; the paper's Figure 7 traversal order).
  const std::vector<unsigned> &preorder() const { return Tree.preorder(); }

  unsigned numNodes() const { return static_cast<unsigned>(IDom.size()); }

private:
  unsigned Root;
  std::vector<int> IDom;
  TreeIndex Tree;
};

/// Cooper–Harvey–Kennedy iterative dominators of \p G rooted at \p Root.
/// With a \p Guard, the fixpoint polls one checkpoint per node visit;
/// on exhaustion the iteration stops and the (possibly unconverged)
/// tree is returned — callers must treat a tripped guard as failure.
DomTree computeDominatorsIterative(const Digraph &G, unsigned Root,
                                   ResourceGuard *Guard = nullptr);

/// Lengauer–Tarjan dominators of \p G rooted at \p Root (simple
/// eval/link variant).
DomTree computeDominatorsLengauerTarjan(const Digraph &G, unsigned Root);

/// Postdominator tree of \p G: dominators of the reversed graph rooted
/// at \p Exit. Uses the iterative algorithm.
inline DomTree computePostDominators(const Digraph &G, unsigned Exit,
                                     ResourceGuard *Guard = nullptr) {
  return computeDominatorsIterative(G.reversed(), Exit, Guard);
}

} // namespace jslice

#endif // JSLICE_GRAPH_DOMINATORS_H
