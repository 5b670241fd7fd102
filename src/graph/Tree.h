//===- graph/Tree.h - Parent-pointer tree index ----------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The index the postdominator tree and the lexical successor tree share:
/// built from parent pointers, it keeps each node's children in
/// ascending order in one CSR array, a preorder that visits children in
/// that order, and preorder intervals for O(1) ancestor tests.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_GRAPH_TREE_H
#define JSLICE_GRAPH_TREE_H

#include "graph/Digraph.h"

#include <vector>

namespace jslice {

class TreeIndex {
public:
  /// Indexes the tree rooted at \p Root whose parent pointers are
  /// \p Parent (-1 for the root and for nodes outside the tree). Only
  /// nodes reachable from the root through child links get a preorder
  /// slot and an interval.
  TreeIndex(unsigned Root, const std::vector<int> &Parent);

  /// Children of \p Node, ascending.
  NodeList children(unsigned Node) const {
    const unsigned *Off = Kids.data();
    return NodeList(Off + N + 1 + Off[Node], Off[Node + 1] - Off[Node]);
  }

  /// Tree preorder, children in ascending node order.
  const std::vector<unsigned> &preorder() const { return Preorder; }

  /// True when \p A is an ancestor of \p B (reflexive). Both must be in
  /// the tree.
  bool isAncestor(unsigned A, unsigned B) const {
    return In[A] <= In[B] && Out[B] <= Out[A];
  }

private:
  unsigned N;
  std::vector<unsigned> Kids; ///< Offsets[N + 1], then the children.
  std::vector<unsigned> Preorder;
  std::vector<unsigned> In;
  std::vector<unsigned> Out;
};

} // namespace jslice

#endif // JSLICE_GRAPH_TREE_H
