//===- graph/Tree.cpp - Parent-pointer tree index --------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "graph/Tree.h"

#include <algorithm>
#include <cassert>

using namespace jslice;

TreeIndex::TreeIndex(unsigned Root, const std::vector<int> &Parent)
    : N(static_cast<unsigned>(Parent.size())) {
  assert(Root < N && "root out of range");
  // Count each parent's children one slot ahead, prefix-sum the counts
  // into offsets, then place the children in ascending node order.
  Kids.assign(2 * size_t(N) + 1, 0);
  unsigned *Off = Kids.data();
  unsigned NumKids = 0;
  for (unsigned Node = 0; Node != N; ++Node)
    if (Parent[Node] >= 0) {
      ++Off[Parent[Node] + 1];
      ++NumKids;
    }
  Kids.resize(size_t(N) + 1 + NumKids);
  Off = Kids.data();
  for (unsigned Node = 0; Node != N; ++Node)
    Off[Node + 1] += Off[Node];
  In.assign(Off, Off + N); // Fill cursors until the walk below.
  for (unsigned Node = 0; Node != N; ++Node)
    if (Parent[Node] >= 0)
      Kids[N + 1 + In[Parent[Node]]++] = Node;

  // Preorder + interval numbering for O(1) ancestor queries.
  std::fill(In.begin(), In.end(), 0);
  Out.assign(N, 0);
  Preorder.reserve(N);
  unsigned Clock = 0;
  std::vector<std::pair<unsigned, unsigned>> Stack;
  Stack.reserve(N);
  Stack.emplace_back(Root, 0);
  In[Root] = ++Clock;
  Preorder.push_back(Root);
  while (!Stack.empty()) {
    auto &[Node, NextIdx] = Stack.back();
    NodeList Children = children(Node);
    if (NextIdx < Children.size()) {
      unsigned Child = Children[NextIdx++];
      In[Child] = ++Clock;
      Preorder.push_back(Child);
      Stack.emplace_back(Child, 0);
      continue;
    }
    Out[Node] = ++Clock;
    Stack.pop_back();
  }
}
