//===- cfg/LexicalSuccessorTree.h - The paper's LST -------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lexical successor tree (Section 3 of the paper). The *immediate
/// lexical successor* of a statement S is the statement control would
/// pass to, when reaching S's location, if S (together with its body)
/// were deleted from the program. Representing each statement by its CFG
/// node, the parent pointers form a tree rooted at Exit. Construction is
/// purely syntax-directed.
///
/// For programs without jump statements the LST coincides with the
/// postdominator tree (the paper proves this is why conventional slicing
/// works there); a property test asserts that equivalence.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_CFG_LEXICALSUCCESSORTREE_H
#define JSLICE_CFG_LEXICALSUCCESSORTREE_H

#include "cfg/Cfg.h"
#include "graph/Tree.h"

#include <vector>

namespace jslice {

/// The lexical successor tree over CFG node ids, rooted at Exit. The
/// virtual Entry node is not part of the tree.
class LexicalSuccessorTree {
public:
  /// \p Parent[n] is the immediate-lexical-successor node of n, -1 for
  /// the root (Exit) and for Entry.
  LexicalSuccessorTree(unsigned Root, std::vector<int> Parent);

  unsigned root() const { return Root; }

  /// Immediate lexical successor; -1 for Exit and Entry.
  int parent(unsigned Node) const { return ParentOf[Node]; }

  bool inTree(unsigned Node) const {
    return Node == Root || ParentOf[Node] >= 0;
  }

  /// Children of \p Node in the tree, ascending.
  NodeList children(unsigned Node) const { return Tree.children(Node); }

  /// True when \p A is a lexical successor of \p B, i.e. an ancestor of
  /// \p B in this tree (reflexive).
  bool isLexicalSuccessorOf(unsigned A, unsigned B) const {
    if (!inTree(A) || !inTree(B))
      return false;
    return Tree.isAncestor(A, B);
  }

  /// Tree preorder (children in ascending node order) — the alternative
  /// traversal order the paper permits for the Figure 7 algorithm.
  const std::vector<unsigned> &preorder() const { return Tree.preorder(); }

  unsigned numNodes() const {
    return static_cast<unsigned>(ParentOf.size());
  }

  /// The raw parent vector (what Cfg::buildAugmentedGraph consumes).
  const std::vector<int> &parents() const { return ParentOf; }

private:
  unsigned Root;
  std::vector<int> ParentOf;
  TreeIndex Tree;
};

/// Builds the LST of \p C syntax-directedly.
LexicalSuccessorTree buildLexicalSuccessorTree(const Cfg &C);

/// True when jump node \p JumpNode is a *structured jump* (Section 4):
/// its target statement is also its lexical successor. break, continue,
/// and return always are; a goto is iff it jumps forward to an enclosing
/// continuation.
bool isStructuredJump(const Cfg &C, const LexicalSuccessorTree &Lst,
                      unsigned JumpNode);

/// True when every jump in the program is structured (the precondition
/// of the Figure 12 and Figure 13 algorithms).
bool isStructuredProgram(const Cfg &C, const LexicalSuccessorTree &Lst);

} // namespace jslice

#endif // JSLICE_CFG_LEXICALSUCCESSORTREE_H
