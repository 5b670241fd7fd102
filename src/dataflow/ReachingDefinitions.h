//===- dataflow/ReachingDefinitions.h - Classic RD dataflow -----------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forward may-analysis of reaching definitions over the CFG, solved
/// with bit vectors in reverse postorder. Data dependence (the paper's
/// data dependence graph, e.g. Figure 2-b) is derived from it: node U is
/// data dependent on node D when D defines a variable U uses and that
/// definition reaches U.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_DATAFLOW_REACHINGDEFINITIONS_H
#define JSLICE_DATAFLOW_REACHINGDEFINITIONS_H

#include "cfg/Cfg.h"
#include "dataflow/DefUse.h"
#include "support/BitVector.h"

#include <vector>

namespace jslice {

/// Solved reaching-definitions facts. Definition *sites* are the CFG
/// nodes with non-empty defsOf; the bit index of a site is its dense def
/// id, which numbers the sites in node order. The facts live in two flat
/// word matrices: In (one row per node) and the per-variable def masks
/// (one row per variable).
class ReachingDefinitions {
public:
  /// With a \p Guard, the fixpoint polls one checkpoint per node
  /// transfer; on exhaustion the (possibly unconverged) facts are
  /// returned — callers must treat a tripped guard as failure.
  static ReachingDefinitions compute(const Cfg &C, const DefUse &DU,
                                     ResourceGuard *Guard = nullptr);

  unsigned numDefSites() const {
    return static_cast<unsigned>(DefNode.size());
  }
  unsigned defSiteNode(unsigned DefId) const { return DefNode[DefId]; }
  unsigned defSiteVar(unsigned DefId) const { return DefVar[DefId]; }

  /// Definitions reaching the *entry* of \p Node.
  BitVectorRef in(unsigned Node) const {
    return BitVectorRef(In.data() + size_t(Node) * Words, numDefSites());
  }

  /// CFG nodes whose definition of \p Var reaches the entry of \p Node —
  /// the data-dependence predecessors for a use of Var at Node, and the
  /// seeds of a (Var, loc) slicing criterion.
  std::vector<unsigned> reachingDefNodes(unsigned Node, unsigned Var) const;

  /// Invokes \p Fn on the def id of every definition of \p Var reaching
  /// the entry of \p Node, ascending: In[Node] & VarDefs[Var], a word at
  /// a time.
  template <typename Callable>
  void forEachReachingDef(unsigned Node, unsigned Var, Callable Fn) const {
    const BitVector::Word *InRow = In.data() + size_t(Node) * Words;
    const BitVector::Word *VarRow = VarDefs.data() + size_t(Var) * Words;
    for (size_t WI = 0; WI != Words; ++WI) {
      BitVector::Word W = InRow[WI] & VarRow[WI];
      while (W) {
        Fn(static_cast<unsigned>(WI * BitVector::BitsPerWord +
                                 __builtin_ctzll(W)));
        W &= W - 1;
      }
    }
  }

private:
  std::vector<unsigned> DefNode;
  std::vector<unsigned> DefVar;
  size_t Words = 0; ///< Words per row.
  std::vector<BitVector::Word> In;
  std::vector<BitVector::Word> VarDefs;
};

/// Builds the data dependence graph: an edge D -> U for every definition
/// D reaching a use at U. Slicing walks these edges backwards (preds).
Digraph buildDataDependence(const Cfg &C, const DefUse &DU,
                            const ReachingDefinitions &RD);

} // namespace jslice

#endif // JSLICE_DATAFLOW_REACHINGDEFINITIONS_H
