//===- dataflow/ReachingDefinitions.cpp - Classic RD dataflow ---------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "dataflow/ReachingDefinitions.h"

#include <algorithm>

using namespace jslice;

ReachingDefinitions ReachingDefinitions::compute(const Cfg &C,
                                                 const DefUse &DU,
                                                 ResourceGuard *Guard) {
  using Word = BitVector::Word;
  constexpr size_t Bits = BitVector::BitsPerWord;
  ReachingDefinitions Result;
  unsigned N = C.numNodes();

  // Enumerate definition sites in node order; a node may host several
  // (a read defines its target and the $input pseudo-variable), and
  // node n's sites are the ids FirstDef[n] .. FirstDef[n + 1].
  std::vector<unsigned> FirstDef(size_t(N) + 1, 0);
  for (unsigned Node = 0; Node != N; ++Node)
    FirstDef[Node + 1] = FirstDef[Node] +
                         static_cast<unsigned>(DU.defsOf(Node).size());
  unsigned D = FirstDef[N];
  Result.DefNode.reserve(D);
  Result.DefVar.reserve(D);
  for (unsigned Node = 0; Node != N; ++Node) {
    for (unsigned Var : DU.defsOf(Node)) {
      Result.DefNode.push_back(Node);
      Result.DefVar.push_back(Var);
    }
  }
  const size_t W = (D + Bits - 1) / Bits;
  Result.Words = W;

  // Per-variable kill masks.
  Result.VarDefs.assign(DU.numVars() * W, 0);
  for (unsigned DefId = 0; DefId != D; ++DefId)
    Result.VarDefs[Result.DefVar[DefId] * W + DefId / Bits] |=
        Word(1) << (DefId % Bits);

  // In and Out, one row of W words per node, plus the transfer's
  // scratch row.
  Result.In.assign(size_t(N) * W, 0);
  std::vector<Word> Out(size_t(N) * W + W, 0);
  Word *Tmp = Out.data() + size_t(N) * W;

  std::vector<unsigned> RPO = reversePostorder(C.graph(), C.entry());
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned Node : RPO) {
      if (Guard && !Guard->checkpoint("reachingdefs.transfer")) {
        // Budget exhausted: abandon the fixpoint. The caller observes
        // the tripped guard and discards the unconverged facts.
        return Result;
      }
      std::fill(Tmp, Tmp + W, 0);
      for (unsigned Pred : C.graph().preds(Node)) {
        const Word *PredOut = Out.data() + size_t(Pred) * W;
        for (size_t I = 0; I != W; ++I)
          Tmp[I] |= PredOut[I];
      }
      std::copy(Tmp, Tmp + W, Result.In.data() + size_t(Node) * W);

      // Transfer: Out = Gen ∪ (In − Kill).
      for (unsigned Var : DU.defsOf(Node)) {
        const Word *Kill = Result.VarDefs.data() + size_t(Var) * W;
        for (size_t I = 0; I != W; ++I)
          Tmp[I] &= ~Kill[I];
      }
      for (unsigned DefId = FirstDef[Node]; DefId != FirstDef[Node + 1];
           ++DefId)
        Tmp[DefId / Bits] |= Word(1) << (DefId % Bits);
      Word *NodeOut = Out.data() + size_t(Node) * W;
      if (!std::equal(Tmp, Tmp + W, NodeOut)) {
        std::copy(Tmp, Tmp + W, NodeOut);
        Changed = true;
      }
    }
  }
  return Result;
}

std::vector<unsigned>
ReachingDefinitions::reachingDefNodes(unsigned Node, unsigned Var) const {
  std::vector<unsigned> Out;
  forEachReachingDef(Node, Var,
                     [&](unsigned DefId) { Out.push_back(DefNode[DefId]); });
  return Out;
}

Digraph jslice::buildDataDependence(const Cfg &C, const DefUse &DU,
                                    const ReachingDefinitions &RD) {
  unsigned N = C.numNodes();
  DigraphBuilder DD(N);
  DD.reserveEdges(4 * size_t(N));
  // Stamp[d] == u + 1 once the edge d -> u is recorded: a def node
  // reaching several of u's uses gets one edge, the first.
  std::vector<unsigned> Stamp(N, 0);
  for (unsigned Node = 0; Node != N; ++Node)
    for (unsigned Var : DU.usesOf(Node))
      RD.forEachReachingDef(Node, Var, [&](unsigned DefId) {
        unsigned Def = RD.defSiteNode(DefId);
        if (Stamp[Def] == Node + 1)
          return;
        Stamp[Def] = Node + 1;
        DD.addEdge(Def, Node);
      });
  return DD.freeze();
}
