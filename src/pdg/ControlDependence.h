//===- pdg/ControlDependence.h - FOW control dependence ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Control dependence per Ferrante, Ottenstein & Warren [10 in the
/// paper]: Y is control dependent on X iff X has an outgoing edge whose
/// target Y postdominates, while Y does not postdominate X itself. With
/// the Entry -> Exit augmentation edge (added by the CFG builder),
/// always-executed statements come out control dependent on Entry — the
/// paper's dummy predicate node 0.
///
/// The same routine serves the Ball–Horwitz / Choi–Ferrante baseline:
/// feed it the *augmented* flowgraph and that graph's postdominator tree
/// and jump statements become control-dependence parents.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_PDG_CONTROLDEPENDENCE_H
#define JSLICE_PDG_CONTROLDEPENDENCE_H

#include "graph/Digraph.h"
#include "graph/Dominators.h"

namespace jslice {

/// Builds the control dependence graph of \p FlowGraph. Edges run from
/// the controlling node to the controlled node. \p Pdt must be the
/// postdominator tree of \p FlowGraph (dominators of the reversed graph
/// rooted at Exit). With a \p Guard, one checkpoint is polled per edge
/// walk; on exhaustion the partial graph is returned — callers must
/// treat a tripped guard as failure.
Digraph buildControlDependence(const Digraph &FlowGraph, const DomTree &Pdt,
                               ResourceGuard *Guard = nullptr);

/// As above, recording the edges in \p CD (a builder over the
/// flowgraph's nodes) so the caller can add more before freezing.
void addControlDependence(DigraphBuilder &CD, const Digraph &FlowGraph,
                          const DomTree &Pdt, ResourceGuard *Guard = nullptr);

} // namespace jslice

#endif // JSLICE_PDG_CONTROLDEPENDENCE_H
