//===- pdg/Pdg.h - Program dependence graph ----------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program dependence graph (Ottenstein & Ottenstein [24], as used by
/// the paper's Figure 2-d): the union of the control and data dependence
/// graphs over the same CFG node ids. Dependence edges run from the
/// depended-on node to the dependent node, so backward slicing is a walk
/// over predecessors.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_PDG_PDG_H
#define JSLICE_PDG_PDG_H

#include "graph/Digraph.h"

namespace jslice {

/// A control dependence graph paired with a data dependence graph, by
/// reference. The augmented PDG of the Ball–Horwitz baseline is one of
/// these: its own control graph with the plain PDG's data graph, read
/// in place instead of copied. Cheap to pass by value; must not outlive
/// the graphs it refers to.
struct PdgView {
  const Digraph &Control;
  const Digraph &Data;
};

/// Control and data dependence, kept separate (the paper's algorithms
/// need "directly control dependent" queries) plus merged on demand.
struct Pdg {
  Digraph Control;
  Digraph Data;

  Pdg(Digraph Control, Digraph Data)
      : Control(std::move(Control)), Data(std::move(Data)) {}

  operator PdgView() const { return {Control, Data}; }

  /// The merged graph (Figure 2-d style).
  Digraph combined() const {
    DigraphBuilder Out(Control);
    for (unsigned From = 0, N = Data.numNodes(); From != N; ++From)
      for (unsigned To : Data.succs(From))
        Out.addEdge(From, To);
    return Out.freeze();
  }
};

} // namespace jslice

#endif // JSLICE_PDG_PDG_H
