//===- graph/Dot.cpp - Graphviz and text rendering ---------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "graph/Dot.h"

#include <algorithm>

using namespace jslice;

namespace {

std::string escapeDot(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

std::string jslice::toDot(const Digraph &G, const std::string &Name,
                          const NodeLabelFn &Label,
                          const std::function<bool(unsigned)> *Highlight) {
  std::string Out = "digraph \"" + escapeDot(Name) + "\" {\n";
  Out += "  node [shape=box, fontname=\"monospace\"];\n";
  for (unsigned Node = 0, E = G.numNodes(); Node != E; ++Node) {
    Out += "  n" + std::to_string(Node) + " [label=\"" +
           escapeDot(Label(Node)) + "\"";
    if (Highlight && (*Highlight)(Node))
      Out += ", style=filled, fillcolor=lightgrey";
    Out += "];\n";
  }
  for (unsigned From = 0, E = G.numNodes(); From != E; ++From) {
    NodeList Row = G.succs(From);
    std::vector<unsigned> Succs(Row.begin(), Row.end());
    std::sort(Succs.begin(), Succs.end());
    for (unsigned To : Succs)
      Out += "  n" + std::to_string(From) + " -> n" + std::to_string(To) +
             ";\n";
  }
  Out += "}\n";
  return Out;
}

std::string jslice::domTreeToDot(const DomTree &Tree, const std::string &Name,
                                 const NodeLabelFn &Label) {
  std::string Out = "digraph \"" + escapeDot(Name) + "\" {\n";
  Out += "  node [shape=ellipse, fontname=\"monospace\"];\n";
  for (unsigned Node = 0, E = Tree.numNodes(); Node != E; ++Node) {
    if (!Tree.isReachable(Node))
      continue;
    Out += "  n" + std::to_string(Node) + " [label=\"" +
           escapeDot(Label(Node)) + "\"];\n";
  }
  for (unsigned Node = 0, E = Tree.numNodes(); Node != E; ++Node) {
    if (Tree.idom(Node) < 0)
      continue;
    Out += "  n" + std::to_string(Tree.idom(Node)) + " -> n" +
           std::to_string(Node) + ";\n";
  }
  Out += "}\n";
  return Out;
}

std::string jslice::toEdgeListText(const Digraph &G,
                                   const NodeLabelFn &Label) {
  std::string Out;
  for (unsigned From = 0, E = G.numNodes(); From != E; ++From) {
    NodeList Row = G.succs(From);
    std::vector<unsigned> Succs(Row.begin(), Row.end());
    if (Succs.empty())
      continue;
    std::sort(Succs.begin(), Succs.end());
    Out += Label(From) + " ->";
    for (unsigned To : Succs)
      Out += " " + Label(To);
    Out += "\n";
  }
  return Out;
}

std::string jslice::domTreeToText(const DomTree &Tree,
                                  const NodeLabelFn &Label) {
  std::string Out;
  for (unsigned Node = 0, E = Tree.numNodes(); Node != E; ++Node) {
    if (Tree.idom(Node) < 0)
      continue;
    Out += Label(Node) + ": " +
           Label(static_cast<unsigned>(Tree.idom(Node))) + "\n";
  }
  return Out;
}
