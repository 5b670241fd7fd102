//===- graph/Digraph.h - Simple directed graph ------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, index-based directed graph used for control flowgraphs and
/// dependence graphs. Nodes are the integers [0, numNodes()); payloads
/// live in parallel side tables owned by the clients (cfg/, pdg/).
///
/// Graphs are built in two steps: a DigraphBuilder collects an edge
/// list, and freezing it lays the successor and predecessor lists out
/// in compressed-sparse-row form — offset and target arrays in one
/// allocation. Freezing drops duplicate edges, keeping the first, and
/// both directions keep the edges' insertion order.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_GRAPH_DIGRAPH_H
#define JSLICE_GRAPH_DIGRAPH_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace jslice {

/// A node's successor or predecessor list.
using NodeList = std::span<const unsigned>;

/// Dense directed graph in CSR form, immutable once built.
class Digraph {
public:
  Digraph() : Digraph(0) {}
  /// \p NumNodes nodes and no edges.
  explicit Digraph(unsigned NumNodes);

  unsigned numNodes() const { return N; }

  /// Successors in insertion order.
  NodeList succs(unsigned Node) const {
    assert(Node < N && "node out of range");
    return list(succOff(), succTo(), Node);
  }
  /// Predecessors in insertion order.
  NodeList preds(unsigned Node) const {
    assert(Node < N && "node out of range");
    return list(predOff(), predFrom(), Node);
  }

  bool hasEdge(unsigned From, unsigned To) const {
    for (unsigned Succ : succs(From))
      if (Succ == To)
        return true;
    return false;
  }

  size_t numEdges() const { return E; }

  /// Returns the graph with every edge direction flipped. The reversed
  /// graph's successors of a node are its predecessors here in
  /// ascending order; its predecessors are the successors here, in
  /// order.
  Digraph reversed() const;

  /// Adds the edge From -> To (ignored when present) by rebuilding the
  /// graph, O(nodes + edges): for small hand-built graphs. Analyses
  /// build through DigraphBuilder.
  void addEdge(unsigned From, unsigned To);

private:
  friend class DigraphBuilder;

  /// Sizes Data for \p NumNodes nodes and \p NumEdges edges, zeroed.
  void layout(unsigned NumNodes, size_t NumEdges);

  // Data holds four arrays back to back: succOff()[N + 1],
  // predOff()[N + 1], succTo()[E] and predFrom()[E]; node v's successors
  // are succTo()[succOff()[v] .. succOff()[v + 1]).
  unsigned *succOff() { return Data.data(); }
  unsigned *predOff() { return Data.data() + N + 1; }
  unsigned *succTo() { return Data.data() + 2 * (size_t(N) + 1); }
  unsigned *predFrom() { return succTo() + E; }
  const unsigned *succOff() const { return Data.data(); }
  const unsigned *predOff() const { return Data.data() + N + 1; }
  const unsigned *succTo() const { return Data.data() + 2 * (size_t(N) + 1); }
  const unsigned *predFrom() const { return succTo() + E; }

  static NodeList list(const unsigned *Off, const unsigned *Targets,
                       unsigned Node) {
    return NodeList(Targets + Off[Node], Off[Node + 1] - Off[Node]);
  }

  unsigned N = 0;
  size_t E = 0;
  std::vector<unsigned> Data;
};

/// Collects nodes and edges, then freezes them into a Digraph.
class DigraphBuilder {
public:
  explicit DigraphBuilder(unsigned NumNodes = 0) : NumNodes(NumNodes) {}

  /// Starts from \p Base's nodes and edges, which keep their order
  /// ahead of the edges added here. \p Base must outlive freeze().
  explicit DigraphBuilder(const Digraph &Base)
      : Base(&Base), NumNodes(Base.numNodes()) {}

  /// Appends a fresh node and returns its index.
  unsigned addNode() { return NumNodes++; }

  /// Records the edge From -> To. Duplicates are dropped at freeze().
  void addEdge(unsigned From, unsigned To) {
    assert(From < NumNodes && To < NumNodes && "edge endpoint missing");
    Edges.emplace_back(From, To);
  }

  void reserveEdges(size_t Count) { Edges.reserve(Count); }

  /// The graph: each node's successors and predecessors in insertion
  /// order, the first of any duplicate edges kept.
  Digraph freeze() const;

private:
  const Digraph *Base = nullptr;
  unsigned NumNodes;
  std::vector<std::pair<unsigned, unsigned>> Edges;
};

/// Nodes reachable from \p Root along forward edges (as a bool-per-node
/// vector).
std::vector<bool> reachableFrom(const Digraph &G, unsigned Root);

/// Reverse postorder of the subgraph reachable from \p Root.
std::vector<unsigned> reversePostorder(const Digraph &G, unsigned Root);

} // namespace jslice

#endif // JSLICE_GRAPH_DIGRAPH_H
