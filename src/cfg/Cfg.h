//===- cfg/Cfg.h - Statement-level control flowgraph ------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statement-level control flowgraph the paper's algorithms operate
/// on: one node per simple statement or predicate, plus virtual Entry and
/// Exit nodes. Entry has edges to the first statement and to Exit (the
/// paper's "dummy predicate node 0", which makes top-level statements
/// control dependent on Entry).
///
/// Side tables keep everything the later phases need:
///  * Stmt -> representative node (the predicate node for compounds);
///  * Stmt -> entry node (first node executed when control reaches it);
///  * per-predicate branch targets and per-switch case targets (the
///    interpreter dispatches on these, and the DOT exporter labels edges
///    from them);
///  * jump node -> target node (where the goto/break/continue/return
///    transfers to), used by the slicers and the projection interpreter.
///
/// `buildAugmentedGraph` adds the Ball–Horwitz / Choi–Ferrante edges
/// from every jump node to its immediate lexical successor; the baseline
/// slicer computes control dependence from that graph.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_CFG_CFG_H
#define JSLICE_CFG_CFG_H

#include "graph/Digraph.h"
#include "lang/Ast.h"
#include "support/Error.h"
#include "support/ResourceGuard.h"

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace jslice {

/// Classifies CFG nodes.
enum class CfgNodeKind {
  Entry,     ///< Virtual start node.
  Exit,      ///< Virtual end node; jump "targets" of return statements.
  Statement, ///< Simple statement (assign/read/write/jump/empty).
  Predicate, ///< Condition of if/while/do-while/for/switch.
};

/// One flowgraph node. `S` is null for Entry/Exit. For a Predicate node,
/// `S` is the owning compound statement and `Cond` its decision
/// expression (synthesized constant-true for a `for (;;)`).
struct CfgNode {
  unsigned Id = 0;
  CfgNodeKind Kind = CfgNodeKind::Statement;
  const Stmt *S = nullptr;
  const Expr *Cond = nullptr;

  bool isJump() const { return S && S->isJump(); }
};

/// Two-way branch targets of an if/while/do-while/for predicate node.
struct BranchTargets {
  unsigned TrueTarget = 0;
  unsigned FalseTarget = 0;
};

/// Dispatch targets of a switch predicate node. `Cases` views the
/// Cfg's flat case table, so it lives as long as the Cfg.
struct SwitchTargets {
  std::span<const std::pair<int64_t, unsigned>> Cases;
  unsigned DefaultTarget = 0; ///< Falls past the switch when no default.
};

/// The flowgraph plus its statement maps. Build with Cfg::build.
class Cfg {
public:
  /// Builds the flowgraph of \p Prog. Fails (with diagnostics) when some
  /// reachable statement cannot reach Exit — the paper's postdominator
  /// machinery requires exit-reachability (see DESIGN.md). With a
  /// \p Guard, every node built is charged against the budget's node
  /// dimension and exhaustion fails the build with a
  /// DiagKind::ResourceExhausted diagnostic.
  static ErrorOr<Cfg> build(const Program &Prog,
                            ResourceGuard *Guard = nullptr);

  const Program &program() const { return *Prog; }
  const Digraph &graph() const { return G; }
  unsigned entry() const { return Entry; }
  unsigned exit() const { return Exit; }
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  const CfgNode &node(unsigned Id) const { return Nodes[Id]; }

  /// The representative node of \p S: its own node for simple
  /// statements, the predicate node for compounds. Asserts for blocks
  /// (they have no node).
  unsigned nodeOf(const Stmt *S) const;
  bool hasNodeFor(const Stmt *S) const {
    return StmtNode[S->getId()] != NoNode;
  }

  /// The first node executed when control reaches \p S. Differs from
  /// nodeOf for do-while (body first) and for for-loops with an init
  /// clause.
  unsigned entryOf(const Stmt *S) const;

  /// For a jump node, the node its transfer lands on (Exit for return).
  std::optional<unsigned> jumpTarget(unsigned NodeId) const;

  /// Branch targets for two-way predicate nodes; null otherwise.
  const BranchTargets *branchTargets(unsigned NodeId) const;

  /// Case targets for switch predicate nodes; nullopt otherwise.
  std::optional<SwitchTargets> switchTargets(unsigned NodeId) const;

  /// Display label: "entry", "exit", or the statement's line number.
  std::string labelOf(unsigned NodeId) const;

  /// All statement/predicate nodes whose statement starts on \p Line,
  /// ascending. Reads the line index Cfg::build makes.
  std::vector<unsigned> nodesOnLine(unsigned Line) const;

  /// Statement/predicate nodes not reachable from Entry (dead code).
  /// The paper's model implicitly assumes there are none: an
  /// unreachable jump statement voids both the Figure 12 == Figure 7
  /// equivalence and the deletion-semantics reasoning (deleting the
  /// jump that guards a dead region resurrects the region). Analyses
  /// still run on such programs, but the property-level guarantees only
  /// hold when this list is empty (see DESIGN.md).
  std::vector<unsigned> unreachableNodes() const;

  /// The flowgraph augmented with an edge from every jump node to its
  /// immediate lexical successor \p IlsParent (node -> LST parent, as
  /// produced by buildLexicalSuccessorTree). This is the Ball–Horwitz /
  /// Choi–Ferrante construction; data dependence must still be computed
  /// from the unaugmented graph.
  Digraph buildAugmentedGraph(const std::vector<int> &IlsParent) const;

private:
  friend class CfgBuilder;

  Cfg() = default;

  /// Builds the line index: one counting pass over the nodes, so
  /// O(nodes + lines) with no hashing.
  void indexLines();

  /// Marks a statement without a node (blocks) in StmtNode.
  static constexpr unsigned NoNode = ~0u;

  /// Where switch \p NodeId's cases sit in CaseTargets.
  struct CaseRange {
    unsigned Begin = 0;
    unsigned End = 0;
    unsigned DefaultTarget = 0;
  };

  const Program *Prog = nullptr;
  Digraph G;
  unsigned Entry = 0;
  unsigned Exit = 0;
  std::vector<CfgNode> Nodes;
  /// Indexed by statement id.
  std::vector<unsigned> StmtNode;
  std::vector<unsigned> StmtEntry;
  /// Indexed by node id; each entry means something only for the node
  /// kind it serves (jumps, two-way predicates, switch heads).
  std::vector<unsigned> JumpTargets;
  std::vector<BranchTargets> Branches;
  std::vector<CaseRange> Switches;
  /// Every switch's (value, target) pairs, one switch after another.
  std::vector<std::pair<int64_t, unsigned>> CaseTargets;
  /// Line index, CSR style: the nodes on line L are
  /// LineNodes[LineStart[L] .. LineStart[L + 1]), ascending.
  std::vector<unsigned> LineStart;
  std::vector<unsigned> LineNodes;
};

} // namespace jslice

#endif // JSLICE_CFG_CFG_H
