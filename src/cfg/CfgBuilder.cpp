//===- cfg/CfgBuilder.cpp - Statement-level CFG construction ---------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Construction walks each statement list in reverse so that the entry
/// node of the lexical successor is already known ("continuation"
/// wiring). Goto edges are resolved in a fixup pass once every labeled
/// statement has a recorded entry node.
///
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"

#include "lang/AstWalk.h"

#include <algorithm>

using namespace jslice;

namespace jslice {

/// Stateful helper that wires one Program into one Cfg.
class CfgBuilder {
public:
  CfgBuilder(const Program &Prog, Cfg &Result, ResourceGuard *Guard)
      : Prog(Prog), Result(Result), Guard(Guard) {}

  bool run(DiagList &Diags);

private:
  unsigned makeNode(CfgNodeKind Kind, const Stmt *S, const Expr *Cond) {
    if (Guard && !Guard->countNode("cfg.node"))
      GuardTripped = true;
    unsigned Id = G.addNode();
    CfgNode Node;
    Node.Id = Id;
    Node.Kind = Kind;
    Node.S = S;
    Node.Cond = Cond;
    Result.Nodes.push_back(Node);
    Result.JumpTargets.push_back(Cfg::NoNode);
    Result.Branches.emplace_back();
    Result.Switches.emplace_back();
    return Id;
  }

  /// Wires \p S with fall-through continuation \p Next; returns the
  /// entry node (== Next when S contributes no nodes) and records it.
  unsigned wire(const Stmt *S, unsigned Next);
  unsigned wireList(const std::vector<const Stmt *> &List, unsigned Next);

  const Program &Prog;
  Cfg &Result;
  DigraphBuilder G;
  ResourceGuard *Guard;
  bool GuardTripped = false;

  struct LoopContext {
    unsigned BreakTarget;
    unsigned ContinueTarget;
    bool AcceptsContinue;
  };
  std::vector<LoopContext> Loops;

  std::vector<std::pair<unsigned, const Stmt *>> PendingGotos;
  std::vector<unsigned> ClauseEntries;
};

} // namespace jslice

unsigned CfgBuilder::wireList(const std::vector<const Stmt *> &List,
                              unsigned Next) {
  unsigned Entry = Next;
  for (auto It = List.rbegin(), E = List.rend(); It != E && !GuardTripped;
       ++It)
    Entry = wire(*It, Entry);
  return Entry;
}

unsigned CfgBuilder::wire(const Stmt *S, unsigned Next) {
  unsigned Entry = Next;

  // Budget exhausted: stop growing the graph. run() turns the tripped
  // guard into a diagnostic, so the half-wired Cfg never escapes.
  if (GuardTripped) {
    Result.StmtEntry[S->getId()] = Entry;
    return Entry;
  }

  switch (S->getKind()) {
  case StmtKind::Assign:
  case StmtKind::Read:
  case StmtKind::Write:
  case StmtKind::Empty: {
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    G.addEdge(Node, Next);
    Result.StmtNode[S->getId()] = Node;
    Entry = Node;
    break;
  }

  case StmtKind::Goto: {
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    Result.StmtNode[S->getId()] = Node;
    PendingGotos.emplace_back(Node, cast<GotoStmt>(S)->getTarget());
    Entry = Node;
    break;
  }

  case StmtKind::Break: {
    assert(!Loops.empty() && "sema guarantees an enclosing breakable");
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    unsigned Target = Loops.back().BreakTarget;
    G.addEdge(Node, Target);
    Result.JumpTargets[Node] = Target;
    Result.StmtNode[S->getId()] = Node;
    Entry = Node;
    break;
  }

  case StmtKind::Continue: {
    unsigned Target = 0;
    bool Found = false;
    for (auto It = Loops.rbegin(), E = Loops.rend(); It != E; ++It) {
      if (It->AcceptsContinue) {
        Target = It->ContinueTarget;
        Found = true;
        break;
      }
    }
    assert(Found && "sema guarantees an enclosing loop");
    (void)Found;
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    G.addEdge(Node, Target);
    Result.JumpTargets[Node] = Target;
    Result.StmtNode[S->getId()] = Node;
    Entry = Node;
    break;
  }

  case StmtKind::Return: {
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    G.addEdge(Node, Result.Exit);
    Result.JumpTargets[Node] = Result.Exit;
    Result.StmtNode[S->getId()] = Node;
    Entry = Node;
    break;
  }

  case StmtKind::Block:
    Entry = wireList(cast<BlockStmt>(S)->getBody(), Next);
    break;

  case StmtKind::If: {
    const auto *If = cast<IfStmt>(S);
    unsigned Cond = makeNode(CfgNodeKind::Predicate, S, If->getCond());
    unsigned ThenEntry = wire(If->getThen(), Next);
    unsigned ElseEntry = If->hasElse() ? wire(If->getElse(), Next) : Next;
    G.addEdge(Cond, ThenEntry);
    G.addEdge(Cond, ElseEntry);
    Result.Branches[Cond] = {ThenEntry, ElseEntry};
    Result.StmtNode[S->getId()] = Cond;
    Entry = Cond;
    break;
  }

  case StmtKind::While: {
    const auto *While = cast<WhileStmt>(S);
    unsigned Cond = makeNode(CfgNodeKind::Predicate, S, While->getCond());
    Loops.push_back({Next, Cond, /*AcceptsContinue=*/true});
    unsigned BodyEntry = wire(While->getBody(), Cond);
    Loops.pop_back();
    G.addEdge(Cond, BodyEntry);
    G.addEdge(Cond, Next);
    Result.Branches[Cond] = {BodyEntry, Next};
    Result.StmtNode[S->getId()] = Cond;
    Entry = Cond;
    break;
  }

  case StmtKind::DoWhile: {
    const auto *Do = cast<DoWhileStmt>(S);
    unsigned Cond = makeNode(CfgNodeKind::Predicate, S, Do->getCond());
    Loops.push_back({Next, Cond, /*AcceptsContinue=*/true});
    unsigned BodyEntry = wire(Do->getBody(), Cond);
    Loops.pop_back();
    G.addEdge(Cond, BodyEntry);
    G.addEdge(Cond, Next);
    Result.Branches[Cond] = {BodyEntry, Next};
    Result.StmtNode[S->getId()] = Cond;
    Entry = BodyEntry;
    break;
  }

  case StmtKind::For: {
    const auto *For = cast<ForStmt>(S);
    // A null Cond on the predicate node means constant-true (`for(;;)`);
    // no false edge is emitted for it.
    unsigned Cond = makeNode(CfgNodeKind::Predicate, S, For->getCond());
    unsigned StepEntry = For->getStep() ? wire(For->getStep(), Cond) : Cond;
    Loops.push_back({Next, StepEntry, /*AcceptsContinue=*/true});
    unsigned BodyEntry = wire(For->getBody(), StepEntry);
    Loops.pop_back();
    G.addEdge(Cond, BodyEntry);
    if (For->getCond()) {
      G.addEdge(Cond, Next);
      Result.Branches[Cond] = {BodyEntry, Next};
    } else {
      Result.Branches[Cond] = {BodyEntry, BodyEntry};
    }
    Result.StmtNode[S->getId()] = Cond;
    Entry = For->getInit() ? wire(For->getInit(), Cond) : Cond;
    break;
  }

  case StmtKind::Switch: {
    const auto *Switch = cast<SwitchStmt>(S);
    unsigned Cond = makeNode(CfgNodeKind::Predicate, S, Switch->getCond());
    Loops.push_back({Next, 0, /*AcceptsContinue=*/false});

    // Wire clauses in reverse so each knows its fall-through successor.
    // Their entries go on a stack that nested switches share.
    const auto &Clauses = Switch->getClauses();
    size_t Base = ClauseEntries.size();
    ClauseEntries.resize(Base + Clauses.size());
    unsigned Following = Next;
    for (size_t I = Clauses.size(); I-- > 0;) {
      Following = wireList(Clauses[I].Body, Following);
      ClauseEntries[Base + I] = Following;
    }
    const unsigned *ClauseEntry = ClauseEntries.data() + Base;
    Loops.pop_back();

    Cfg::CaseRange &Targets = Result.Switches[Cond];
    Targets.Begin = static_cast<unsigned>(Result.CaseTargets.size());
    Targets.DefaultTarget = Next;
    for (size_t I = 0, E = Clauses.size(); I != E; ++I) {
      if (Clauses[I].IsDefault)
        Targets.DefaultTarget = ClauseEntry[I];
      else
        Result.CaseTargets.emplace_back(Clauses[I].Value, ClauseEntry[I]);
      G.addEdge(Cond, ClauseEntry[I]);
    }
    Targets.End = static_cast<unsigned>(Result.CaseTargets.size());
    G.addEdge(Cond, Targets.DefaultTarget);
    ClauseEntries.resize(Base);
    Result.StmtNode[S->getId()] = Cond;
    Entry = Cond;
    break;
  }
  }

  Result.StmtEntry[S->getId()] = Entry;
  return Entry;
}

bool CfgBuilder::run(DiagList &Diags) {
  Result.Prog = &Prog;
  // Every statement makes at most one node, and most nodes one or two
  // edges: the side tables never regrow.
  size_t MaxNodes = size_t(Prog.numStmts()) + 2;
  Result.Nodes.reserve(MaxNodes);
  Result.JumpTargets.reserve(MaxNodes);
  Result.Branches.reserve(MaxNodes);
  Result.Switches.reserve(MaxNodes);
  Result.StmtNode.assign(Prog.numStmts(), Cfg::NoNode);
  Result.StmtEntry.assign(Prog.numStmts(), Cfg::NoNode);
  G.reserveEdges(2 * MaxNodes);
  Result.CaseTargets.reserve(MaxNodes);
  PendingGotos.reserve(MaxNodes);
  ClauseEntries.reserve(MaxNodes);
  Result.Entry = makeNode(CfgNodeKind::Entry, nullptr, nullptr);
  Result.Exit = makeNode(CfgNodeKind::Exit, nullptr, nullptr);

  unsigned First = wireList(Prog.topLevel(), Result.Exit);
  G.addEdge(Result.Entry, First);
  // The standard control-dependence augmentation: Entry -> Exit makes
  // every always-executed statement control dependent on Entry (the
  // paper's dummy predicate node 0).
  G.addEdge(Result.Entry, Result.Exit);

  if (GuardTripped) {
    Diags.report(SourceLoc(), Guard->reason(), DiagKind::ResourceExhausted);
    return false;
  }

  // Resolve gotos now that every labeled statement has an entry node.
  for (auto [GotoNode, TargetStmt] : PendingGotos) {
    assert(TargetStmt && "sema guarantees goto resolution");
    unsigned Target = Result.StmtEntry[TargetStmt->getId()];
    assert(Target != Cfg::NoNode && "target statement was not wired");
    G.addEdge(GotoNode, Target);
    Result.JumpTargets[GotoNode] = Target;
  }
  Result.G = G.freeze();

  // Every node must reach Exit or the postdominator machinery the
  // algorithms depend on is undefined (DESIGN.md).
  std::vector<bool> ReachesExit =
      reachableFrom(Result.G.reversed(), Result.Exit);
  for (unsigned Node = 0, E = Result.numNodes(); Node != E; ++Node) {
    if (ReachesExit[Node])
      continue;
    SourceLoc Loc =
        Result.Nodes[Node].S ? Result.Nodes[Node].S->getLoc() : SourceLoc();
    Diags.report(Loc, "statement cannot reach program exit; the paper's "
                      "postdominator-based algorithms require "
                      "exit-reachability");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Cfg member functions
//===----------------------------------------------------------------------===//

ErrorOr<Cfg> Cfg::build(const Program &Prog, ResourceGuard *Guard) {
  Cfg Result;
  DiagList Diags;
  CfgBuilder Builder(Prog, Result, Guard);
  if (!Builder.run(Diags))
    return Diags;
  Result.indexLines();
  return Result;
}

unsigned Cfg::nodeOf(const Stmt *S) const {
  unsigned Node = StmtNode[S->getId()];
  assert(Node != NoNode && "statement has no representative node");
  return Node;
}

unsigned Cfg::entryOf(const Stmt *S) const {
  unsigned Node = StmtEntry[S->getId()];
  assert(Node != NoNode && "statement was never wired");
  return Node;
}

std::optional<unsigned> Cfg::jumpTarget(unsigned NodeId) const {
  if (!Nodes[NodeId].isJump())
    return std::nullopt;
  return JumpTargets[NodeId];
}

const BranchTargets *Cfg::branchTargets(unsigned NodeId) const {
  const CfgNode &Node = Nodes[NodeId];
  if (Node.Kind != CfgNodeKind::Predicate || isa<SwitchStmt>(Node.S))
    return nullptr;
  return &Branches[NodeId];
}

std::optional<SwitchTargets> Cfg::switchTargets(unsigned NodeId) const {
  const CfgNode &Node = Nodes[NodeId];
  if (Node.Kind != CfgNodeKind::Predicate || !isa<SwitchStmt>(Node.S))
    return std::nullopt;
  const CaseRange &R = Switches[NodeId];
  return SwitchTargets{{CaseTargets.data() + R.Begin, R.End - R.Begin},
                       R.DefaultTarget};
}

std::string Cfg::labelOf(unsigned NodeId) const {
  const CfgNode &Node = Nodes[NodeId];
  switch (Node.Kind) {
  case CfgNodeKind::Entry:
    return "entry";
  case CfgNodeKind::Exit:
    return "exit";
  case CfgNodeKind::Statement:
  case CfgNodeKind::Predicate:
    break;
  }
  assert(Node.S && "statement node without statement");
  if (!Node.S->getLoc().isValid())
    return "n" + std::to_string(NodeId);
  return std::to_string(Node.S->getLoc().Line);
}

std::vector<unsigned> Cfg::unreachableNodes() const {
  std::vector<bool> Reachable = reachableFrom(G, Entry);
  std::vector<unsigned> Out;
  for (const CfgNode &Node : Nodes)
    if (Node.S && !Reachable[Node.Id])
      Out.push_back(Node.Id);
  return Out;
}

void Cfg::indexLines() {
  unsigned MaxLine = 0;
  for (const CfgNode &Node : Nodes)
    if (Node.S)
      MaxLine = std::max(MaxLine, Node.S->getLoc().Line);
  // Count each line's nodes one slot ahead, prefix-sum the counts into
  // start offsets, then place the nodes in ascending id order.
  LineStart.assign(MaxLine + 2, 0);
  for (const CfgNode &Node : Nodes)
    if (Node.S)
      ++LineStart[Node.S->getLoc().Line + 1];
  for (unsigned Line = 1; Line != LineStart.size(); ++Line)
    LineStart[Line] += LineStart[Line - 1];
  LineNodes.resize(LineStart.back());
  std::vector<unsigned> Next(LineStart.begin(), LineStart.end() - 1);
  for (const CfgNode &Node : Nodes)
    if (Node.S)
      LineNodes[Next[Node.S->getLoc().Line]++] = Node.Id;
}

std::vector<unsigned> Cfg::nodesOnLine(unsigned Line) const {
  if (size_t(Line) + 1 >= LineStart.size())
    return {};
  return std::vector<unsigned>(LineNodes.begin() + LineStart[Line],
                               LineNodes.begin() + LineStart[Line + 1]);
}

Digraph Cfg::buildAugmentedGraph(const std::vector<int> &IlsParent) const {
  DigraphBuilder Augmented(G);
  for (const CfgNode &Node : Nodes) {
    if (!Node.isJump())
      continue;
    assert(Node.Id < IlsParent.size() && IlsParent[Node.Id] >= 0 &&
           "jump node missing from the lexical successor tree");
    Augmented.addEdge(Node.Id, static_cast<unsigned>(IlsParent[Node.Id]));
  }
  return Augmented.freeze();
}
