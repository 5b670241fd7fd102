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
    unsigned Id = Result.G.addNode();
    CfgNode Node;
    Node.Id = Id;
    Node.Kind = Kind;
    Node.S = S;
    Node.Cond = Cond;
    Result.Nodes.push_back(Node);
    return Id;
  }

  /// Wires \p S with fall-through continuation \p Next; returns the
  /// entry node (== Next when S contributes no nodes) and records it.
  unsigned wire(const Stmt *S, unsigned Next);
  unsigned wireList(const std::vector<const Stmt *> &List, unsigned Next);

  const Program &Prog;
  Cfg &Result;
  ResourceGuard *Guard;
  bool GuardTripped = false;

  struct LoopContext {
    unsigned BreakTarget;
    unsigned ContinueTarget;
    bool AcceptsContinue;
  };
  std::vector<LoopContext> Loops;

  std::vector<std::pair<unsigned, const Stmt *>> PendingGotos;
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
    Result.StmtEntry[S] = Entry;
    return Entry;
  }

  switch (S->getKind()) {
  case StmtKind::Assign:
  case StmtKind::Read:
  case StmtKind::Write:
  case StmtKind::Empty: {
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    Result.G.addEdge(Node, Next);
    Result.StmtNode[S] = Node;
    Entry = Node;
    break;
  }

  case StmtKind::Goto: {
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    Result.StmtNode[S] = Node;
    PendingGotos.emplace_back(Node, cast<GotoStmt>(S)->getTarget());
    Entry = Node;
    break;
  }

  case StmtKind::Break: {
    assert(!Loops.empty() && "sema guarantees an enclosing breakable");
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    unsigned Target = Loops.back().BreakTarget;
    Result.G.addEdge(Node, Target);
    Result.JumpTargets[Node] = Target;
    Result.StmtNode[S] = Node;
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
    Result.G.addEdge(Node, Target);
    Result.JumpTargets[Node] = Target;
    Result.StmtNode[S] = Node;
    Entry = Node;
    break;
  }

  case StmtKind::Return: {
    unsigned Node = makeNode(CfgNodeKind::Statement, S, nullptr);
    Result.G.addEdge(Node, Result.Exit);
    Result.JumpTargets[Node] = Result.Exit;
    Result.StmtNode[S] = Node;
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
    Result.G.addEdge(Cond, ThenEntry);
    Result.G.addEdge(Cond, ElseEntry);
    Result.Branches[Cond] = {ThenEntry, ElseEntry};
    Result.StmtNode[S] = Cond;
    Entry = Cond;
    break;
  }

  case StmtKind::While: {
    const auto *While = cast<WhileStmt>(S);
    unsigned Cond = makeNode(CfgNodeKind::Predicate, S, While->getCond());
    Loops.push_back({Next, Cond, /*AcceptsContinue=*/true});
    unsigned BodyEntry = wire(While->getBody(), Cond);
    Loops.pop_back();
    Result.G.addEdge(Cond, BodyEntry);
    Result.G.addEdge(Cond, Next);
    Result.Branches[Cond] = {BodyEntry, Next};
    Result.StmtNode[S] = Cond;
    Entry = Cond;
    break;
  }

  case StmtKind::DoWhile: {
    const auto *Do = cast<DoWhileStmt>(S);
    unsigned Cond = makeNode(CfgNodeKind::Predicate, S, Do->getCond());
    Loops.push_back({Next, Cond, /*AcceptsContinue=*/true});
    unsigned BodyEntry = wire(Do->getBody(), Cond);
    Loops.pop_back();
    Result.G.addEdge(Cond, BodyEntry);
    Result.G.addEdge(Cond, Next);
    Result.Branches[Cond] = {BodyEntry, Next};
    Result.StmtNode[S] = Cond;
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
    Result.G.addEdge(Cond, BodyEntry);
    if (For->getCond()) {
      Result.G.addEdge(Cond, Next);
      Result.Branches[Cond] = {BodyEntry, Next};
    } else {
      Result.Branches[Cond] = {BodyEntry, BodyEntry};
    }
    Result.StmtNode[S] = Cond;
    Entry = For->getInit() ? wire(For->getInit(), Cond) : Cond;
    break;
  }

  case StmtKind::Switch: {
    const auto *Switch = cast<SwitchStmt>(S);
    unsigned Cond = makeNode(CfgNodeKind::Predicate, S, Switch->getCond());
    Loops.push_back({Next, 0, /*AcceptsContinue=*/false});

    // Wire clauses in reverse so each knows its fall-through successor.
    const auto &Clauses = Switch->getClauses();
    std::vector<unsigned> ClauseEntry(Clauses.size());
    unsigned Following = Next;
    for (size_t I = Clauses.size(); I-- > 0;) {
      ClauseEntry[I] = wireList(Clauses[I].Body, Following);
      Following = ClauseEntry[I];
    }
    Loops.pop_back();

    SwitchTargets Targets;
    Targets.DefaultTarget = Next;
    for (size_t I = 0, E = Clauses.size(); I != E; ++I) {
      if (Clauses[I].IsDefault)
        Targets.DefaultTarget = ClauseEntry[I];
      else
        Targets.Cases.emplace_back(Clauses[I].Value, ClauseEntry[I]);
      Result.G.addEdge(Cond, ClauseEntry[I]);
    }
    Result.G.addEdge(Cond, Targets.DefaultTarget);
    Result.Switches[Cond] = std::move(Targets);
    Result.StmtNode[S] = Cond;
    Entry = Cond;
    break;
  }
  }

  Result.StmtEntry[S] = Entry;
  return Entry;
}

bool CfgBuilder::run(DiagList &Diags) {
  Result.Prog = &Prog;
  Result.Entry = makeNode(CfgNodeKind::Entry, nullptr, nullptr);
  Result.Exit = makeNode(CfgNodeKind::Exit, nullptr, nullptr);

  unsigned First = wireList(Prog.topLevel(), Result.Exit);
  Result.G.addEdge(Result.Entry, First);
  // The standard control-dependence augmentation: Entry -> Exit makes
  // every always-executed statement control dependent on Entry (the
  // paper's dummy predicate node 0).
  Result.G.addEdge(Result.Entry, Result.Exit);

  if (GuardTripped) {
    Diags.report(SourceLoc(), Guard->reason(), DiagKind::ResourceExhausted);
    return false;
  }

  // Resolve gotos now that every labeled statement has an entry node.
  for (auto [GotoNode, TargetStmt] : PendingGotos) {
    assert(TargetStmt && "sema guarantees goto resolution");
    auto It = Result.StmtEntry.find(TargetStmt);
    assert(It != Result.StmtEntry.end() && "target statement was not wired");
    Result.G.addEdge(GotoNode, It->second);
    Result.JumpTargets[GotoNode] = It->second;
  }

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
  auto It = StmtNode.find(S);
  assert(It != StmtNode.end() && "statement has no representative node");
  return It->second;
}

unsigned Cfg::entryOf(const Stmt *S) const {
  auto It = StmtEntry.find(S);
  assert(It != StmtEntry.end() && "statement was never wired");
  return It->second;
}

std::optional<unsigned> Cfg::jumpTarget(unsigned NodeId) const {
  auto It = JumpTargets.find(NodeId);
  if (It == JumpTargets.end())
    return std::nullopt;
  return It->second;
}

const BranchTargets *Cfg::branchTargets(unsigned NodeId) const {
  auto It = Branches.find(NodeId);
  return It == Branches.end() ? nullptr : &It->second;
}

const SwitchTargets *Cfg::switchTargets(unsigned NodeId) const {
  auto It = Switches.find(NodeId);
  return It == Switches.end() ? nullptr : &It->second;
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
  Digraph Augmented = G;
  for (const CfgNode &Node : Nodes) {
    if (!Node.isJump())
      continue;
    assert(Node.Id < IlsParent.size() && IlsParent[Node.Id] >= 0 &&
           "jump node missing from the lexical successor tree");
    Augmented.addEdge(Node.Id, static_cast<unsigned>(IlsParent[Node.Id]));
  }
  return Augmented;
}
