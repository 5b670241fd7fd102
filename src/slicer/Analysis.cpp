//===- slicer/Analysis.cpp - One-stop analysis bundle ------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "slicer/Analysis.h"

#include "lang/AstWalk.h"

using namespace jslice;

namespace {

/// Unwraps single-statement blocks: `{ { goto L; } }` -> `goto L;`.
const Stmt *unwrapSingleton(const Stmt *S) {
  while (const auto *Block = dyn_cast<BlockStmt>(S)) {
    if (Block->getBody().size() != 1)
      return S;
    S = Block->getBody().front();
  }
  return S;
}

unsigned countJumps(const Cfg &C) {
  unsigned N = 0;
  for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node)
    N += C.node(Node).isJump();
  return N;
}

/// Collects the (predicate, jump) node pairs of conditional-jump
/// statements: an if without else whose entire body is one unconditional
/// jump. The paper's conventional-algorithm adaptation ties the two.
std::vector<std::pair<unsigned, unsigned>> findCondJumpPairs(const Cfg &C) {
  std::vector<std::pair<unsigned, unsigned>> Pairs;
  Pairs.reserve(countJumps(C));
  for (const Stmt *Top : C.program().topLevel()) {
    walkStmtTree(Top, [&](const Stmt *S) {
      const auto *If = dyn_cast<IfStmt>(S);
      if (!If || If->hasElse())
        return;
      const Stmt *Body = unwrapSingleton(If->getThen());
      if (!Body->isJump())
        return;
      Pairs.emplace_back(C.nodeOf(S), C.nodeOf(Body));
    });
  }
  return Pairs;
}

/// The jump nodes of \p Order, in that order.
std::vector<unsigned> jumpsIn(const Cfg &C,
                              const std::vector<unsigned> &Order) {
  std::vector<unsigned> Out;
  Out.reserve(countJumps(C));
  for (unsigned Node : Order)
    if (C.node(Node).isJump())
      Out.push_back(Node);
  return Out;
}

/// All jump nodes of \p C, ascending.
std::vector<unsigned> allJumps(const Cfg &C) {
  std::vector<unsigned> Out;
  Out.reserve(countJumps(C));
  for (unsigned Node = 0, E = C.numNodes(); Node != E; ++Node)
    if (C.node(Node).isJump())
      Out.push_back(Node);
  return Out;
}

/// FOW control dependence of \p Flow, plus an edge from every switch
/// head to each statement nested in its body that postdominates it.
/// C's fall-through makes such statements run on every dispatch, so
/// FOW gives them no dependence on the head — yet deleting the head
/// deletes its whole body, so a slice keeping one of them must keep
/// the head too (DESIGN.md, finding F1). One checkpoint per nested
/// statement visited.
Digraph controlDependence(const Cfg &C, const Digraph &Flow,
                          const DomTree &Pdt, ResourceGuard *Guard) {
  DigraphBuilder CD(Flow.numNodes());
  addControlDependence(CD, Flow, Pdt, Guard);
  for (unsigned Head = 0, E = C.numNodes(); Head != E; ++Head) {
    const Stmt *Switch = C.node(Head).S;
    if (C.node(Head).Kind != CfgNodeKind::Predicate ||
        !isa<SwitchStmt>(Switch))
      continue;
    walkStmtTree(Switch, [&](const Stmt *S) {
      if (S == Switch || !C.hasNodeFor(S))
        return;
      if (Guard && !Guard->checkpoint("controldep.switch"))
        return; // Partial; the caller checks the guard.
      unsigned Node = C.nodeOf(S);
      if (Pdt.dominates(Node, Head))
        CD.addEdge(Head, Node);
    });
  }
  return CD.freeze();
}

/// \p A with every stage built under \p B, or why not.
ErrorOr<Analysis> built(Analysis A, const Budget &B) {
  if (DiagList Failed = A.resume(B); !Failed.empty())
    return Failed;
  return A;
}

} // namespace

Analysis::Analysis(std::string Source)
    : GuardPtr(std::make_unique<ResourceGuard>()), Source(std::move(Source)),
      Aug(std::make_unique<LazyBuild<Augmented>>()) {}

Analysis::Analysis(std::unique_ptr<Program> Prog)
    : GuardPtr(std::make_unique<ResourceGuard>()), ProgPtr(std::move(Prog)),
      Aug(std::make_unique<LazyBuild<Augmented>>()) {}

DiagList Analysis::resume(const Budget &B) {
  *GuardPtr = ResourceGuard(B);
  ResourceGuard &G = *GuardPtr;
  // One block per stage with a guard site, in pipeline order; the LST,
  // def/use, data dependence and jump lists poll none, so each is built
  // with the guarded stage before it. A tripped stage is unconverged:
  // its block returns keeping nothing of it.
  if (!ProgPtr) {
    ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source, G);
    if (!Prog)
      return Prog.diags();
    ProgPtr = std::move(*Prog);
    std::string().swap(Source);
  }
  if (!C) {
    ErrorOr<Cfg> Built = Cfg::build(*ProgPtr, &G);
    if (!Built)
      return Built.diags();
    C.emplace(std::move(*Built));
    Lst.emplace(buildLexicalSuccessorTree(*C));
  }
  if (!Pdt) {
    DomTree Tree = computePostDominators(C->graph(), C->exit(), &G);
    if (G.exhausted())
      return G.toDiag();
    Pdt.emplace(std::move(Tree));
    DU.emplace(DefUse::build(*C));
  }
  if (!RD) {
    ReachingDefinitions Defs = ReachingDefinitions::compute(*C, *DU, &G);
    if (G.exhausted())
      return G.toDiag();
    RD.emplace(std::move(Defs));
  }
  if (!P) {
    Digraph Control = controlDependence(*C, C->graph(), *Pdt, &G);
    if (G.exhausted())
      return G.toDiag();
    P.emplace(std::move(Control), buildDataDependence(*C, *DU, *RD));
    CondJumps = findCondJumpPairs(*C);
    Jumps = allJumps(*C);
    PdtJumps = jumpsIn(*C, Pdt->preorder());
    LstJumps = jumpsIn(*C, Lst->preorder());
  }
  return DiagList();
}

const Analysis::Augmented *Analysis::augmented(ResourceGuard &G) const {
  return Aug->getOrBuild([&]() -> std::unique_ptr<Augmented> {
    Digraph Graph = C->buildAugmentedGraph(Lst->parents());
    DomTree AugPdt = computePostDominators(Graph, C->exit(), &G);
    Digraph Control = controlDependence(*C, Graph, AugPdt, &G);
    // A tripped guard leaves the PDT or CD unconverged: keep nothing.
    if (G.exhausted())
      return nullptr;
    return std::make_unique<Augmented>(
        Augmented{std::move(Graph), std::move(AugPdt), std::move(Control)});
  });
}

ErrorOr<Analysis> Analysis::fromSource(const std::string &Source,
                                       const Budget &B) {
  return built(Analysis(Source), B);
}

ErrorOr<Analysis> Analysis::fromProgram(std::unique_ptr<Program> Prog,
                                        const Budget &B) {
  return built(Analysis(std::move(Prog)), B);
}
