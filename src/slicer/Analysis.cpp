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

} // namespace

Analysis::Analysis(std::unique_ptr<Program> Prog, Cfg Built,
                   std::shared_ptr<ResourceGuard> Guard)
    : GuardPtr(std::move(Guard)), ProgPtr(std::move(Prog)),
      C(std::move(Built)), Lst(buildLexicalSuccessorTree(C)),
      Pdt(computePostDominators(C.graph(), C.exit(), GuardPtr.get())),
      DU(DefUse::build(C)),
      RD(ReachingDefinitions::compute(C, DU, GuardPtr.get())),
      P(controlDependence(C, C.graph(), Pdt, GuardPtr.get()),
        buildDataDependence(C, DU, RD)),
      Aug(std::make_unique<LazyBuild<Augmented>>()),
      CondJumps(findCondJumpPairs(C)), Jumps(allJumps(C)),
      PdtJumps(jumpsIn(C, Pdt.preorder())),
      LstJumps(jumpsIn(C, Lst.preorder())) {}

const Analysis::Augmented *Analysis::augmented(ResourceGuard &G) const {
  return Aug->getOrBuild([&]() -> std::unique_ptr<Augmented> {
    Digraph Graph = C.buildAugmentedGraph(Lst.parents());
    DomTree AugPdt = computePostDominators(Graph, C.exit(), &G);
    Digraph Control = controlDependence(C, Graph, AugPdt, &G);
    // A tripped guard leaves the PDT or CD unconverged: keep nothing.
    if (G.exhausted())
      return nullptr;
    return std::make_unique<Augmented>(
        Augmented{std::move(Graph), std::move(AugPdt), std::move(Control)});
  });
}

ErrorOr<Analysis> Analysis::fromSource(const std::string &Source) {
  return fromSource(Source, Budget::unlimited());
}

ErrorOr<Analysis> Analysis::fromSource(const std::string &Source,
                                       const Budget &B) {
  auto Guard = std::make_shared<ResourceGuard>(B);
  ErrorOr<std::unique_ptr<Program>> Prog = parseProgram(Source, *Guard);
  if (!Prog)
    return Prog.diags();
  return fromProgramGuarded(std::move(*Prog), std::move(Guard));
}

ErrorOr<Analysis> Analysis::fromProgram(std::unique_ptr<Program> Prog) {
  return fromProgram(std::move(Prog), Budget::unlimited());
}

ErrorOr<Analysis> Analysis::fromProgram(std::unique_ptr<Program> Prog,
                                        const Budget &B) {
  return fromProgramGuarded(std::move(Prog),
                            std::make_shared<ResourceGuard>(B));
}

ErrorOr<Analysis>
Analysis::fromProgramGuarded(std::unique_ptr<Program> Prog,
                             std::shared_ptr<ResourceGuard> Guard) {
  ErrorOr<Cfg> Built = Cfg::build(*Prog, Guard.get());
  if (!Built)
    return Built.diags();
  Analysis A(std::move(Prog), std::move(*Built), std::move(Guard));
  // A guard tripped during any phase (a latched guard short-circuits
  // every later phase) means some structure is unconverged; discard the
  // whole bundle so no partially-constructed Analysis escapes.
  if (A.guard().exhausted())
    return A.guard().toDiag();
  return A;
}
