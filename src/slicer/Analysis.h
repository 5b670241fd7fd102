//===- slicer/Analysis.h - One-stop analysis bundle --------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the slicing algorithms consume, built once per program:
/// the CFG, the lexical successor tree, the postdominator tree, def/use
/// and reaching definitions, and the program dependence graph. The
/// paper's Figure 7 / 12 / 13 algorithms read only these. The
/// Ball–Horwitz / Choi–Ferrante baseline additionally reads the
/// augmented flowgraph with its own postdominator tree and control
/// dependence graph; that bundle is built on first use, so programs no
/// one slices with the baseline never pay for it.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_ANALYSIS_H
#define JSLICE_SLICER_ANALYSIS_H

#include "cfg/Cfg.h"
#include "cfg/LexicalSuccessorTree.h"
#include "dataflow/DefUse.h"
#include "dataflow/ReachingDefinitions.h"
#include "graph/Dominators.h"
#include "lang/Parser.h"
#include "pdg/ControlDependence.h"
#include "pdg/Pdg.h"
#include "support/LazyBuild.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace jslice {

/// Analysis results for one program, built in stages. Move-only.
///
/// resume() is the one build path: under a fresh guard it builds every
/// stage not yet built, in pipeline order — parse, CFG, LST, PDT,
/// def/use, reaching definitions, control dependence, data dependence,
/// the jump lists. Exhaustion surfaces as a DiagKind::ResourceExhausted
/// diagnostic, never a crash or hang. The stage whose guard trips keeps
/// nothing and the stages before it are kept, so the next resume()
/// starts there. fromSource and fromProgram resume once and never
/// return an Analysis with a stage missing. The guard stays with the
/// Analysis so later slicing traversals and interpreter runs draw from
/// the same budget.
///
/// The augmented bundle (augmented()) is built on first use instead,
/// under the guard of whoever first asks for it and a mutex, so
/// concurrent readers of a shared Analysis build it once; a build whose
/// guard trips keeps nothing, and the next caller rebuilds.
class Analysis {
public:
  /// The Ball–Horwitz / Choi–Ferrante augmented flowgraph, its
  /// postdominator tree, and the control dependence built from them.
  /// Data dependence is the plain PDG's (see augPdg).
  struct Augmented {
    Digraph Graph;
    DomTree Pdt;
    Digraph Control;
  };

  /// An analysis of \p Source with no stage built yet.
  explicit Analysis(std::string Source);

  /// An analysis of an already-checked program (takes ownership): the
  /// parse stage is built.
  explicit Analysis(std::unique_ptr<Program> Prog);

  /// Parses, checks, and analyzes \p Source under \p B's limits.
  static ErrorOr<Analysis>
  fromSource(const std::string &Source, const Budget &B = Budget::unlimited());

  /// Analyzes an already-checked program (takes ownership) under \p B's
  /// limits.
  static ErrorOr<Analysis>
  fromProgram(std::unique_ptr<Program> Prog,
              const Budget &B = Budget::unlimited());

  /// Installs a fresh guard under \p B and builds every stage not yet
  /// built. Empty once all are; else the parse or CFG diagnostics, or
  /// the guard's exhaustion.
  DiagList resume(const Budget &B);

  /// The pipeline's resource meter. Mutable by design: slicers and the
  /// interpreter charge their work against the budget the Analysis was
  /// built under (the Analysis results themselves stay immutable).
  ResourceGuard &guard() const { return *GuardPtr; }

  const Program &program() const { return *ProgPtr; }
  const Cfg &cfg() const { return *C; }
  const LexicalSuccessorTree &lst() const { return *Lst; }
  const DomTree &pdt() const { return *Pdt; }
  const DefUse &defUse() const { return *DU; }
  const ReachingDefinitions &reachingDefs() const { return *RD; }

  /// Dependence graphs from the *unaugmented* flowgraph (the paper's
  /// preferred construction — both graphs left intact).
  const Pdg &pdg() const { return *P; }

  /// The augmented bundle, built on first use charging \p G. Null when
  /// \p G trips during the build (or already had): the caller must
  /// treat that as exhaustion of \p G.
  const Augmented *augmented(ResourceGuard &G) const;

  /// As above, charging the analysis' own guard.
  const Augmented *augmented() const { return augmented(guard()); }

  /// The augmented PDG: \p Aug's control dependence paired with the
  /// plain data dependence (Ball–Horwitz compute data dependence on the
  /// unaugmented flowgraph).
  PdgView augPdg(const Augmented &Aug) const { return {Aug.Control, P->Data}; }

  /// (Predicate node, jump node) pairs for every conditional-jump
  /// statement `if (p) goto/break/continue/return` — the paper's
  /// adaptation of the conventional algorithm needs them.
  const std::vector<std::pair<unsigned, unsigned>> &condJumpPairs() const {
    return CondJumps;
  }

  /// Every jump node (goto/break/continue/return), ascending.
  const std::vector<unsigned> &jumps() const { return Jumps; }

  /// The jump subsequence of pdt().preorder() and lst().preorder(), in
  /// preorder: the only nodes a Figure 7 pass tests.
  const std::vector<unsigned> &pdtJumpOrder() const { return PdtJumps; }
  const std::vector<unsigned> &lstJumpOrder() const { return LstJumps; }

private:
  /// Behind a pointer so guard() survives a move of the Analysis.
  std::unique_ptr<ResourceGuard> GuardPtr;
  std::string Source; ///< Until the parse stage is built.
  /// One slot per stage, empty until resume() builds it.
  std::unique_ptr<Program> ProgPtr;
  std::optional<Cfg> C;
  std::optional<LexicalSuccessorTree> Lst;
  std::optional<DomTree> Pdt;
  std::optional<DefUse> DU;
  std::optional<ReachingDefinitions> RD;
  std::optional<Pdg> P;
  /// Behind a pointer so the Analysis stays movable.
  std::unique_ptr<LazyBuild<Augmented>> Aug;
  std::vector<std::pair<unsigned, unsigned>> CondJumps;
  std::vector<unsigned> Jumps;
  std::vector<unsigned> PdtJumps;
  std::vector<unsigned> LstJumps;
};

} // namespace jslice

#endif // JSLICE_SLICER_ANALYSIS_H
