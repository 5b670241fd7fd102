//===- examples/graphviz_export.cpp - Dump the paper's five graphs ------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// Writes Graphviz DOT files for every structure the paper draws for a
/// program — flowgraph, postdominator tree, control dependence graph,
/// lexical successor tree, and program dependence graph — with the
/// slice's nodes shaded like the paper's figures.
///
///   ./build/examples/graphviz_export [outdir]
///   dot -Tpng outdir/fig3a_flowgraph.dot -o flowgraph.png
///
//===----------------------------------------------------------------------===//

#include "corpus/PaperPrograms.h"
#include "jslice/jslice.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace jslice;

namespace {

void writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path);
  Out << Contents;
  std::printf("wrote %s\n", Path.c_str());
}

} // namespace

int main(int argc, char **argv) {
  std::string OutDir = argc > 1 ? argv[1] : ".";

  for (const char *Name : {"fig1a", "fig3a", "fig5a"}) {
    const PaperExample &Ex = paperExample(Name);
    ErrorOr<Analysis> A = Analysis::fromSource(Ex.Source);
    if (!A) {
      std::fprintf(stderr, "%s\n", A.diags().str().c_str());
      return 1;
    }
    SliceResult Slice = *computeSlice(*A, Ex.Crit, SliceAlgorithm::Agrawal);

    NodeLabelFn Label = [&](unsigned Node) { return A->cfg().labelOf(Node); };
    std::function<bool(unsigned)> InSlice = [&](unsigned Node) {
      return Slice.contains(Node);
    };
    std::string Prefix = OutDir + "/" + Name + "_";

    writeFile(Prefix + "flowgraph.dot",
              toDot(A->cfg().graph(), std::string(Name) + " flowgraph",
                    Label, &InSlice));
    writeFile(Prefix + "postdom.dot",
              domTreeToDot(A->pdt(), std::string(Name) + " postdominators",
                           Label));
    writeFile(Prefix + "controldep.dot",
              toDot(A->pdg().Control, std::string(Name) + " control deps",
                    Label, &InSlice));
    // The LST renders through its parent vector as a Digraph.
    DigraphBuilder LstEdges(A->cfg().numNodes());
    for (unsigned Node = 0; Node != A->cfg().numNodes(); ++Node)
      if (A->lst().parent(Node) >= 0)
        LstEdges.addEdge(static_cast<unsigned>(A->lst().parent(Node)), Node);
    writeFile(Prefix + "lst.dot",
              toDot(LstEdges.freeze(),
                    std::string(Name) + " lexical successors",
                    Label, &InSlice));
    writeFile(Prefix + "pdg.dot",
              toDot(A->pdg().combined(), std::string(Name) + " PDG", Label,
                    &InSlice));
  }
  return 0;
}
