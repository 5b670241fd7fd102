//===- pdg/Pdg.cpp - Program dependence graph ---------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "pdg/Pdg.h"

using namespace jslice;

std::set<unsigned>
PdgView::backwardClosure(const std::vector<unsigned> &Seeds) const {
  std::set<unsigned> Slice;
  std::vector<unsigned> Worklist;
  for (unsigned Seed : Seeds)
    if (Slice.insert(Seed).second)
      Worklist.push_back(Seed);

  while (!Worklist.empty()) {
    unsigned Node = Worklist.back();
    Worklist.pop_back();
    for (unsigned Dep : Control.preds(Node))
      if (Slice.insert(Dep).second)
        Worklist.push_back(Dep);
    for (unsigned Dep : Data.preds(Node))
      if (Slice.insert(Dep).second)
        Worklist.push_back(Dep);
  }
  return Slice;
}

std::vector<unsigned> PdgView::growClosure(std::set<unsigned> &Slice,
                                           unsigned Node) const {
  std::vector<unsigned> Added;
  std::vector<unsigned> Worklist;
  if (Slice.insert(Node).second) {
    Added.push_back(Node);
    Worklist.push_back(Node);
  }
  while (!Worklist.empty()) {
    unsigned Cur = Worklist.back();
    Worklist.pop_back();
    for (unsigned Dep : Control.preds(Cur)) {
      if (Slice.insert(Dep).second) {
        Added.push_back(Dep);
        Worklist.push_back(Dep);
      }
    }
    for (unsigned Dep : Data.preds(Cur)) {
      if (Slice.insert(Dep).second) {
        Added.push_back(Dep);
        Worklist.push_back(Dep);
      }
    }
  }
  return Added;
}
