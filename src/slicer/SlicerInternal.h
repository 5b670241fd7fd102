//===- slicer/SlicerInternal.h - Shared slicer machinery ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the slicing algorithm implementations.
/// Not part of the public API.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_SLICERINTERNAL_H
#define JSLICE_SLICER_SLICERINTERNAL_H

#include "slicer/Slicers.h"

#include <set>
#include <vector>

namespace jslice {
namespace detail {

/// Extends \p Slice with the backward dependence closure of \p Seeds and
/// keeps applying the paper's conditional-jump adaptation (a predicate
/// in the slice drags in its accompanying jump) until a fixpoint. Every
/// algorithm that honours the adaptation funnels through here.
void closeWithAdaptation(const Analysis &A, PdgView P,
                         std::set<unsigned> &Slice,
                         std::vector<unsigned> Seeds);

/// Nearest postdominator of \p Node that is in \p Slice. Walks proper
/// PDT ancestors; Exit terminates every walk (the paper treats Exit as
/// the root of both trees).
unsigned nearestPostdomInSlice(const Analysis &A, unsigned Node,
                               const std::set<unsigned> &Slice);

/// Nearest lexical successor of \p Node that is in \p Slice (proper LST
/// ancestors; Exit terminates).
unsigned nearestLexSuccInSlice(const Analysis &A, unsigned Node,
                               const std::set<unsigned> &Slice);

/// Nearest postdominator of \p Node that is in \p Slice, starting the
/// walk at \p Node itself (used for label re-association where the
/// target may or may not be in the slice).
unsigned nearestPostdomInSliceInclusive(const Analysis &A, unsigned Node,
                                        const std::set<unsigned> &Slice);

/// Figure 7's final step: re-associates the label of every in-slice
/// goto whose target statement left the slice.
std::map<std::string, unsigned>
reassociateLabels(const Analysis &A, const std::set<unsigned> &Slice);

/// True when \p Node has a direct control-dependence parent inside
/// \p Slice (the paper's "directly control dependent on a predicate in
/// the slice"; Entry — the dummy predicate — counts).
bool hasControllingPredicateInSlice(const Pdg &P, unsigned Node,
                                    const std::set<unsigned> &Slice);

/// True when every direct control-dependence parent of \p Node is in
/// \p Slice (vacuously true with no parents).
bool allControllingPredicatesInSlice(const Pdg &P, unsigned Node,
                                     const std::set<unsigned> &Slice);

/// All jump nodes of the CFG, ascending.
std::vector<unsigned> jumpNodes(const Cfg &C);

} // namespace detail
} // namespace jslice

#endif // JSLICE_SLICER_SLICERINTERNAL_H
