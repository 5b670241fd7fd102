//===- tests/reference/ReferenceSlicer.h - std::set test oracle ---------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A second, deliberately naive implementation of every PDG-based
/// slicing algorithm: std::set slices, worklist closures over the
/// dependence graphs, and the paper's traversals written out directly.
/// It shares no traversal or helper code with the engine in
/// src/slicer, so the cross-check tests (and jslice_stress) compare two
/// independent readings of the paper. It runs unmetered: no guard
/// checkpoints, so it is meant for unlimited budgets only.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_TESTS_REFERENCE_REFERENCESLICER_H
#define JSLICE_TESTS_REFERENCE_REFERENCESLICER_H

#include "slicer/Slicers.h"

namespace jslice {
namespace reference {

/// The reference slice of \p RC under \p Algorithm. Weiser's dataflow
/// slicer has a single implementation, so it is forwarded to
/// sliceWeiser.
SliceResult computeSlice(const Analysis &A, const ResolvedCriterion &RC,
                         SliceAlgorithm Algorithm);

} // namespace reference
} // namespace jslice

#endif // JSLICE_TESTS_REFERENCE_REFERENCESLICER_H
