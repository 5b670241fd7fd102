//===- slicer/LineList.h - A slice's source lines, in one flat array -------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The source lines a slice covers (paper-figure form), as the service
/// answers them: ascending and distinct, in one vector, so building
/// and encoding a slice's lines costs one allocation instead of one
/// tree node per line. It reads like an ordered set of lines:
/// ascending iteration, size, count, equality with another
/// list or a std::set<unsigned>, and an implicit conversion to
/// std::set<unsigned> for callers that want one.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_LINELIST_H
#define JSLICE_SLICER_LINELIST_H

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>
#include <vector>

namespace jslice {

/// An immutable ascending list of distinct source lines.
class LineList {
public:
  using value_type = unsigned;
  using const_iterator = std::vector<unsigned>::const_iterator;
  using iterator = const_iterator;

  LineList() = default;

  /// Takes \p Lines in any order, duplicates allowed; keeps each line
  /// once, ascending.
  explicit LineList(std::vector<unsigned> Lines) : Lines(std::move(Lines)) {
    if (!std::is_sorted(this->Lines.begin(), this->Lines.end()))
      std::sort(this->Lines.begin(), this->Lines.end());
    this->Lines.erase(std::unique(this->Lines.begin(), this->Lines.end()),
                      this->Lines.end());
  }

  size_t size() const { return Lines.size(); }
  bool empty() const { return Lines.empty(); }

  /// 1 when \p Line is a member, else 0.
  size_t count(unsigned Line) const {
    return std::binary_search(Lines.begin(), Lines.end(), Line);
  }

  const_iterator begin() const { return Lines.begin(); }
  const_iterator end() const { return Lines.end(); }

  /// The members as an ordered std::set.
  operator std::set<unsigned>() const { return {begin(), end()}; }

  friend bool operator==(const LineList &L, const LineList &R) {
    return L.Lines == R.Lines;
  }
  friend bool operator==(const LineList &L, const std::set<unsigned> &R) {
    return std::equal(L.begin(), L.end(), R.begin(), R.end());
  }

private:
  std::vector<unsigned> Lines;
};

} // namespace jslice

#endif // JSLICE_SLICER_LINELIST_H
