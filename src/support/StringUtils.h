//===- support/StringUtils.h - Small string helpers -----------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Joining, indentation, and line-set formatting helpers shared by the
/// pretty-printer, the DOT exporter, and the bench harnesses, plus the
/// command-line count parser every tool uses.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SUPPORT_STRINGUTILS_H
#define JSLICE_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace jslice {

/// Joins \p Parts with \p Sep ("a, b, c" for Sep = ", ").
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

/// Renders a set of statement line numbers as "{1, 4, 7}".
std::string formatLineSet(const std::set<unsigned> &Lines);

/// Splits \p Text into lines (without terminators). A trailing newline
/// does not produce an empty final element.
std::vector<std::string> splitLines(const std::string &Text);

/// Returns \p Count copies of two-space indentation.
std::string indent(unsigned Count);

/// The command-line count parser every tool shares: decimal digits
/// only (no sign, no space, not empty), at most \p Max. Anything else
/// — overflow included — is nullopt, never a wrapped value.
std::optional<uint64_t> parseCount(std::string_view Text,
                                   uint64_t Max = UINT64_MAX);

/// parseCount into an integer field, bounded by the field's type: a
/// value it cannot hold is rejected (false, \p Field untouched)
/// instead of being narrowed.
template <typename T> bool parseCountInto(std::string_view Text, T &Field) {
  std::optional<uint64_t> N =
      parseCount(Text, static_cast<uint64_t>(std::numeric_limits<T>::max()));
  if (!N)
    return false;
  Field = static_cast<T>(*N);
  return true;
}

} // namespace jslice

#endif // JSLICE_SUPPORT_STRINGUTILS_H
