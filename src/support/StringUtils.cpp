//===- support/StringUtils.cpp - Small string helpers ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

using namespace jslice;

std::string jslice::join(const std::vector<std::string> &Parts,
                         const std::string &Sep) {
  std::string Out;
  for (const std::string &Part : Parts) {
    if (!Out.empty())
      Out += Sep;
    Out += Part;
  }
  return Out;
}

std::string jslice::formatLineSet(const std::set<unsigned> &Lines) {
  std::string Out = "{";
  bool First = true;
  for (unsigned Line : Lines) {
    if (!First)
      Out += ", ";
    Out += std::to_string(Line);
    First = false;
  }
  Out += "}";
  return Out;
}

std::vector<std::string> jslice::splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::string Current;
  for (char C : Text) {
    if (C == '\n') {
      Lines.push_back(Current);
      Current.clear();
      continue;
    }
    Current += C;
  }
  if (!Current.empty())
    Lines.push_back(Current);
  return Lines;
}

std::string jslice::indent(unsigned Count) {
  return std::string(static_cast<size_t>(Count) * 2, ' ');
}

std::optional<uint64_t> jslice::parseCount(std::string_view Text,
                                           uint64_t Max) {
  if (Text.empty())
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Digit > Max || Value > (Max - Digit) / 10)
      return std::nullopt;
    Value = Value * 10 + Digit;
  }
  return Value;
}
