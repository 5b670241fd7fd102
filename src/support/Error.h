//===- support/Error.h - Recoverable-error plumbing -----------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal recoverable-error machinery in the spirit of llvm::Expected.
/// Library code never throws; fallible operations return ErrorOr<T>, and
/// malformed-input conditions are reported as Diag records that carry the
/// offending source location.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SUPPORT_ERROR_H
#define JSLICE_SUPPORT_ERROR_H

#include "support/SourceLoc.h"

#include <cassert>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace jslice {

/// Coarse classification of a diagnostic. Callers (services, the CLI,
/// the stress driver) branch on this to tell malformed input apart from
/// deterministic degradation under a resource Budget.
enum class DiagKind {
  Error,             ///< Malformed input: syntax, sema, CFG shape, criterion.
  ResourceExhausted, ///< A ResourceGuard budget (or an injected fault) tripped.
};

/// One diagnostic: a message anchored at a source location.
/// Messages follow the LLVM style: lowercase first word, no trailing period.
struct Diag {
  SourceLoc Loc;
  std::string Message;
  DiagKind Kind = DiagKind::Error;

  Diag() = default;
  Diag(SourceLoc Loc, std::string Message, DiagKind Kind = DiagKind::Error)
      : Loc(Loc), Message(std::move(Message)), Kind(Kind) {}

  bool isResourceExhausted() const {
    return Kind == DiagKind::ResourceExhausted;
  }

  /// Renders as "line:col: error: message".
  std::string str() const { return Loc.str() + ": error: " + Message; }
};

/// An ordered list of diagnostics produced by one fallible operation.
class DiagList {
public:
  DiagList() = default;
  /*implicit*/ DiagList(Diag D) { Diags.push_back(std::move(D)); }

  void report(SourceLoc Loc, std::string Message,
              DiagKind Kind = DiagKind::Error) {
    Diags.emplace_back(Loc, std::move(Message), Kind);
  }

  bool empty() const { return Diags.empty(); }
  size_t size() const { return Diags.size(); }
  const std::vector<Diag> &diags() const { return Diags; }

  /// True when any member is classified \p Kind.
  bool hasKind(DiagKind Kind) const {
    for (const Diag &D : Diags)
      if (D.Kind == Kind)
        return true;
    return false;
  }

  /// All diagnostics joined with newlines, for test failure messages.
  std::string str() const {
    std::string Out;
    for (const Diag &D : Diags) {
      if (!Out.empty())
        Out += '\n';
      Out += D.str();
    }
    return Out;
  }

private:
  std::vector<Diag> Diags;
};

/// Either a value or the diagnostics explaining why there is none.
///
/// Unlike llvm::Expected there is no checked-flag discipline; this type is
/// a plain sum. Use `if (!R) ... R.diags() ...` then `*R` / `R->`.
template <typename T> class ErrorOr {
public:
  /*implicit*/ ErrorOr(T Value) : Storage(std::move(Value)) {}
  /*implicit*/ ErrorOr(DiagList Errors) : Storage(std::move(Errors)) {
    assert(!std::get<DiagList>(Storage).empty() &&
           "error state requires at least one diagnostic");
  }
  /*implicit*/ ErrorOr(Diag Error) : Storage(DiagList(std::move(Error))) {}

  bool hasValue() const { return std::holds_alternative<T>(Storage); }
  explicit operator bool() const { return hasValue(); }

  T &get() {
    assert(hasValue() && "accessing value of an error result");
    return std::get<T>(Storage);
  }
  const T &get() const {
    assert(hasValue() && "accessing value of an error result");
    return std::get<T>(Storage);
  }

  T &operator*() { return get(); }
  const T &operator*() const { return get(); }
  T *operator->() { return &get(); }
  const T *operator->() const { return &get(); }

  const DiagList &diags() const {
    assert(!hasValue() && "accessing diagnostics of a success result");
    return std::get<DiagList>(Storage);
  }

private:
  std::variant<T, DiagList> Storage;
};

} // namespace jslice

#endif // JSLICE_SUPPORT_ERROR_H
