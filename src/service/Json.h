//===- service/Json.h - Minimal JSON values ---------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The small JSON subset the slicing service speaks: null, booleans,
/// integer numbers (the protocol has no fractions; fractional input is
/// parsed but truncates through asUInt), strings with the standard
/// escapes, arrays, and objects. \uXXXX escapes decode to UTF-8,
/// including supplementary planes via surrogate pairs; a lone
/// surrogate becomes U+FFFD (tolerant: anything the server accepted
/// must round-trip through the journal, and an invalid sequence must
/// never leak downstream). Raw non-escape bytes pass through
/// byte-transparently — the parser validates JSON structure, not
/// UTF-8 well-formedness. Both directions work in runs: a 256-entry
/// scanner (detail::skipPlainJson) finds the next quote, backslash or
/// control byte eight bytes at a time, and everything before it is
/// appended at once. No external
/// dependency — the container
/// bakes in nothing — and no exceptions: parse() returns nullopt with
/// a position-carrying message, matching the library's ErrorOr
/// discipline one level down.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_JSON_H
#define JSLICE_SERVICE_JSON_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jslice {

/// One JSON value. A plain tagged struct, copyable; object member
/// order is normalized (std::map) so serialization is deterministic.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() : K(Kind::Null) {}
  /*implicit*/ JsonValue(bool B) : K(Kind::Bool), BoolV(B) {}
  /*implicit*/ JsonValue(int64_t N) : K(Kind::Number), NumV(N) {}
  /*implicit*/ JsonValue(uint64_t N)
      : K(Kind::Number), NumV(static_cast<int64_t>(N)) {}
  /*implicit*/ JsonValue(int N) : K(Kind::Number), NumV(N) {}
  /*implicit*/ JsonValue(double N) : K(Kind::Number), NumV(0), DblV(N) {
    NumV = static_cast<int64_t>(N);
    IsDouble = true;
  }
  /*implicit*/ JsonValue(std::string S) : K(Kind::String), StrV(std::move(S)) {}
  /*implicit*/ JsonValue(const char *S) : K(Kind::String), StrV(S) {}

  static JsonValue array() {
    JsonValue V;
    V.K = Kind::Array;
    return V;
  }
  static JsonValue object() {
    JsonValue V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return BoolV; }
  int64_t asInt() const { return NumV; }
  double asDouble() const { return IsDouble ? DblV : double(NumV); }
  const std::string &asString() const { return StrV; }
  /// Moves the string out, leaving this value's string empty.
  std::string takeString() {
    LiteralLen = NoLiteral;
    return std::move(StrV);
  }
  const std::vector<JsonValue> &elements() const { return Arr; }
  const std::map<std::string, JsonValue> &members() const { return Obj; }

  /// Array append / object insert (no-ops unless this is that kind).
  void push(JsonValue V) {
    if (K == Kind::Array)
      Arr.push_back(std::move(V));
  }
  void set(const std::string &Key, JsonValue V) {
    if (K == Kind::Object)
      Obj[Key] = std::move(V);
  }

  /// Object member removal (no-op unless this is an object). The
  /// server strips piggybacked worker-cache fields off response frames
  /// before they reach the client.
  void remove(const std::string &Key) {
    if (K == Kind::Object)
      Obj.erase(Key);
  }

  /// Object member lookup; null when absent or not an object.
  const JsonValue *find(const std::string &Key) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = Obj.find(Key);
    return It == Obj.end() ? nullptr : &It->second;
  }
  JsonValue *find(const std::string &Key) {
    return const_cast<JsonValue *>(std::as_const(*this).find(Key));
  }

  /// For a string parse() read from \p Text whose literal is already
  /// canonical — exactly the bytes appendTo() writes between the
  /// quotes — that literal within \p Text; nullopt for any other
  /// value. A literal is canonical when its only escapes are \" \\ \b
  /// \f \n \r \t and lower-case \u00xx for the other control bytes:
  /// no \/, no other \u escape, no upper-case hex digit.
  std::optional<std::string_view>
  canonicalLiteral(std::string_view Text) const {
    if (K != Kind::String || LiteralLen == NoLiteral ||
        LiteralAt + LiteralLen > Text.size())
      return std::nullopt;
    return Text.substr(LiteralAt, LiteralLen);
  }

  /// Compact single-line serialization (keys sorted, no whitespace).
  std::string str() const;

  /// Appends str()'s bytes to \p Out: the one writer every
  /// serialization goes through, filling a single buffer.
  void appendTo(std::string &Out) const;

  /// Parses exactly one JSON value spanning all of \p Text (trailing
  /// whitespace allowed). On failure returns nullopt and, when \p Error
  /// is given, a "byte N: what" message.
  static std::optional<JsonValue> parse(const std::string &Text,
                                        std::string *Error = nullptr);

private:
  class Parser;

  static constexpr size_t NoLiteral = ~size_t(0);

  Kind K;
  bool BoolV = false;
  int64_t NumV = 0;
  double DblV = 0;
  bool IsDouble = false;
  std::string StrV;
  std::vector<JsonValue> Arr;
  std::map<std::string, JsonValue> Obj;
  /// A parsed string's canonical literal: its offset and length in the
  /// parsed text (NoLiteral when not canonical or not parsed).
  size_t LiteralAt = 0;
  size_t LiteralLen = NoLiteral;
};

/// Escapes \p S for embedding in a JSON string literal (no quotes).
std::string jsonEscape(const std::string &S);

/// Writers for callers that serialize an object straight into one
/// buffer instead of building a tree; each appends the bytes
/// JsonValue::appendTo writes for the same value.
/// \p S as a quoted string literal.
void appendJsonString(std::string &Out, std::string_view S);
/// \p N as an integer.
void appendJsonInt(std::string &Out, int64_t N);
/// \p D as a fraction: three decimals, null when not finite.
void appendJsonDouble(std::string &Out, double D);

namespace detail {
/// The first byte in [\p P, \p End) that a JSON string literal cannot
/// hold as is — a quote, a backslash or a byte below 0x20 — or \p End.
/// The escaper and the parser both scan with it.
const char *skipPlainJson(const char *P, const char *End);
} // namespace detail

} // namespace jslice

#endif // JSLICE_SERVICE_JSON_H
