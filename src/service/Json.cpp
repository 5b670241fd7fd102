//===- service/Json.cpp - Minimal JSON values -------------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Json.h"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace jslice;

namespace {

/// What a byte means inside a string literal. Plain bytes copy through
/// unchanged in both directions; the run scanners stop at anything
/// else. The same three stop classes serve the escaper (which must
/// escape them) and the parser (which must act on them).
enum ByteClass : unsigned char { Plain = 0, Quote, Backslash, Control };

constexpr std::array<unsigned char, 256> makeByteClasses() {
  std::array<unsigned char, 256> T{};
  for (unsigned C = 0; C < 0x20; ++C)
    T[C] = Control;
  T['"'] = Quote;
  T['\\'] = Backslash;
  return T;
}

constexpr std::array<unsigned char, 256> ByteClasses = makeByteClasses();

} // namespace

/// Eight bytes at a time where a 64-bit word holds them in address
/// order from its low byte up: a word's stop bytes — a quote, a
/// backslash, or a byte below 0x20 — are flagged in their top bits by
/// the has-zero-byte and has-less-than tests. A borrow can only flag a
/// byte above a real stop byte, so the lowest flag is exact, and it
/// is the only one read. The tail, and every other byte order, goes
/// through the table.
const char *jslice::detail::skipPlainJson(const char *P, const char *End) {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr uint64_t Ones = 0x0101010101010101ull;
    constexpr uint64_t Highs = 0x8080808080808080ull;
    auto ZeroBytes = [](uint64_t X) { return (X - Ones) & ~X & Highs; };
    for (; End - P >= 8; P += 8) {
      uint64_t W;
      std::memcpy(&W, P, sizeof(W));
      uint64_t Stops = ZeroBytes(W ^ (Ones * '"')) |
                       ZeroBytes(W ^ (Ones * '\\')) |
                       ((W - Ones * 0x20) & ~W & Highs);
      if (Stops)
        return P + std::countr_zero(Stops) / 8;
    }
  }
  while (P != End && ByteClasses[static_cast<unsigned char>(*P)] == Plain)
    ++P;
  return P;
}

namespace {

using jslice::detail::skipPlainJson;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

/// Appends \p S escaped for a JSON string literal (no quotes): plain
/// runs whole, then the one escape that ended the run.
/// The digits the escaper writes \u00xx with.
constexpr char HexDigits[] = "0123456789abcdef";

void appendEscaped(std::string &Out, std::string_view S) {
  const char *P = S.data(), *End = P + S.size();
  for (;;) {
    const char *Stop = skipPlainJson(P, End);
    Out.append(P, Stop - P);
    if (Stop == End)
      return;
    unsigned char C = static_cast<unsigned char>(*Stop);
    P = Stop + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      // The remaining control bytes, as lowercase \u00xx.
      const char U[] = {'\\', 'u', '0', '0', HexDigits[C >> 4],
                       HexDigits[C & 0xf]};
      Out.append(U, sizeof(U));
    }
    }
  }
}

} // namespace

void jslice::appendJsonString(std::string &Out, std::string_view S) {
  Out += '"';
  appendEscaped(Out, S);
  Out += '"';
}

void jslice::appendJsonInt(std::string &Out, int64_t N) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), N).ptr);
}

void jslice::appendJsonDouble(std::string &Out, double D) {
  if (!std::isfinite(D)) {
    Out += "null"; // JSON has no NaN/Inf.
    return;
  }
  char Buf[32];
  int N = std::snprintf(Buf, sizeof(Buf), "%.3f", D);
  if (N >= static_cast<int>(sizeof(Buf))) {
    // Past 1e27 the fixed form outgrows the buffer; the tree writer
    // kept the truncated prefix, so this one does too.
    N = sizeof(Buf) - 1;
  }
  Out.append(Buf, static_cast<size_t>(N));
}

std::string jslice::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  appendEscaped(Out, S);
  return Out;
}

std::string JsonValue::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

void JsonValue::appendTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += BoolV ? "true" : "false";
    return;
  case Kind::Number:
    if (IsDouble)
      appendJsonDouble(Out, DblV);
    else
      appendJsonInt(Out, NumV);
    return;
  case Kind::String:
    appendJsonString(Out, StrV);
    return;
  case Kind::Array: {
    Out += '[';
    bool First = true;
    for (const JsonValue &V : Arr) {
      if (!First)
        Out += ',';
      First = false;
      V.appendTo(Out);
    }
    Out += ']';
    return;
  }
  case Kind::Object: {
    Out += '{';
    bool First = true;
    for (const auto &[Key, V] : Obj) {
      if (!First)
        Out += ',';
      First = false;
      appendJsonString(Out, Key);
      Out += ':';
      V.appendTo(Out);
    }
    Out += '}';
    return;
  }
  }
  Out += "null";
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

/// Hand-rolled recursive-descent parser with an explicit depth cap (the
/// service reads untrusted request lines; a deep [[[[... must degrade,
/// not overflow the stack — the same discipline as the Mini-C parser).
/// Values are built in place in their parent's container. Error
/// positions are byte offsets of the cursor when the error is seen.
class JsonValue::Parser {
public:
  Parser(const std::string &Text, std::string *Error)
      : Begin(Text.data()), Cur(Begin), End(Begin + Text.size()),
        Error(Error) {}

  std::optional<JsonValue> run() {
    JsonValue V;
    if (!value(V, 0))
      return std::nullopt;
    skipWs();
    if (Cur != End) {
      fail("trailing characters after value");
      return std::nullopt;
    }
    return V;
  }

private:
  static constexpr unsigned MaxDepth = 64;

  /// Records the first error; always false.
  bool fail(const char *What) {
    if (Error && Error->empty())
      *Error = "byte " + std::to_string(Cur - Begin) + ": " + What;
    return false;
  }

  void skipWs() {
    while (Cur != End &&
           (*Cur == ' ' || *Cur == '\t' || *Cur == '\n' || *Cur == '\r'))
      ++Cur;
  }

  bool consume(char C) {
    if (Cur != End && *Cur == C) {
      ++Cur;
      return true;
    }
    return false;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (static_cast<size_t>(End - Cur) < Len ||
        std::memcmp(Cur, Word, Len) != 0)
      return false;
    Cur += Len;
    return true;
  }

  bool value(JsonValue &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipWs();
    if (Cur == End)
      return fail("unexpected end of input");
    char C = *Cur;
    if (C == '{')
      return object(Out, Depth);
    if (C == '[')
      return array(Out, Depth);
    if (C == '"') {
      Out.K = Kind::String;
      size_t At = static_cast<size_t>(Cur + 1 - Begin);
      bool Canonical = true;
      if (!string(Out.StrV, Canonical))
        return false;
      if (Canonical) {
        Out.LiteralAt = At;
        Out.LiteralLen = static_cast<size_t>(Cur - 1 - Begin) - At;
      }
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return fail("bad literal");
      Out = JsonValue(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return fail("bad literal");
      Out = JsonValue(false);
      return true;
    }
    if (C == 'n') {
      if (!literal("null"))
        return fail("bad literal");
      return true; // Out is already null.
    }
    if (C == '-' || (C >= '0' && C <= '9'))
      return number(Out);
    return fail("unexpected character");
  }

  bool object(JsonValue &Out, unsigned Depth) {
    consume('{');
    Out.K = Kind::Object;
    skipWs();
    if (consume('}'))
      return true;
    for (;;) {
      skipWs();
      if (Cur == End || *Cur != '"')
        return fail("expected object key");
      std::string Key;
      bool Canonical = true;
      if (!string(Key, Canonical))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':'");
      // A repeated key replaces the earlier value.
      JsonValue &Slot = Out.Obj[std::move(Key)];
      Slot = JsonValue();
      if (!value(Slot, Depth + 1))
        return false;
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue &Out, unsigned Depth) {
    consume('[');
    Out.K = Kind::Array;
    skipWs();
    if (consume(']'))
      return true;
    for (;;) {
      if (!value(Out.Arr.emplace_back(), Depth + 1))
        return false;
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']'");
    }
  }

  /// Reads exactly four hex digits into \p Code. On failure reports
  /// and returns false.
  bool hex4(unsigned &Code) {
    if (End - Cur < 4)
      return fail("truncated \\u escape");
    Code = 0;
    for (int I = 0; I != 4; ++I) {
      char H = *Cur++;
      Code <<= 4;
      if (H >= '0' && H <= '9')
        Code |= static_cast<unsigned>(H - '0');
      else if (H >= 'a' && H <= 'f')
        Code |= static_cast<unsigned>(H - 'a' + 10);
      else if (H >= 'A' && H <= 'F')
        Code |= static_cast<unsigned>(H - 'A' + 10);
      else
        return fail("bad \\u escape");
    }
    return true;
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out += static_cast<char>(Code);
    } else if (Code < 0x800) {
      Out += static_cast<char>(0xC0 | (Code >> 6));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else if (Code < 0x10000) {
      Out += static_cast<char>(0xE0 | (Code >> 12));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    } else {
      Out += static_cast<char>(0xF0 | (Code >> 18));
      Out += static_cast<char>(0x80 | ((Code >> 12) & 0x3F));
      Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Code & 0x3F));
    }
  }

  /// The string literal at the cursor, decoded into \p Out: each plain
  /// run is appended whole, then the byte that ended it is acted on.
  /// \p Canonical is cleared on the first escape the writer would not
  /// have produced for the byte it decodes to (appendEscaped).
  bool string(std::string &Out, bool &Canonical) {
    consume('"');
    for (;;) {
      const char *Stop = skipPlainJson(Cur, End);
      Out.append(Cur, Stop - Cur);
      Cur = Stop;
      if (Cur == End)
        return fail("unterminated string");
      unsigned char Class = ByteClasses[static_cast<unsigned char>(*Cur++)];
      if (Class == Quote)
        return true;
      if (Class == Control)
        return fail("raw control character in string");
      if (Cur == End)
        return fail("unterminated escape");
      char E = *Cur++;
      switch (E) {
      case '/':
        Canonical = false;
        [[fallthrough]];
      case '"':
      case '\\':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        unsigned Code = 0;
        if (!hex4(Code))
          return false;
        // The writer spells only the control bytes without a short
        // escape this way, as lower-case \u00xx.
        if (Canonical && !(Code < 0x20 && Code != '\b' && Code != '\f' &&
                           Code != '\n' && Code != '\r' && Code != '\t' &&
                           Cur[-4] == '0' && Cur[-3] == '0' &&
                           Cur[-2] == HexDigits[Code >> 4] &&
                           Cur[-1] == HexDigits[Code & 0xf]))
          Canonical = false;
        // Surrogate handling: a \uD800-\uDBFF immediately followed by
        // \uDC00-\uDFFF decodes as one supplementary code point
        // (4-byte UTF-8). A lone surrogate — either half on its own —
        // names no character; it becomes U+FFFD rather than leaking
        // an invalid UTF-8 sequence into the heap of tools downstream
        // of the service (tolerant by design: the journal must be
        // able to round-trip any request the server ever accepted).
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          const char *Save = Cur;
          unsigned Low = 0;
          if (End - Cur >= 2 && Cur[0] == '\\' && Cur[1] == 'u') {
            Cur += 2;
            if (!hex4(Low))
              return false;
            if (Low >= 0xDC00 && Low <= 0xDFFF) {
              appendUtf8(Out, 0x10000 + ((Code - 0xD800) << 10) +
                                  (Low - 0xDC00));
              break;
            }
            Cur = Save; // Not the pair's low half; reparse it alone.
          }
          Code = 0xFFFD;
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          Code = 0xFFFD; // Lone low surrogate.
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
  }

  bool number(JsonValue &Out) {
    auto Digits = [this] {
      while (Cur != End && *Cur >= '0' && *Cur <= '9')
        ++Cur;
    };
    const char *Start = Cur;
    consume('-');
    Digits();
    bool Fractional = false;
    if (consume('.')) {
      Fractional = true;
      Digits();
    }
    if (Cur != End && (*Cur == 'e' || *Cur == 'E')) {
      Fractional = true;
      ++Cur;
      if (Cur != End && (*Cur == '+' || *Cur == '-'))
        ++Cur;
      Digits();
    }
    if (Cur == Start || (Cur - Start == 1 && *Start == '-'))
      return fail("bad number");
    if (Fractional) {
      // Fractions are rare on the wire (the protocol has none); sscanf
      // keeps its exact acceptance of forms like "1." and "1e".
      std::string Tok(Start, Cur);
      double D = 0;
      if (std::sscanf(Tok.c_str(), "%lf", &D) != 1)
        return fail("bad number");
      Out = JsonValue(D);
      return true;
    }
    // The token is -?[0-9]+ here, which from_chars reads exactly.
    int64_t N = 0;
    if (std::from_chars(Start, Cur, N).ec != std::errc())
      return fail("number out of range");
    Out = JsonValue(N);
    return true;
  }

  const char *Begin;
  const char *Cur;
  const char *End;
  std::string *Error;
};

std::optional<JsonValue> JsonValue::parse(const std::string &Text,
                                          std::string *Error) {
  if (Error)
    Error->clear();
  return Parser(Text, Error).run();
}
