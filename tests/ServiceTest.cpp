//===- tests/ServiceTest.cpp - Slicing-service unit tests ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The service layer, bottom up: the JSON codec, the wire protocol,
/// the write-ahead journal with its poison recovery, and the Server's
/// end-to-end request handling (serve, refuse, cancel, quarantine,
/// stats) over in-memory streams.
///
//===----------------------------------------------------------------------===//

#include "service/Journal.h"
#include "service/JournalIo.h"
#include "service/Replication.h"
#include "service/Server.h"
#include "support/Pipe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>

using namespace jslice;

namespace {

const char *TinyProgram = "read(a);\nwrite(a);\n";

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(JsonTest, SerializesSortedCompactObjects) {
  JsonValue V = JsonValue::object();
  V.set("b", 2);
  V.set("a", std::string("x"));
  V.set("c", true);
  EXPECT_EQ(V.str(), "{\"a\":\"x\",\"b\":2,\"c\":true}");
}

TEST(JsonTest, RoundTripsStringsWithEscapes) {
  JsonValue V = JsonValue::object();
  V.set("s", std::string("line1\nline2\t\"quoted\"\\x\x01"));
  std::optional<JsonValue> Back = JsonValue::parse(V.str());
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->find("s")->asString(), "line1\nline2\t\"quoted\"\\x\x01");
}

TEST(JsonTest, ParsesNestedStructures) {
  std::optional<JsonValue> V = JsonValue::parse(
      "{\"a\": [1, 2.5, null, {\"b\": false}], \"c\": \"\\u0041\"}");
  ASSERT_TRUE(V.has_value());
  ASSERT_TRUE(V->find("a")->isArray());
  EXPECT_EQ(V->find("a")->elements().size(), 4u);
  EXPECT_EQ(V->find("c")->asString(), "A");
}

TEST(JsonTest, RejectsGarbageWithAReason) {
  std::string Error;
  EXPECT_FALSE(JsonValue::parse("{broken", &Error).has_value());
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(JsonValue::parse("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(JsonValue::parse("").has_value());
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string Deep(200, '[');
  EXPECT_FALSE(JsonValue::parse(Deep).has_value());
}

/// \p N arrays wrapped around a single integer.
std::string nestedArrays(unsigned N) {
  return std::string(N, '[') + "1" + std::string(N, ']');
}

TEST(JsonTest, NestingAtTheDepthLimitParsesAndOneDeeperFails) {
  // MaxDepth is 64: the innermost scalar sits at depth N for N arrays.
  EXPECT_TRUE(JsonValue::parse(nestedArrays(64)).has_value());
  std::string Error;
  EXPECT_FALSE(JsonValue::parse(nestedArrays(65), &Error).has_value());
  EXPECT_NE(Error.find("deep"), std::string::npos);
}

TEST(JsonTest, DecodesSurrogatePairs) {
  // U+1F600 as \uD83D\uDE00 -> 4-byte UTF-8.
  std::optional<JsonValue> V =
      JsonValue::parse("{\"s\":\"\\uD83D\\uDE00\"}");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->find("s")->asString(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, LoneSurrogatesBecomeReplacementCharacters) {
  const char *Fffd = "\xEF\xBF\xBD"; // U+FFFD in UTF-8.
  std::optional<JsonValue> High = JsonValue::parse("{\"s\":\"\\uD800\"}");
  ASSERT_TRUE(High.has_value());
  EXPECT_EQ(High->find("s")->asString(), Fffd);

  std::optional<JsonValue> Low = JsonValue::parse("{\"s\":\"\\uDFFF\"}");
  ASSERT_TRUE(Low.has_value());
  EXPECT_EQ(Low->find("s")->asString(), Fffd);

  // High surrogate chased by a non-surrogate escape: U+FFFD, then the
  // second escape decodes on its own.
  std::optional<JsonValue> Chased =
      JsonValue::parse("{\"s\":\"\\uD800\\u0041\"}");
  ASSERT_TRUE(Chased.has_value());
  EXPECT_EQ(Chased->find("s")->asString(), std::string(Fffd) + "A");
}

TEST(JsonTest, RejectsMalformedUnicodeEscapes) {
  EXPECT_FALSE(JsonValue::parse("{\"s\":\"\\u12\"}").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"s\":\"\\u12GZ\"}").has_value());
  EXPECT_FALSE(JsonValue::parse("{\"s\":\"\\uD83D\\u12\"}").has_value());
}

TEST(JsonTest, RawInvalidUtf8PassesThroughByteTransparently) {
  // The parser validates JSON structure, not UTF-8: raw bytes in
  // strings survive untouched (and re-serialize untouched).
  std::string Text = "{\"s\":\"\xFF\xFE ok\"}";
  std::optional<JsonValue> V = JsonValue::parse(Text);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->find("s")->asString(), "\xFF\xFE ok");
  EXPECT_EQ(V->str(), Text);
}

/// The per-byte escaper the run-scanning writer replaced, kept as the
/// writer's oracle.
std::string referenceEscape(const std::string &S) {
  std::string Out;
  for (unsigned char C : S) {
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
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

/// A random string over all 256 byte values: plain runs of random
/// length (printable ASCII and raw non-UTF-8 bytes alike) broken by
/// quotes, backslashes, control bytes and more raw high bytes.
std::string randomJsonString(std::mt19937 &Rng) {
  std::string S;
  size_t Runs = Rng() % 6;
  for (size_t R = 0; R != Runs; ++R) {
    size_t Len = Rng() % 3 == 0 ? Rng() % 64 : Rng() % 8;
    for (size_t I = 0; I != Len; ++I) {
      unsigned char C = static_cast<unsigned char>(0x20 + Rng() % 0xe0);
      S += (C == '"' || C == '\\') ? 'x' : static_cast<char>(C);
    }
    switch (Rng() % 4) {
    case 0:
      S += '"';
      break;
    case 1:
      S += '\\';
      break;
    case 2:
      S += static_cast<char>(Rng() % 0x20); // Every control byte, NUL too.
      break;
    default:
      S += static_cast<char>(0x80 + Rng() % 0x80);
    }
  }
  return S;
}

/// A random value together with the bytes the per-byte serializer the
/// writer replaced produced for it (sorted keys, last duplicate wins,
/// integers by to_string, fractions by %.3f). Doubles are multiples of
/// 1/8, so they survive the three-decimal round trip exactly.
std::pair<JsonValue, std::string> randomJsonValue(std::mt19937 &Rng,
                                                  unsigned Depth) {
  switch (Rng() % (Depth < 4 ? 8 : 6)) {
  case 0:
    return {JsonValue(), "null"};
  case 1: {
    bool B = Rng() % 2;
    return {JsonValue(B), B ? "true" : "false"};
  }
  case 2: {
    uint64_t Hi = Rng(), Lo = Rng();
    int64_t N = static_cast<int64_t>((Hi << 32 | Lo) >> (1 + Rng() % 63));
    if (Rng() % 2)
      N = -N;
    return {JsonValue(N), std::to_string(N)};
  }
  case 3: {
    double D = static_cast<double>(static_cast<int>(Rng() % 200001) - 100000) /
               8;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f", D);
    return {JsonValue(D), Buf};
  }
  case 4:
  case 5: {
    std::string S = randomJsonString(Rng);
    return {JsonValue(S), "\"" + referenceEscape(S) + "\""};
  }
  case 6: {
    JsonValue A = JsonValue::array();
    std::string Out = "[";
    for (size_t I = 0, N = Rng() % 5; I != N; ++I) {
      auto [V, Bytes] = randomJsonValue(Rng, Depth + 1);
      A.push(std::move(V));
      Out += (I ? "," : "") + Bytes;
    }
    return {std::move(A), Out + "]"};
  }
  default: {
    JsonValue O = JsonValue::object();
    std::map<std::string, std::string> Members;
    for (size_t I = 0, N = Rng() % 5; I != N; ++I) {
      std::string Key = Rng() % 3 ? randomJsonString(Rng) : "k";
      auto [V, Bytes] = randomJsonValue(Rng, Depth + 1);
      O.set(Key, std::move(V));
      Members[Key] = Bytes;
    }
    std::string Out = "{";
    for (const auto &[Key, Bytes] : Members)
      Out += (Out.size() > 1 ? ",\"" : "\"") + referenceEscape(Key) +
             "\":" + Bytes;
    return {std::move(O), Out + "}"};
  }
  }
}

/// Structural equality through the public accessors.
bool sameJson(const JsonValue &A, const JsonValue &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case JsonValue::Kind::Null:
    return true;
  case JsonValue::Kind::Bool:
    return A.asBool() == B.asBool();
  case JsonValue::Kind::Number:
    return A.asInt() == B.asInt() && A.asDouble() == B.asDouble();
  case JsonValue::Kind::String:
    return A.asString() == B.asString();
  case JsonValue::Kind::Array:
    return std::equal(A.elements().begin(), A.elements().end(),
                      B.elements().begin(), B.elements().end(), sameJson);
  case JsonValue::Kind::Object:
    return std::equal(
        A.members().begin(), A.members().end(), B.members().begin(),
        B.members().end(), [](const auto &X, const auto &Y) {
          return X.first == Y.first && sameJson(X.second, Y.second);
        });
  }
  return false;
}

TEST(JsonTest, WriterMatchesBytewiseReference) {
  std::mt19937 Rng(20261018);
  for (int I = 0; I != 3000; ++I) {
    auto [V, Want] = randomJsonValue(Rng, 0);
    ASSERT_EQ(V.str(), Want) << "value " << I;
    std::string Appended = "prefix";
    V.appendTo(Appended);
    ASSERT_EQ(Appended, "prefix" + Want);
    if (V.isString()) {
      ASSERT_EQ(jsonEscape(V.asString()), referenceEscape(V.asString()));
    }
    std::string Error;
    std::optional<JsonValue> Back = JsonValue::parse(Want, &Error);
    ASSERT_TRUE(Back.has_value()) << Want << " -> " << Error;
    ASSERT_TRUE(sameJson(*Back, V)) << Want;
  }
  for (int64_t N : {INT64_MIN, INT64_MAX, int64_t(0), int64_t(-1)})
    EXPECT_EQ(JsonValue(N).str(), std::to_string(N));
  // Fractions of every magnitude go through the same %.3f.
  for (int I = 0; I != 2000; ++I) {
    double D = std::ldexp(static_cast<double>(Rng()) - 2147483648.0,
                          static_cast<int>(Rng() % 160) - 80);
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f", D);
    ASSERT_EQ(JsonValue(D).str(), Buf);
  }

  // Escape-dense strings parse the same at every plain-run length.
  // Each escape form the parser accepts, with the bytes it decodes to
  // (including forms the writer never emits).
  const std::pair<const char *, std::string> Escapes[] = {
      {"\\\"", "\""},
      {"\\\\", "\\"},
      {"\\/", "/"},
      {"\\b", "\b"},
      {"\\f", "\f"},
      {"\\n", "\n"},
      {"\\r", "\r"},
      {"\\t", "\t"},
      {"\\u0000", std::string(1, '\0')},
      {"\\u001F", "\x1f"},
      {"\\u00e9", "\xC3\xA9"},
      {"\\uD83D\\uDE00", "\xF0\x9F\x98\x80"},
      {"\\uDC00", "\xEF\xBF\xBD"},
  };
  for (size_t Run = 0; Run <= 40; ++Run) {
    for (const auto &[Escape, Decoded] : Escapes) {
      std::string Plain;
      for (size_t I = 0; I != Run; ++I)
        Plain += static_cast<char>(I % 2 ? 'a' + I % 26 : 0x80 + I);
      std::string Text = "\"", Want;
      for (int Rep = 0; Rep != 3; ++Rep) {
        Text += Plain + Escape;
        Want += Plain + Decoded;
      }
      Text += Plain + "\"";
      Want += Plain;
      std::string Error;
      std::optional<JsonValue> V = JsonValue::parse(Text, &Error);
      ASSERT_TRUE(V.has_value()) << Text << " -> " << Error;
      ASSERT_EQ(V->asString(), Want) << "run " << Run << " " << Escape;
      // And the writer's escaping of the decoded bytes round-trips.
      ASSERT_EQ(JsonValue::parse(JsonValue(Want).str())->asString(), Want);
    }
  }
}

/// Every line of the checked-in corpus file, skipping blanks.
std::vector<std::string> corpusLines(const std::string &Name) {
  std::ifstream In(std::string(JSLICE_REPO_ROOT) + "/tests/json_corpus/" +
                   Name);
  EXPECT_TRUE(In.good()) << "missing corpus file " << Name;
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

TEST(JsonCorpusTest, AcceptCorpusParsesAndReserializes) {
  std::vector<std::string> Lines = corpusLines("accept.jsonl");
  ASSERT_FALSE(Lines.empty());
  for (const std::string &Line : Lines) {
    std::string Error;
    std::optional<JsonValue> V = JsonValue::parse(Line, &Error);
    EXPECT_TRUE(V.has_value()) << Line << " -> " << Error;
    if (!V)
      continue;
    // Our own serialization must be a fixpoint: parse(str(x)) == str(x).
    std::string Out = V->str();
    std::optional<JsonValue> Back = JsonValue::parse(Out);
    ASSERT_TRUE(Back.has_value()) << Out;
    EXPECT_EQ(Back->str(), Out) << Line;
  }
}

TEST(JsonCorpusTest, RejectCorpusFailsWithPositions) {
  // reject_errors.txt holds, line for line, the exact message the
  // per-byte parser gave for each rejected line; run scanning must not
  // move an error position.
  std::vector<std::string> Lines = corpusLines("reject.jsonl");
  std::vector<std::string> Errors = corpusLines("reject_errors.txt");
  ASSERT_FALSE(Lines.empty());
  ASSERT_EQ(Lines.size(), Errors.size());
  for (size_t I = 0; I != Lines.size(); ++I) {
    std::string Error;
    EXPECT_FALSE(JsonValue::parse(Lines[I], &Error).has_value())
        << "corpus line unexpectedly parsed: " << Lines[I];
    EXPECT_EQ(Error, Errors[I]) << Lines[I];
  }
  // Input that ends inside a token, which no corpus line does; the
  // messages are the per-byte parser's too.
  const std::pair<const char *, const char *> Truncated[] = {
      {"{\"s\":\"\\u12", "byte 8: truncated \\u escape"},
      {"{\"s\":\"\\uD83D\\u12", "byte 14: truncated \\u escape"},
      {"{\"s\":\"\\uD83D\\u12G4\"}", "byte 17: bad \\u escape"},
      {"{\"s\":\"ab", "byte 8: unterminated string"},
      {"{\"s\":\"ab\\", "byte 9: unterminated escape"},
      {"[1,", "byte 3: unexpected end of input"},
      {"tru", "byte 0: bad literal"},
      {"-", "byte 1: bad number"},
      {"1.5.", "byte 3: trailing characters after value"},
  };
  for (const auto &[Text, Want] : Truncated) {
    std::string Error;
    EXPECT_FALSE(JsonValue::parse(Text, &Error).has_value()) << Text;
    EXPECT_EQ(Error, Want) << Text;
  }
}

/// The table scanner the word-at-a-time one replaced: the first quote,
/// backslash or control byte.
const char *referenceSkipPlain(const char *P, const char *End) {
  return std::find_if(P, End, [](char C) {
    unsigned char U = static_cast<unsigned char>(C);
    return U < 0x20 || U == '"' || U == '\\';
  });
}

TEST(JsonTest, WordScannerMatchesTheTableAtEveryOffset) {
  // Every byte value, then every ordered pair of byte values, at every
  // offset mod 8 and at both alignments of the buffer: the pairs catch
  // a stop byte whose borrow would flag the byte above it.
  char Buf[40];
  for (size_t Align = 0; Align != 2; ++Align) {
    char *Begin = Buf + Align, *End = Begin + 32;
    for (unsigned First = 0; First != 256; ++First) {
      for (size_t At = 0; At != 16; ++At) {
        std::fill(Begin, End, 'a');
        Begin[At] = static_cast<char>(First);
        ASSERT_EQ(detail::skipPlainJson(Begin, End),
                  referenceSkipPlain(Begin, End))
            << "byte " << First << " at " << At << " align " << Align;
        ASSERT_EQ(detail::skipPlainJson(Begin + At, Begin + At + 1),
                  referenceSkipPlain(Begin + At, Begin + At + 1));
        for (unsigned Second = 0; Second != 256; ++Second) {
          Begin[At + 1] = static_cast<char>(Second);
          ASSERT_EQ(detail::skipPlainJson(Begin, End),
                    referenceSkipPlain(Begin, End))
              << "bytes " << First << "," << Second << " at " << At;
        }
      }
    }
  }
  // Plain runs of every length up to three words, then one stop.
  for (size_t Len = 0; Len != 25; ++Len) {
    std::string S(Len, '\x7f');
    EXPECT_EQ(detail::skipPlainJson(S.data(), S.data() + Len), S.data() + Len);
    S += '"';
    EXPECT_EQ(detail::skipPlainJson(S.data(), S.data() + S.size()),
              S.data() + Len);
  }
}

TEST(JsonTest, CanonicalLiteralsAreReportedWhereTheyLie) {
  // Literals the writer would produce byte for byte, and literals it
  // would not, each with the string it decodes to.
  const char *Canonical[] = {
      "",
      "read(a);\\nwrite(a);\\n",
      "quote \\\" and backslash \\\\ inside",
      "\\b\\f\\n\\r\\t",
      "\\u0000\\u0001\\u000b\\u001f\\u0010",
      "raw utf-8 \xC3\xA9 and \x7f",
  };
  const char *NotCanonical[] = {
      "\\/",          "\\u0041",       "\\u001F",   "\\u000a",
      "\\u0009",      "\\uD83D\\uDE00", "\\uDC00",   "\\uD800x",
      "\\u00e9",      "\\u007f",       "a\\u001Fb", "ok\\n\\/",
  };
  for (const char *Lit : Canonical) {
    std::string Text = std::string("[1,\"") + Lit + "\"]";
    std::optional<JsonValue> V = JsonValue::parse(Text);
    ASSERT_TRUE(V.has_value()) << Text;
    const JsonValue &S = V->elements()[1];
    std::optional<std::string_view> L = S.canonicalLiteral(Text);
    ASSERT_TRUE(L.has_value()) << Lit;
    EXPECT_EQ(*L, Lit);
    EXPECT_EQ(jsonEscape(S.asString()), Lit);
  }
  for (const char *Lit : NotCanonical) {
    std::string Text = std::string("{\"k\":\"") + Lit + "\"}";
    std::optional<JsonValue> V = JsonValue::parse(Text);
    ASSERT_TRUE(V.has_value()) << Text;
    EXPECT_FALSE(V->find("k")->canonicalLiteral(Text).has_value()) << Lit;
  }
  // Built values and non-strings have none; a repeated key reports the
  // literal of the value that won.
  EXPECT_FALSE(JsonValue("x").canonicalLiteral("\"x\"").has_value());
  EXPECT_FALSE(JsonValue::parse("7")->canonicalLiteral("7").has_value());
  std::string Twice = "{\"k\":\"\\/\",\"k\":\"b\\n\"}";
  EXPECT_EQ(JsonValue::parse(Twice)->find("k")->canonicalLiteral(Twice),
            std::optional<std::string_view>("b\\n"));
  std::string Once = "{\"k\":\"b\\n\",\"k\":\"\\/\"}";
  EXPECT_FALSE(
      JsonValue::parse(Once)->find("k")->canonicalLiteral(Once).has_value());
}

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(RequestTest, ResponseStatusNamesRoundTrip) {
  const ResponseStatus All[] = {
      ResponseStatus::Ok,        ResponseStatus::ResourceExhausted,
      ResponseStatus::Error,     ResponseStatus::BadRequest,
      ResponseStatus::Cancelled, ResponseStatus::Poisoned,
      ResponseStatus::Crashed,   ResponseStatus::Shed,
  };
  for (ResponseStatus S : All) {
    std::optional<ResponseStatus> Back =
        responseStatusByName(responseStatusName(S));
    ASSERT_TRUE(Back.has_value()) << responseStatusName(S);
    EXPECT_EQ(*Back, S);
  }
  EXPECT_FALSE(responseStatusByName("no-such-status").has_value());
  EXPECT_FALSE(responseStatusByName("").has_value());
}

TEST(RequestTest, ParsesSliceRequestWithAllFields) {
  ParsedRequest P = parseRequestLine(
      "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"],\"algorithm\":\"lyle\",\"budget_ms\":250,"
      "\"max_steps\":1000}");
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.Request.Kind, RequestKind::Slice);
  EXPECT_EQ(P.Request.Id, "r1");
  EXPECT_EQ(P.Request.Line, 2u);
  EXPECT_EQ(P.Request.Vars, std::vector<std::string>{"a"});
  EXPECT_EQ(P.Request.Algorithm, SliceAlgorithm::Lyle);
  EXPECT_EQ(P.Request.BudgetMs, 250u);
  EXPECT_EQ(P.Request.MaxSteps, 1000u);
}

TEST(RequestTest, ParsesControlRequests) {
  ParsedRequest Cancel = parseRequestLine("{\"cancel\": \"r9\"}");
  ASSERT_TRUE(Cancel.Ok);
  EXPECT_EQ(Cancel.Request.Kind, RequestKind::Cancel);
  EXPECT_EQ(Cancel.Request.CancelTarget, "r9");

  ParsedRequest Stats = parseRequestLine("{\"stats\": true}");
  ASSERT_TRUE(Stats.Ok);
  EXPECT_EQ(Stats.Request.Kind, RequestKind::Stats);
}

TEST(RequestTest, RejectsMalformedRequestsWithReasons) {
  EXPECT_FALSE(parseRequestLine("not json").Ok);
  EXPECT_FALSE(parseRequestLine("[1,2]").Ok);
  EXPECT_FALSE(parseRequestLine("{\"program\":\"x\",\"line\":1}").Ok);
  EXPECT_FALSE(
      parseRequestLine("{\"id\":\"r\",\"program\":\"x\",\"line\":0}").Ok);
  EXPECT_FALSE(parseRequestLine("{\"id\":\"r\",\"program\":\"x\",\"line\":1,"
                                "\"algorithm\":\"nonsense\"}")
                   .Ok);
  // The best-effort id still comes back for the error response.
  ParsedRequest P =
      parseRequestLine("{\"id\":\"r7\",\"program\":\"x\",\"line\":-4}");
  EXPECT_FALSE(P.Ok);
  EXPECT_EQ(P.Id, "r7");
}

TEST(RequestTest, ContentKeyTracksContentNotId) {
  ServiceRequest A;
  A.Id = "first";
  A.Program = TinyProgram;
  A.Line = 2;
  A.Vars = {"a"};
  ServiceRequest B = A;
  B.Id = "second";
  EXPECT_EQ(A.contentKey(), B.contentKey());
  B.Line = 1;
  EXPECT_NE(A.contentKey(), B.contentKey());
}

TEST(RequestTest, JournalRoundTripPreservesTheRequest) {
  ServiceRequest R;
  R.Id = "r1";
  R.Program = TinyProgram;
  R.Line = 2;
  R.Vars = {"a"};
  R.Algorithm = SliceAlgorithm::BallHorwitz;
  R.MaxSteps = 77;
  std::optional<JsonValue> V = JsonValue::parse(R.toJson().str());
  ASSERT_TRUE(V.has_value());
  ServiceRequest Back;
  ASSERT_TRUE(requestFromJson(std::move(*V), Back));
  EXPECT_EQ(Back.Program, R.Program);
  EXPECT_EQ(Back.Line, R.Line);
  EXPECT_EQ(Back.Vars, R.Vars);
  EXPECT_EQ(Back.Algorithm, R.Algorithm);
  EXPECT_EQ(Back.MaxSteps, R.MaxSteps);
  EXPECT_EQ(Back.contentKey(), R.contentKey());
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

TEST(JournalTest, UnmatchedBeginSurvivesScanning) {
  std::string Path = ::testing::TempDir() + "jslice_journal_test.jsonl";
  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    ServiceRequest Done;
    Done.Id = "done";
    Done.Program = TinyProgram;
    Done.Line = 2;
    J.begin(Done);
    J.end("done", "ok");
    ServiceRequest Stuck = Done;
    Stuck.Id = "stuck";
    J.begin(Stuck);
  }
  // A torn tail record (the crash cut the write short) must be skipped.
  {
    std::ofstream Out(Path, std::ios::app);
    Out << "{\"event\":\"begin\",\"id\":\"to";
  }
  std::vector<PoisonedRequest> Poisoned = scanJournalDetailed(Path).InFlight;
  ASSERT_EQ(Poisoned.size(), 1u);
  EXPECT_EQ(Poisoned.front().Id, "stuck");
  EXPECT_EQ(Poisoned.front().Request.Program, TinyProgram);
  std::remove(Path.c_str());
}

TEST(JournalTest, MissingFileScansEmpty) {
  EXPECT_TRUE(scanJournalDetailed(::testing::TempDir() + "no_such_journal")
                  .InFlight.empty());
}

TEST(JournalTest, QuarantineWritesReplayableRepro) {
  std::string Dir = ::testing::TempDir() + "jslice_quarantine_test";
  PoisonedRequest P;
  P.Id = "victim";
  P.Request.Id = "victim";
  P.Request.Program = TinyProgram;
  P.Request.Line = 2;
  std::string Path = quarantinePoisoned(Dir, P);
  ASSERT_FALSE(Path.empty());
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), TinyProgram);
}

TEST(JournalTest, RotationKeepsOnlyUnmatchedBeginsAndReplaySurvivesIt) {
  std::string Path = ::testing::TempDir() + "jslice_journal_rotate.jsonl";
  std::remove(Path.c_str());
  uint64_t Written = 0;
  {
    Journal J;
    ASSERT_TRUE(J.open(Path, /*RotateBytes=*/1024));
    // One request that never completes, buried under dozens of
    // bracketed pairs: every rotation must carry the open begin
    // forward even as the bracketed history is dropped.
    ServiceRequest Stuck;
    Stuck.Id = "stuck";
    Stuck.Program = TinyProgram;
    Stuck.Line = 2;
    Stuck.Vars = {"a"};
    J.begin(Stuck);
    for (unsigned I = 0; I != 50; ++I) {
      ServiceRequest R = Stuck;
      R.Id = "r" + std::to_string(I);
      J.begin(R);
      Written += 200; // Rough per-pair size: enough to force rotations.
      J.end(R.Id, "ok");
    }
    // The file stayed near the rotation bound instead of growing with
    // the full history.
    EXPECT_LT(J.bytes(), 2048u);
    EXPECT_LT(J.bytes(), Written);
  }
  // Replay across the rotation boundary: the stuck request is intact,
  // program and all; the 50 completed pairs are gone.
  std::vector<PoisonedRequest> Poisoned = scanJournalDetailed(Path).InFlight;
  ASSERT_EQ(Poisoned.size(), 1u);
  EXPECT_EQ(Poisoned.front().Id, "stuck");
  EXPECT_EQ(Poisoned.front().Request.Program, TinyProgram);
  EXPECT_EQ(Poisoned.front().Request.Vars, std::vector<std::string>{"a"});
  std::remove(Path.c_str());
}

TEST(JournalTest, CompactKeepsOpenBeginsAndEmptiesABracketedJournal) {
  std::string Path = ::testing::TempDir() + "jslice_journal_compact.jsonl";
  std::remove(Path.c_str());
  Journal J;
  ASSERT_TRUE(J.open(Path));
  ServiceRequest R;
  R.Id = "open";
  R.Program = TinyProgram;
  R.Line = 2;
  J.begin(R);
  for (unsigned I = 0; I != 5; ++I) {
    ServiceRequest Pair = R;
    Pair.Id = "p" + std::to_string(I);
    J.begin(Pair);
    J.end(Pair.Id, "ok");
  }
  EXPECT_EQ(J.compact(), 1u);
  std::vector<PoisonedRequest> Poisoned = scanJournalDetailed(Path).InFlight;
  ASSERT_EQ(Poisoned.size(), 1u);
  EXPECT_EQ(Poisoned.front().Id, "open");

  // Close the last pair: a fully-bracketed journal compacts to empty.
  J.end("open", "ok");
  EXPECT_EQ(J.compact(), 0u);
  EXPECT_EQ(J.bytes(), 0u);
  EXPECT_TRUE(scanJournalDetailed(Path).InFlight.empty());
  std::remove(Path.c_str());
}

TEST(JournalTest, CleanShutdownRecordIsDetectedAndSkippedByReplay) {
  std::string Path = ::testing::TempDir() + "jslice_journal_shutdown.jsonl";
  std::remove(Path.c_str());
  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    ServiceRequest R;
    R.Id = "r1";
    R.Program = TinyProgram;
    R.Line = 2;
    J.begin(R);
    J.end("r1", "ok");
    EXPECT_FALSE(journalEndsWithCleanShutdown(Path));
    J.shutdownRecord();
  }
  EXPECT_TRUE(journalEndsWithCleanShutdown(Path));
  // The id-less shutdown record is bookkeeping, not a request: replay
  // must not try to quarantine it.
  EXPECT_TRUE(scanJournalDetailed(Path).InFlight.empty());

  // New work after the marker means the shutdown is no longer the last
  // word: a crash now is a dirty crash.
  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    ServiceRequest R;
    R.Id = "r2";
    R.Program = TinyProgram;
    R.Line = 2;
    J.begin(R);
  }
  EXPECT_FALSE(journalEndsWithCleanShutdown(Path));
  ASSERT_EQ(scanJournalDetailed(Path).InFlight.size(), 1u);
  std::remove(Path.c_str());
}

TEST(JournalTest, GenerationStampsAttributeUnmatchedBegins) {
  std::string Path = ::testing::TempDir() + "jslice_journal_gen.jsonl";
  std::remove(Path.c_str());
  // Two generations append to the same file during an upgrade overlap;
  // each unmatched begin must carry its owner's stamp.
  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    J.setGeneration(1);
    ServiceRequest R;
    R.Id = "old-stuck";
    R.Program = TinyProgram;
    R.Line = 2;
    J.begin(R);
  }
  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    J.setGeneration(2);
    ServiceRequest R;
    R.Id = "new-stuck";
    R.Program = TinyProgram;
    R.Line = 1;
    J.begin(R);
  }
  std::vector<PoisonedRequest> Poisoned = scanJournalDetailed(Path).InFlight;
  ASSERT_EQ(Poisoned.size(), 2u);
  for (const PoisonedRequest &P : Poisoned) {
    if (P.Id == "old-stuck")
      EXPECT_EQ(P.Gen, 1u);
    else if (P.Id == "new-stuck")
      EXPECT_EQ(P.Gen, 2u);
    else
      ADD_FAILURE() << "unexpected poisoned id " << P.Id;
  }
  std::remove(Path.c_str());
}

TEST(JournalTest, BatchPolicyStillRecordsEverything) {
  // Batch trades power-loss durability for throughput; a kill -9 (the
  // process dies, the OS survives) must still lose nothing, so the
  // unmatched-begin scan sees the same world.
  std::string Path = ::testing::TempDir() + "jslice_journal_sync.jsonl";
  std::remove(Path.c_str());
  {
    Journal J;
    ASSERT_TRUE(J.open(Path, /*RotateBytes=*/0, JournalSync::Batch,
                       /*FlushIntervalMs=*/5));
    ServiceRequest R;
    R.Id = "done";
    R.Program = TinyProgram;
    R.Line = 2;
    J.begin(R);
    J.end("done", "ok");
    R.Id = "stuck";
    J.begin(R);
  }
  std::vector<PoisonedRequest> Poisoned = scanJournalDetailed(Path).InFlight;
  ASSERT_EQ(Poisoned.size(), 1u);
  EXPECT_EQ(Poisoned.front().Id, "stuck");
  std::remove(Path.c_str());
}

TEST(JournalTest, SyncPolicyNamesRoundTrip) {
  for (JournalSync Sync : {JournalSync::Full, JournalSync::Batch}) {
    JournalSync Back = JournalSync::Full;
    ASSERT_TRUE(parseJournalSyncName(journalSyncName(Sync), Back));
    EXPECT_EQ(Back, Sync);
  }
  JournalSync Out;
  EXPECT_FALSE(parseJournalSyncName("sometimes", Out));
  EXPECT_FALSE(parseJournalSyncName("off", Out)) << "off was retired";
  EXPECT_FALSE(parseJournalSyncName("", Out));
}

TEST(JournalTest, FailurePolicyNamesRoundTrip) {
  for (JournalFailure F :
       {JournalFailure::Shed, JournalFailure::Degrade, JournalFailure::Abort}) {
    JournalFailure Back = JournalFailure::Shed;
    ASSERT_TRUE(parseJournalFailureName(journalFailureName(F), Back));
    EXPECT_EQ(Back, F);
  }
  JournalFailure Out;
  EXPECT_FALSE(parseJournalFailureName("panic", Out));
  EXPECT_FALSE(parseJournalFailureName("", Out));
}

//===----------------------------------------------------------------------===//
// Journal: checksummed framing and fault tolerance
//===----------------------------------------------------------------------===//

/// Writes a small journal — one bracketed pair, one unmatched begin —
/// and returns its path.
std::string writeSmallJournal(const std::string &Name,
                              bool WithShutdown = false) {
  std::string Path = ::testing::TempDir() + Name;
  std::remove(Path.c_str());
  Journal J;
  EXPECT_TRUE(J.open(Path));
  ServiceRequest R;
  R.Id = "done";
  R.Program = TinyProgram;
  R.Line = 2;
  R.Vars = {"a"};
  J.begin(R);
  J.end("done", "ok");
  R.Id = "stuck";
  J.begin(R);
  if (WithShutdown)
    J.shutdownRecord();
  return Path;
}

TEST(JournalTest, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector: any polynomial mix-up or
  // reflection bug changes this constant.
  EXPECT_EQ(journalCrc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(journalCrc32(""), 0u);
}

/// The bytewise table CRC the slice-by-8 one replaced.
uint32_t bytewiseCrc32(const unsigned char *P, size_t N) {
  static const std::vector<uint32_t> Table = [] {
    std::vector<uint32_t> T(256);
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xffffffffu;
  for (size_t I = 0; I != N; ++I)
    C = Table[(C ^ P[I]) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

TEST(JournalTest, Crc32SliceBy8MatchesBytewise) {
  std::mt19937 Rng(8);
  std::vector<unsigned char> Buf(16 * 1024 + 8);
  for (unsigned char &B : Buf)
    B = static_cast<unsigned char>(Rng());
  // Every length through eight blocks, at every alignment of the start.
  for (size_t Offset = 0; Offset != 8; ++Offset)
    for (size_t Len = 0; Len <= 64; ++Len) {
      const unsigned char *P = Buf.data() + Offset;
      ASSERT_EQ(journalCrc32(std::string_view(
                    reinterpret_cast<const char *>(P), Len)),
                bytewiseCrc32(P, Len))
          << "offset " << Offset << " length " << Len;
    }
  for (int I = 0; I != 16; ++I) {
    size_t Len = 4096 + Rng() % (12 * 1024 + 1);
    size_t Offset = Rng() % 8;
    for (size_t J = 0; J != Len; ++J)
      Buf[Offset + J] = static_cast<unsigned char>(Rng());
    const unsigned char *P = Buf.data() + Offset;
    ASSERT_EQ(journalCrc32(std::string_view(
                  reinterpret_cast<const char *>(P), Len)),
              bytewiseCrc32(P, Len))
        << "length " << Len;
  }
}

TEST(JournalTest, RecordsAreChecksummedAndSequenced) {
  std::string Path = writeSmallJournal("jslice_journal_crc.jsonl");
  std::ifstream In(Path);
  std::string Line;
  uint64_t LastSeq = 0, Lines = 0;
  while (std::getline(In, Line)) {
    std::optional<JournalRecord> Rec = decodeJournalLine(Line);
    ASSERT_TRUE(Rec) << Line;
    EXPECT_GT(Rec->Seq, LastSeq) << "sequence must be strictly monotonic";
    LastSeq = Rec->Seq;
    ++Lines;
  }
  EXPECT_EQ(Lines, 3u);

  JournalScan Scan = scanJournalDetailed(Path);
  EXPECT_TRUE(Scan.Exists);
  EXPECT_EQ(Scan.Records, 3u);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_EQ(Scan.SeqRegressions, 0u);
  EXPECT_FALSE(Scan.TornTail);
  ASSERT_EQ(Scan.InFlight.size(), 1u);
  EXPECT_EQ(Scan.InFlight.front().Id, "stuck");
  std::remove(Path.c_str());
}

/// A record head for encodeJournalRecord.
JournalRecord recordHead(const std::string &Event, const std::string &Id,
                         uint64_t Seq, uint64_t Gen = 0, uint64_t Epoch = 0) {
  JournalRecord H;
  H.Event = Event;
  H.Id = Id;
  H.Seq = Seq;
  H.Gen = Gen;
  H.Epoch = Epoch;
  return H;
}

/// Whole-file bytes ("" when unreadable).
std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

TEST(JournalTest, RecordBytesArePinned) {
  // tests/journal/pinned_records.jsonl was written by the journal as it
  // stood before records went through one encoder and one decoder
  // (commit 5af8f1f), by exactly the calls below. A rolled-back binary
  // must verify every line a newer one writes, so the bytes never move.
  std::string Fixture =
      std::string(JSLICE_REPO_ROOT) + "/tests/journal/pinned_records.jsonl";
  std::string Pinned = fileBytes(Fixture);
  ASSERT_FALSE(Pinned.empty()) << "missing fixture " << Fixture;

  ServiceRequest Plain;
  Plain.Id = "plain";
  Plain.Program = TinyProgram;
  Plain.Line = 2;
  ServiceRequest Done;
  Done.Id = "done";
  Done.Program = "read(a);\n\tb = a + 1;\nwrite(b);\n";
  Done.Line = 3;
  Done.Vars = {"b"};
  Done.BudgetMs = 250;
  Done.MaxSteps = 10000;
  ServiceRequest Stuck = Done;
  Stuck.Id = "stuck";
  Stuck.Vars = {"a", "b"};
  Stuck.BudgetMs = 0;
  Stuck.MaxSteps = 0;
  Stuck.MinEpoch = 3;
  Stuck.Algorithm = SliceAlgorithm::Lyle;
  ServiceRequest Lost = Done;
  Lost.Id = "lost";

  std::string Path = ::testing::TempDir() + "jslice_journal_pinned.jsonl";
  std::remove(Path.c_str());
  {
    FaultyJournalIo Io;
    Journal J;
    J.setIo(&Io);
    ASSERT_TRUE(J.open(Path));
    EXPECT_TRUE(J.begin(Plain));          // seq 1, unstamped
    EXPECT_TRUE(J.end("plain", "ok"));    // seq 2
    J.setGeneration(2);
    J.setEpoch(3);
    EXPECT_TRUE(J.begin(Done));           // seq 3, gen 2 epoch 3
    EXPECT_TRUE(J.end("done", "ok"));     // seq 4
    EXPECT_TRUE(J.begin(Stuck));          // seq 5, left unmatched
    Io.armEvery(JournalFault::WriteEio, 1);
    EXPECT_FALSE(J.begin(Lost));          // seq 6, never reaches the file
    Io.disarm();
    EXPECT_TRUE(J.tryReattach());         // seq 7
    EXPECT_TRUE(J.shutdownRecord());      // seq 8
  }
  EXPECT_EQ(fileBytes(Path), Pinned);

  // The encoder by itself, from the same inputs.
  std::vector<std::string> Lines;
  {
    std::istringstream In(Pinned);
    std::string Line;
    while (std::getline(In, Line))
      Lines.push_back(Line);
  }
  ASSERT_EQ(Lines.size(), 7u);
  std::string Request = Stuck.toJson().str();
  EXPECT_EQ(encodeJournalRecord(recordHead("begin", "stuck", 5, 2, 3),
                                {{"request", Request}}),
            Lines[4]);
  EXPECT_EQ(encodeJournalRecord(recordHead("end", "plain", 2),
                                {{"status", "\"ok\""}}),
            Lines[1]);
  EXPECT_EQ(encodeJournalRecord(recordHead("reattach", "", 7, 2, 3), {}),
            Lines[5]);

  // And the scan reads back what the old scan read from these bytes.
  JournalScan Scan = scanJournalDetailed(Fixture);
  EXPECT_EQ(Scan.Records, 7u);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_EQ(Scan.SeqRegressions, 0u);
  EXPECT_EQ(Scan.MaxSeq, 8u);
  EXPECT_EQ(Scan.MaxEpoch, 3u);
  EXPECT_TRUE(Scan.CleanShutdown);
  EXPECT_FALSE(Scan.TornTail);
  ASSERT_EQ(Scan.InFlight.size(), 1u);
  const PoisonedRequest &P = Scan.InFlight.front();
  EXPECT_EQ(P.Id, "stuck");
  EXPECT_EQ(P.Gen, 2u);
  EXPECT_EQ(P.Epoch, 3u);
  EXPECT_EQ(P.Request.toJson().str(), Stuck.toJson().str());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// One-pass writers against the tree encoders they replaced
//===----------------------------------------------------------------------===//

/// ServiceResponse::str() as it was: one JsonValue tree, serialized.
std::string treeResponse(const ServiceResponse &R) {
  JsonValue Out = JsonValue::object();
  if (!R.Id.empty())
    Out.set("id", R.Id);
  Out.set("status", responseStatusName(R.Status));
  if (!R.Requested.empty())
    Out.set("requested", R.Requested);
  if (R.Status == ResponseStatus::Ok) {
    Out.set("served_tier", R.ServedTier);
    Out.set("degraded", R.Degraded);
    if (R.FromCache)
      Out.set("cached", true);
    if (R.Audited)
      Out.set("audited", true);
    JsonValue Ls = JsonValue::array();
    for (unsigned L : R.Lines)
      Ls.push(static_cast<int64_t>(L));
    Out.set("lines", std::move(Ls));
  }
  if (!R.Attempts.empty()) {
    JsonValue As = JsonValue::array();
    for (const TierReport &A : R.Attempts) {
      JsonValue V = JsonValue::object();
      V.set("tier", A.Tier);
      V.set("outcome", A.Outcome);
      if (!A.Detail.empty())
        V.set("detail", A.Detail);
      As.push(std::move(V));
    }
    Out.set("attempts", std::move(As));
  }
  if (!R.Error.empty())
    Out.set("error", R.Error);
  if (!R.ReproPath.empty())
    Out.set("repro", R.ReproPath);
  if (R.LatencyMs >= 0)
    Out.set("latency_ms", R.LatencyMs);
  return Out.str();
}

/// A LineList of 1..N (every line of an N-line slice).
LineList firstLines(unsigned N) {
  std::vector<unsigned> Ls(N);
  for (unsigned I = 0; I != N; ++I)
    Ls[I] = I + 1;
  return LineList(std::move(Ls));
}

TEST(ResponseEncodingTest, OnePassWriterMatchesTheTree) {
  const ResponseStatus All[] = {
      ResponseStatus::Ok,        ResponseStatus::ResourceExhausted,
      ResponseStatus::Error,     ResponseStatus::BadRequest,
      ResponseStatus::Cancelled, ResponseStatus::Poisoned,
      ResponseStatus::Crashed,   ResponseStatus::Shed,
  };
  const std::string Ids[] = {"", "r1", "quote\" back\\ nl\n \x01 \xC3\xA9"};
  const double Latencies[] = {-1,     0,       0.0004, 0.0005, 1.2345,
                              99.999, 1e6,     1e30,   -0.0,
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()};
  const unsigned LineCounts[] = {0, 1, 76, 10000};
  size_t Cases = 0;
  for (ResponseStatus St : All)
    for (const std::string &Id : Ids)
      for (unsigned Mask = 0; Mask != 64; ++Mask) {
        ServiceResponse R;
        R.Id = Id;
        R.Status = St;
        R.Requested = Mask & 1 ? "agrawal-fig7" : "";
        R.ServedTier = Mask & 2 ? "conservative-fig13" : "";
        R.Degraded = Mask & 4;
        R.FromCache = Mask & 8;
        R.Audited = Mask & 16;
        if (Mask & 32) {
          R.Error = "line 3: \"x\" undefined\tthere\\";
          R.ReproPath = "/q/r\"1\".mc";
          R.Attempts.push_back({"agrawal-fig7", "resource-exhausted",
                                "deadline \"exceeded\"\n\x1f"});
          R.Attempts.push_back({"lyle", "skipped", ""});
          R.Attempts.push_back({"conservative-fig13", "served", ""});
        } else if (Mask & 8) {
          R.Attempts.push_back({"agrawal-fig7", "served", "analysis-cache"});
        }
        R.Lines = firstLines(LineCounts[Mask % 4]);
        R.LatencyMs = Latencies[(Mask + Cases) % std::size(Latencies)];
        ASSERT_EQ(R.str(), treeResponse(R))
            << responseStatusName(St) << " mask " << Mask;
        ++Cases;
      }
  // Sparse, large line numbers too.
  ServiceResponse R;
  R.Lines = LineList({4000000000u, 7, 7, 1, 65536});
  R.ServedTier = "lyle";
  EXPECT_EQ(R.str(), treeResponse(R));
  EXPECT_NE(R.str().find("\"lines\":[1,7,65536,4000000000]"),
            std::string::npos);
}

/// Journal records as encodeJournalRecord wrote them over a JsonValue
/// body: head members set on the tree, serialized once, checksummed.
std::string treeRecord(const JournalRecord &Head, JsonValue Body) {
  Body.set("event", Head.Event);
  if (!Head.Id.empty())
    Body.set("id", Head.Id);
  if (Head.Gen)
    Body.set("gen", Head.Gen);
  if (Head.Epoch)
    Body.set("epoch", Head.Epoch);
  Body.set("seq", Head.Seq);
  char Crc[9];
  std::snprintf(Crc, sizeof(Crc), "%08x", journalCrc32(Body.str()));
  Body.set("crc", std::string(Crc));
  return Body.str();
}

TEST(JournalEncodingTest, BeginAndEndRecordsMatchTheTreeEncoder) {
  // Program literals as a client may spell them: canonical ones are
  // copied into the begin record, the rest are decoded and escaped
  // again; both must give the tree encoder's bytes.
  const std::pair<const char *, bool> Programs[] = {
      {"read(a);\\nwrite(a);\\n", true},
      {"", true},
      {"read(a);\\n\\tb = a + 1; // \\\"q\\\" \\\\ \\b\\f\\r\\nwrite(b);\\n", true},
      {"x\\u0001\\u001f\\u000b\\n", true},
      {"raw \xC3\xA9 \xF0\x9F\x98\x80 \xFF\x7f\\n", true},
      {"read(a);\\/\\/ slash\\nwrite(a);\\n", false},
      {"\\u0041\\u0042", false},
      {"x\\u001F\\n", false},
      {"x\\u000a", false},
      {"\\uD83D\\uDE00\\n", false},
      {"lone \\uD800 and \\uDC00", false},
      {"\\u00e9", false},
  };
  std::string Path = ::testing::TempDir() + "jslice_journal_onepass.jsonl";
  std::remove(Path.c_str());
  std::vector<std::string> Want;
  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    uint64_t Seq = 0;
    for (int Stamped = 0; Stamped != 2; ++Stamped) {
      if (Stamped) {
        J.setGeneration(4);
        J.setEpoch(9);
      }
      for (const auto &[Literal, Canonical] : Programs) {
        std::string Id = "r" + std::to_string(Seq) + (Stamped ? "\"\\" : "");
        std::string Line = "{\"vars\":[\"a\",\"b\\\"\"],\"id\":" +
                           JsonValue(Id).str() + ",\"program\":\"" + Literal +
                           "\",\"line\":2" +
                           (Stamped ? ",\"algorithm\":\"lyle\",\"budget_ms\":5,"
                                      "\"max_steps\":7,\"min_epoch\":3"
                                    : "") +
                           "}";
        ParsedRequest P = parseRequestLine(Line);
        ASSERT_TRUE(P.Ok) << Line << ": " << P.Error;
        EXPECT_EQ(!P.Request.ProgramLiteral.empty(),
                  Canonical && *Literal != '\0')
            << Literal;
        if (!P.Request.ProgramLiteral.empty()) {
          EXPECT_EQ(P.Request.ProgramLiteral, Literal);
        }
        std::string Direct;
        P.Request.appendJson(Direct);
        EXPECT_EQ(Direct, P.Request.toJson().str()) << Literal;

        JournalRecord Head;
        Head.Event = "begin";
        Head.Id = Id;
        Head.Seq = ++Seq;
        Head.Gen = Stamped ? 4 : 0;
        Head.Epoch = Stamped ? 9 : 0;
        JsonValue Begin = JsonValue::object();
        Begin.set("request", P.Request.toJson());
        Want.push_back(treeRecord(Head, Begin));
        EXPECT_EQ(encodeJournalRecord(Head, {{"request", Direct}}),
                  Want.back());
        ASSERT_TRUE(J.begin(P.Request));

        const char *Status = Seq % 2 ? "ok" : "resource-exhausted";
        Head.Event = "end";
        Head.Seq = ++Seq;
        JsonValue End = JsonValue::object();
        End.set("status", Status);
        Want.push_back(treeRecord(Head, End));
        ASSERT_TRUE(J.end(Id, Status));
      }
    }
    JournalRecord Shutdown;
    Shutdown.Event = "shutdown";
    Shutdown.Seq = ++Seq;
    Shutdown.Gen = 4;
    Shutdown.Epoch = 9;
    JsonValue Clean = JsonValue::object();
    Clean.set("status", "clean");
    Want.push_back(treeRecord(Shutdown, Clean));
    ASSERT_TRUE(J.shutdownRecord());
  }
  std::istringstream In(fileBytes(Path));
  std::string Line;
  size_t I = 0;
  while (std::getline(In, Line)) {
    ASSERT_LT(I, Want.size());
    EXPECT_EQ(Line, Want[I]) << "record " << I;
    EXPECT_TRUE(decodeJournalLine(Line).has_value()) << Line;
    ++I;
  }
  EXPECT_EQ(I, Want.size());
  std::remove(Path.c_str());
}

TEST(JournalTest, FlippingAnyByteFailsVerification) {
  std::string Path = writeSmallJournal("jslice_journal_flip.jsonl");
  std::ifstream In(Path);
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  for (size_t I = 0; I != Line.size(); ++I) {
    std::string Mutated = Line;
    Mutated[I] ^= 0x01;
    EXPECT_FALSE(decodeJournalLine(Mutated))
        << "byte " << I << " flip went undetected: " << Mutated;
  }
  std::remove(Path.c_str());
}

TEST(JournalTest, RecordWithoutCrcIsCorruptAndQuarantined) {
  // A checksummed record with its crc member stripped verifies as
  // nothing but damage: there is no pre-checksum format to fall back
  // to. Mid-file, open() must set the file aside like any corruption.
  std::string Path = writeSmallJournal("jslice_journal_nocrc.jsonl");
  std::string Corrupt = Path + ".corrupt";
  std::remove(Corrupt.c_str());
  std::vector<std::string> Lines;
  {
    std::ifstream In(Path);
    std::string Line;
    while (std::getline(In, Line))
      Lines.push_back(Line);
  }
  ASSERT_EQ(Lines.size(), 3u);
  std::optional<JsonValue> First = JsonValue::parse(Lines[0]);
  ASSERT_TRUE(First);
  First->remove("crc");
  Lines[0] = First->str();
  EXPECT_FALSE(decodeJournalLine(Lines[0]));
  {
    std::ofstream Out(Path, std::ios::trunc);
    for (const std::string &L : Lines)
      Out << L << "\n";
  }

  JournalScan Scan = scanJournalDetailed(Path);
  EXPECT_EQ(Scan.CorruptRecords, 1u);
  EXPECT_EQ(Scan.Records, 2u);
  EXPECT_FALSE(Scan.TornTail);
  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    EXPECT_EQ(J.counters().CorruptRecords, 1u);
  }
  std::ifstream Aside(Corrupt);
  EXPECT_TRUE(Aside.good()) << "crc-less record was not quarantined aside";
  EXPECT_EQ(scanJournalDetailed(Path).CorruptRecords, 0u);
  std::remove(Path.c_str());
  std::remove(Corrupt.c_str());
}

TEST(JournalTest, TornTailAtEveryByteOffsetNeverMisattributes) {
  // kill -9 / power loss can cut the final append at any byte. For
  // every possible cut point the scan must classify the damage as a
  // torn tail (never mid-file corruption), keep every record before
  // the cut, and point GoodBytes at the last intact boundary.
  std::string Path = writeSmallJournal("jslice_journal_torn.jsonl");
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Whole;
  Whole << In.rdbuf();
  std::string Full = Whole.str();
  In.close();

  // Boundary offsets: after each complete record (line + newline).
  std::vector<size_t> Boundaries = {0};
  for (size_t I = 0; I != Full.size(); ++I)
    if (Full[I] == '\n')
      Boundaries.push_back(I + 1);
  ASSERT_EQ(Boundaries.size(), 4u); // Empty + three records.
  size_t LastBoundary = Boundaries[Boundaries.size() - 2];

  std::string Torn = ::testing::TempDir() + "jslice_journal_torn_cut.jsonl";
  for (size_t Cut = 0; Cut <= Full.size(); ++Cut) {
    {
      std::ofstream Out(Torn, std::ios::binary | std::ios::trunc);
      Out.write(Full.data(), static_cast<std::streamsize>(Cut));
    }
    JournalScan Scan = scanJournalDetailed(Torn);
    EXPECT_EQ(Scan.CorruptRecords, 0u)
        << "cut at " << Cut << " misread a torn tail as corruption";
    // The last intact point at or before the cut: a record boundary, or
    // the cut itself when it landed exactly at a record's final content
    // byte (all the bytes verified; only the newline is missing).
    size_t Expect = 0;
    for (size_t B : Boundaries) {
      if (B <= Cut)
        Expect = B;
      if (B == Cut + 1 && Cut > 0)
        Expect = Cut; // Complete record, missing only its '\n'.
    }
    EXPECT_EQ(Scan.GoodBytes, Expect) << "cut at " << Cut;
    bool Intact = Scan.GoodBytes == Cut;
    EXPECT_EQ(Scan.TornTail, !Intact) << "cut at " << Cut;
    EXPECT_FALSE(journalEndsWithCleanShutdown(Torn)) << "cut at " << Cut;
    // In-flight attribution never invents or loses a begin: a record
    // counts exactly when every content byte survived the cut.
    bool StuckIntact = Cut + 1 >= Full.size();
    bool DonePairIntact = Cut + 1 >= LastBoundary;
    size_t WantInFlight = StuckIntact ? 1u : (DonePairIntact ? 0u : 1u);
    if (Cut + 1 < Boundaries[1])
      WantInFlight = 0; // Nothing intact at all.
    EXPECT_EQ(Scan.InFlight.size(), WantInFlight) << "cut at " << Cut;

    // Opening the torn file repairs it — truncating a partial tail,
    // or completing the framing of a newline-less final record — and
    // the survivor appends cleanly from there.
    bool MissingNewline =
        Cut > 0 && std::find(Boundaries.begin(), Boundaries.end(), Cut + 1) !=
                       Boundaries.end();
    size_t WantBytes = MissingNewline ? Cut + 1 : Expect;
    {
      Journal J;
      ASSERT_TRUE(J.open(Torn)) << "cut at " << Cut;
      EXPECT_EQ(J.counters().TornTails, Intact ? 0u : 1u)
          << "cut at " << Cut;
      EXPECT_EQ(J.bytes(), WantBytes) << "cut at " << Cut;
      ServiceRequest R;
      R.Id = "after";
      R.Program = TinyProgram;
      R.Line = 2;
      EXPECT_TRUE(J.begin(R));
    }
    JournalScan Healed = scanJournalDetailed(Torn);
    EXPECT_EQ(Healed.CorruptRecords, 0u) << "cut at " << Cut;
    EXPECT_FALSE(Healed.TornTail) << "cut at " << Cut;
    EXPECT_EQ(Healed.InFlight.size(), WantInFlight + 1) << "cut at " << Cut;
  }
  std::remove(Torn.c_str());
  std::remove(Path.c_str());
}

TEST(JournalTest, MidFileCorruptionQuarantinesAndSalvages) {
  // Damage in the middle of the file — intact records after it — is
  // not a torn tail: something rewrote history. open() must set the
  // damaged file aside as <path>.corrupt and salvage what verifies.
  std::string Path = writeSmallJournal("jslice_journal_midfile.jsonl");
  std::string Corrupt = Path + ".corrupt";
  std::remove(Corrupt.c_str());
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(20);
    F.put('#'); // Smash a byte inside the first record.
  }

  JournalScan Scan = scanJournalDetailed(Path);
  EXPECT_GE(Scan.CorruptRecords, 1u);
  EXPECT_FALSE(Scan.TornTail) << "mid-file damage is not a torn tail";
  ASSERT_EQ(Scan.InFlight.size(), 1u) << "records after the damage count";
  EXPECT_EQ(Scan.InFlight.front().Id, "stuck");

  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    EXPECT_GE(J.counters().CorruptRecords, 1u);
    EXPECT_GE(J.counters().SalvagedRecords, 2u);
    EXPECT_FALSE(J.failed());
  }
  // The damaged original is preserved for forensics...
  std::ifstream Aside(Corrupt);
  EXPECT_TRUE(Aside.good()) << "damaged journal was not quarantined aside";
  // ...and the rebuilt journal is fully verifiable with the salvage
  // intact.
  JournalScan Healed = scanJournalDetailed(Path);
  EXPECT_EQ(Healed.CorruptRecords, 0u);
  ASSERT_EQ(Healed.InFlight.size(), 1u);
  EXPECT_EQ(Healed.InFlight.front().Id, "stuck");
  EXPECT_EQ(Healed.InFlight.front().Request.Program, TinyProgram);
  std::remove(Path.c_str());
  std::remove(Corrupt.c_str());
}

TEST(JournalTest, FailedFsyncReopensOnceAndRetries) {
  // The fsyncgate rule: after a failed fsync the same handle's dirty
  // pages may be gone, so the retry must go through a fresh handle.
  std::string Path = ::testing::TempDir() + "jslice_journal_fsyncgate.jsonl";
  std::remove(Path.c_str());
  FaultyJournalIo Io;
  Journal J;
  J.setIo(&Io);
  ASSERT_TRUE(J.open(Path));
  ServiceRequest R;
  R.Id = "r1";
  R.Program = TinyProgram;
  R.Line = 2;
  Io.arm(JournalFault::FsyncFail, 1);
  EXPECT_TRUE(J.begin(R)) << "one fault must be absorbed by the retry";
  EXPECT_TRUE(Io.injected());
  JournalCounters C = J.counters();
  EXPECT_EQ(C.AppendFailures, 1u);
  EXPECT_EQ(C.Reopens, 1u);
  EXPECT_FALSE(J.failed());

  // The record that survived via the retry is durable and verifiable,
  // and it is there once: the failed attempt's bytes never committed,
  // so the reopen shaved them before the retry appended.
  JournalScan Scan = scanJournalDetailed(Path);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_EQ(Scan.Records, 1u) << "the failed attempt survived the retry";
  ASSERT_EQ(Scan.InFlight.size(), 1u);
  EXPECT_EQ(Scan.InFlight.front().Id, "r1");

  // A disk that stays broken latches the failure instead of lying.
  Io.armEvery(JournalFault::FsyncFail, 1);
  EXPECT_FALSE(J.end("r1", "ok"));
  EXPECT_TRUE(J.failed());
  EXPECT_TRUE(J.counters().Failed);
  EXPECT_FALSE(J.begin(R)) << "a failed journal must not claim durability";

  // Whatever the broken disk kept, the framing never corrupts: false
  // from append means "durability unproven", not "garbage written".
  EXPECT_EQ(scanJournalDetailed(Path).CorruptRecords, 0u);
  std::remove(Path.c_str());
}

TEST(JournalTest, ShortWriteIsRepairedByTheRetry) {
  std::string Path = ::testing::TempDir() + "jslice_journal_short.jsonl";
  std::remove(Path.c_str());
  FaultyJournalIo Io;
  Journal J;
  J.setIo(&Io);
  ASSERT_TRUE(J.open(Path));
  ServiceRequest R;
  R.Id = "r1";
  R.Program = TinyProgram;
  R.Line = 2;
  J.begin(R);
  // The next write lands only half its bytes; the reopen truncates the
  // torn prefix back to the last good boundary before retrying.
  // (arm() counts from the arming point, so ordinal 1 is this append.)
  Io.arm(JournalFault::ShortWrite, 1);
  EXPECT_TRUE(J.end("r1", "ok"));
  EXPECT_TRUE(Io.injected());
  JournalScan Scan = scanJournalDetailed(Path);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_FALSE(Scan.TornTail) << "the torn prefix must not reach the disk";
  EXPECT_TRUE(Scan.InFlight.empty());
  std::remove(Path.c_str());
}

TEST(JournalTest, RotationCrashEitherSideOfRenameLosesNothing) {
  ServiceRequest Stuck;
  Stuck.Id = "stuck";
  Stuck.Program = TinyProgram;
  Stuck.Line = 2;
  for (JournalFault Crash : {JournalFault::CrashBeforeRename,
                             JournalFault::CrashAfterRename}) {
    std::string Path = ::testing::TempDir() + "jslice_journal_rotcrash.jsonl";
    std::remove(Path.c_str());
    std::remove((Path + ".rotate").c_str());
    FaultyJournalIo Io;
    {
      Journal J;
      J.setIo(&Io);
      ASSERT_TRUE(J.open(Path, /*RotateBytes=*/512));
      J.begin(Stuck);
      Io.arm(Crash, 1);
      // Bracketed pairs until the rotation attempt hits the crash.
      for (unsigned I = 0; I != 50 && !Io.injected(); ++I) {
        ServiceRequest R = Stuck;
        R.Id = "r" + std::to_string(I);
        J.begin(R);
        J.end(R.Id, "ok");
      }
      ASSERT_TRUE(Io.injected()) << journalFaultName(Crash);
    }
    // Whichever side of the rename the crash landed on, the next boot
    // must see the stuck begin (plus at most the one pair that was
    // mid-flight when the disk froze) and clean up the temp.
    std::vector<PoisonedRequest> Poisoned = scanJournalDetailed(Path).InFlight;
    ASSERT_GE(Poisoned.size(), 1u) << journalFaultName(Crash);
    ASSERT_LE(Poisoned.size(), 2u) << journalFaultName(Crash);
    bool FoundStuck = false;
    for (const PoisonedRequest &P : Poisoned)
      if (P.Id == "stuck") {
        FoundStuck = true;
        EXPECT_EQ(P.Request.Program, TinyProgram);
      }
    EXPECT_TRUE(FoundStuck) << journalFaultName(Crash);
    {
      Journal J;
      ASSERT_TRUE(J.open(Path));
    }
    std::error_code Ec;
    EXPECT_FALSE(std::filesystem::exists(Path + ".rotate", Ec))
        << journalFaultName(Crash) << ": stale rotation temp survived open()";
    std::remove(Path.c_str());
  }
}

TEST(JournalTest, QuarantineFailureReturnsEmptyPath) {
  // quarantinePoisoned must report failure ("") instead of pretending:
  // the dir path collides with an existing regular file.
  std::string Blocker = ::testing::TempDir() + "jslice_quarantine_blocked";
  std::remove(Blocker.c_str());
  {
    std::ofstream Out(Blocker);
    Out << "not a directory\n";
  }
  PoisonedRequest P;
  P.Id = "victim";
  P.Request.Id = "victim";
  P.Request.Program = TinyProgram;
  P.Request.Line = 2;
  EXPECT_EQ(quarantinePoisoned(Blocker, P), "");
  std::remove(Blocker.c_str());
}

//===----------------------------------------------------------------------===//
// Server end to end (in-memory streams)
//===----------------------------------------------------------------------===//

/// Serves \p Input on a fresh single-threaded server; returns response
/// lines in order.
std::vector<std::string> serveLines(const std::string &Input,
                                    ServerOptions Opts = ServerOptions()) {
  std::istringstream In(Input);
  std::ostringstream Out;
  std::ostringstream Log;
  Opts.Threads = 1;
  Server S(Opts, Out, Log);
  S.recover();
  S.serve(In);
  std::vector<std::string> Lines;
  std::istringstream Text(Out.str());
  std::string Line;
  while (std::getline(Text, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

JsonValue parsed(const std::string &Line) {
  std::optional<JsonValue> V = JsonValue::parse(Line);
  EXPECT_TRUE(V.has_value()) << Line;
  return V ? *V : JsonValue();
}

TEST(ServerTest, ServesASliceRequest) {
  std::vector<std::string> Lines = serveLines(
      "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"]}\n");
  ASSERT_EQ(Lines.size(), 1u);
  JsonValue R = parsed(Lines[0]);
  EXPECT_EQ(R.find("id")->asString(), "r1");
  EXPECT_EQ(R.find("status")->asString(), "ok");
  EXPECT_EQ(R.find("served_tier")->asString(), "agrawal-fig7");
  EXPECT_FALSE(R.find("degraded")->asBool());
  EXPECT_EQ(R.find("lines")->elements().size(), 2u);
}

TEST(ServerTest, StarvedRequestRefusesAfterTheWholeLadder) {
  std::vector<std::string> Lines = serveLines(
      "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"max_steps\":3}\n");
  ASSERT_EQ(Lines.size(), 1u);
  JsonValue R = parsed(Lines[0]);
  EXPECT_EQ(R.find("status")->asString(), "resource-exhausted");
  ASSERT_TRUE(R.find("attempts"));
  EXPECT_EQ(R.find("attempts")->elements().size(), 3u);
}

TEST(ServerTest, AnswersGarbageAndControlLines) {
  std::vector<std::string> Lines =
      serveLines("{oops\n"
                 "{\"cancel\": \"nobody\"}\n"
                 "{\"stats\": true}\n");
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_EQ(parsed(Lines[0]).find("status")->asString(), "bad-request");
  JsonValue Cancel = parsed(Lines[1]);
  EXPECT_EQ(Cancel.find("cancel")->asString(), "nobody");
  EXPECT_FALSE(Cancel.find("signalled")->asBool());
  JsonValue Stats = parsed(Lines[2]);
  ASSERT_TRUE(Stats.find("stats"));
  EXPECT_EQ(Stats.find("stats")->find("received")->asInt(), 3);
  EXPECT_EQ(Stats.find("stats")->find("bad_requests")->asInt(), 1);
}

TEST(ServerTest, StreamLineCapRefusesOnceAndServesTheRest) {
  // serve() cuts its stream with the same framer as the TCP reactor:
  // one shed per oversized line, refused before its newline or after;
  // the final unterminated line is still served, and an unterminated
  // tail past the cap is refused like any other line.
  ServerOptions Opts;
  Opts.MaxLineBytes = 256;
  const std::string Req =
      "{\"id\":\"r%\",\"program\":\"read(a);\\nwrite(a);\\n\","
      "\"line\":2,\"vars\":[\"a\"]}";
  auto Named = [&](char Id) {
    std::string R = Req;
    R[R.find('%')] = Id;
    return R;
  };
  // Refusals answer inline, slices from the pool: count, not order.
  auto Statuses = [&](const std::string &Input) {
    std::multiset<std::string> Out;
    for (const std::string &L : serveLines(Input, Opts)) {
      JsonValue V = parsed(L);
      std::string Status = V.find("status")->asString();
      if (Status == "shed") {
        EXPECT_NE(V.find("error")->asString().find("line exceeds"),
                  std::string::npos);
      }
      Out.insert(Status);
    }
    return Out;
  };
  EXPECT_EQ(Statuses(std::string(100000, 'z') + "\n" + Named('1') + "\n" +
                     std::string(300, 'y') + "\n" + Named('2')),
            (std::multiset<std::string>{"ok", "ok", "shed", "shed"}));
  EXPECT_EQ(Statuses(Named('3') + "\n" + std::string(1000, 'z')),
            (std::multiset<std::string>{"ok", "shed"}));
}

TEST(ServerTest, RecoveryQuarantinesAndRefusesResubmission) {
  std::string Tmp = ::testing::TempDir();
  std::string JournalPath = Tmp + "jslice_server_recovery.jsonl";
  std::string QuarantineDir = Tmp + "jslice_server_recovery_q";
  std::remove(JournalPath.c_str());

  ServiceRequest Stuck;
  Stuck.Id = "stuck";
  Stuck.Program = TinyProgram;
  Stuck.Line = 2;
  Stuck.Vars = {"a"};
  {
    // A server that died mid-request: begin record, no end.
    Journal J;
    ASSERT_TRUE(J.open(JournalPath));
    J.begin(Stuck);
  }

  ServerOptions Opts;
  Opts.JournalPath = JournalPath;
  Opts.QuarantineDir = QuarantineDir;

  // Resubmitting the same content (different id) must bounce as
  // poisoned, pointing at the reproducer; different content passes.
  ServiceRequest Resubmit = Stuck;
  Resubmit.Id = "fresh-id";
  ServiceRequest Other = Stuck;
  Other.Id = "other";
  Other.Line = 1;
  std::vector<std::string> Lines =
      serveLines(Resubmit.toJson().str() + "\n" + Other.toJson().str() + "\n",
                 Opts);
  ASSERT_EQ(Lines.size(), 2u);
  JsonValue First = parsed(Lines[0]);
  EXPECT_EQ(First.find("status")->asString(), "poisoned");
  ASSERT_TRUE(First.find("repro"));
  std::ifstream Repro(First.find("repro")->asString());
  ASSERT_TRUE(Repro.good());
  std::stringstream Buffer;
  Buffer << Repro.rdbuf();
  EXPECT_EQ(Buffer.str(), TinyProgram);
  EXPECT_EQ(parsed(Lines[1]).find("status")->asString(), "ok");

  // The recovery closed the journal pair: a restart sees nothing stuck.
  EXPECT_TRUE(scanJournalDetailed(JournalPath).InFlight.empty());
  std::remove(JournalPath.c_str());
}

TEST(ServerTest, HealthJsonIsAStandaloneLivenessAnswer) {
  std::istringstream In("");
  std::ostringstream Out, Log;
  ServerOptions Opts;
  Opts.Threads = 1;
  Opts.Generation = 7;
  Server S(Opts, Out, Log);

  JsonValue H = S.healthJson();
  ASSERT_TRUE(H.find("status"));
  EXPECT_EQ(H.find("status")->asString(), "ok");
  ASSERT_TRUE(H.find("generation"));
  EXPECT_EQ(H.find("generation")->asInt(), 7);
  ASSERT_TRUE(H.find("draining"));
  EXPECT_FALSE(H.find("draining")->asBool());
  ASSERT_TRUE(H.find("breaker_open"));
  EXPECT_FALSE(H.find("breaker_open")->asBool());
  EXPECT_FALSE(H.find("degraded"));
  EXPECT_FALSE(H.find("transport")); // No transport probe registered.

  // A wedged transport makes the same answer degraded.
  S.setHealthProbe([] {
    JsonValue T = JsonValue::object();
    T.set("wedged", true);
    return T;
  });
  JsonValue Wedged = S.healthJson();
  ASSERT_TRUE(Wedged.find("degraded"));
  EXPECT_TRUE(Wedged.find("degraded")->asBool());
  ASSERT_TRUE(Wedged.find("transport"));
  S.finish();
}

TEST(ServerTest, QuarantineFailureKeepsThePoisonInTheJournal) {
  // Recovery finds an unmatched begin but cannot write the reproducer
  // (the quarantine dir path is an existing regular file). The poison
  // must not vanish: the failure is counted, the begin stays unmatched
  // so the next boot retries, and resubmission is still refused.
  std::string Tmp = ::testing::TempDir();
  std::string JournalPath = Tmp + "jslice_server_qfail.jsonl";
  std::string Blocker = Tmp + "jslice_server_qfail_blocked";
  std::remove(JournalPath.c_str());
  std::remove(Blocker.c_str());
  {
    std::ofstream Out(Blocker);
    Out << "not a directory\n";
  }
  ServiceRequest Stuck;
  Stuck.Id = "stuck";
  Stuck.Program = TinyProgram;
  Stuck.Line = 2;
  Stuck.Vars = {"a"};
  {
    Journal J;
    ASSERT_TRUE(J.open(JournalPath));
    J.begin(Stuck);
  }

  std::istringstream In("");
  std::ostringstream Out, Log;
  ServerOptions Opts;
  Opts.Threads = 1;
  Opts.JournalPath = JournalPath;
  Opts.QuarantineDir = Blocker;
  Server S(Opts, Out, Log);
  // recover() counts successful quarantines; this one failed.
  EXPECT_EQ(S.recover(), 0u);
  S.finish();
  EXPECT_EQ(S.stats().QuarantineFailures, 1u);

  // The begin survived recovery's compaction: a later boot (with a
  // writable quarantine dir) still sees it.
  std::vector<PoisonedRequest> Left = scanJournalDetailed(JournalPath).InFlight;
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left.front().Id, "stuck");
  std::remove(JournalPath.c_str());
  std::remove(Blocker.c_str());
}

TEST(ServerTest, JournalFailureShedPolicyRefusesInsteadOfForgetting) {
  std::string Tmp = ::testing::TempDir();
  std::string JournalPath = Tmp + "jslice_server_jfail_shed.jsonl";
  // A write that never lands and an fsync that fails after the bytes
  // reached the file: either way the request is shed, and a shed
  // request never ran, so the next boot must not find it in flight.
  for (JournalFault Fault : {JournalFault::WriteEio, JournalFault::FsyncFail}) {
    SCOPED_TRACE(journalFaultName(Fault));
    std::remove(JournalPath.c_str());
    FaultyJournalIo Io;
    Io.armEvery(Fault, 1); // Dead on arrival.

    std::istringstream In(
        "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
        "\"vars\":[\"a\"]}\n");
    std::ostringstream Out, Log;
    ServerOptions Opts;
    Opts.Threads = 1;
    Opts.JournalPath = JournalPath;
    Opts.JournalIoHook = &Io;
    Opts.JournalFailurePolicy = JournalFailure::Shed;
    {
      Server S(Opts, Out, Log);
      S.recover();
      S.serve(In);
      S.finish();

      std::optional<JsonValue> R = JsonValue::parse(Out.str());
      ASSERT_TRUE(R.has_value()) << Out.str();
      EXPECT_EQ(R->find("status")->asString(), "shed");
      EXPECT_NE(R->find("error")->asString().find("journal"),
                std::string::npos);
      EXPECT_TRUE(S.journalLost());
      ServerStats Stats = S.stats();
      EXPECT_EQ(Stats.ShedByCause["journal-failed"], 1u);
      EXPECT_TRUE(Stats.JournalLost);
      EXPECT_GE(Stats.JournalAppendFailures, 1u);
    }

    ServerOptions Reboot;
    Reboot.Threads = 1;
    Reboot.JournalPath = JournalPath;
    Reboot.QuarantineDir = Tmp + "jslice_server_jfail_shed_q";
    std::ostringstream RebootOut, RebootLog;
    Server Next(Reboot, RebootOut, RebootLog);
    EXPECT_EQ(Next.recover(), 0u) << "a shed request became false poison";
  }
  std::remove(JournalPath.c_str());
}

TEST(ServerTest, JournalFailureDegradePolicyServesAndTellsHealth) {
  std::string Tmp = ::testing::TempDir();
  std::string JournalPath = Tmp + "jslice_server_jfail_degrade.jsonl";
  std::remove(JournalPath.c_str());
  FaultyJournalIo Io;
  Io.armEvery(JournalFault::WriteEio, 1);

  std::istringstream In(
      "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"]}\n");
  std::ostringstream Out, Log;
  ServerOptions Opts;
  Opts.Threads = 1;
  Opts.JournalPath = JournalPath;
  Opts.JournalIoHook = &Io;
  Opts.JournalFailurePolicy = JournalFailure::Degrade;
  Server S(Opts, Out, Log);
  S.recover();
  S.serve(In);

  std::optional<JsonValue> R = JsonValue::parse(Out.str());
  ASSERT_TRUE(R.has_value()) << Out.str();
  EXPECT_EQ(R->find("status")->asString(), "ok")
      << "degrade mode keeps serving";
  EXPECT_TRUE(S.journalLost());
  JsonValue H = S.healthJson();
  ASSERT_TRUE(H.find("journal"));
  EXPECT_EQ(H.find("journal")->asString(), "lost");
  ASSERT_TRUE(H.find("degraded"));
  EXPECT_TRUE(H.find("degraded")->asBool())
      << "a lost journal must degrade health, never hide";
  S.finish();
  std::remove(JournalPath.c_str());
}

TEST(ServerTest, JournalFailureAbortPolicyTripsTheAbortFlag) {
  std::string Tmp = ::testing::TempDir();
  std::string JournalPath = Tmp + "jslice_server_jfail_abort.jsonl";
  std::remove(JournalPath.c_str());
  FaultyJournalIo Io;
  Io.armEvery(JournalFault::WriteEio, 1);

  // Several requests queued: abort must answer what it started and
  // stop the loop, not serve the whole stream journal-less.
  std::string Req =
      "{\"id\":\"r%\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"]}\n";
  std::string Input;
  for (int I = 0; I != 8; ++I) {
    std::string Line = Req;
    Line.replace(Line.find('%'), 1, std::to_string(I));
    Input += Line;
  }
  std::istringstream In(Input);
  std::ostringstream Out, Log;
  std::atomic<bool> Stop{false};
  ServerOptions Opts;
  Opts.Threads = 1;
  Opts.JournalPath = JournalPath;
  Opts.JournalIoHook = &Io;
  Opts.JournalFailurePolicy = JournalFailure::Abort;
  Opts.ShutdownFlag = &Stop;
  Opts.AbortFlag = &Stop;
  Server S(Opts, Out, Log);
  S.recover();
  S.serve(In);
  S.finish();

  EXPECT_TRUE(S.journalAborted());
  EXPECT_TRUE(Stop.load());
  // The loop stopped early: not every queued request was answered.
  std::istringstream Text(Out.str());
  std::string Line;
  unsigned Answered = 0;
  while (std::getline(Text, Line))
    if (!Line.empty())
      ++Answered;
  EXPECT_GE(Answered, 1u);
  EXPECT_LT(Answered, 8u) << "abort must stop accepting, not serve on";
  std::remove(JournalPath.c_str());
}

#ifdef JSLICE_HAVE_POSIX_PROCESS
TEST(ServerTest, CompleteHandoffQuarantinesOnlyEarlierGenerations) {
  std::string Tmp = ::testing::TempDir();
  std::string JournalPath = Tmp + "jslice_server_handoff.jsonl";
  std::string QuarantineDir = Tmp + "jslice_server_handoff_q";
  std::remove(JournalPath.c_str());

  // The journal mid-upgrade: the predecessor's in-flight begin (gen 1)
  // and this generation's own live begin (gen 2).
  ServiceRequest Old;
  Old.Id = "pred-stuck";
  Old.Program = TinyProgram;
  Old.Line = 2;
  Old.Vars = {"a"};
  ServiceRequest Mine = Old;
  Mine.Id = "own-live";
  Mine.Line = 1;
  {
    Journal J;
    ASSERT_TRUE(J.open(JournalPath));
    J.setGeneration(1);
    J.begin(Old);
    J.setGeneration(2);
    J.begin(Mine);
  }

  std::istringstream In("");
  std::ostringstream Out, Log;
  ServerOptions Opts;
  Opts.Threads = 1;
  Opts.JournalPath = JournalPath;
  Opts.QuarantineDir = QuarantineDir;
  Opts.Generation = 2;
  Opts.PredecessorPid = ::getpid(); // Alive: recovery must defer.
  Server S(Opts, Out, Log);
  EXPECT_EQ(S.recover(), 0u);
  EXPECT_TRUE(S.handoffPending());

  // Predecessor observed dead: exactly the gen-1 begin is quarantined;
  // generation 2's own in-flight set is left alone.
  EXPECT_EQ(S.completeHandoff(), 1u);
  EXPECT_FALSE(S.handoffPending());
  S.finish();

  std::vector<PoisonedRequest> Left = scanJournalDetailed(JournalPath).InFlight;
  ASSERT_EQ(Left.size(), 1u);
  EXPECT_EQ(Left.front().Id, "own-live");
  EXPECT_EQ(Left.front().Gen, 2u);
  std::remove(JournalPath.c_str());
}
#endif // JSLICE_HAVE_POSIX_PROCESS

TEST(ServerTest, DuplicateIdIsAnsweredExactlyTwice) {
  // Two requests reusing one id: the reader rejects the second as
  // bad-request while the first is still in flight, or serves it after
  // the first drained — in either interleaving both lines get answers
  // and at least one is ok. (The never-lose-a-response property is the
  // contract; the soak test exercises the race at volume.)
  ServiceRequest First;
  First.Id = "r1";
  First.Program = TinyProgram;
  First.Line = 2;
  ServiceRequest Dup = First;
  std::vector<std::string> Lines =
      serveLines(First.toJson().str() + "\n" + Dup.toJson().str() + "\n");
  ASSERT_EQ(Lines.size(), 2u);
  unsigned Ok = 0, Bad = 0;
  for (const std::string &L : Lines) {
    std::string Status = parsed(L).find("status")->asString();
    Ok += Status == "ok";
    Bad += Status == "bad-request";
  }
  EXPECT_EQ(Ok + Bad, 2u);
  EXPECT_GE(Ok, 1u);
}

TEST(ServerTest, CancelStopsAQueuedRequest) {
  // One worker; the first request occupies it while the second sits
  // queued; the cancel for the queued one lands before a worker ever
  // starts it. The reader thread processes cancels inline, so with the
  // slow first request this ordering is deterministic in practice; the
  // accepted outcomes are "cancelled" (won the race) or "ok" (request
  // finished first) — never a lost response.
  std::string Slow;
  for (int I = 0; I != 300; ++I)
    Slow += "b" + std::to_string(I) + " = " + std::to_string(I) + ";\n";
  Slow += "write(b0);\n";
  ServiceRequest R1;
  R1.Id = "r1";
  R1.Program = Slow;
  R1.Line = 301;
  ServiceRequest R2;
  R2.Id = "r2";
  R2.Program = TinyProgram;
  R2.Line = 2;
  std::vector<std::string> Lines =
      serveLines(R1.toJson().str() + "\n" + R2.toJson().str() + "\n" +
                 "{\"cancel\": \"r2\"}\n");
  ASSERT_EQ(Lines.size(), 3u);
  unsigned Answered = 0;
  bool SawR2 = false;
  for (const std::string &L : Lines) {
    JsonValue V = parsed(L);
    if (V.find("cancel"))
      continue;
    ++Answered;
    if (V.find("id")->asString() == "r2") {
      SawR2 = true;
      std::string Status = V.find("status")->asString();
      EXPECT_TRUE(Status == "cancelled" || Status == "ok") << Status;
    }
  }
  EXPECT_EQ(Answered, 2u);
  EXPECT_TRUE(SawR2);
}

/// A dependence chain long enough to hold the single worker busy for
/// hundreds of milliseconds while the reader races ahead.
std::string slowChain(unsigned N) {
  std::string P = "read(a0);\n";
  for (unsigned I = 1; I != N; ++I)
    P += "a" + std::to_string(I) + " = a" + std::to_string(I - 1) + " + 1;\n";
  P += "write(a" + std::to_string(N - 1) + ");\n";
  return P;
}

ServiceRequest slowChainRequest(const std::string &Id, unsigned N = 20000) {
  ServiceRequest R;
  R.Id = Id;
  R.Program = slowChain(N);
  R.Line = N + 1;
  R.Vars = {"a" + std::to_string(N - 1)};
  return R;
}

TEST(ServerOverloadTest, FullAdmissionQueueShedsDeterministically) {
  // One worker, queue bound of one: the slow request holds the only
  // slot while the reader admits-or-sheds the second instantly.
  ServiceRequest Slow = slowChainRequest("slow");
  ServiceRequest Tiny;
  Tiny.Id = "tiny";
  Tiny.Program = TinyProgram;
  Tiny.Line = 2;
  ServerOptions Opts;
  Opts.MaxQueueDepth = 1;
  std::vector<std::string> Lines =
      serveLines(Slow.toJson().str() + "\n" + Tiny.toJson().str() + "\n",
                 Opts);
  ASSERT_EQ(Lines.size(), 2u);
  bool SawShed = false;
  for (const std::string &L : Lines) {
    JsonValue V = parsed(L);
    if (V.find("id")->asString() != "tiny")
      continue;
    SawShed = true;
    EXPECT_EQ(V.find("status")->asString(), "shed");
    EXPECT_NE(V.find("error")->asString().find("admission queue full"),
              std::string::npos);
  }
  EXPECT_TRUE(SawShed);
}

TEST(ServerOverloadTest, QueueDeadlineShedsRequestsThatWaitedTooLong) {
  // The second request is admitted but sits queued behind the slow one
  // far past its deadline; the worker sheds it instead of running it.
  ServiceRequest Slow = slowChainRequest("slow");
  ServiceRequest Tiny;
  Tiny.Id = "tiny";
  Tiny.Program = TinyProgram;
  Tiny.Line = 2;
  ServerOptions Opts;
  Opts.QueueDeadlineMs = 100;
  std::vector<std::string> Lines =
      serveLines(Slow.toJson().str() + "\n" + Tiny.toJson().str() + "\n",
                 Opts);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines) {
    JsonValue V = parsed(L);
    if (V.find("id")->asString() != "tiny")
      continue;
    EXPECT_EQ(V.find("status")->asString(), "shed");
    EXPECT_NE(V.find("error")->asString().find("queue deadline"),
              std::string::npos);
  }
}

TEST(ServerOverloadTest, MemoryWatermarkShedsWhileRssIsCritical) {
  // Any running process exceeds a 1 MiB watermark, so this is the
  // always-shedding configuration: deterministic refusals, no slicing.
  ServerOptions Opts;
  Opts.MaxRssMb = 1;
  std::vector<std::string> Lines = serveLines(
      "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2}\n",
      Opts);
  ASSERT_EQ(Lines.size(), 1u);
  JsonValue V = parsed(Lines[0]);
  EXPECT_EQ(V.find("status")->asString(), "shed");
  EXPECT_NE(V.find("error")->asString().find("memory watermark"),
            std::string::npos);
}

TEST(ServerOverloadTest, DrainFlagStopsTheLoopAndShedsDirectLines) {
  std::atomic<bool> Shutdown{false};
  ServerOptions Opts;
  Opts.Threads = 1;
  Opts.ShutdownFlag = &Shutdown;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);

  // Flag raised before the next line is consumed: serve() drains
  // without touching the pending request...
  Shutdown.store(true);
  std::istringstream In(
      "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2}\n");
  S.serve(In);
  EXPECT_TRUE(S.drained());
  EXPECT_EQ(Out.str(), "");

  // ...and anything pushed at a draining server is shed, not queued.
  S.serveLine(
      "{\"id\":\"r2\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2}");
  JsonValue V = parsed(Out.str());
  EXPECT_EQ(V.find("id")->asString(), "r2");
  EXPECT_EQ(V.find("status")->asString(), "shed");
  EXPECT_NE(V.find("error")->asString().find("draining"), std::string::npos);
  S.finish();
}

#ifdef JSLICE_HAVE_POSIX_PROCESS

TEST(ServerProcessModeTest, ServesThroughSandboxWorkers) {
  ServerOptions Opts;
  Opts.IsolateProcess = true;
  Opts.Super.Workers = 1;
  std::istringstream In(
      "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"]}\n");
  std::ostringstream Out, Log;
  {
    Server S(Opts, Out, Log);
    S.serve(In);
    ASSERT_NE(S.supervisor(), nullptr);
    EXPECT_GE(S.supervisor()->stats().Spawns, 1u);
    S.finish();
  }
  std::istringstream Text(Out.str());
  std::string Line;
  ASSERT_TRUE(std::getline(Text, Line));
  JsonValue V = parsed(Line);
  EXPECT_EQ(V.find("id")->asString(), "r1");
  EXPECT_EQ(V.find("status")->asString(), "ok");
  EXPECT_EQ(V.find("served_tier")->asString(), "agrawal-fig7");
  ASSERT_TRUE(V.find("latency_ms"));
}

TEST(ServerProcessModeTest, DeadWorkersCachesLeaveTheGaugesNotTheCounters) {
  // Every sandbox-worker life piggybacks its own cache's counters. Kill
  // more workers than the fleet holds, with traffic in between: the
  // per-pid snapshots stay bounded by the fleet, the entries gauge
  // counts only live caches, and the hit counter never drops.
  ServerOptions Opts;
  Opts.IsolateProcess = true;
  Opts.Super.Workers = 2;
  Opts.Super.BackoffBaseMs = 1;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  ASSERT_NE(S.supervisor(), nullptr);
  uint64_t Rng = 11, LastHits = 0;
  for (unsigned Kills = 0;; ++Kills) {
    std::string Lines;
    for (unsigned I = 0; I != 6; ++I)
      Lines += "{\"id\":\"r" + std::to_string(Kills * 6 + I) +
               "\",\"program\":\"read(a);\\nb = a + " +
               std::to_string(I % 2) + ";\\nwrite(b);\\n\",\"line\":3}\n";
    std::istringstream In(Lines);
    S.serve(In);
    ServerStats St = S.stats();
    EXPECT_LE(St.WorkerCaches.size(), Opts.Super.Workers);
    uint64_t LiveEntries = 0;
    for (const auto &[Pid, Snap] : St.WorkerCaches) {
      EXPECT_TRUE(St.Super.isLive(Pid)) << "pid " << Pid;
      LiveEntries += Snap.Entries;
    }
    EXPECT_EQ(St.Cache.Entries, LiveEntries) << "after " << Kills << " kills";
    EXPECT_GE(St.Cache.Hits, LastHits);
    LastHits = St.Cache.Hits;
    if (Kills == 5)
      break;
    // Kill an idle worker; wait until it is reaped and respawned.
    uint64_t Before = S.supervisor()->restarts();
    ASSERT_GT(S.supervisor()->chaosKillWorker(Rng), 0);
    for (unsigned Ms = 0; S.supervisor()->restarts() == Before; Ms += 10) {
      ASSERT_LT(Ms, 5000u) << "killed worker never respawned";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_GT(LastHits, 0u);
  S.finish();
}

#endif // JSLICE_HAVE_POSIX_PROCESS

TEST(ServerStatsTest, HistogramAndLatenciesAccumulate) {
  std::istringstream In(
      "{\"id\":\"a\",\"program\":\"read(x);\\nwrite(x);\\n\",\"line\":2}\n"
      "{\"id\":\"b\",\"program\":\"read(x);\\nwrite(x);\\n\",\"line\":2,"
      "\"algorithm\":\"lyle\"}\n");
  std::ostringstream Out, Log;
  ServerOptions Opts;
  Opts.Threads = 1;
  Server S(Opts, Out, Log);
  S.serve(In);
  ServerStats Stats = S.stats();
  EXPECT_EQ(Stats.Received, 2u);
  EXPECT_EQ(Stats.Served, 2u);
  EXPECT_EQ(Stats.Refused, 0u);
  EXPECT_EQ(Stats.TierHistogram["agrawal-fig7"], 1u);
  EXPECT_EQ(Stats.TierHistogram["lyle"], 1u);
  EXPECT_GE(Stats.P95Ms, Stats.P50Ms);
}

//===----------------------------------------------------------------------===//
// Inline cache hits: what the reading thread answers, and what it never runs
//===----------------------------------------------------------------------===//

/// A sink that records each response line with the thread that
/// delivered it, and lets the test wait for them.
class Collector {
public:
  ResponseSink sink() {
    return [this](const std::string &Line) {
      std::lock_guard<std::mutex> L(M);
      Got.emplace_back(Line, std::this_thread::get_id());
      CV.notify_all();
    };
  }

  /// True once \p N responses arrived (waits up to 10 s).
  bool waitFor(size_t N) {
    std::unique_lock<std::mutex> L(M);
    return CV.wait_for(L, std::chrono::seconds(10),
                       [&] { return Got.size() >= N; });
  }

  size_t size() {
    std::lock_guard<std::mutex> L(M);
    return Got.size();
  }

  JsonValue line(size_t I) {
    std::lock_guard<std::mutex> L(M);
    return parsed(Got.at(I).first);
  }

  std::thread::id thread(size_t I) {
    std::lock_guard<std::mutex> L(M);
    return Got.at(I).second;
  }

private:
  std::mutex M;
  std::condition_variable CV;
  std::vector<std::pair<std::string, std::thread::id>> Got;
};

const char *HitProgram = "read(a);\nb = a + 1;\nwrite(b);\n";

std::string hitLine(const std::string &Id,
                    SliceAlgorithm Algo = SliceAlgorithm::Agrawal,
                    const std::string &Program = HitProgram) {
  ServiceRequest R;
  R.Id = Id;
  R.Program = Program;
  R.Line = 3;
  R.Vars = {"b"};
  R.Algorithm = Algo;
  return R.toJson().str();
}

/// Serves \p Line through \p S and waits for its answer in \p C.
void serveAndWait(Server &S, Collector &C, const std::string &Line) {
  size_t Before = C.size();
  S.serveLine(Line, C.sink());
  ASSERT_TRUE(C.waitFor(Before + 1)) << Line;
}

TEST(InlineHitTest, FirstHitBuildsClosuresOnThePoolSecondIsServedInline) {
  ServerOptions Opts;
  Opts.Threads = 2;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  Collector C;
  const std::thread::id Me = std::this_thread::get_id();

  serveAndWait(S, C, hitLine("miss"));
  serveAndWait(S, C, hitLine("first-hit"));
  serveAndWait(S, C, hitLine("second-hit"));
  EXPECT_NE(C.thread(0), Me) << "a miss parses and builds on the pool";
  EXPECT_NE(C.thread(1), Me) << "the first hit builds closures on the pool";
  EXPECT_EQ(C.thread(2), Me) << "a ready hit is answered where it was read";

  // Ball–Horwitz reads the augmented closures, which no hit built yet:
  // its first hit goes to the pool too, and its second stays here.
  serveAndWait(S, C, hitLine("bh-first", SliceAlgorithm::BallHorwitz));
  serveAndWait(S, C, hitLine("bh-second", SliceAlgorithm::BallHorwitz));
  EXPECT_NE(C.thread(3), Me);
  EXPECT_EQ(C.thread(4), Me);

  for (size_t I = 0; I != 5; ++I) {
    JsonValue V = C.line(I);
    EXPECT_EQ(V.find("status")->asString(), "ok") << V.str();
    EXPECT_EQ(V.find("lines")->str(), "[1,2,3]") << V.str();
    EXPECT_EQ(V.find("cached") != nullptr, I != 0) << V.str();
  }
  ServerStats St = S.stats();
  EXPECT_EQ(St.Cache.Misses, 1u);
  EXPECT_EQ(St.Cache.Hits, 4u);
  EXPECT_EQ(St.ServedInline, 2u);
  EXPECT_EQ(St.Served, 5u);
  S.finish();
}

TEST(InlineHitTest, WarmHitsAreAnsweredBeforeServeLineReturns) {
  ServerOptions Opts;
  Opts.Threads = 2;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  Collector C;
  serveAndWait(S, C, hitLine("miss"));
  serveAndWait(S, C, hitLine("warm"));

  ServerStats Before = S.stats();
  for (unsigned I = 0; I != 10; ++I) {
    size_t N = C.size();
    S.serveLine(hitLine("hit" + std::to_string(I)), C.sink());
    ASSERT_EQ(C.size(), N + 1) << "the sink ran before serveLine returned";
    EXPECT_EQ(C.thread(N), std::this_thread::get_id());
  }
  ServerStats After = S.stats();
  EXPECT_EQ(After.Cache.Hits - Before.Cache.Hits, 10u);
  EXPECT_EQ(After.ServedInline - Before.ServedInline,
            After.Cache.Hits - Before.Cache.Hits)
      << "on a warm cache every hit is served inline";
  EXPECT_EQ(After.Cache.Misses, Before.Cache.Misses);
  EXPECT_EQ(After.toJson().find("served_inline")->asInt(),
            static_cast<int64_t>(After.ServedInline));
  S.finish();
}

TEST(InlineHitTest, BuildingSlotSendsTheRequestToThePoolAsAWaiter) {
  ServerOptions Opts;
  Opts.Threads = 2;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  AnalysisCache *Cache = S.cache();
  ASSERT_NE(Cache, nullptr);

  // The test leads the program's build, so its slot stays Building
  // until the test lets go; the memo already knows the key, so the
  // probe sees the Building slot itself.
  ResourceGuard G;
  std::optional<std::string> Key = canonicalProgramKey(HitProgram, G);
  ASSERT_TRUE(Key.has_value());
  Cache->rememberCanonicalKey(rawProgramKey(HitProgram), *Key);
  auto Far = std::chrono::steady_clock::now() + std::chrono::hours(1);
  ASSERT_EQ(Cache->lookup(*Key, Far).K, AnalysisCache::Outcome::MustBuild);

  Collector C;
  auto T0 = std::chrono::steady_clock::now();
  S.serveLine(hitLine("waiter"), C.sink());
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_LT(Ms, 50) << "the reading thread never waits on a build";
  EXPECT_EQ(C.size(), 0u);

  // The pool thread now waits on the test's build.
  for (unsigned Spin = 0; Cache->stats().Coalesced == 0; ++Spin) {
    ASSERT_LT(Spin, 5000u) << "the request never became a coalesced waiter";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Cache->buildFailed(*Key); // Promotes the waiter, which builds itself.
  ASSERT_TRUE(C.waitFor(1));
  EXPECT_NE(C.thread(0), std::this_thread::get_id());
  EXPECT_EQ(C.line(0).find("status")->asString(), "ok");
  CacheStats CS = Cache->stats();
  EXPECT_EQ(CS.Coalesced, 1u);
  EXPECT_EQ(CS.Promotions, 1u);
  EXPECT_EQ(S.stats().ServedInline, 0u);
  S.finish();
}

TEST(InlineHitTest, AuditEveryOneAuditsEachHitExactlyOnce) {
  ServerOptions Opts;
  Opts.Threads = 2;
  Opts.Cache.AuditEvery = 1;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  Collector C;
  for (unsigned I = 0; I != 7; ++I)
    serveAndWait(S, C, hitLine("r" + std::to_string(I)));
  for (size_t I = 1; I != 7; ++I) {
    EXPECT_NE(C.thread(I), std::this_thread::get_id())
        << "an audit re-runs the pipeline, so it runs on the pool";
    JsonValue V = C.line(I);
    EXPECT_EQ(V.find("status")->asString(), "ok") << V.str();
    ASSERT_NE(V.find("audited"), nullptr) << V.str();
  }
  ServerStats St = S.stats();
  EXPECT_EQ(St.Cache.Hits, 6u);
  EXPECT_EQ(St.Cache.Audits, St.Cache.Hits);
  EXPECT_EQ(St.Cache.AuditMismatches, 0u);
  EXPECT_EQ(St.ServedInline, 0u);
  S.finish();
}

TEST(InlineHitTest, TripAtCacheLookupCountsNothingInlineOrOnThePool) {
  // A guard that trips at cache.lookup serves through the plain ladder
  // and counts no hit and no audit, whether the checkpoint is charged
  // by the admission probe (a warm hit) or on the pool (a first hit,
  // whose closures the probe found unbuilt).
  for (uint64_t AuditEvery : {0u, 1u}) {
    ServerOptions Opts;
    Opts.Threads = 2;
    Opts.Cache.AuditEvery = AuditEvery;
    std::ostringstream Out, Log;
    Server S(Opts, Out, Log);
    Collector C;
    serveAndWait(S, C, hitLine("miss"));
    serveAndWait(S, C, hitLine("warm"));

    for (SliceAlgorithm Algo :
         {SliceAlgorithm::Agrawal, SliceAlgorithm::BallHorwitz}) {
      ServerStats Before = S.stats();
      {
        FaultInjection::ScopedArm Arm(1);
        serveAndWait(S, C, hitLine(algorithmName(Algo), Algo));
      }
      EXPECT_STREQ(FaultInjection::trippedSite(), "cache.lookup")
          << algorithmName(Algo);
      JsonValue V = C.line(C.size() - 1);
      EXPECT_EQ(V.find("status")->asString(), "ok") << V.str();
      EXPECT_EQ(V.find("lines")->str(), "[1,2,3]") << V.str();
      EXPECT_EQ(V.find("cached"), nullptr) << V.str();
      EXPECT_NE(C.thread(C.size() - 1), std::this_thread::get_id());
      ServerStats After = S.stats();
      EXPECT_EQ(After.Cache.Hits, Before.Cache.Hits) << V.str();
      EXPECT_EQ(After.Cache.Misses, Before.Cache.Misses) << V.str();
      EXPECT_EQ(After.Cache.Audits, Before.Cache.Audits) << V.str();
      EXPECT_EQ(After.ServedInline, Before.ServedInline) << V.str();
    }
    S.finish();
  }
}

TEST(InlineHitTest, SyncReplicationAckNeverServesInline) {
  std::string Dir = ::testing::TempDir() + "jslice_inline_sync";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  ServerOptions Opts;
  Opts.Threads = 2;
  Opts.JournalPath = Dir + "/wal.jsonl";
  Opts.QuarantineDir = Dir + "/quarantine";
  Opts.JournalSyncPolicy = JournalSync::Batch; // Inline-eligible otherwise.
  Opts.ReplAck = ReplAckPolicy::Sync;
  Opts.ReplAckTimeoutMs = 200;
  std::ostringstream Out, Log;
  {
    Server S(Opts, Out, Log);
    S.recover();
    Collector C;
    for (unsigned I = 0; I != 5; ++I)
      serveAndWait(S, C, hitLine("r" + std::to_string(I)));
    for (size_t I = 0; I != 5; ++I) {
      EXPECT_NE(C.thread(I), std::this_thread::get_id())
          << "a sync-acked request waits for its ack on the pool";
      EXPECT_EQ(C.line(I).find("status")->asString(), "ok");
    }
    ServerStats St = S.stats();
    EXPECT_EQ(St.Cache.Hits, 4u);
    EXPECT_EQ(St.ServedInline, 0u);
    S.finish();
  }
  std::filesystem::remove_all(Dir);
}

TEST(InlineHitTest, JournaledWarmHitsAreServedInlineUnderEverySyncPolicy) {
  // The journal end record is written where the hit is served, as the
  // begin record is, whatever the sync policy.
  for (JournalSync Sync : {JournalSync::Full, JournalSync::Batch}) {
    std::string Dir = ::testing::TempDir() + "jslice_inline_fsync";
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    ServerOptions Opts;
    Opts.Threads = 2;
    Opts.JournalPath = Dir + "/wal.jsonl";
    Opts.QuarantineDir = Dir + "/quarantine";
    Opts.JournalSyncPolicy = Sync;
    std::ostringstream Out, Log;
    {
      Server S(Opts, Out, Log);
      S.recover();
      Collector C;
      for (unsigned I = 0; I != 4; ++I)
        serveAndWait(S, C, hitLine("r" + std::to_string(I)));
      EXPECT_EQ(C.thread(3), std::this_thread::get_id())
          << journalSyncName(Sync);
      EXPECT_EQ(S.stats().ServedInline, 2u) << journalSyncName(Sync);
      S.finish();
    }
    std::filesystem::remove_all(Dir);
  }
}

TEST(InlineHitTest, StatsCountAResponseAsSoonAsItArrives) {
  // The outcome is recorded before the sink runs, so a {"stats"} read
  // the moment an answer lands already counts it — on the pool path
  // (misses) and the inline one (warm hits) alike.
  ServerOptions Opts;
  Opts.Threads = 2;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  Collector C, Stats;
  for (unsigned I = 0; I != 24; ++I) {
    // Every third request is a new program (a miss); the rest repeat.
    std::string Program = "read(a);\nb = a + " + std::to_string(I / 3) +
                          ";\nwrite(b);\n";
    serveAndWait(S, C, hitLine("r" + std::to_string(I),
                               SliceAlgorithm::Agrawal, Program));
    S.serveLine("{\"stats\": true}", Stats.sink());
    ASSERT_EQ(Stats.size(), I + 1);
    JsonValue St = *Stats.line(I).find("stats");
    EXPECT_EQ(St.find("served")->asInt(), static_cast<int64_t>(I + 1));
  }
  EXPECT_GT(S.stats().ServedInline, 0u);
  S.finish();
}

#ifdef JSLICE_HAVE_POSIX_PROCESS
TEST(InlineHitTest, ProcessModeNeverServesInline) {
  ServerOptions Opts;
  Opts.IsolateProcess = true;
  Opts.Super.Workers = 1;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  ASSERT_NE(S.supervisor(), nullptr);
  EXPECT_EQ(S.cache(), nullptr);
  Collector C;
  for (unsigned I = 0; I != 5; ++I)
    serveAndWait(S, C, hitLine("r" + std::to_string(I)));
  ServerStats St = S.stats();
  EXPECT_GT(St.Cache.Hits, 0u);
  EXPECT_EQ(St.ServedInline, 0u);
  EXPECT_EQ(St.toJson().find("served_inline")->asInt(), 0);
  S.finish();
}
#endif // JSLICE_HAVE_POSIX_PROCESS

//===----------------------------------------------------------------------===//
// Journal vintages: unstamped and stamped records coexist
//===----------------------------------------------------------------------===//

TEST(JournalTest, MixedVintageScanCountsEveryGeneration) {
  // One file, two eras interleaved: plain CRC records, and records
  // stamped with an upgrade generation and a replication epoch. The
  // scan must count both eras, attribute in-flight begins across them,
  // and report the fencing high-water mark — a warm standby's replica
  // journal looks exactly like this after surviving an upgrade and a
  // failover.
  std::string Path = ::testing::TempDir() + "jslice_journal_vintages.jsonl";
  std::remove(Path.c_str());
  ServiceRequest R;
  R.Program = TinyProgram;
  R.Line = 2;
  {
    // Era 1: a checksummed writer, unstamped.
    Journal J;
    ASSERT_TRUE(J.open(Path));
    R.Id = "crc-stuck";
    ASSERT_TRUE(J.begin(R));
  }
  {
    // Era 2: a post-upgrade, post-promotion writer stamping both a
    // generation and a fencing epoch.
    Journal J;
    ASSERT_TRUE(J.open(Path));
    J.setGeneration(2);
    J.setEpoch(3);
    R.Id = "stamped-done";
    ASSERT_TRUE(J.begin(R));
    ASSERT_TRUE(J.end("stamped-done", "ok"));
    R.Id = "stamped-stuck";
    ASSERT_TRUE(J.begin(R));
  }

  JournalScan Scan = scanJournalDetailed(Path);
  EXPECT_TRUE(Scan.Exists);
  EXPECT_EQ(Scan.Records, 4u);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_FALSE(Scan.TornTail);
  EXPECT_EQ(Scan.MaxEpoch, 3u);
  EXPECT_GE(Scan.MaxSeq, 4u);
  ASSERT_EQ(Scan.InFlight.size(), 2u);
  std::vector<std::string> Ids;
  for (const PoisonedRequest &P : Scan.InFlight)
    Ids.push_back(P.Id);
  EXPECT_NE(std::find(Ids.begin(), Ids.end(), "crc-stuck"), Ids.end());
  EXPECT_NE(std::find(Ids.begin(), Ids.end(), "stamped-stuck"), Ids.end());

  // A third writer appends past both eras without repairs.
  {
    Journal J;
    ASSERT_TRUE(J.open(Path));
    EXPECT_EQ(J.counters().CorruptRecords, 0u);
    EXPECT_EQ(J.maxEpochSeen(), 3u);
    R.Id = "after";
    EXPECT_TRUE(J.begin(R));
  }
  EXPECT_EQ(scanJournalDetailed(Path).InFlight.size(), 3u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Replication: hub shipping, ack policies, standby fencing
//===----------------------------------------------------------------------===//

/// Unwraps a {"repl":"rec","line":...} frame; "" when it is not one.
std::string frameLine(const std::string &Frame) {
  std::optional<JsonValue> V = JsonValue::parse(Frame);
  if (!V || !V->isObject())
    return "";
  const JsonValue *Kind = V->find("repl");
  if (!Kind || Kind->asString() != "rec")
    return "";
  const JsonValue *Line = V->find("line");
  return Line ? Line->asString() : "";
}

TEST(ReplicationHubTest, FlushPolicyShipsEveryAppendInOrder) {
  std::string Path = ::testing::TempDir() + "jslice_repl_primary.jsonl";
  std::string RPath = ::testing::TempDir() + "jslice_repl_replica.jsonl";
  std::remove(Path.c_str());
  std::remove(RPath.c_str());
  Journal J;
  ASSERT_TRUE(J.open(Path));
  J.setEpoch(2);
  ReplicationHub Hub(J, ReplAckPolicy::Flush);

  std::vector<std::string> Frames;
  Hub.subscribe(0, [&](const std::string &F) { Frames.push_back(F); });

  // The hello leads and names the primary's epoch; an empty journal is
  // a resume (nothing was compacted away), not a snapshot.
  ASSERT_GE(Frames.size(), 1u);
  JsonValue Hello = parsed(Frames[0]);
  EXPECT_EQ(Hello.find("repl")->asString(), "hello");
  EXPECT_EQ(Hello.find("epoch")->asInt(), 2);
  EXPECT_FALSE(Hello.find("snapshot")->asBool());
  ReplicationCounters C = Hub.counters();
  EXPECT_EQ(C.Subscribes, 1u);
  EXPECT_EQ(C.Resumes, 1u);
  EXPECT_EQ(C.Snapshots, 0u);

  // Flush policy: the frame is in the subscriber's hands before the
  // append returns — no thread to wait for.
  ServiceRequest R;
  R.Id = "r1";
  R.Program = TinyProgram;
  R.Line = 2;
  uint64_t Seq = 0;
  ASSERT_TRUE(J.begin(R, &Seq));
  ASSERT_TRUE(J.end("r1", "ok"));
  ASSERT_EQ(Frames.size(), 3u);

  // The shipped bytes are the exact journaled records: a replica
  // journal built from them verifies end to end and folds the pair
  // out of the in-flight index.
  Journal Replica;
  ASSERT_TRUE(Replica.open(RPath));
  for (size_t I = 1; I != Frames.size(); ++I) {
    std::string Line = frameLine(Frames[I]);
    ASSERT_FALSE(Line.empty()) << Frames[I];
    std::optional<JournalRecord> Rec = decodeJournalLine(Line);
    ASSERT_TRUE(Rec) << Line;
    EXPECT_TRUE(Replica.appendReplica(Line, std::move(*Rec)));
  }
  EXPECT_EQ(Replica.lastSeq(), J.lastSeq());
  EXPECT_EQ(Replica.maxEpochSeen(), 2u);
  JournalScan Scan = scanJournalDetailed(RPath);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_TRUE(Scan.InFlight.empty());
  EXPECT_EQ(Scan.MaxEpoch, 2u);

  // The ack path: the standby's durable high-water mark wakes sync
  // waiters instantly.
  Hub.ack(Replica.lastSeq());
  EXPECT_EQ(Hub.ackedSeq(), Replica.lastSeq());
  EXPECT_TRUE(Hub.waitAcked(Seq, 1000));
  EXPECT_EQ(Hub.counters().SyncTimeouts, 0u);
  std::remove(Path.c_str());
  std::remove(RPath.c_str());
}

TEST(ReplicationHubTest, WaitAckedFailsFastWithNoSubscriber) {
  // A primary without a standby must not hang admissions for the
  // timeout: the loss window is open and counted, not hidden behind a
  // stall.
  std::string Path = ::testing::TempDir() + "jslice_repl_lonely.jsonl";
  std::remove(Path.c_str());
  Journal J;
  ASSERT_TRUE(J.open(Path));
  ReplicationHub Hub(J, ReplAckPolicy::Sync);
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(Hub.waitAcked(1, 5000));
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_LT(ElapsedMs, 1000) << "no-subscriber wait must not consume "
                                "the timeout";
  ReplicationCounters C = Hub.counters();
  EXPECT_EQ(C.SyncWaits, 1u);
  EXPECT_EQ(C.SyncNoStandby, 1u) << "the loss window must be counted";
  EXPECT_EQ(C.SyncTimeouts, 0u) << "no standby is not a timeout";
  std::remove(Path.c_str());
}

TEST(ReplicationHubTest, CompactionGapForcesASnapshotCatchUp) {
  // A subscriber resuming from before the last compaction point would
  // miss `end` records the rewrite dropped; the hub must resend the
  // whole file and say so in the hello.
  std::string Path = ::testing::TempDir() + "jslice_repl_snapshot.jsonl";
  std::remove(Path.c_str());
  Journal J;
  // A tiny rotation threshold so bracketed pairs trigger compaction.
  ASSERT_TRUE(J.open(Path, /*RotateBytes=*/512));
  ServiceRequest R;
  R.Program = TinyProgram;
  R.Line = 2;
  for (unsigned I = 0; J.lastCompactSeq() == 0 && I != 64; ++I) {
    R.Id = "p" + std::to_string(I);
    ASSERT_TRUE(J.begin(R));
    ASSERT_TRUE(J.end(R.Id, "ok"));
  }
  ASSERT_GT(J.lastCompactSeq(), 0u) << "rotation never compacted";

  ReplicationHub Hub(J, ReplAckPolicy::Flush);
  std::vector<std::string> Frames;
  Hub.subscribe(1, [&](const std::string &F) { Frames.push_back(F); });
  ASSERT_GE(Frames.size(), 1u);
  EXPECT_TRUE(parsed(Frames[0]).find("snapshot")->asBool());
  ReplicationCounters C = Hub.counters();
  EXPECT_EQ(C.Snapshots, 1u);
  EXPECT_EQ(C.Resumes, 0u);
  std::remove(Path.c_str());
}

/// A standby's view of one subscription: record frames deduped by a
/// sequence high-water mark, exactly as StandbyTail applies them.
struct HubSubscriber {
  std::mutex M;
  uint64_t FromSeq = 0;
  uint64_t Applied = 0;
  uint64_t HelloLast = 0;
  bool Hello = false;
  bool Snapshot = false;
  std::set<uint64_t> Seqs;

  void frame(const std::string &F) {
    JsonValue V = parsed(F);
    std::lock_guard<std::mutex> G(M);
    if (V.find("repl")->asString() == "hello") {
      Hello = true;
      Snapshot = V.find("snapshot")->asBool();
      HelloLast = static_cast<uint64_t>(V.find("last_seq")->asInt());
      Applied = Snapshot ? 0 : FromSeq;
      return;
    }
    std::optional<JournalRecord> Rec = decodeJournalLine(frameLine(F));
    ASSERT_TRUE(Rec) << F;
    if (Rec->Seq <= Applied)
      return;
    Seqs.insert(Rec->Seq);
    Applied = Rec->Seq;
  }
  uint64_t applied() {
    std::lock_guard<std::mutex> G(M);
    return Applied;
  }
};

TEST(ReplicationHubTest, SubscribersJoiningMidAppendMissNoRecord) {
  // The catch-up reads the file and registers the subscriber in one
  // journal critical section, so a standby joining while appends race
  // — at seq 0, mid-journal, or from before a compaction — must see
  // every record with no gap, though the hub keeps no copy of any.
  for (ReplAckPolicy Policy : {ReplAckPolicy::Flush, ReplAckPolicy::Async}) {
    SCOPED_TRACE(replAckPolicyName(Policy));
    std::string Path = ::testing::TempDir() + "jslice_repl_join.jsonl";
    std::remove(Path.c_str());
    Journal J;
    // Small enough that the pairs below compact the file many times.
    ASSERT_TRUE(J.open(Path, /*RotateBytes=*/8 << 10));
    HubSubscriber Subs[3]; // Outlive the hub: its shipper calls their sinks.
    ReplicationHub Hub(J, Policy);

    std::atomic<bool> Stop{false};
    std::vector<std::thread> Appenders;
    for (unsigned T = 0; T != 3; ++T)
      Appenders.emplace_back([&J, &Stop, T] {
        ServiceRequest R;
        R.Program = TinyProgram;
        R.Line = 2;
        for (unsigned I = 0; !Stop.load(); ++I) {
          R.Id = "a" + std::to_string(T) + "-" + std::to_string(I);
          ASSERT_TRUE(J.begin(R));
          ASSERT_TRUE(J.end(R.Id, "ok"));
        }
      });
    auto waitUntil = [](const std::function<bool()> &Pred) {
      for (int Spin = 0; Spin != 10000 && !Pred(); ++Spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return Pred();
    };

    auto join = [&](HubSubscriber &S, uint64_t FromSeq) {
      S.FromSeq = FromSeq;
      Hub.subscribe(FromSeq, [&S](const std::string &F) { S.frame(F); });
    };
    join(Subs[0], 0);
    ASSERT_TRUE(waitUntil([&] { return J.lastCompactSeq() > 0; }));
    join(Subs[1], J.lastSeq());
    uint64_t Compacted = J.lastCompactSeq();
    ASSERT_TRUE(waitUntil([&] { return J.lastCompactSeq() > Compacted; }));
    join(Subs[2], 1);
    uint64_t Joined = J.lastSeq();
    ASSERT_TRUE(waitUntil([&] { return J.lastSeq() > Joined + 200; }));
    Stop = true;
    for (std::thread &T : Appenders)
      T.join();

    uint64_t Last = J.lastSeq();
    std::set<uint64_t> InFile;
    {
      std::ifstream In(Path);
      std::string Line;
      while (std::getline(In, Line))
        if (std::optional<JournalRecord> Rec = decodeJournalLine(Line))
          InFile.insert(Rec->Seq);
    }
    for (HubSubscriber &S : Subs) {
      SCOPED_TRACE("from_seq " + std::to_string(S.FromSeq));
      ASSERT_TRUE(waitUntil([&] { return S.applied() >= Last; }))
          << "stream stalled at " << S.applied() << " of " << Last;
      std::lock_guard<std::mutex> G(S.M);
      ASSERT_TRUE(S.Hello);
      // Live records: every seq past the catch-up read, no gap.
      uint64_t LiveFrom = S.Snapshot ? S.HelloLast : S.FromSeq;
      for (uint64_t Seq = LiveFrom + 1; Seq <= Last; ++Seq)
        ASSERT_TRUE(S.Seqs.count(Seq)) << "gap at seq " << Seq;
      // A snapshot resends the file: every record still in it arrived.
      if (S.Snapshot) {
        for (uint64_t Seq : InFile)
          ASSERT_TRUE(S.Seqs.count(Seq)) << "snapshot missed seq " << Seq;
      }
    }
    EXPECT_TRUE(Subs[2].Snapshot) << "resuming from before a compaction "
                                     "must be a snapshot";
    ReplicationCounters C = Hub.counters();
    EXPECT_EQ(C.Subscribes, 3u);
    EXPECT_EQ(C.Snapshots + C.Resumes, 3u);
    std::remove(Path.c_str());
  }
}

/// Thread-safe sink log: slice responses arrive from pool threads,
/// control responses synchronously — waitFor() serializes both.
class SinkLog {
public:
  void push(const std::string &L) {
    std::lock_guard<std::mutex> G(M);
    Lines.push_back(L);
  }
  /// The \p N-th line (1-based), waiting up to ~5s for it; "" on
  /// timeout.
  std::string waitFor(size_t N) {
    for (int Spin = 0; Spin != 5000; ++Spin) {
      {
        std::lock_guard<std::mutex> G(M);
        if (Lines.size() >= N)
          return Lines[N - 1];
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return "";
  }

private:
  std::mutex M;
  std::vector<std::string> Lines;
};

TEST(ServerTest, StandbyShedsUntilPromotedThenFencesStaleClients) {
  // One server walked through the failover life cycle in-memory:
  // standby (sheds), promoted (serves), then fencing a request whose
  // min_epoch outranks it (split-brain refusal).
  ServerOptions Opts;
  Opts.Threads = 1;
  Opts.Standby = true;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  EXPECT_TRUE(S.standby());

  std::string Slice =
      "{\"id\":\"r1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"]}";
  SinkLog Got;
  auto Sink = [&](const std::string &L) { Got.push(L); };

  S.serveLine(Slice, Sink);
  std::string Shed = Got.waitFor(1);
  EXPECT_EQ(parsed(Shed).find("status")->asString(), "shed");
  EXPECT_NE(Shed.find("standby"), std::string::npos);

  S.serveLine("{\"promote\": true}", Sink);
  JsonValue P = parsed(Got.waitFor(2));
  EXPECT_EQ(P.find("status")->asString(), "ok");
  EXPECT_TRUE(P.find("promoted")->asBool());
  EXPECT_GE(P.find("epoch")->asInt(), 1);
  EXPECT_FALSE(S.standby());
  uint64_t Epoch = S.epoch();

  S.serveLine(Slice, Sink);
  EXPECT_EQ(parsed(Got.waitFor(3)).find("status")->asString(), "ok");

  // A promote on a live primary is an idempotent no-op at the same
  // epoch — it must NOT fence anyone.
  S.serveLine("{\"promote\": true}", Sink);
  EXPECT_FALSE(parsed(Got.waitFor(4)).find("promoted")->asBool());
  EXPECT_EQ(S.epoch(), Epoch);

  // A client that failed over to a higher-epoch successor carries that
  // epoch back here as min_epoch; this stale server must refuse.
  std::string Fenced =
      "{\"id\":\"r2\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"],\"min_epoch\":" +
      std::to_string(Epoch + 1) + "}";
  S.serveLine(Fenced, Sink);
  std::string Refused = Got.waitFor(5);
  EXPECT_EQ(parsed(Refused).find("status")->asString(), "shed");
  EXPECT_NE(Refused.find("fenced"), std::string::npos);

  // An equal-or-lower min_epoch passes.
  std::string Current =
      "{\"id\":\"r3\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"],\"min_epoch\":" +
      std::to_string(Epoch) + "}";
  S.serveLine(Current, Sink);
  EXPECT_EQ(parsed(Got.waitFor(6)).find("status")->asString(), "ok");
  S.finish();
}

TEST(ServerTest, DegradedJournalReattachesWhenTheDiskHeals) {
  // --journal-failure=degrade with a reattach interval: the server
  // serves through a dead disk with {"health"} saying journal:lost,
  // then quietly resumes journaling once a probe lands.
  std::string Path = ::testing::TempDir() + "jslice_journal_heal.jsonl";
  std::remove(Path.c_str());
  FaultyJournalIo Io;
  ServerOptions Opts;
  Opts.Threads = 1;
  Opts.JournalPath = Path;
  Opts.JournalFailurePolicy = JournalFailure::Degrade;
  Opts.JournalReattachIntervalMs = 1;
  Opts.JournalIoHook = &Io;
  std::ostringstream Out, Log;
  Server S(Opts, Out, Log);
  S.recover();

  SinkLog Got;
  auto Sink = [&](const std::string &L) { Got.push(L); };
  std::string Slice =
      "{\"id\":\"h1\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"]}";

  // Kill the disk persistently; degrade serves on and latches "lost".
  Io.armEvery(JournalFault::FsyncFail, 1);
  S.serveLine(Slice, Sink);
  EXPECT_EQ(parsed(Got.waitFor(1)).find("status")->asString(), "ok");
  S.serveLine("{\"health\": true}", Sink);
  EXPECT_EQ(parsed(Got.waitFor(2)).find("journal")->asString(), "lost");

  // Heal the disk; the next admission past the probe interval runs
  // tryReattach and journaling resumes.
  Io.disarm();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::string Slice2 =
      "{\"id\":\"h2\",\"program\":\"read(a);\\nwrite(a);\\n\",\"line\":2,"
      "\"vars\":[\"a\"]}";
  S.serveLine(Slice2, Sink);
  EXPECT_EQ(parsed(Got.waitFor(3)).find("status")->asString(), "ok");
  S.serveLine("{\"health\": true}", Sink);
  EXPECT_EQ(parsed(Got.waitFor(4)).find("journal")->asString(), "ok");

  // The healed journal carries the reattach probe and h2's records,
  // all verifiable.
  S.finish();
  JournalScan Scan = scanJournalDetailed(Path);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_GE(Scan.Records, 2u);

  // h1 was answered ok while its begin never committed: that begin
  // must not survive the reattach as an unmatched record, or the next
  // boot quarantines a request that ran fine and refuses it as poison.
  ServerOptions Reboot;
  Reboot.Threads = 1;
  Reboot.JournalPath = Path;
  Reboot.QuarantineDir = ::testing::TempDir() + "jslice_journal_heal_q";
  std::ostringstream RebootOut, RebootLog;
  Server Next(Reboot, RebootOut, RebootLog);
  EXPECT_EQ(Next.recover(), 0u) << "an answered request became false poison";
  SinkLog Again;
  Next.serveLine(Slice, [&](const std::string &L) { Again.push(L); });
  EXPECT_EQ(parsed(Again.waitFor(1)).find("status")->asString(), "ok");
  Next.finish();
  std::remove(Path.c_str());
}

} // namespace
