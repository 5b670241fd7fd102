//===- service/Request.cpp - Slicing-service wire protocol -----------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Request.h"

#include <cstdio>
#include <functional>
#include <optional>
#include <string_view>

using namespace jslice;

namespace {

std::optional<SliceAlgorithm> algorithmByName(const std::string &Name) {
  static const SliceAlgorithm All[] = {
      SliceAlgorithm::Conventional,    SliceAlgorithm::Agrawal,
      SliceAlgorithm::AgrawalLst,      SliceAlgorithm::Structured,
      SliceAlgorithm::Conservative,    SliceAlgorithm::BallHorwitz,
      SliceAlgorithm::Lyle,            SliceAlgorithm::Gallagher,
      SliceAlgorithm::JiangZhouRobson, SliceAlgorithm::Weiser,
  };
  for (SliceAlgorithm A : All)
    if (Name == algorithmName(A))
      return A;
  return std::nullopt;
}

/// Positive integer field; false on wrong type or negative value.
bool readCount(const JsonValue &V, uint64_t &Out) {
  if (!V.isNumber() || V.asInt() < 0)
    return false;
  Out = static_cast<uint64_t>(V.asInt());
  return true;
}

} // namespace

std::string ServiceRequest::contentKey() const {
  // The program is hashed where it lies; only the criterion and the
  // algorithm, a few bytes, are copied. The keys live only in memory
  // (recovery rebuilds them at boot), so std::hash's per-build values
  // are fine.
  std::string Criterion = std::to_string(Line);
  for (const std::string &V : Vars) {
    Criterion += '\x1f';
    Criterion += V;
  }
  Criterion += '\x1f';
  Criterion += algorithmName(Algorithm);
  char Buf[2 * (2 * sizeof(size_t)) + 2];
  std::snprintf(Buf, sizeof(Buf), "%zx-%zx",
                std::hash<std::string_view>{}(Program),
                std::hash<std::string>{}(Criterion));
  return Buf;
}

JsonValue ServiceRequest::toJson() const {
  JsonValue Out = JsonValue::object();
  switch (Kind) {
  case RequestKind::Slice: {
    Out.set("id", Id);
    Out.set("program", Program);
    Out.set("line", static_cast<int64_t>(Line));
    if (!Vars.empty()) {
      JsonValue Vs = JsonValue::array();
      for (const std::string &V : Vars)
        Vs.push(V);
      Out.set("vars", std::move(Vs));
    }
    Out.set("algorithm", algorithmName(Algorithm));
    if (BudgetMs)
      Out.set("budget_ms", BudgetMs);
    if (MaxSteps)
      Out.set("max_steps", MaxSteps);
    if (MinEpoch)
      Out.set("min_epoch", MinEpoch);
    break;
  }
  case RequestKind::Cancel:
    Out.set("cancel", CancelTarget);
    break;
  case RequestKind::Stats:
    Out.set("stats", true);
    break;
  case RequestKind::Health:
    Out.set("health", true);
    break;
  case RequestKind::Upgrade:
    Out.set("upgrade", true);
    break;
  case RequestKind::Promote:
    Out.set("promote", true);
    break;
  case RequestKind::ReplSubscribe:
    Out.set("repl_subscribe", ReplFromSeq);
    break;
  case RequestKind::ReplAck:
    Out.set("repl_ack", AckSeq);
    break;
  }
  return Out;
}

void ServiceRequest::appendJson(std::string &Out) const {
  // Members in the sorted key order JsonValue objects serialize in.
  auto Count = [&Out](const char *Key, uint64_t N) {
    Out += Key;
    appendJsonInt(Out, static_cast<int64_t>(N));
  };
  Out += "{\"algorithm\":";
  appendJsonString(Out, algorithmName(Algorithm));
  if (BudgetMs)
    Count(",\"budget_ms\":", BudgetMs);
  Out += ",\"id\":";
  appendJsonString(Out, Id);
  Count(",\"line\":", Line);
  if (MaxSteps)
    Count(",\"max_steps\":", MaxSteps);
  if (MinEpoch)
    Count(",\"min_epoch\":", MinEpoch);
  Out += ",\"program\":";
  if (ProgramLiteral.empty()) {
    appendJsonString(Out, Program);
  } else {
    Out += '"';
    Out += ProgramLiteral;
    Out += '"';
  }
  if (!Vars.empty()) {
    Out += ",\"vars\":[";
    for (size_t I = 0; I != Vars.size(); ++I) {
      if (I)
        Out += ',';
      appendJsonString(Out, Vars[I]);
    }
    Out += ']';
  }
  Out += '}';
}

bool jslice::requestFromJson(JsonValue &&V, ServiceRequest &Out) {
  if (!V.isObject())
    return false;
  JsonValue *Id = V.find("id");
  JsonValue *Program = V.find("program");
  const JsonValue *Line = V.find("line");
  if (!Id || !Id->isString() || !Program || !Program->isString() || !Line ||
      !Line->isNumber() || Line->asInt() <= 0)
    return false;
  Out.Kind = RequestKind::Slice;
  Out.Id = Id->takeString();
  Out.Program = Program->takeString();
  Out.Line = static_cast<unsigned>(Line->asInt());
  Out.Vars.clear();
  if (const JsonValue *Vars = V.find("vars")) {
    if (!Vars->isArray())
      return false;
    for (const JsonValue &Var : Vars->elements()) {
      if (!Var.isString() || Var.asString().empty())
        return false;
      Out.Vars.push_back(Var.asString());
    }
  }
  Out.Algorithm = SliceAlgorithm::Agrawal;
  if (const JsonValue *Algo = V.find("algorithm")) {
    if (!Algo->isString())
      return false;
    std::optional<SliceAlgorithm> Parsed = algorithmByName(Algo->asString());
    if (!Parsed)
      return false;
    Out.Algorithm = *Parsed;
  }
  Out.BudgetMs = 0;
  Out.MaxSteps = 0;
  Out.MinEpoch = 0;
  if (const JsonValue *B = V.find("budget_ms"))
    if (!readCount(*B, Out.BudgetMs))
      return false;
  if (const JsonValue *S = V.find("max_steps"))
    if (!readCount(*S, Out.MaxSteps))
      return false;
  if (const JsonValue *E = V.find("min_epoch"))
    if (!readCount(*E, Out.MinEpoch))
      return false;
  return true;
}

ParsedRequest jslice::parseRequestLine(const std::string &Line) {
  ParsedRequest Out;
  std::string JsonError;
  std::optional<JsonValue> V = JsonValue::parse(Line, &JsonError);
  if (!V) {
    Out.Error = "invalid JSON: " + JsonError;
    return Out;
  }
  if (!V->isObject()) {
    Out.Error = "request must be a JSON object";
    return Out;
  }
  if (const JsonValue *Id = V->find("id"))
    if (Id->isString())
      Out.Id = Id->asString();

  if (const JsonValue *Cancel = V->find("cancel")) {
    if (!Cancel->isString() || Cancel->asString().empty()) {
      Out.Error = "\"cancel\" must name a request id";
      return Out;
    }
    Out.Ok = true;
    Out.Request.Kind = RequestKind::Cancel;
    Out.Request.CancelTarget = Cancel->asString();
    return Out;
  }
  if (V->find("stats")) {
    Out.Ok = true;
    Out.Request.Kind = RequestKind::Stats;
    return Out;
  }
  if (V->find("health")) {
    Out.Ok = true;
    Out.Request.Kind = RequestKind::Health;
    return Out;
  }
  if (V->find("upgrade")) {
    Out.Ok = true;
    Out.Request.Kind = RequestKind::Upgrade;
    return Out;
  }
  if (V->find("promote")) {
    Out.Ok = true;
    Out.Request.Kind = RequestKind::Promote;
    return Out;
  }
  if (const JsonValue *Sub = V->find("repl_subscribe")) {
    if (!readCount(*Sub, Out.Request.ReplFromSeq)) {
      Out.Error = "\"repl_subscribe\" must be a non-negative sequence";
      return Out;
    }
    Out.Ok = true;
    Out.Request.Kind = RequestKind::ReplSubscribe;
    return Out;
  }
  if (const JsonValue *Ack = V->find("repl_ack")) {
    if (!readCount(*Ack, Out.Request.AckSeq)) {
      Out.Error = "\"repl_ack\" must be a non-negative sequence";
      return Out;
    }
    Out.Ok = true;
    Out.Request.Kind = RequestKind::ReplAck;
    return Out;
  }

  if (!V->find("id") || !V->find("id")->isString() ||
      V->find("id")->asString().empty()) {
    Out.Error = "slice request requires a string \"id\"";
    return Out;
  }
  if (!V->find("program") || !V->find("program")->isString()) {
    Out.Error = "slice request requires a string \"program\"";
    return Out;
  }
  if (!V->find("line") || !V->find("line")->isNumber() ||
      V->find("line")->asInt() <= 0) {
    Out.Error = "slice request requires a positive \"line\"";
    return Out;
  }
  std::optional<std::string_view> Literal =
      V->find("program")->canonicalLiteral(Line);
  if (!requestFromJson(std::move(*V), Out.Request)) {
    Out.Error = "malformed field (vars must be non-empty strings, "
                "algorithm a known name, budgets non-negative numbers)";
    return Out;
  }
  if (Literal)
    Out.Request.ProgramLiteral = *Literal;
  Out.Ok = true;
  return Out;
}

const char *jslice::responseStatusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::ResourceExhausted:
    return "resource-exhausted";
  case ResponseStatus::Error:
    return "error";
  case ResponseStatus::BadRequest:
    return "bad-request";
  case ResponseStatus::Cancelled:
    return "cancelled";
  case ResponseStatus::Poisoned:
    return "poisoned";
  case ResponseStatus::Crashed:
    return "crashed";
  case ResponseStatus::Shed:
    return "shed";
  }
  return "error";
}

std::optional<ResponseStatus>
jslice::responseStatusByName(const std::string &Name) {
  static const ResponseStatus All[] = {
      ResponseStatus::Ok,        ResponseStatus::ResourceExhausted,
      ResponseStatus::Error,     ResponseStatus::BadRequest,
      ResponseStatus::Cancelled, ResponseStatus::Poisoned,
      ResponseStatus::Crashed,   ResponseStatus::Shed,
  };
  for (ResponseStatus S : All)
    if (Name == responseStatusName(S))
      return S;
  return std::nullopt;
}

std::string ServiceResponse::str() const {
  // One pass, members in the sorted key order JsonValue objects
  // serialize in; the reserve covers everything but escapes.
  bool Ok = Status == ResponseStatus::Ok;
  size_t Size = 160 + Id.size() + Requested.size() + ServedTier.size() +
                Error.size() + ReproPath.size() + 11 * Lines.size();
  for (const TierReport &A : Attempts)
    Size += 48 + A.Tier.size() + A.Outcome.size() + A.Detail.size();
  std::string Out;
  Out.reserve(Size);
  char Sep = '{';
  auto Key = [&](const char *Name) {
    Out += Sep;
    Sep = ',';
    Out += '"';
    Out += Name;
    Out += "\":";
  };
  if (!Attempts.empty()) {
    Key("attempts");
    char ASep = '[';
    for (const TierReport &A : Attempts) {
      Out += ASep;
      ASep = ',';
      Out += '{';
      if (!A.Detail.empty()) {
        Out += "\"detail\":";
        appendJsonString(Out, A.Detail);
        Out += ',';
      }
      Out += "\"outcome\":";
      appendJsonString(Out, A.Outcome);
      Out += ",\"tier\":";
      appendJsonString(Out, A.Tier);
      Out += '}';
    }
    Out += ']';
  }
  if (Ok && Audited) {
    Key("audited");
    Out += "true";
  }
  if (Ok && FromCache) {
    Key("cached");
    Out += "true";
  }
  if (Ok) {
    Key("degraded");
    Out += Degraded ? "true" : "false";
  }
  if (!Error.empty()) {
    Key("error");
    appendJsonString(Out, Error);
  }
  if (!Id.empty()) {
    Key("id");
    appendJsonString(Out, Id);
  }
  if (LatencyMs >= 0) {
    Key("latency_ms");
    appendJsonDouble(Out, LatencyMs);
  }
  if (Ok) {
    Key("lines");
    char LSep = '[';
    for (unsigned L : Lines) {
      Out += LSep;
      LSep = ',';
      appendJsonInt(Out, L);
    }
    if (Lines.empty())
      Out += '[';
    Out += ']';
  }
  if (!ReproPath.empty()) {
    Key("repro");
    appendJsonString(Out, ReproPath);
  }
  if (!Requested.empty()) {
    Key("requested");
    appendJsonString(Out, Requested);
  }
  if (Ok) {
    Key("served_tier");
    appendJsonString(Out, ServedTier);
  }
  Key("status");
  appendJsonString(Out, responseStatusName(Status));
  Out += '}';
  return Out;
}
