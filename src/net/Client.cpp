//===- net/Client.cpp - Retrying JSON-Lines client -------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"

#include "net/Socket.h"
#include "service/Json.h"
#include "support/Pipe.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#ifdef JSLICE_HAVE_POSIX_PROCESS
#include <poll.h>
#endif

using namespace jslice;

using Clock = std::chrono::steady_clock;

bool jslice::isRetriableInFlight(const std::string &Response) {
  // Match the parsed envelope fields, not substrings of the raw line:
  // a response that merely *echoes* the magic strings (a program body
  // or diagnostic containing them) must not be misread as "our earlier
  // submission is still in flight" and resubmitted.
  std::optional<JsonValue> V = JsonValue::parse(Response);
  if (!V || !V->isObject())
    return false;
  const JsonValue *Status = V->find("status");
  const JsonValue *Error = V->find("error");
  return Status && Status->isString() &&
         Status->asString() == "bad-request" && Error &&
         Error->isString() &&
         Error->asString() == "request id already in flight";
}

ClientConnection::ClientConnection(const ClientOptions &O) : Opts(O) {
  JitterState = Opts.JitterSeed
                    ? Opts.JitterSeed
                    : reinterpret_cast<uintptr_t>(this) | 1;
}

ClientConnection::~ClientConnection() { disconnect(); }

void ClientConnection::disconnect() {
  closeQuietly(Fd);
  In = LineFramer();
}

std::string ClientConnection::currentEndpoint() const {
  if (Opts.Endpoints.empty())
    return Opts.Host + ":" + std::to_string(Opts.Port);
  return Opts.Endpoints[EndpointIdx % Opts.Endpoints.size()];
}

void ClientConnection::rotateEndpoint() {
  if (Opts.Endpoints.size() < 2)
    return;
  EndpointIdx = (EndpointIdx + 1) % Opts.Endpoints.size();
  ++Failovers;
}

bool ClientConnection::ensureConnected(std::string &Err) {
  if (Fd >= 0)
    return true;
  std::string Host = Opts.Host;
  uint16_t Port = Opts.Port;
  if (!Opts.Endpoints.empty() &&
      !parseHostPort(currentEndpoint(), Host, Port)) {
    Err = "bad endpoint: " + currentEndpoint();
    return false;
  }
  Fd = connectTcp(Host, Port, Opts.ConnectTimeoutMs, Err);
  if (Fd < 0)
    return false;
  In = LineFramer();
  // The first connection of the lifetime is not a *re*connect.
  if (EverConnected)
    ++Reconnects;
  EverConnected = true;
  return true;
}

void ClientConnection::backoff(unsigned Attempt, uint64_t MaxSleepMs) {
  uint64_t Shift = Attempt > 10 ? 10 : Attempt;
  uint64_t Delay = Opts.BackoffBaseMs << (Shift ? Shift - 1 : 0);
  if (Opts.BackoffCapMs && Delay > Opts.BackoffCapMs)
    Delay = Opts.BackoffCapMs;
  // xorshift64: cheap deterministic jitter, up to +50% of the delay so
  // a fleet of clients retrying after one server blip desynchronizes.
  JitterState ^= JitterState << 13;
  JitterState ^= JitterState >> 7;
  JitterState ^= JitterState << 17;
  if (Delay)
    Delay += JitterState % (Delay / 2 + 1);
  if (Delay > MaxSleepMs)
    Delay = MaxSleepMs; // Never sleep past the retry budget.
  if (Delay)
    std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
}

#ifdef JSLICE_HAVE_POSIX_PROCESS

bool ClientConnection::attempt(const std::string &Line,
                               std::string &Response, std::string &Err) {
  if (!ensureConnected(Err))
    return false;

  std::string Framed = Line;
  Framed.push_back('\n');
  size_t Sent = 0;
  while (Sent < Framed.size()) {
    // connectTcp hands back a blocking socket; a send error here is a
    // dead peer, not EAGAIN.
    int64_t W = sendSome(Fd, Framed.data() + Sent, Framed.size() - Sent);
    if (W <= 0) {
      Err = "send failed: connection lost";
      disconnect();
      return false;
    }
    Sent += static_cast<size_t>(W);
  }

  Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(Opts.ResponseTimeoutMs);
  for (;;) {
    if (std::optional<LineFramer::Frame> F = In.next()) {
      Response.assign(F->Line);
      return true;
    }
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
        Deadline - Clock::now());
    if (Left.count() <= 0) {
      Err = "response deadline exceeded";
      disconnect();
      return false;
    }
    struct pollfd P;
    P.fd = Fd;
    P.events = POLLIN;
    P.revents = 0;
    int N = ::poll(&P, 1, static_cast<int>(Left.count()));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::string("poll: ") + std::strerror(errno);
      disconnect();
      return false;
    }
    if (N == 0)
      continue; // Deadline check at the top of the loop.
    char Chunk[65536];
    int64_t R = recvSome(Fd, Chunk, sizeof(Chunk));
    if (R == NetWouldBlock)
      continue;
    if (R == 0) {
      // EOF with a partial line buffered = torn response; either way
      // the response is absent and the attempt failed.
      Err = In.midLine() ? "torn response (connection closed mid-line)"
                         : "connection closed before response";
      disconnect();
      return false;
    }
    if (R < 0) {
      Err = "connection reset";
      disconnect();
      return false;
    }
    In.feed(Chunk, static_cast<size_t>(R));
  }
}

#else // !JSLICE_HAVE_POSIX_PROCESS

bool ClientConnection::attempt(const std::string &, std::string &,
                               std::string &Err) {
  Err = "TCP transport unavailable on this platform";
  return false;
}

#endif

ClientResult ClientConnection::requestOnce(const std::string &Line) {
  ClientResult R;
  R.Attempts = 1;
  std::string Err;
  if (attempt(Line, R.Response, Err))
    R.Ok = true;
  else
    R.TransportError = Err;
  return R;
}

ClientResult ClientConnection::request(const std::string &Line) {
  ClientResult R;
  BudgetExhausted = false;
  unsigned Max = Opts.MaxAttempts ? Opts.MaxAttempts : 1;
  Clock::time_point Start = Clock::now();
  // Milliseconds of retry budget left; UINT64_MAX = unbounded.
  auto BudgetLeft = [&]() -> uint64_t {
    if (!Opts.RetryBudgetMs)
      return UINT64_MAX;
    uint64_t Spent = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              Start)
            .count());
    return Spent >= Opts.RetryBudgetMs ? 0 : Opts.RetryBudgetMs - Spent;
  };
  for (unsigned A = 1; A <= Max; ++A) {
    R.Attempts = A;
    std::string Err, Response;
    if (attempt(Line, Response, Err)) {
      if (isRetriableInFlight(Response) && A < Max) {
        uint64_t Left = BudgetLeft();
        if (!Left) {
          BudgetExhausted = true;
          R.Ok = true; // The in-flight verdict is a real response.
          R.Response = Response;
          return R;
        }
        // Our earlier submission is still being served; give it time
        // and resubmit to collect its verdict.
        backoff(A, Left);
        continue;
      }
      R.Ok = true;
      R.Response = Response;
      return R;
    }
    R.TransportError = Err;
    // A transport failure may be one dead endpoint, not a dead
    // service: rotate to the next endpoint before retrying.
    rotateEndpoint();
    uint64_t Left = BudgetLeft();
    if (!Left) {
      BudgetExhausted = true;
      R.TransportError += " (retry budget exhausted)";
      return R;
    }
    if (A < Max)
      backoff(A, Left);
  }
  return R;
}
