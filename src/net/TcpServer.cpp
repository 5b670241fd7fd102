//===- net/TcpServer.cpp - Sharded socket transport with containment -------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "net/TcpServer.h"

#include "net/Socket.h"
#include "net/WriteBuffer.h"
#include "support/LineFramer.h"
#include "support/Pipe.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <ostream>
#include <sstream>
#include <thread>

#ifdef JSLICE_HAVE_POSIX_PROCESS
#include <poll.h>
#include <unistd.h>
#endif

using namespace jslice;

using Clock = std::chrono::steady_clock;

namespace {

/// Steady-clock milliseconds, for the lock-free heartbeat atomics.
uint64_t steadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// The wake pipe of the shard whose loop runs on this thread; null off
/// the reactor threads. Compared, never dereferenced.
thread_local const Pipe *ReactorWake = nullptr;

} // namespace

JsonValue TransportStats::toJson() const {
  JsonValue V = JsonValue::object();
  V.set("accepted", Accepted);
  V.set("refused_at_cap", RefusedAtCap);
  V.set("active", Active);
  V.set("clean_closed", CleanClosed);
  V.set("idle_closed", IdleClosed);
  V.set("deadline_closed", DeadlineClosed);
  V.set("backpressure_closed", BackpressureClosed);
  V.set("peer_resets", PeerResets);
  V.set("oversized_lines", OversizedLines);
  V.set("lines_dispatched", LinesDispatched);
  V.set("responses_delivered", ResponsesDelivered);
  V.set("in_buf_high_water_bytes", InBufHighWaterBytes);
  V.set("drain_discarded_bytes", DrainDiscardedBytes);
  V.set("heartbeat_age_ms", HeartbeatAgeMs);
  return V;
}

/// Sink-visible connection state. Pool threads reach it through
/// shared_ptr captures, so it outlives both the socket and (if
/// responses land after the drain grace) the TcpServer itself.
struct TcpServer::ConnShared {
  explicit ConnShared(size_t WriteCap) : Out(WriteCap) {}

  std::mutex M;
  WriteBuffer Out;
  uint64_t Pending = 0;    ///< Dispatched lines awaiting their response.
  bool Overflowed = false; ///< append() refused: reader has stalled.
  bool Closed = false;     ///< Owning shard closed the fd; late responses drop.
};

struct TcpServer::Conn {
  int Fd = -1;
  uint64_t Id = 0;
  LineFramer In; ///< Cut under the server's line cap.
  bool ReadClosed = false;
  bool Doomed = false;
  Clock::time_point LastActivity;
  Clock::time_point LineStart; ///< First byte of the current partial line.
  std::shared_ptr<ConnShared> Shared;
  ResponseSink Sink;
};

/// One reactor thread's world. Everything here — fds, buffers, timers,
/// counters — is touched only by the owning thread, except the inbox
/// (fed by shard 0 under its mutex), the wake pipe (written by anyone),
/// and the counters (atomics so stats() reads race-free).
struct TcpServer::Shard {
  unsigned Index = 0;
  int ListenFd = -1; ///< Own listener (REUSEPORT) or shard 0's (handoff).
  std::shared_ptr<Pipe> Wake;
  std::vector<std::unique_ptr<Conn>> Conns;

  /// Handoff inbox: shard 0 pushes accepted fds here (slot already
  /// acquired), then writes a wake byte; the owner adopts on wakeup.
  std::mutex InboxM;
  std::vector<int> Inbox;
  uint64_t HandoffNext = 0; ///< Round-robin cursor; shard 0 only.

  std::atomic<uint64_t> Accepted{0}, RefusedAtCap{0}, Active{0},
      CleanClosed{0}, IdleClosed{0}, DeadlineClosed{0},
      BackpressureClosed{0}, PeerResets{0}, OversizedLines{0},
      LinesDispatched{0}, InBufHighWaterBytes{0}, DrainDiscardedBytes{0};
  /// Liveness heartbeat: steady ms of the loop's last turn. Stored
  /// every shardLoop iteration (the 200ms poll tick guarantees an idle
  /// shard still beats); 0 until the loop first runs.
  std::atomic<uint64_t> LastBeatMs{0};
  /// Shared with this shard's sinks (which may outlive this object).
  std::shared_ptr<std::atomic<uint64_t>> Delivered =
      std::make_shared<std::atomic<uint64_t>>(0);
};

TcpServer::TcpServer(Server &S, const TcpServerOptions &Opts,
                     std::ostream &Log)
    : Srv(S), Opts(Opts), Log(Log) {}

TcpServer::~TcpServer() {
#ifdef JSLICE_HAVE_POSIX_PROCESS
  for (auto &S : Shards) {
    closeQuietly(S->ListenFd);
    for (int Fd : S->Inbox)
      closeQuietly(Fd);
    for (auto &C : S->Conns)
      if (C && C->Fd >= 0) {
        std::lock_guard<std::mutex> L(C->Shared->M);
        C->Shared->Closed = true;
        closeQuietly(C->Fd);
      }
  }
#endif
}

TransportStats TcpServer::shardStats(unsigned Index) const {
  TransportStats T;
  if (Index >= Shards.size())
    return T;
  const Shard &S = *Shards[Index];
  T.Accepted = S.Accepted.load(std::memory_order_relaxed);
  T.RefusedAtCap = S.RefusedAtCap.load(std::memory_order_relaxed);
  T.Active = S.Active.load(std::memory_order_relaxed);
  T.CleanClosed = S.CleanClosed.load(std::memory_order_relaxed);
  T.IdleClosed = S.IdleClosed.load(std::memory_order_relaxed);
  T.DeadlineClosed = S.DeadlineClosed.load(std::memory_order_relaxed);
  T.BackpressureClosed = S.BackpressureClosed.load(std::memory_order_relaxed);
  T.PeerResets = S.PeerResets.load(std::memory_order_relaxed);
  T.OversizedLines = S.OversizedLines.load(std::memory_order_relaxed);
  T.LinesDispatched = S.LinesDispatched.load(std::memory_order_relaxed);
  T.ResponsesDelivered = S.Delivered->load(std::memory_order_relaxed);
  T.InBufHighWaterBytes =
      S.InBufHighWaterBytes.load(std::memory_order_relaxed);
  T.DrainDiscardedBytes =
      S.DrainDiscardedBytes.load(std::memory_order_relaxed);
  uint64_t Beat = S.LastBeatMs.load(std::memory_order_relaxed);
  if (Beat) {
    uint64_t Now = steadyMs();
    T.HeartbeatAgeMs = Now > Beat ? Now - Beat : 0;
  }
  return T;
}

TransportStats TcpServer::stats() const {
  TransportStats M;
  for (unsigned I = 0; I != Shards.size(); ++I) {
    TransportStats T = shardStats(I);
    M.Accepted += T.Accepted;
    M.RefusedAtCap += T.RefusedAtCap;
    M.Active += T.Active;
    M.CleanClosed += T.CleanClosed;
    M.IdleClosed += T.IdleClosed;
    M.DeadlineClosed += T.DeadlineClosed;
    M.BackpressureClosed += T.BackpressureClosed;
    M.PeerResets += T.PeerResets;
    M.OversizedLines += T.OversizedLines;
    M.LinesDispatched += T.LinesDispatched;
    M.ResponsesDelivered += T.ResponsesDelivered;
    // A watermark, not a flow counter: the merged view is the largest
    // retention any one shard ever saw, not the sum of the maxima.
    M.InBufHighWaterBytes =
        std::max(M.InBufHighWaterBytes, T.InBufHighWaterBytes);
    M.DrainDiscardedBytes += T.DrainDiscardedBytes;
    // Liveness is as stale as the most-stale shard.
    M.HeartbeatAgeMs = std::max(M.HeartbeatAgeMs, T.HeartbeatAgeMs);
  }
  return M;
}

std::vector<uint64_t> TcpServer::shardHeartbeatAgesMs() const {
  std::vector<uint64_t> Ages;
  Ages.reserve(Shards.size());
  for (unsigned I = 0; I != Shards.size(); ++I)
    Ages.push_back(shardStats(I).HeartbeatAgeMs);
  return Ages;
}

bool TcpServer::anyShardWedged() const {
  for (uint64_t Age : shardHeartbeatAgesMs())
    if (Age > Opts.WedgeThresholdMs)
      return true;
  return false;
}

JsonValue TcpServer::healthProbeJson() const {
  JsonValue V = JsonValue::object();
  V.set("shards", static_cast<uint64_t>(Shards.size()));
  JsonValue Ages = JsonValue::array();
  bool Wedged = false;
  for (uint64_t Age : shardHeartbeatAgesMs()) {
    Ages.push(Age);
    if (Age > Opts.WedgeThresholdMs)
      Wedged = true;
  }
  V.set("shard_heartbeat_ages_ms", std::move(Ages));
  if (Wedged)
    V.set("wedged", true);
  return V;
}

int TcpServer::shardZeroListenerFd() const {
  return Shards.empty() ? -1 : Shards[0]->ListenFd;
}

JsonValue TcpServer::transportJson() const {
  JsonValue V = stats().toJson();
  V.set("shards", static_cast<uint64_t>(Shards.size()));
  JsonValue Per = JsonValue::array();
  for (unsigned I = 0; I != Shards.size(); ++I)
    Per.push(shardStats(I).toJson());
  V.set("per_shard", std::move(Per));
  if (anyShardWedged())
    V.set("wedged", true);
  return V;
}

void TcpServer::logLine(const std::string &Line) {
  std::lock_guard<std::mutex> L(LogM);
  Log << Line << "\n";
}

#ifdef JSLICE_HAVE_POSIX_PROCESS

bool TcpServer::start(std::string &Err) {
  unsigned N = Opts.Shards ? Opts.Shards
                           : std::max(1u, std::thread::hardware_concurrency());
  N = std::min(N, 64u);

  ConnSlots.store(static_cast<int64_t>(Opts.MaxConnections),
                  std::memory_order_relaxed);

  for (unsigned I = 0; I != N; ++I) {
    auto S = std::make_unique<Shard>();
    S->Index = I;
    S->Wake = std::make_shared<Pipe>();
    if (!S->Wake->make()) {
      Err = "cannot create wake pipe";
      Shards.clear();
      WakeWriteFds.clear();
      return false;
    }
    setNonBlocking(S->Wake->ReadFd, true);
    setNonBlocking(S->Wake->WriteFd, true);
    WakeWriteFds.push_back(S->Wake->WriteFd);
    Shards.push_back(std::move(S));
  }

  // Listener placement. REUSEPORT: every shard binds the shared port
  // and the kernel spreads accepts. Handoff: shard 0 owns the sole
  // listener and round-robins accepted fds. Auto tries the former and
  // falls back; an explicit ReusePort request fails honestly.
  // ReusePortAlways extends the REUSEPORT path to N == 1 so a successor
  // generation can bind alongside (the kernel only admits a second
  // binder when every socket on the port carries the option).
  UseReusePort = false;
  if (Opts.InheritedListenerFd >= 0) {
    // Adopt a predecessor generation's listener received over
    // SCM_RIGHTS — the fallback when a fresh SO_REUSEPORT bind is
    // unavailable. Shard 0 owns it; with N > 1 accepts degrade to
    // round-robin handoff, which is still a working (if less parallel)
    // accept path.
    setNonBlocking(Opts.InheritedListenerFd, true);
    Shards[0]->ListenFd = Opts.InheritedListenerFd;
  } else {
    if ((N > 1 || Opts.ReusePortAlways) &&
        Opts.AcceptMode != TcpAcceptMode::Handoff) {
      std::string ReuseErr;
      int Fd0 = listenTcp(Opts.Host, Opts.Port, /*Backlog=*/128, ReuseErr,
                          /*ReusePort=*/true);
      if (Fd0 >= 0) {
        Shards[0]->ListenFd = Fd0;
        uint16_t BoundPort = tcpLocalPort(Fd0);
        bool AllBound = true;
        for (unsigned I = 1; I != N && AllBound; ++I) {
          int Fd = listenTcp(Opts.Host, BoundPort, /*Backlog=*/128, ReuseErr,
                             /*ReusePort=*/true);
          if (Fd < 0)
            AllBound = false;
          else
            Shards[I]->ListenFd = Fd;
        }
        if (AllBound)
          UseReusePort = true;
        else
          for (auto &S : Shards) {
            closeQuietly(S->ListenFd);
            S->ListenFd = -1;
          }
      }
      if (!UseReusePort && Opts.AcceptMode == TcpAcceptMode::ReusePort) {
        Err = "SO_REUSEPORT listeners unavailable: " + ReuseErr;
        Shards.clear();
        WakeWriteFds.clear();
        return false;
      }
    }
    if (!UseReusePort) {
      Shards[0]->ListenFd = listenTcp(Opts.Host, Opts.Port, /*Backlog=*/128,
                                      Err);
      if (Shards[0]->ListenFd < 0) {
        Shards.clear();
        WakeWriteFds.clear();
        return false;
      }
    }
  }

  Srv.setTransportStats([this] { return transportJson(); });
  Srv.setHealthProbe([this] { return healthProbeJson(); });
  return true;
}

uint16_t TcpServer::port() const {
  return !Shards.empty() && Shards[0]->ListenFd >= 0
             ? tcpLocalPort(Shards[0]->ListenFd)
             : 0;
}

void TcpServer::requestStop() {
  StopRequested.store(true, std::memory_order_relaxed);
  // Signal context: only the flag store and one write per shard.
  for (int Fd : WakeWriteFds)
    if (Fd >= 0) {
      char B = 1;
      [[maybe_unused]] ssize_t N = ::write(Fd, &B, 1);
    }
}

bool TcpServer::tryAcquireConnSlot() {
  int64_t Cur = ConnSlots.load(std::memory_order_relaxed);
  while (Cur > 0)
    if (ConnSlots.compare_exchange_weak(Cur, Cur - 1,
                                        std::memory_order_relaxed))
      return true;
  return false;
}

void TcpServer::refuseAtCap(Shard &S, int Fd) {
  // Deterministic refusal beats a silent backlog hang: the client
  // learns immediately that the server is at capacity — and because
  // the cap is one atomic budget across shards, the verdict does not
  // depend on which shard fielded the accept.
  S.RefusedAtCap.fetch_add(1, std::memory_order_relaxed);
  static const char Refusal[] =
      "{\"error\":\"connection limit reached\",\"status\":\"shed\"}\n";
  // Send it blocking: the fd was accepted non-blocking, and a one-shot
  // EAGAIN here would turn the refusal into a bare close —
  // indistinguishable from a crash to the client. A fresh connection's
  // send buffer is empty, so one short line cannot stall the shard.
  setNonBlocking(Fd, false);
  size_t Off = 0;
  while (Off < sizeof(Refusal) - 1) {
    int64_t W = sendSome(Fd, Refusal + Off, sizeof(Refusal) - 1 - Off);
    if (W <= 0)
      break; // Peer already gone; nothing more owed.
    Off += static_cast<size_t>(W);
  }
  ::close(Fd);
}

void TcpServer::adoptConn(Shard &S, int Fd) {
  setSendBufferBytes(Fd, Opts.SendBufferBytes);

  auto C = std::make_unique<Conn>();
  C->Fd = Fd;
  C->In = LineFramer(Srv.maxLineBytes());
  C->Id = NextConnId.fetch_add(1, std::memory_order_relaxed);
  C->LastActivity = Clock::now();
  C->Shared = std::make_shared<ConnShared>(
      static_cast<size_t>(Opts.MaxWriteBufferBytes));

  // The response path: a bounded append under the connection mutex.
  // On a pool thread it then writes one byte down the *owning shard's*
  // self-pipe so that shard — and only that shard — wakes to flush. On
  // the owning shard's own thread (control lines, inline cache hits) it
  // skips the byte: that shard is mid-iteration, not in poll(), and the
  // same iteration's opportunistic flush writes the line.
  std::shared_ptr<ConnShared> SP = C->Shared;
  std::shared_ptr<Pipe> WK = S.Wake;
  std::shared_ptr<std::atomic<uint64_t>> Delivered = S.Delivered;
  C->Sink = [SP, WK, Delivered](const std::string &Line) {
    bool NeedWake = false;
    {
      std::lock_guard<std::mutex> L(SP->M);
      if (SP->Pending)
        --SP->Pending;
      if (!SP->Closed) {
        if (SP->Out.appendLine(Line))
          Delivered->fetch_add(1, std::memory_order_relaxed);
        else
          SP->Overflowed = true; // Stalled reader; shard disconnects.
        NeedWake = ReactorWake != WK.get();
      }
    }
    if (NeedWake && WK->WriteFd >= 0) {
      char B = 1;
      [[maybe_unused]] ssize_t N = ::write(WK->WriteFd, &B, 1);
    }
  };

  S.Accepted.fetch_add(1, std::memory_order_relaxed);
  S.Active.fetch_add(1, std::memory_order_relaxed);
  S.Conns.push_back(std::move(C));
}

void TcpServer::acceptPending(Shard &S) {
  for (;;) {
    int Fd = acceptTcp(S.ListenFd);
    if (Fd < 0)
      return;
    if (!tryAcquireConnSlot()) {
      refuseAtCap(S, Fd);
      continue;
    }
    if (UseReusePort || Shards.size() == 1) {
      adoptConn(S, Fd);
      continue;
    }
    // Handoff: deterministic round-robin over all shards, self
    // included. The budget slot travels with the fd; the adopting
    // shard does the Accepted/Active accounting.
    unsigned Target =
        static_cast<unsigned>(S.HandoffNext++ % Shards.size());
    if (Target == S.Index) {
      adoptConn(S, Fd);
      continue;
    }
    Shard &T = *Shards[Target];
    {
      std::lock_guard<std::mutex> L(T.InboxM);
      T.Inbox.push_back(Fd);
    }
    if (T.Wake->WriteFd >= 0) {
      char B = 1;
      [[maybe_unused]] ssize_t N = ::write(T.Wake->WriteFd, &B, 1);
    }
  }
}

void TcpServer::adoptHandoffs(Shard &S, bool Draining) {
  std::vector<int> Pending;
  {
    std::lock_guard<std::mutex> L(S.InboxM);
    Pending.swap(S.Inbox);
  }
  for (int Fd : Pending) {
    if (Draining) {
      // Accepted by shard 0 just before the stop request landed here;
      // too late to serve it. Give the slot back and close.
      ConnSlots.fetch_add(1, std::memory_order_relaxed);
      closeQuietly(Fd);
      continue;
    }
    adoptConn(S, Fd);
  }
}

void TcpServer::dispatchLine(Shard &S, Conn &C, const std::string &Line) {
  if (Line.empty() || Line.find_first_not_of(" \t\r") == std::string::npos)
    return; // Blank lines produce no response; don't count one pending.
  {
    std::lock_guard<std::mutex> L(C.Shared->M);
    ++C.Shared->Pending;
  }
  S.LinesDispatched.fetch_add(1, std::memory_order_relaxed);
  // Control lines answer synchronously through the sink; slice lines
  // journal + enqueue and answer later from a pool thread. Either way
  // exactly one response line lands per dispatched line — except the
  // one-way replication ack, which serveLine flags by returning false
  // so the pending slot goes back and a standby's subscriber
  // connection still reads as idle at drain time.
  if (!Srv.serveLine(Line, C.Sink)) {
    std::lock_guard<std::mutex> L(C.Shared->M);
    if (C.Shared->Pending)
      --C.Shared->Pending;
  }
}

void TcpServer::processInput(Shard &S, Conn &C) {
  while (std::optional<LineFramer::Frame> F = C.In.next()) {
    if (!F->Oversized) {
      dispatchLine(S, C, std::string(F->Line));
      continue;
    }
    // One refusal per oversized line, whether it completed inside this
    // read or is still streaming; the framer drops the rest on arrival.
    S.OversizedLines.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> L(C.Shared->M);
      ++C.Shared->Pending;
    }
    Srv.refuseOversizedLine(C.Sink);
  }
  if (!C.In.midLine())
    C.LineStart = Clock::time_point();
}

void TcpServer::handleReadable(Shard &S, Conn &C) {
  char Chunk[65536];
  int64_t N = recvSome(C.Fd, Chunk, sizeof(Chunk));
  if (N == NetWouldBlock)
    return;
  if (N < 0) {
    closeConn(S, C, "read error", &S.PeerResets);
    return;
  }
  C.LastActivity = Clock::now();
  if (N == 0) {
    // EOF terminates a final unterminated line, same as the stdin
    // transport; the response will still be flushed before close.
    C.ReadClosed = true;
    C.In.finish();
    processInput(S, C);
    return;
  }
  bool WasDiscarding = C.In.discarding();
  if (!C.In.midLine())
    C.LineStart = C.LastActivity;
  C.In.feed(Chunk, static_cast<size_t>(N));
  // The newline that ends a refused line starts a fresh line with a
  // fresh deadline clock.
  if (WasDiscarding && !C.In.discarding())
    C.LineStart = C.LastActivity;
  processInput(S, C);
  // Retained-bytes high-water mark, measured after trimming: complete
  // lines are dispatched and discarded tails dropped, so this tracks
  // what the transport actually holds onto per connection. Raised with
  // a CAS loop: the mark is per shard but stats() merges across
  // shards, and a load-then-store max would lose races.
  storeMaxRelaxed(S.InBufHighWaterBytes, C.In.buffered());
}

void TcpServer::drainReadable(Shard &S, Conn &C) {
  // Draining: the listener is closed and nothing new may be
  // dispatched — POLLIN/POLLHUP/POLLERR are serviced only to tell
  // "peer finished" from "peer reset". Whatever bytes still arrive
  // (a request racing the shutdown, the tail of a half-closed
  // stream) are counted and dropped, never parsed. Dispatching here
  // would inflate Pending with work the server is trying to retire
  // and stall the drain until grace expiry.
  char Chunk[65536];
  int64_t N = recvSome(C.Fd, Chunk, sizeof(Chunk));
  if (N == NetWouldBlock)
    return;
  if (N < 0) {
    closeConn(S, C, "peer reset during drain", &S.PeerResets);
    return;
  }
  C.LastActivity = Clock::now();
  if (N == 0) {
    C.ReadClosed = true;
    C.In = LineFramer(); // Draining: a partial line is never served.
    return;
  }
  S.DrainDiscardedBytes.fetch_add(static_cast<uint64_t>(N),
                                  std::memory_order_relaxed);
}

void TcpServer::flushConn(Conn &C) {
  std::lock_guard<std::mutex> L(C.Shared->M);
  if (C.Shared->Out.empty())
    return;
  WriteBuffer::FlushResult R = C.Shared->Out.flush(C.Fd);
  C.LastActivity = Clock::now();
  if (R == WriteBuffer::FlushResult::PeerClosed) {
    C.Doomed = true; // closeConn outside the lock, in the sweep.
  }
}

void TcpServer::closeConn(Shard &S, Conn &C, const char *Why,
                          std::atomic<uint64_t> *Counter) {
  if (C.Fd < 0)
    return;
  {
    std::lock_guard<std::mutex> L(C.Shared->M);
    C.Shared->Closed = true;
  }
  // Account before closing: a peer that observes the close (EOF/RST on
  // loopback is near-instant) must also observe the accounting in a
  // stats probe.
  if (Counter)
    Counter->fetch_add(1, std::memory_order_relaxed);
  S.Active.fetch_sub(1, std::memory_order_relaxed);
  ConnSlots.fetch_add(1, std::memory_order_relaxed);
  ::close(C.Fd);
  C.Fd = -1;
  C.Doomed = true;
  std::ostringstream OS;
  OS << "jslice_serve: connection #" << C.Id << " closed (" << Why << ")";
  logLine(OS.str());
}

int TcpServer::computePollTimeout(bool Draining, Clock::time_point DrainBy) {
  // The shard's deadlines (read deadline, idle timeout, drain grace)
  // are coarse; a 200ms tick bounds their latency and doubles as a
  // lost-wakeup backstop. An idle shard pays five wakeups a second.
  int Timeout = 200;
  if (Draining) {
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
        DrainBy - Clock::now());
    Timeout = std::min<int>(
        Timeout, Left.count() <= 0 ? 0 : static_cast<int>(Left.count()));
  }
  return Timeout;
}

void TcpServer::run() {
  if (Shards.empty())
    return;

  // Shards 1..N-1 on their own threads, shard 0 inline; run() returns
  // only after every shard has drained and joined, so the caller's
  // clean-shutdown journal record covers the whole transport.
  std::vector<std::thread> Threads;
  std::vector<char> Quiet(Shards.size(), 1);
  for (size_t I = 1; I != Shards.size(); ++I)
    Threads.emplace_back(
        [this, I, &Quiet] { Quiet[I] = shardLoop(*Shards[I]) ? 1 : 0; });
  Quiet[0] = shardLoop(*Shards[0]) ? 1 : 0;
  for (auto &T : Threads)
    T.join();

  size_t Forced = static_cast<size_t>(
      std::count(Quiet.begin(), Quiet.end(), static_cast<char>(0)));
  std::ostringstream OS;
  if (Forced == 0)
    OS << "jslice_serve: TCP drain complete across " << Shards.size()
       << " shard" << (Shards.size() == 1 ? "" : "s");
  else
    OS << "jslice_serve: TCP drain grace expired on " << Forced << " of "
       << Shards.size() << " shard" << (Shards.size() == 1 ? "" : "s")
       << "; forced close";
  logLine(OS.str());
}

bool TcpServer::shardLoop(Shard &S) {
  struct OwnThread {
    explicit OwnThread(const Pipe *P) { ReactorWake = P; }
    ~OwnThread() { ReactorWake = nullptr; }
  } Own(S.Wake.get());
  bool Draining = false;
  bool QuietDrain = true;
  Clock::time_point DrainBy;

  for (;;) {
    // Liveness heartbeat: the 200ms poll tick guarantees an idle shard
    // still reaches this store, so a stale beat means a wedged loop,
    // not a quiet one.
    S.LastBeatMs.store(steadyMs(), std::memory_order_relaxed);

    bool WantStop =
        StopRequested.load(std::memory_order_relaxed) ||
        (Opts.ShutdownFlag &&
         Opts.ShutdownFlag->load(std::memory_order_relaxed));
    if (WantStop && !Draining) {
      Draining = true;
      DrainBy = Clock::now() + std::chrono::milliseconds(Opts.DrainGraceMs);
      closeQuietly(S.ListenFd); // Stop accepting; drain what is in flight.
      S.ListenFd = -1;
      std::ostringstream OS;
      OS << "jslice_serve: shard " << S.Index << " draining ("
         << S.Conns.size() << " connection"
         << (S.Conns.size() == 1 ? "" : "s") << " open)";
      logLine(OS.str());
    }

    if (Draining) {
      // This shard's drain completes when every one of its connections
      // has nothing pending and nothing buffered — or the grace period
      // runs out.
      bool ShardQuiet = true;
      for (auto &C : S.Conns) {
        std::lock_guard<std::mutex> L(C->Shared->M);
        if (C->Shared->Pending || !C->Shared->Out.empty())
          ShardQuiet = false;
      }
      if (ShardQuiet || Clock::now() >= DrainBy) {
        for (auto &C : S.Conns)
          closeConn(S, *C, ShardQuiet ? "drained" : "drain grace expired",
                    nullptr);
        S.Conns.clear();
        adoptHandoffs(S, /*Draining=*/true); // Late handoffs: close them.
        return QuietDrain && ShardQuiet;
      }
    }

    // Poll set: wake pipe, listener, then one slot per connection (in
    // Conns order — nothing mutates Conns between here and the
    // dispatch below).
    std::vector<struct pollfd> P;
    P.reserve(2 + S.Conns.size());
    P.push_back({S.Wake->ReadFd, POLLIN, 0});
    size_t ListenIdx = SIZE_MAX;
    if (!Draining && S.ListenFd >= 0) {
      ListenIdx = P.size();
      P.push_back({S.ListenFd, POLLIN, 0});
    }
    size_t ConnBase = P.size();
    for (auto &C : S.Conns) {
      short Ev = 0;
      // POLLIN stays armed during drain: drainReadable() wants to see
      // EOF/reset promptly — it just never dispatches what it reads.
      if (!C->ReadClosed)
        Ev |= POLLIN;
      {
        std::lock_guard<std::mutex> L(C->Shared->M);
        if (!C->Shared->Out.empty())
          Ev |= POLLOUT;
      }
      P.push_back({C->Fd, Ev, 0});
    }

    int N = ::poll(P.data(), P.size(),
                   computePollTimeout(Draining, DrainBy));
    int PollErrno = errno; // Before the stream ops below can clobber it.
    if (N < 0 && PollErrno != EINTR) {
      // poll() itself failing is unrecoverable for this shard — go
      // down the way drain-grace expiry does: say why, close and
      // account every connection, and ask the *other* shards to drain
      // so run() still returns.
      std::ostringstream OS;
      OS << "jslice_serve: shard " << S.Index << " poll failed (errno "
         << PollErrno << "); forcing close of " << S.Conns.size()
         << " connection" << (S.Conns.size() == 1 ? "" : "s");
      logLine(OS.str());
      for (auto &C : S.Conns)
        closeConn(S, *C, "poll failure", nullptr);
      S.Conns.clear();
      closeQuietly(S.ListenFd);
      S.ListenFd = -1;
      requestStop();
      return false;
    }

    // Drain the wake pipe (level-triggered; a byte per response is
    // fine, we just swallow whatever accumulated).
    if (P[0].revents) {
      char Buf[256];
      while (::read(S.Wake->ReadFd, Buf, sizeof(Buf)) > 0) {
      }
    }

    // Adopt handed-off fds before reading the listener so inbox order
    // roughly tracks accept order.
    if (!UseReusePort && Shards.size() > 1)
      adoptHandoffs(S, Draining);

    if (ListenIdx != SIZE_MAX && P[ListenIdx].revents)
      acceptPending(S); // Appends to S.Conns; indices above still match.

    Clock::time_point Now = Clock::now();
    size_t Polled = P.size() - ConnBase; // New adoptions weren't polled.
    for (size_t I = 0; I != Polled; ++I) {
      Conn &C = *S.Conns[I];
      short Re = P[ConnBase + I].revents;
      if (C.Doomed || C.Fd < 0)
        continue;
      if (Re & POLLOUT)
        flushConn(C);
      if (!C.Doomed && (Re & (POLLIN | POLLHUP | POLLERR))) {
        if (Draining)
          drainReadable(S, C);
        else
          handleReadable(S, C);
      }
    }

    // Timers, backpressure verdicts, and retirement — over every
    // connection, polled or not.
    for (auto &C : S.Conns) {
      if (C->Fd < 0)
        continue;
      // Doomed with the fd still open (flushConn hit PeerClosed): close
      // and account here; skipping it would leak the fd at the sweep.
      if (C->Doomed) {
        closeConn(S, *C, "peer reset", &S.PeerResets);
        continue;
      }
      bool Overflowed, Idle;
      {
        std::lock_guard<std::mutex> L(C->Shared->M);
        Overflowed = C->Shared->Overflowed;
        Idle = C->Shared->Pending == 0 && C->Shared->Out.empty();
        // Flush opportunistically: responses may have arrived from
        // pool threads after the poll set was built, and those this
        // thread answered itself (which wrote no wake byte) are here.
        if (!Idle && !C->Shared->Out.empty())
          if (C->Shared->Out.flush(C->Fd) ==
              WriteBuffer::FlushResult::PeerClosed)
            Overflowed = false, C->Doomed = true;
        Idle = C->Shared->Pending == 0 && C->Shared->Out.empty();
      }
      if (C->Doomed) {
        closeConn(S, *C, "peer reset", &S.PeerResets);
        continue;
      }
      if (Overflowed) {
        closeConn(S, *C, "write buffer overflow: stalled reader",
                  &S.BackpressureClosed);
        continue;
      }
      if (C->ReadClosed && Idle) {
        closeConn(S, *C, "peer finished", &S.CleanClosed);
        continue;
      }
      // Discarding counts as a partial line too (midLine()): the
      // refused line is still unterminated though its bytes are dropped
      // on arrival — without this a client could hold the slot forever
      // by streaming newline-free garbage.
      if (Opts.ReadDeadlineMs && C->In.midLine() &&
          C->LineStart != Clock::time_point() &&
          Now - C->LineStart >
              std::chrono::milliseconds(Opts.ReadDeadlineMs)) {
        closeConn(S, *C, "read deadline: partial line too old",
                  &S.DeadlineClosed);
        continue;
      }
      if (Opts.IdleTimeoutMs && Idle && !C->In.midLine() &&
          !C->ReadClosed &&
          Now - C->LastActivity >
              std::chrono::milliseconds(Opts.IdleTimeoutMs)) {
        closeConn(S, *C, "idle timeout", &S.IdleClosed);
        continue;
      }
    }

    // Sweep the dead.
    for (size_t I = 0; I != S.Conns.size();) {
      if (S.Conns[I]->Doomed || S.Conns[I]->Fd < 0)
        S.Conns.erase(S.Conns.begin() + static_cast<ptrdiff_t>(I));
      else
        ++I;
    }
  }
}

#else // !JSLICE_HAVE_POSIX_PROCESS

bool TcpServer::start(std::string &Err) {
  Err = "TCP transport unavailable on this platform";
  return false;
}
uint16_t TcpServer::port() const { return 0; }
void TcpServer::requestStop() {
  StopRequested.store(true, std::memory_order_relaxed);
}
void TcpServer::run() {}
bool TcpServer::shardLoop(Shard &) { return true; }

#endif
