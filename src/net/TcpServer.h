//===- net/TcpServer.h - Sharded socket transport with fault containment ---===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TCP front end of the slicing service (DESIGN.md, "TCP transport
/// & fault containment" and "Sharded transport"): N poll()-driven
/// reactor shards that accept JSON-Lines connections and feed each
/// complete line to a Server with a per-connection ResponseSink. Each
/// shard owns its connections outright — fds, input buffers, write
/// buffers, timers, wake pipe, and counters — so shards never contend
/// on anything but the global connection budget and the (mutex-guarded)
/// operational log. No shard ever blocks on any one peer and never
/// allocates unboundedly on any one peer's behalf; every slicing
/// request still runs on the server's worker pool (or its sandbox
/// processes), so a poisonous program costs what it always cost — one
/// budget, one worker — and a misbehaving *byte stream* costs exactly
/// one connection on exactly one shard:
///
///  * connection cap — a single atomic budget across all shards; at
///    MaxConnections total, extra accepts are answered with a one-line
///    `shed` refusal and closed, deterministically, whichever shard
///    fields them;
///  * read deadline — a partial line must complete within
///    ReadDeadlineMs (slowloris defense);
///  * idle timeout — a connection with no traffic and nothing pending
///    for IdleTimeoutMs is closed;
///  * line cap — each connection cuts its input with a LineFramer
///    under the server's MaxLineBytes (the same rule as the stdin
///    transport), so it retains at most the cap plus one read chunk;
///    an oversized line is answered with one deterministic `shed`
///    refusal and the remainder dropped on arrival through its newline;
///  * bounded write buffers — a reader that stops draining its
///    responses (backpressure past MaxWriteBufferBytes) is
///    disconnected; it never blocks its shard's loop, let alone
///    another shard's connections;
///  * per-connection error containment — malformed frames are answered
///    as `bad-request` on that connection only; a read error or peer
///    reset closes that connection only.
///
/// Connections reach their shard one of two ways (AcceptMode):
/// SO_REUSEPORT gives every shard its own listener on the shared port
/// and lets the kernel spread the accept load; where that is
/// unavailable (or when a test wants deterministic placement), shard 0
/// owns the sole listener and hands accepted fds round-robin to shard
/// inboxes over their wake pipes. Auto tries REUSEPORT and falls back.
///
/// Connection lifecycle (see DESIGN.md for the full state machine):
///   OPEN -> READ_CLOSED (peer EOF, responses still flushing)
///        -> CLOSED (clean | idle | deadline | backpressure | reset)
/// A connection with responses in flight when it dies simply swallows
/// them: sinks capture connection state by shared_ptr, so a late
/// response appends to a buffer nobody will ever flush, and the
/// request's terminal status stays in the journal.
///
/// Graceful drain: when the shutdown flag trips (or requestStop() is
/// called — async-signal-safe), every shard closes its listener, stops
/// *dispatching* — bytes that still arrive are read only to detect
/// EOF/reset, never parsed into requests — finishes flushing every
/// in-flight response (bounded by DrainGraceMs), and closes its
/// connections. run() returns only after all shards have drained, so
/// the caller's clean-shutdown journal record truthfully covers the
/// whole transport.
///
/// Threading: run() is shard 0's loop; shards 1..N-1 run on threads
/// run() spawns and joins. Only a connection's owning shard touches
/// its fd. Pool threads touch only ConnShared (mutex-guarded) through
/// their sinks and wake the owning shard over its self-pipe.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_NET_TCPSERVER_H
#define JSLICE_NET_TCPSERVER_H

#include "service/Server.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace jslice {

struct Pipe;

/// How accepted connections find their owning shard.
enum class TcpAcceptMode {
  Auto,      ///< REUSEPORT when the platform has it, else Handoff.
  ReusePort, ///< One listener per shard on the shared port.
  Handoff,   ///< Shard 0 accepts, hands fds round-robin to inboxes.
};

/// Listener configuration. The line cap is deliberately absent: the
/// transport reads it from the Server so stdin and TCP share one knob.
struct TcpServerOptions {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0; ///< 0 = ephemeral; read back with port().

  /// Reactor shard count; 0 = hardware_concurrency. Clamped to 1..64.
  unsigned Shards = 0;

  /// Shard placement policy; tests force Handoff for deterministic
  /// round-robin pinning.
  TcpAcceptMode AcceptMode = TcpAcceptMode::Auto;

  /// Accepted connections above this (total, across all shards) are
  /// answered with a one-line `shed` refusal and closed.
  unsigned MaxConnections = 256;

  /// A connection with no traffic, no partial line, and no pending
  /// responses for this long is closed. 0 disables.
  uint64_t IdleTimeoutMs = 30000;

  /// A partial request line must complete within this (slowloris
  /// defense). 0 disables.
  uint64_t ReadDeadlineMs = 10000;

  /// Per-connection bound on buffered-but-unsent response bytes; a
  /// stalled reader past this is disconnected. 0 = unbounded.
  uint64_t MaxWriteBufferBytes = 4u << 20;

  /// Drain bound: after a stop request each shard waits at most this
  /// long for in-flight responses to finish and flush before closing
  /// connections anyway.
  uint64_t DrainGraceMs = 10000;

  /// Shrink each connection's kernel send buffer (0 = leave alone).
  /// Ops/test knob: makes backpressure observable with small volumes.
  int SendBufferBytes = 0;

  /// Force SO_REUSEPORT on every listener, including the single-shard
  /// and fallback paths. Upgradable servers (jslice_serve with hot
  /// restart enabled) set this so a successor generation can bind the
  /// same port alongside the still-draining predecessor; the kernel
  /// requires *all* sockets on the port to carry the option. When the
  /// platform lacks SO_REUSEPORT, start() fails honestly and the
  /// caller falls back to SCM_RIGHTS fd inheritance.
  bool ReusePortAlways = false;

  /// An already-bound, already-listening fd to adopt as shard 0's
  /// listener instead of binding (the fd-passing upgrade fallback: the
  /// predecessor ships its listener over a Unix socketpair). The
  /// transport takes ownership; multi-shard placement degrades to
  /// Handoff, since only one listener exists.
  int InheritedListenerFd = -1;

  /// A reactor shard whose loop has not turned over for this long is
  /// reported wedged by {"health"} and {"stats"} (0 disables). The
  /// loop beats at least every poll tick (200ms), so anything past a
  /// few seconds means a stuck shard, not an idle one.
  uint64_t WedgeThresholdMs = 5000;

  /// Same contract as ServerOptions::ShutdownFlag: when it reads true
  /// the shards drain and run() returns. requestStop() is the
  /// in-process equivalent.
  const std::atomic<bool> *ShutdownFlag = nullptr;
};

/// Transport counters, all-time since start(). Served in-band by the
/// {"stats"} control line (under "transport") once start() registers
/// the provider with the server; the merged view sums every counter
/// across shards except InBufHighWaterBytes, which takes the max.
struct TransportStats {
  uint64_t Accepted = 0;
  uint64_t RefusedAtCap = 0;
  uint64_t Active = 0;
  uint64_t CleanClosed = 0;        ///< Peer EOF, everything flushed.
  uint64_t IdleClosed = 0;
  uint64_t DeadlineClosed = 0;     ///< Slowloris: partial line too old.
  uint64_t BackpressureClosed = 0; ///< Write buffer overflow.
  uint64_t PeerResets = 0;         ///< Read/write error closes.
  uint64_t OversizedLines = 0;     ///< Line-cap refusals.
  uint64_t LinesDispatched = 0;
  uint64_t ResponsesDelivered = 0; ///< Appended to some write buffer.
  /// Largest per-connection input retention ever observed (after
  /// complete lines dispatch and discarded tails drop) — the witness
  /// that the line cap actually bounds memory.
  uint64_t InBufHighWaterBytes = 0;
  /// Bytes read and thrown away during drain: after the stop request
  /// the transport still reads (to see EOF/reset) but never dispatches.
  uint64_t DrainDiscardedBytes = 0;
  /// Ms since the shard's loop last turned over (liveness heartbeat);
  /// the merged view takes the worst (max) across shards. 0 until the
  /// loop first runs.
  uint64_t HeartbeatAgeMs = 0;

  JsonValue toJson() const;
};

/// Lock-free max update for watermark counters shared across reactor
/// threads: the load-then-store idiom loses races the moment a second
/// writer exists, so raise the mark with a compare-exchange loop.
inline void storeMaxRelaxed(std::atomic<uint64_t> &Mark, uint64_t Value) {
  uint64_t Cur = Mark.load(std::memory_order_relaxed);
  while (Cur < Value &&
         !Mark.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
    ;
}

class TcpServer {
public:
  /// Responses route to per-connection buffers; \p Log carries
  /// operational lines (accept/close/drain), same stream jslice_serve
  /// gives the Server. Shards share it behind a mutex.
  TcpServer(Server &S, const TcpServerOptions &Opts, std::ostream &Log);
  ~TcpServer();

  TcpServer(const TcpServer &) = delete;
  TcpServer &operator=(const TcpServer &) = delete;

  /// Binds and listens (so port() is valid before run() starts) and
  /// registers the transport-stats provider with the server. False
  /// with a reason on failure — including non-POSIX builds, where the
  /// caller falls back to the stdin transport.
  bool start(std::string &Err);

  /// The bound port (after start()); useful with Port = 0.
  uint16_t port() const;

  /// The number of reactor shards (after start()).
  unsigned shardCount() const { return static_cast<unsigned>(Shards.size()); }

  /// Whether the shards listen via SO_REUSEPORT (after start()); false
  /// means shard 0 accepts and hands fds off round-robin.
  bool usesReusePort() const { return UseReusePort; }

  /// The event loop: runs shard 0 inline, shards 1..N-1 on spawned
  /// threads, and returns only after *every* shard's drain completes:
  /// stop requested via requestStop()/ShutdownFlag, listeners closed,
  /// in-flight responses flushed (bounded by DrainGraceMs),
  /// connections closed.
  void run();

  /// Async-signal-safe stop: a flag store and one self-pipe write per
  /// shard.
  void requestStop();

  /// Merged counter snapshot across all shards (thread-safe).
  TransportStats stats() const;

  /// One shard's counter snapshot (thread-safe); Index < shardCount().
  TransportStats shardStats(unsigned Index) const;

  /// Per-shard liveness heartbeat ages in ms (lock-free; reads each
  /// shard's last-progress atomic). 0 for a shard whose loop has not
  /// started yet.
  std::vector<uint64_t> shardHeartbeatAgesMs() const;

  /// True when any shard's heartbeat age exceeds WedgeThresholdMs.
  bool anyShardWedged() const;

  /// The {"health"} transport probe: shard count, heartbeat ages, and
  /// the wedged verdict. Registered with the Server by start().
  JsonValue healthProbeJson() const;

  /// Shard 0's live listener fd (for SCM_RIGHTS handoff to a successor
  /// generation), or -1 once draining has closed it. The caller must
  /// dup-transfer it (sendFdOverSocket dups internally) — ownership
  /// stays with the shard.
  int shardZeroListenerFd() const;

private:
  struct Conn;
  struct ConnShared;
  struct Shard;

  /// One shard's event loop; true when its drain completed quietly
  /// (everything flushed), false on grace expiry or poll failure.
  bool shardLoop(Shard &S);
  void acceptPending(Shard &S);
  void adoptConn(Shard &S, int Fd);
  void adoptHandoffs(Shard &S, bool Draining);
  void refuseAtCap(Shard &S, int Fd);
  void handleReadable(Shard &S, Conn &C);
  void drainReadable(Shard &S, Conn &C);
  void processInput(Shard &S, Conn &C);
  void dispatchLine(Shard &S, Conn &C, const std::string &Line);
  void flushConn(Conn &C);
  void closeConn(Shard &S, Conn &C, const char *Why,
                 std::atomic<uint64_t> *Counter);
  int computePollTimeout(bool Draining,
                         std::chrono::steady_clock::time_point DrainBy);
  bool tryAcquireConnSlot();
  void logLine(const std::string &Line);
  JsonValue transportJson() const;

  Server &Srv;
  TcpServerOptions Opts;
  std::ostream &Log;
  std::mutex LogM; ///< Shards share the operational log stream.
  std::vector<std::unique_ptr<Shard>> Shards;
  bool UseReusePort = false;
  /// Wake-pipe write fds, immutable after start(): requestStop() runs
  /// in signal context and may only flag-store and write().
  std::vector<int> WakeWriteFds;
  std::atomic<bool> StopRequested{false};
  /// Remaining connection slots (global across shards). Acquired with
  /// a CAS loop at accept, released at close — the shed refusal stays
  /// deterministic no matter which shard fields the accept.
  std::atomic<int64_t> ConnSlots{0};
  std::atomic<uint64_t> NextConnId{1};
};

} // namespace jslice

#endif // JSLICE_NET_TCPSERVER_H
