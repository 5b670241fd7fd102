//===- tests/NetTest.cpp - TCP transport unit tests ------------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// The net layer, bottom up: HOST:PORT parsing, the bounded write
/// buffer against real sockets (short writes, EAGAIN, peer reset
/// mid-frame), the IPC frame reader's deadline under an EINTR storm,
/// the TcpServer's containment behaviours (malformed lines, oversized
/// lines, connection cap, idle timeout, read deadline, backpressure,
/// graceful drain), the retrying client, and the chaos proxy.
///
/// Everything binds 127.0.0.1 on ephemeral ports; no test depends on a
/// fixed port or an external process.
///
//===----------------------------------------------------------------------===//

#include "net/ChaosProxy.h"
#include "net/Client.h"
#include "net/Socket.h"
#include "net/StandbyTail.h"
#include "net/TcpServer.h"
#include "net/WriteBuffer.h"
#include "service/Ipc.h"
#include "service/Journal.h"
#include "service/Replication.h"
#include "service/Server.h"
#include "support/Pipe.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef JSLICE_HAVE_POSIX_PROCESS
#include <csignal>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace jslice;

namespace {

//===----------------------------------------------------------------------===//
// parseHostPort
//===----------------------------------------------------------------------===//

TEST(ParseHostPortTest, AcceptsHostColonPort) {
  std::string Host;
  uint16_t Port = 1;
  ASSERT_TRUE(parseHostPort("127.0.0.1:9000", Host, Port));
  EXPECT_EQ(Host, "127.0.0.1");
  EXPECT_EQ(Port, 9000);
  ASSERT_TRUE(parseHostPort("localhost:0", Host, Port));
  EXPECT_EQ(Host, "localhost");
  EXPECT_EQ(Port, 0);
  ASSERT_TRUE(parseHostPort("0.0.0.0:65535", Host, Port));
  EXPECT_EQ(Port, 65535);
}

TEST(ParseHostPortTest, RejectsMalformedSpecs) {
  std::string Host;
  uint16_t Port;
  EXPECT_FALSE(parseHostPort("", Host, Port));
  EXPECT_FALSE(parseHostPort("localhost", Host, Port));     // No colon.
  EXPECT_FALSE(parseHostPort(":9000", Host, Port));         // Empty host.
  EXPECT_FALSE(parseHostPort("host:", Host, Port));         // Empty port.
  EXPECT_FALSE(parseHostPort("host:abc", Host, Port));      // Not a number.
  EXPECT_FALSE(parseHostPort("host:-1", Host, Port));
  EXPECT_FALSE(parseHostPort("host:65536", Host, Port));    // Out of range.
  EXPECT_FALSE(parseHostPort("host:123456", Host, Port));   // Too long.
}

#ifdef JSLICE_HAVE_POSIX_PROCESS

//===----------------------------------------------------------------------===//
// WriteBuffer against real sockets
//===----------------------------------------------------------------------===//

/// A connected nonblocking socket pair with tiny kernel buffers, so a
/// few KiB of writes reliably hit EAGAIN.
struct TinySocketPair {
  int A = -1, B = -1;

  TinySocketPair() {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) == 0) {
      A = Fds[0];
      B = Fds[1];
      int Small = 1; // The kernel clamps up to its own minimum.
      ::setsockopt(A, SOL_SOCKET, SO_SNDBUF, &Small, sizeof(Small));
      ::setsockopt(B, SOL_SOCKET, SO_RCVBUF, &Small, sizeof(Small));
      setNonBlocking(A, true);
      setNonBlocking(B, true);
    }
  }
  ~TinySocketPair() {
    closeQuietly(A);
    closeQuietly(B);
  }
};

TEST(WriteBufferTest, AppendRefusesPastCapAndQueuesNothing) {
  WriteBuffer WB(/*CapBytes=*/10);
  EXPECT_TRUE(WB.appendLine("1234"));
  EXPECT_EQ(WB.pending(), 5u); // The newline counts against the cap.
  // Five bytes fit, but not with their newline: refused whole.
  EXPECT_FALSE(WB.appendLine("abcde"));
  EXPECT_EQ(WB.pending(), 5u);
  EXPECT_TRUE(WB.appendLine("6789"));
  EXPECT_EQ(WB.pending(), 10u);
  // One byte over the cap: refused whole, pending unchanged.
  EXPECT_FALSE(WB.appendLine(""));
  EXPECT_EQ(WB.pending(), 10u);
}

TEST(WriteBufferTest, FlushBlocksOnFullSocketThenDrains) {
  TinySocketPair P;
  ASSERT_GE(P.A, 0);

  // Far more than the shrunken kernel buffers hold.
  const std::string Line((1u << 20) - 1, 'x');
  const std::string Chunk = Line + "\n";
  WriteBuffer WB(/*CapBytes=*/0);
  ASSERT_TRUE(WB.appendLine(Line));

  // First flush makes partial progress (short write) and then blocks.
  ASSERT_EQ(WB.flush(P.A), WriteBuffer::FlushResult::Blocked);
  EXPECT_GT(WB.pending(), 0u);
  EXPECT_LT(WB.pending(), Chunk.size());

  // Drain reader and writer in lockstep until everything lands.
  std::string Received;
  char Buf[65536];
  for (int Spin = 0; Spin < 100000 && Received.size() < Chunk.size();
       ++Spin) {
    int64_t R = recvSome(P.B, Buf, sizeof(Buf));
    if (R > 0)
      Received.append(Buf, static_cast<size_t>(R));
    if (!WB.empty()) {
      WriteBuffer::FlushResult FR = WB.flush(P.A);
      ASSERT_NE(FR, WriteBuffer::FlushResult::PeerClosed);
    }
  }
  EXPECT_TRUE(WB.empty());
  EXPECT_EQ(Received, Chunk);

  // A drained buffer flushes to Drained trivially.
  EXPECT_EQ(WB.flush(P.A), WriteBuffer::FlushResult::Drained);
}

TEST(WriteBufferTest, FlushReportsPeerResetMidFrame) {
  TinySocketPair P;
  ASSERT_GE(P.A, 0);

  WriteBuffer WB(/*CapBytes=*/0);
  ASSERT_TRUE(WB.appendLine(std::string(1u << 20, 'y')));
  ASSERT_EQ(WB.flush(P.A), WriteBuffer::FlushResult::Blocked);

  // The peer dies mid-frame with unread data: the next flushes surface
  // PeerClosed (first write may still fit in the kernel buffer).
  closeQuietly(P.B);
  WriteBuffer::FlushResult FR = WriteBuffer::FlushResult::Drained;
  for (int Spin = 0; Spin < 1000; ++Spin) {
    FR = WB.flush(P.A);
    if (FR == WriteBuffer::FlushResult::PeerClosed)
      break;
  }
  EXPECT_EQ(FR, WriteBuffer::FlushResult::PeerClosed);
}

//===----------------------------------------------------------------------===//
// Frame-read deadlines under EINTR
//===----------------------------------------------------------------------===//

extern "C" void netTestSigusr1(int) {} // Interrupt syscalls, do nothing.

/// Pelts \p Target with SIGUSR1 (installed without SA_RESTART, so every
/// blocking syscall in the target keeps getting interrupted) until told
/// to stop — or until \p AutoStopMs passes, for tests whose subject
/// would never return under a perpetual storm (a hung subject then
/// shows up as a slow failure instead of a wedged test binary).
struct EintrStorm {
  pthread_t Target;
  std::atomic<bool> Stop{false};
  std::thread Pelter;

  explicit EintrStorm(pthread_t TargetThread, uint64_t AutoStopMs = 0)
      : Target(TargetThread) {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = netTestSigusr1; // Deliberately no SA_RESTART.
    ::sigaction(SIGUSR1, &SA, nullptr);
    Pelter = std::thread([this, AutoStopMs] {
      auto Start = std::chrono::steady_clock::now();
      while (!Stop.load(std::memory_order_relaxed)) {
        if (AutoStopMs &&
            std::chrono::steady_clock::now() - Start >
                std::chrono::milliseconds(AutoStopMs))
          break;
        ::pthread_kill(Target, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  ~EintrStorm() {
    Stop.store(true, std::memory_order_relaxed);
    Pelter.join();
  }
};

TEST(FrameDeadlineTest, ReadFrameTimesOutUnderEintrStorm) {
  Pipe P;
  ASSERT_TRUE(P.make());

  EintrStorm Storm(::pthread_self());
  auto Start = std::chrono::steady_clock::now();
  std::string Payload;
  FrameReadStatus S = readFrame(P.ReadFd, Payload, /*TimeoutMs=*/150);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  // The storm interrupts poll() every ~200us; a naive retry that
  // restarts the full timeout after each EINTR would never return.
  EXPECT_EQ(S, FrameReadStatus::Timeout);
  EXPECT_GE(ElapsedMs, 100);
  EXPECT_LT(ElapsedMs, 5000);
}

TEST(FrameDeadlineTest, ReadFrameCompletesTrickledFrameUnderEintrStorm) {
  Pipe P;
  ASSERT_TRUE(P.make());

  EintrStorm Storm(::pthread_self());

  // A writer trickling one frame byte-by-byte: short reads and EINTR
  // interleave, and the deadline covers the whole frame.
  const std::string Payload = "{\"probe\":true}";
  std::string Frame;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  Frame.append(reinterpret_cast<const char *>(&Len), 4);
  Frame.append(Payload);
  std::thread Trickler([&] {
    for (char C : Frame) {
      writeFull(P.WriteFd, &C, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::string Got;
  FrameReadStatus S = readFrame(P.ReadFd, Got, /*TimeoutMs=*/10000);
  Trickler.join();
  EXPECT_EQ(S, FrameReadStatus::Ok);
  EXPECT_EQ(Got, Payload);
}

TEST(FrameDeadlineTest, PollReadableHonorsDeadlineUnderEintrStorm) {
  Pipe P;
  ASSERT_TRUE(P.make());

  EintrStorm Storm(::pthread_self());
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(pollReadable(P.ReadFd, 120), 0);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_GE(ElapsedMs, 80);
  EXPECT_LT(ElapsedMs, 5000);
}

//===----------------------------------------------------------------------===//
// connectTcp deadlines and SO_REUSEPORT listeners
//===----------------------------------------------------------------------===//

/// A nonblocking connect left in flight (EINPROGRESS), never completed
/// by the caller; used to stuff a listener's accept queue.
int rawAsyncConnect(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  setNonBlocking(Fd, true);
  sockaddr_in A;
  std::memset(&A, 0, sizeof(A));
  A.sin_family = AF_INET;
  A.sin_port = htons(Port);
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A));
  return Fd;
}

TEST(SocketTest, ConnectTimeoutHoldsUnderEintrStorm) {
  // A tiny-backlog listener that never accepts: once its queue fills,
  // further SYNs are dropped and the next connect genuinely pends in
  // poll() — exactly where the old code restarted the *full* timeout
  // after every EINTR, so a steady signal storm pushed the deadline
  // out forever.
  std::string Err;
  int ListenFd = listenTcp("127.0.0.1", 0, /*Backlog=*/1, Err);
  ASSERT_GE(ListenFd, 0) << Err;
  uint16_t Port = tcpLocalPort(ListenFd);

  std::vector<int> Fillers;
  for (int I = 0; I < 6; ++I)
    Fillers.push_back(rawAsyncConnect(Port));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The storm interrupts poll() every ~200us — far more often than the
  // 250ms budget — and auto-stops after 3s so a deadline regression
  // fails the elapsed-time assertion instead of hanging the binary.
  EintrStorm Storm(::pthread_self(), /*AutoStopMs=*/3000);
  auto Start = std::chrono::steady_clock::now();
  int Fd = connectTcp("127.0.0.1", Port, /*TimeoutMs=*/250, Err);
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  EXPECT_LT(Fd, 0);
  EXPECT_EQ(Err, "connect timed out");
  EXPECT_GE(ElapsedMs, 200);
  EXPECT_LT(ElapsedMs, 2500);

  if (Fd >= 0)
    closeQuietly(Fd);
  for (int F : Fillers)
    closeQuietly(F);
  closeQuietly(ListenFd);
}

TEST(SocketTest, ListenTcpReusePortAllowsSecondListener) {
  std::string Err;
  int A = listenTcp("127.0.0.1", 0, 8, Err, /*ReusePort=*/true);
#ifndef SO_REUSEPORT
  EXPECT_LT(A, 0);
  GTEST_SKIP() << "SO_REUSEPORT unavailable: " << Err;
#endif
  ASSERT_GE(A, 0) << Err;
  uint16_t Port = tcpLocalPort(A);

  // A second REUSEPORT listener shares the port; a plain listener is
  // still refused (the flag must be deliberate on every socket).
  int B = listenTcp("127.0.0.1", Port, 8, Err, /*ReusePort=*/true);
  EXPECT_GE(B, 0) << Err;
  int C = listenTcp("127.0.0.1", Port, 8, Err, /*ReusePort=*/false);
  EXPECT_LT(C, 0);

  closeQuietly(A);
  closeQuietly(B);
  closeQuietly(C);
}

//===----------------------------------------------------------------------===//
// storeMaxRelaxed under contention
//===----------------------------------------------------------------------===//

TEST(StoreMaxTest, ConcurrentWritersNeverLoseTheMaximum) {
  // The load-then-store idiom this replaces loses exactly one race: a
  // writer that loaded a stale mark clobbers a larger value another
  // thread published in between — and every later update that is
  // *smaller* than the lost maximum then leaves the damage in place
  // forever. Stage that race over and over: a ramp thread publishes
  // ascending small values while this thread drops the true maximum
  // somewhere in the middle of the ramp; whatever interleaving the
  // scheduler picks, the mark must still read the maximum afterwards.
  const uint64_t Huge = uint64_t(1) << 30;
  const uint64_t Ramp = 200000; // All far below Huge.
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::atomic<uint64_t> Mark{0};
    std::atomic<bool> Go{false};
    std::thread Ramper([&] {
      Go.store(true, std::memory_order_relaxed);
      for (uint64_t I = 1; I <= Ramp; ++I)
        storeMaxRelaxed(Mark, I);
    });
    while (!Go.load(std::memory_order_relaxed))
      std::this_thread::yield();
    storeMaxRelaxed(Mark, Huge);
    Ramper.join();
    ASSERT_EQ(Mark.load(), Huge) << "lost the maximum on trial " << Trial;
  }
}

//===----------------------------------------------------------------------===//
// TcpServer end to end
//===----------------------------------------------------------------------===//

const char *TinyProgram = "read(a);\nwrite(a);\n";

/// One live server on an ephemeral port: Server + TcpServer + the loop
/// thread, torn down in order on destruction.
struct LiveServer {
  std::ostringstream Unused, Log;
  Server S;
  TcpServer T;
  std::thread Loop;
  bool Started = false;

  explicit LiveServer(const TcpServerOptions &TOpts,
                      ServerOptions SOpts = ServerOptions())
      : S((SOpts.Threads = SOpts.Threads ? SOpts.Threads : 2, SOpts),
          Unused, Log),
        T(S, TOpts, Log) {
    std::string Err;
    Started = T.start(Err);
    EXPECT_TRUE(Started) << Err;
    if (Started)
      Loop = std::thread([this] { T.run(); });
  }
  ~LiveServer() {
    if (Started) {
      T.requestStop();
      Loop.join();
    }
    S.finish();
  }
  uint16_t port() const { return T.port(); }
};

/// A raw blocking client socket speaking newline-framed JSON, with a
/// poll deadline on reads so a hung test fails instead of wedging.
struct RawClient {
  int Fd = -1;
  std::string Buf;

  explicit RawClient(uint16_t Port) {
    std::string Err;
    Fd = connectTcp("127.0.0.1", Port, 2000, Err);
  }
  ~RawClient() { closeQuietly(Fd); }

  bool sendAll(const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      int64_t W = sendSome(Fd, Data.data() + Off, Data.size() - Off);
      if (W < 0)
        return false;
      Off += static_cast<size_t>(W);
    }
    return true;
  }

  /// One line (without newline), or nullopt on timeout/EOF/error.
  std::optional<std::string> readLine(int TimeoutMs = 5000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      size_t NL = Buf.find('\n');
      if (NL != std::string::npos) {
        std::string Line = Buf.substr(0, NL);
        Buf.erase(0, NL + 1);
        return Line;
      }
      int Left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Deadline - std::chrono::steady_clock::now())
              .count());
      if (Left <= 0 || pollReadable(Fd, Left) != 1)
        return std::nullopt;
      char Tmp[4096];
      int64_t R = recvSome(Fd, Tmp, sizeof(Tmp));
      if (R <= 0)
        return std::nullopt;
      Buf.append(Tmp, static_cast<size_t>(R));
    }
  }

  /// Abort the connection: SO_LINGER zero makes close() send RST, so
  /// the server sees POLLERR|POLLHUP (reported even with no events
  /// requested) rather than an orderly FIN.
  void hardReset() {
    if (Fd < 0)
      return;
    struct linger Lg;
    Lg.l_onoff = 1;
    Lg.l_linger = 0;
    ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &Lg, sizeof(Lg));
    closeQuietly(Fd);
    Fd = -1;
  }

  /// True when the server closed the connection (EOF) within the
  /// deadline; false on timeout.
  bool waitForClose(int TimeoutMs = 5000) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(TimeoutMs);
    for (;;) {
      int Left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              Deadline - std::chrono::steady_clock::now())
              .count());
      if (Left <= 0 || pollReadable(Fd, Left) != 1)
        return false;
      char Tmp[4096];
      int64_t R = recvSome(Fd, Tmp, sizeof(Tmp));
      if (R == 0)
        return true; // EOF.
      if (R < 0 && R != NetWouldBlock)
        return true; // Reset counts as closed too.
    }
  }
};

/// Polls \p Probe (a counter getter) until it returns \p Want or ~5s
/// pass; returns the last value seen. The peer observes a close the
/// instant the loop thread issues it, a breath before the loop's own
/// accounting is globally visible — assertions on close causes must
/// wait, not snapshot.
uint64_t waitForCount(const std::function<uint64_t()> &Probe,
                      uint64_t Want) {
  uint64_t Got = Probe();
  for (int Spin = 0; Spin < 5000 && Got != Want; ++Spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Got = Probe();
  }
  return Got;
}

std::string sliceRequest(const std::string &Id) {
  JsonValue V = JsonValue::object();
  V.set("id", Id);
  V.set("program", std::string(TinyProgram));
  V.set("line", 2);
  V.set("var", std::string("a"));
  return V.str() + "\n";
}

TEST(TcpServerTest, ServesSliceAndStatsOverOneConnection) {
  LiveServer L({});
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);
  ASSERT_TRUE(C.sendAll(sliceRequest("t1")));
  std::optional<std::string> Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos) << *Line;
  EXPECT_NE(Line->find("\"id\":\"t1\""), std::string::npos) << *Line;

  // The same connection serves the stats control line, and the stats
  // carry the transport section this very connection shows up in.
  ASSERT_TRUE(C.sendAll("{\"stats\": true}\n"));
  Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"transport\":"), std::string::npos) << *Line;
  EXPECT_NE(Line->find("\"accepted\":1"), std::string::npos) << *Line;
}

TEST(TcpServerTest, MalformedLineIsContainedToItsConnection) {
  LiveServer L({});
  ASSERT_TRUE(L.Started);

  RawClient Bad(L.port()), Good(L.port());
  ASSERT_GE(Bad.Fd, 0);
  ASSERT_GE(Good.Fd, 0);

  ASSERT_TRUE(Bad.sendAll("{this is not json\n"));
  std::optional<std::string> Line = Bad.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"bad-request\""), std::string::npos);

  // The bad line poisoned nothing: its own connection still serves,
  // and so does an unrelated one.
  ASSERT_TRUE(Bad.sendAll(sliceRequest("after-bad")));
  Line = Bad.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos);

  ASSERT_TRUE(Good.sendAll(sliceRequest("bystander")));
  Line = Good.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos);
}

TEST(TcpServerTest, OversizedLineIsRefusedAndRemainderDiscarded) {
  ServerOptions SOpts;
  SOpts.MaxLineBytes = 1024; // Shared stdin/TCP line cap, shrunk.
  LiveServer L({}, SOpts);
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);

  // 8 KiB of newline-free garbage, then a newline, then a real request.
  ASSERT_TRUE(C.sendAll(std::string(8192, 'z') + "\n"));
  std::optional<std::string> Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"shed\""), std::string::npos) << *Line;
  EXPECT_NE(Line->find("line exceeds"), std::string::npos) << *Line;

  // Exactly one refusal for the one oversized line, and the connection
  // survives to serve the next request.
  ASSERT_TRUE(C.sendAll(sliceRequest("after-oversize")));
  Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"id\":\"after-oversize\""), std::string::npos);
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos);
}

TEST(TcpServerTest, DiscardingDoesNotBufferANewlineFreeFlood) {
  ServerOptions SOpts;
  SOpts.MaxLineBytes = 1024;
  LiveServer L({}, SOpts);
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);

  // Trip the cap with newline-free garbage: the refusal arrives while
  // the oversized line is still unterminated.
  ASSERT_TRUE(C.sendAll(std::string(4096, 'z')));
  std::optional<std::string> Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"shed\""), std::string::npos) << *Line;
  EXPECT_NE(Line->find("line exceeds"), std::string::npos) << *Line;

  // Keep streaming, still with no newline — 8 MiB, far past the cap.
  // The server must swallow it without retaining anything: if the
  // discard path buffered, the high-water mark would hit megabytes.
  const std::string Chunk(1u << 20, 'z');
  for (int I = 0; I < 8; ++I)
    ASSERT_TRUE(C.sendAll(Chunk));

  // Ending the flood with a newline reopens the connection for a real
  // request — this also synchronizes: once the response is back, the
  // loop has processed every flooded byte.
  ASSERT_TRUE(C.sendAll("\n"));
  ASSERT_TRUE(C.sendAll(sliceRequest("after-flood")));
  Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"id\":\"after-flood\""), std::string::npos);
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos);

  TransportStats S = L.T.stats();
  EXPECT_EQ(S.OversizedLines, 1u); // One line, one refusal — no spam.
  // Retention never exceeded one read chunk (64 KiB) + the cap: the
  // flood was dropped on arrival, not accumulated until its newline.
  EXPECT_LE(S.InBufHighWaterBytes, (64u << 10) + 1024u);
}

TEST(TcpServerTest, EveryLineCapRefusalIsCounted) {
  ServerOptions SOpts;
  SOpts.MaxLineBytes = 1024;
  LiveServer L({}, SOpts);
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);
  // Short enough to arrive in one read, newline included: the line is
  // refused complete rather than while streaming, and counted the same.
  ASSERT_TRUE(C.sendAll(std::string(2000, 'z') + "\n"));
  std::optional<std::string> Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("line exceeds"), std::string::npos) << *Line;
  EXPECT_EQ(L.T.stats().OversizedLines, 1u);
}

TEST(TcpServerTest, ConnectionCapShedsTheExtraConnection) {
  TcpServerOptions TOpts;
  TOpts.MaxConnections = 1;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  RawClient First(L.port());
  ASSERT_GE(First.Fd, 0);
  // Prove the first connection is established server-side before the
  // second arrives (accept order is the kernel's otherwise).
  ASSERT_TRUE(First.sendAll(sliceRequest("holder")));
  ASSERT_TRUE(First.readLine().has_value());

  RawClient Second(L.port());
  ASSERT_GE(Second.Fd, 0);
  std::optional<std::string> Line = Second.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"shed\""), std::string::npos) << *Line;
  EXPECT_NE(Line->find("connection limit"), std::string::npos) << *Line;
  EXPECT_TRUE(Second.waitForClose());

  // The held connection is unaffected.
  ASSERT_TRUE(First.sendAll(sliceRequest("still-here")));
  ASSERT_TRUE(First.readLine().has_value());
}

TEST(TcpServerTest, IdleConnectionIsClosed) {
  TcpServerOptions TOpts;
  TOpts.IdleTimeoutMs = 100;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);
  EXPECT_TRUE(C.waitForClose(5000));
  EXPECT_EQ(waitForCount([&] { return L.T.stats().IdleClosed; }, 1), 1u);
}

TEST(TcpServerTest, SlowlorisPartialLineHitsReadDeadline) {
  TcpServerOptions TOpts;
  TOpts.ReadDeadlineMs = 100;
  TOpts.IdleTimeoutMs = 0; // Isolate the deadline from the idle sweep.
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);
  // A request that never finishes its line.
  ASSERT_TRUE(C.sendAll("{\"id\": \"slow"));
  EXPECT_TRUE(C.waitForClose(5000));
  EXPECT_EQ(waitForCount([&] { return L.T.stats().DeadlineClosed; }, 1),
            1u);
}

TEST(TcpServerTest, StalledReaderIsDisconnectedOnBackpressure) {
  TcpServerOptions TOpts;
  TOpts.MaxWriteBufferBytes = 4096; // Overflow with a handful of lines.
  TOpts.SendBufferBytes = 1;        // Kernel clamps to its minimum.
  TOpts.IdleTimeoutMs = 0;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);
  // Many stats lines (each response ~1 KiB) and never read a byte:
  // kernel buffer fills, then the bounded write buffer overflows, and
  // the server disconnects us rather than buffer without bound.
  std::string Burst;
  for (int I = 0; I < 400; ++I)
    Burst += "{\"stats\": true}\n";
  C.sendAll(Burst); // Send may itself fail once the server closes.
  EXPECT_TRUE(C.waitForClose(10000));
  EXPECT_EQ(
      waitForCount([&] { return L.T.stats().BackpressureClosed; }, 1), 1u)
      << L.T.stats().toJson().str();
}

TEST(TcpServerTest, GracefulDrainFlushesInFlightResponses) {
  LiveServer L({});
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);
  ASSERT_TRUE(C.sendAll(sliceRequest("drain-1")));
  // Drain flushes *in-flight* responses; a line still in the kernel
  // buffer at stop time is legitimately dropped. Make the request
  // in-flight first, then stop.
  for (int Spin = 0; Spin < 1000 && L.T.stats().LinesDispatched == 0;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(L.T.stats().LinesDispatched, 1u);
  L.T.requestStop();

  // The response for the in-flight request still arrives, then EOF.
  std::optional<std::string> Line = C.readLine(10000);
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"id\":\"drain-1\""), std::string::npos);
  EXPECT_TRUE(C.waitForClose(10000));

  L.Loop.join();
  L.Started = false;
  L.S.finish();
}

TEST(TcpServerTest, DrainNeverDispatchesRequestsArrivingAfterStop) {
  // The old reactor stopped *polling* for reads during drain but still
  // called the read path whenever POLLHUP|POLLERR showed up — which the
  // kernel reports even with no events requested — so a peer that sent
  // one last request and reset its connection got that request parsed,
  // dispatched, and executed mid-drain. Now drain reads only to detect
  // EOF/reset: the bytes are counted and dropped, never dispatched.
  TcpServerOptions TOpts;
  TOpts.Shards = 1;
  TOpts.IdleTimeoutMs = 0;
  TOpts.SendBufferBytes = 1; // Kernel clamps to its minimum.
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  // A holder that floods stats requests and never reads a byte: its
  // responses overflow the shrunken kernel buffer into the transport's
  // write buffer, so the drain stays open (nothing idle-closes it —
  // IdleTimeoutMs is off) until this test releases it.
  RawClient Holder(L.port());
  ASSERT_GE(Holder.Fd, 0);
  std::string Burst;
  for (int I = 0; I < 120; ++I)
    Burst += "{\"stats\": true}\n";
  ASSERT_TRUE(Holder.sendAll(Burst));
  ASSERT_EQ(
      waitForCount([&] { return L.T.stats().ResponsesDelivered; }, 120),
      120u);

  // A second connection, established and served before the stop.
  RawClient B(L.port());
  ASSERT_GE(B.Fd, 0);
  ASSERT_TRUE(B.sendAll(sliceRequest("pre-drain")));
  ASSERT_TRUE(B.readLine().has_value());
  const uint64_t Before = L.T.stats().LinesDispatched;

  L.T.requestStop();
  // Gate: the drain has begun once the listener stops answering.
  for (int Spin = 0; Spin < 5000; ++Spin) {
    std::string CErr;
    int Probe = connectTcp("127.0.0.1", L.port(), 250, CErr);
    if (Probe < 0)
      break;
    closeQuietly(Probe);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // B sends a NEW request mid-drain and aborts. The request bytes land
  // before the RST; pre-fix they were dispatched off the POLLHUP|POLLERR
  // wakeup.
  ASSERT_TRUE(B.sendAll(sliceRequest("mid-drain")));
  B.hardReset();

  EXPECT_EQ(waitForCount(
                [&] { return L.T.stats().DrainDiscardedBytes > 0 ? 1u : 0u; },
                1),
            1u);
  EXPECT_EQ(L.T.stats().LinesDispatched, Before);

  // Release the holder so the drain can finish.
  closeQuietly(Holder.Fd);
  Holder.Fd = -1;
  L.Loop.join();
  L.Started = false;
  L.S.finish();
  EXPECT_NE(L.Log.str().find("TCP drain complete"), std::string::npos)
      << L.Log.str();
}

//===----------------------------------------------------------------------===//
// Sharded transport
//===----------------------------------------------------------------------===//

TEST(ShardedTcpServerTest, HandoffPinsConnectionsRoundRobinAndStatsMerge) {
  TcpServerOptions TOpts;
  TOpts.Shards = 2;
  TOpts.AcceptMode = TcpAcceptMode::Handoff;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);
  EXPECT_EQ(L.T.shardCount(), 2u);
  EXPECT_FALSE(L.T.usesReusePort());

  // Serial connect+request+response keeps the accept order (and so the
  // round-robin placement) deterministic.
  std::vector<std::unique_ptr<RawClient>> Cs;
  for (int I = 0; I < 6; ++I) {
    Cs.push_back(std::make_unique<RawClient>(L.port()));
    ASSERT_GE(Cs.back()->Fd, 0);
    ASSERT_TRUE(Cs.back()->sendAll(sliceRequest("h" + std::to_string(I))));
    ASSERT_TRUE(Cs.back()->readLine().has_value());
  }

  EXPECT_EQ(waitForCount([&] { return L.T.stats().Accepted; }, 6), 6u);
  EXPECT_EQ(L.T.shardStats(0).Accepted, 3u);
  EXPECT_EQ(L.T.shardStats(1).Accepted, 3u);

  // The merged view is the per-shard sum (max for the high-water mark).
  TransportStats M = L.T.stats();
  uint64_t SumAccepted = 0, SumDispatched = 0, SumDelivered = 0,
           MaxHighWater = 0;
  for (unsigned I = 0; I < L.T.shardCount(); ++I) {
    TransportStats S = L.T.shardStats(I);
    SumAccepted += S.Accepted;
    SumDispatched += S.LinesDispatched;
    SumDelivered += S.ResponsesDelivered;
    if (S.InBufHighWaterBytes > MaxHighWater)
      MaxHighWater = S.InBufHighWaterBytes;
  }
  EXPECT_EQ(M.Accepted, SumAccepted);
  EXPECT_EQ(M.LinesDispatched, SumDispatched);
  EXPECT_EQ(M.ResponsesDelivered, SumDelivered);
  EXPECT_EQ(M.InBufHighWaterBytes, MaxHighWater);
}

TEST(ShardedTcpServerTest, ReusePortShardsServeAndMergeStats) {
  TcpServerOptions TOpts;
  TOpts.Shards = 2;
  TOpts.AcceptMode = TcpAcceptMode::ReusePort;
  std::ostringstream Unused, Log;
  ServerOptions SOpts;
  SOpts.Threads = 2;
  Server S(SOpts, Unused, Log);
  TcpServer T(S, TOpts, Log);
  std::string Err;
  if (!T.start(Err)) {
    S.finish();
    GTEST_SKIP() << "SO_REUSEPORT unavailable: " << Err;
  }
  EXPECT_TRUE(T.usesReusePort());
  EXPECT_EQ(T.shardCount(), 2u);
  std::thread Loop([&] { T.run(); });

  // The kernel decides placement; assert service and merged accounting,
  // not distribution.
  for (int I = 0; I < 6; ++I) {
    RawClient C(T.port());
    ASSERT_GE(C.Fd, 0);
    ASSERT_TRUE(C.sendAll(sliceRequest("r" + std::to_string(I))));
    std::optional<std::string> Line = C.readLine();
    ASSERT_TRUE(Line.has_value());
    EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos);
  }
  EXPECT_EQ(waitForCount([&] { return T.stats().Accepted; }, 6), 6u);
  uint64_t SumAccepted = 0;
  for (unsigned I = 0; I < T.shardCount(); ++I)
    SumAccepted += T.shardStats(I).Accepted;
  EXPECT_EQ(SumAccepted, 6u);

  T.requestStop();
  Loop.join();
  S.finish();
}

TEST(ShardedTcpServerTest, SlowPeerOnOneShardDoesNotDisturbAnother) {
  TcpServerOptions TOpts;
  TOpts.Shards = 2;
  TOpts.AcceptMode = TcpAcceptMode::Handoff;
  TOpts.ReadDeadlineMs = 150;
  TOpts.IdleTimeoutMs = 0;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  RawClient A(L.port()); // First accept: shard 0.
  ASSERT_GE(A.Fd, 0);
  ASSERT_TRUE(A.sendAll(sliceRequest("a0")));
  ASSERT_TRUE(A.readLine().has_value());
  RawClient B(L.port()); // Second accept: shard 1.
  ASSERT_GE(B.Fd, 0);
  ASSERT_TRUE(B.sendAll(sliceRequest("b0")));
  ASSERT_TRUE(B.readLine().has_value());

  // A turns slowloris: a line that never completes. Its *own* shard
  // applies the read deadline; B's shard never notices.
  ASSERT_TRUE(A.sendAll("{\"id\": \"sl"));
  EXPECT_TRUE(A.waitForClose(5000));
  EXPECT_EQ(
      waitForCount([&] { return L.T.shardStats(0).DeadlineClosed; }, 1),
      1u);
  EXPECT_EQ(L.T.shardStats(1).DeadlineClosed, 0u);

  ASSERT_TRUE(B.sendAll(sliceRequest("b1")));
  std::optional<std::string> Line = B.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos);
}

TEST(InlineHitTcpTest, ConcurrentInlineHitsRaceEvictionsOnFourShards) {
  // Four shards answer warm hits on their own threads while pool
  // threads build misses and a two-entry cache evicts under them: one
  // hot program stays resident, five cold ones churn through the rest.
  TcpServerOptions TOpts;
  TOpts.Shards = 4;
  TOpts.AcceptMode = TcpAcceptMode::Handoff; // Round-robin: all shards.
  ServerOptions SOpts;
  SOpts.Threads = 2;
  SOpts.Cache.MaxEntries = 2;
  LiveServer L(TOpts, SOpts);
  ASSERT_TRUE(L.Started);

  const SliceAlgorithm Algos[] = {SliceAlgorithm::Agrawal,
                                  SliceAlgorithm::BallHorwitz,
                                  SliceAlgorithm::Lyle};
  const unsigned Clients = 8, PerClient = 120;
  std::atomic<unsigned> Ok{0}, Wrong{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      RawClient C(L.port());
      if (C.Fd < 0)
        return;
      std::string Batch;
      for (unsigned J = 0; J != PerClient; ++J) {
        unsigned Prog = J % 2 ? 0 : 1 + (J / 2 + T) % 5;
        ServiceRequest R;
        R.Id = "t" + std::to_string(T) + "-" + std::to_string(J);
        R.Program = "read(a);\nb = a + " + std::to_string(Prog) +
                    ";\nwrite(b);\n";
        R.Line = 3;
        R.Vars = {"b"};
        R.Algorithm = Algos[J % 3];
        Batch += R.toJson().str() + "\n";
      }
      if (!C.sendAll(Batch))
        return;
      for (unsigned J = 0; J != PerClient; ++J) {
        std::optional<std::string> Line = C.readLine(20000);
        if (!Line)
          return;
        bool Good = Line->find("\"status\":\"ok\"") != std::string::npos &&
                    Line->find("\"lines\":[1,2,3]") != std::string::npos;
        (Good ? Ok : Wrong).fetch_add(1);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Ok.load(), Clients * PerClient);
  EXPECT_EQ(Wrong.load(), 0u);
  for (unsigned I = 0; I != 4; ++I)
    EXPECT_EQ(L.T.shardStats(I).Accepted, 2u) << "shard " << I;
  ServerStats St = L.S.stats();
  EXPECT_GT(St.ServedInline, 0u);
  EXPECT_GT(St.Cache.Evictions, 0u);
  EXPECT_EQ(St.Cache.Hits + St.Cache.Misses, uint64_t(Clients) * PerClient);
}

TEST(ShardedTcpServerTest, ConnectionBudgetIsGlobalAcrossShards) {
  TcpServerOptions TOpts;
  TOpts.Shards = 2;
  TOpts.AcceptMode = TcpAcceptMode::Handoff;
  TOpts.MaxConnections = 2;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  // Two connections land on two different shards and exhaust the
  // *global* budget — a per-shard cap of 2 would admit four.
  RawClient C1(L.port()), C2(L.port());
  ASSERT_GE(C1.Fd, 0);
  ASSERT_GE(C2.Fd, 0);
  ASSERT_TRUE(C1.sendAll(sliceRequest("c1")));
  ASSERT_TRUE(C1.readLine().has_value());
  ASSERT_TRUE(C2.sendAll(sliceRequest("c2")));
  ASSERT_TRUE(C2.readLine().has_value());
  EXPECT_EQ(L.T.shardStats(0).Accepted, 1u);
  EXPECT_EQ(L.T.shardStats(1).Accepted, 1u);

  RawClient C3(L.port());
  ASSERT_GE(C3.Fd, 0);
  std::optional<std::string> Line = C3.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"shed\""), std::string::npos) << *Line;
  EXPECT_NE(Line->find("connection limit"), std::string::npos) << *Line;
  EXPECT_TRUE(C3.waitForClose());
  EXPECT_EQ(L.T.stats().RefusedAtCap, 1u);

  // Closing one admitted connection releases its slot to *any* shard.
  closeQuietly(C2.Fd);
  C2.Fd = -1;
  EXPECT_EQ(waitForCount([&] { return L.T.stats().Active; }, 1), 1u);
  RawClient C4(L.port());
  ASSERT_GE(C4.Fd, 0);
  ASSERT_TRUE(C4.sendAll(sliceRequest("c4")));
  Line = C4.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos) << *Line;
}

TEST(ShardedTcpServerTest, DrainCoordinatesAcrossAllShards) {
  TcpServerOptions TOpts;
  TOpts.Shards = 3;
  TOpts.AcceptMode = TcpAcceptMode::Handoff;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  // One served connection per shard (round-robin), then stop: every
  // shard must flush and close its own connection, and run() returns
  // only after all three report a quiet drain.
  RawClient C0(L.port()), C1(L.port()), C2(L.port());
  for (RawClient *C : {&C0, &C1, &C2}) {
    ASSERT_GE(C->Fd, 0);
    ASSERT_TRUE(C->sendAll(sliceRequest("d")));
    ASSERT_TRUE(C->readLine().has_value());
  }
  EXPECT_EQ(L.T.shardStats(0).Accepted, 1u);
  EXPECT_EQ(L.T.shardStats(1).Accepted, 1u);
  EXPECT_EQ(L.T.shardStats(2).Accepted, 1u);

  L.T.requestStop();
  EXPECT_TRUE(C0.waitForClose(10000));
  EXPECT_TRUE(C1.waitForClose(10000));
  EXPECT_TRUE(C2.waitForClose(10000));
  L.Loop.join();
  L.Started = false;
  L.S.finish();
  EXPECT_NE(L.Log.str().find("TCP drain complete across 3 shards"),
            std::string::npos)
      << L.Log.str();
}

//===----------------------------------------------------------------------===//
// ClientConnection retries
//===----------------------------------------------------------------------===//

/// A loopback port that refuses every connect for as long as this
/// object lives: the socket is bound but never listens. Closing a
/// listener instead would free the port, and a parallel test could
/// take it and answer. Bound without SO_REUSEADDR, so no other socket
/// can bind the port, and the kernel never hands an explicitly bound
/// port to an outgoing connect.
class DeadPort {
public:
  DeadPort() {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    A.sin_port = 0;
    if (Fd >= 0 &&
        ::bind(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0)
      Port = tcpLocalPort(Fd);
  }
  ~DeadPort() { closeQuietly(Fd); }
  DeadPort(const DeadPort &) = delete;
  DeadPort &operator=(const DeadPort &) = delete;

  /// The refusing port; 0 when the bind failed.
  uint16_t port() const { return Port; }

private:
  int Fd = -1;
  uint16_t Port = 0;
};

TEST(ClientTest, RetriesPastConnectionsDroppedBeforeResponding) {
  // A hand-rolled flaky endpoint: kills the first two connections
  // without answering, then answers the third properly.
  std::string Err;
  int ListenFd = listenTcp("127.0.0.1", 0, 8, Err);
  ASSERT_GE(ListenFd, 0) << Err;
  uint16_t Port = tcpLocalPort(ListenFd);

  std::thread Flaky([&] {
    for (int ConnNo = 0; ConnNo < 3; ++ConnNo) {
      int Fd = -1;
      while (Fd < 0) {
        if (pollReadable(ListenFd, 5000) != 1)
          return;
        Fd = acceptTcp(ListenFd);
      }
      if (ConnNo < 2) {
        closeQuietly(Fd); // Drop without a byte: torn response.
        continue;
      }
      // Read one line, answer one line.
      std::string In;
      char Tmp[4096];
      while (In.find('\n') == std::string::npos) {
        if (pollReadable(Fd, 5000) != 1)
          break;
        int64_t R = recvSome(Fd, Tmp, sizeof(Tmp));
        if (R <= 0)
          break;
        In.append(Tmp, static_cast<size_t>(R));
      }
      setNonBlocking(Fd, false);
      const char *Reply = "{\"status\":\"ok\"}\n";
      sendSome(Fd, Reply, std::strlen(Reply));
      closeQuietly(Fd);
    }
  });

  ClientOptions COpts;
  COpts.Port = Port;
  COpts.MaxAttempts = 4;
  COpts.BackoffBaseMs = 1;
  COpts.BackoffCapMs = 5;
  COpts.JitterSeed = 7;
  ClientConnection CC(COpts);
  ClientResult R = CC.request("{\"probe\":1}");
  Flaky.join();
  closeQuietly(ListenFd);

  EXPECT_TRUE(R.Ok) << R.TransportError;
  EXPECT_EQ(R.Response, "{\"status\":\"ok\"}");
  EXPECT_EQ(R.Attempts, 3u);
}

TEST(ClientTest, BoundedRetriesReportTransportFailure) {
  // Nothing listens here, so connects are refused deterministically.
  DeadPort Dead;
  ASSERT_NE(Dead.port(), 0);

  ClientOptions COpts;
  COpts.Port = Dead.port();
  COpts.MaxAttempts = 3;
  COpts.ConnectTimeoutMs = 500;
  COpts.BackoffBaseMs = 1;
  COpts.BackoffCapMs = 2;
  COpts.JitterSeed = 7;
  ClientConnection CC(COpts);
  ClientResult R = CC.request("{\"probe\":1}");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Attempts, 3u);
  EXPECT_FALSE(R.TransportError.empty());
}

TEST(ClientTest, EndToEndAgainstLiveServer) {
  LiveServer L({});
  ASSERT_TRUE(L.Started);

  ClientOptions COpts;
  COpts.Port = L.port();
  COpts.JitterSeed = 7;
  ClientConnection CC(COpts);
  ClientResult R = CC.request(sliceRequest("cli-1").substr(
      0, sliceRequest("cli-1").size() - 1)); // request() appends \n.
  ASSERT_TRUE(R.Ok) << R.TransportError;
  EXPECT_NE(R.Response.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_EQ(CC.reconnects(), 0u);
}

TEST(ClientTest, RecognizesRetriableInFlightResponses) {
  EXPECT_TRUE(isRetriableInFlight(
      "{\"error\":\"request id already in flight\","
      "\"status\":\"bad-request\"}"));
  // Field order and extra envelope fields don't matter — only the
  // parsed `status` and `error` values do.
  EXPECT_TRUE(isRetriableInFlight(
      "{\"id\":\"r7\",\"status\":\"bad-request\","
      "\"error\":\"request id already in flight\"}"));
  EXPECT_FALSE(isRetriableInFlight(
      "{\"error\":\"missing field\",\"status\":\"bad-request\"}"));
  EXPECT_FALSE(isRetriableInFlight("{\"status\":\"ok\"}"));
}

TEST(ClientTest, MagicStringsInsideBodiesAreNotRetriable) {
  // The old substring match scanned the whole response line, so a
  // served request whose *program text* (or any echoed field) happened
  // to contain both magic strings was misread as "still in flight" and
  // silently resubmitted. Matching the parsed envelope fields instead
  // makes these inert.
  EXPECT_FALSE(isRetriableInFlight(
      "{\"id\":\"ok-1\",\"status\":\"ok\",\"program\":"
      "\"s = \\\"request id already in flight\\\"; "
      "t = \\\"bad-request\\\";\"}"));
  // The magic error under a *different* status, and vice versa.
  EXPECT_FALSE(isRetriableInFlight(
      "{\"error\":\"request id already in flight\","
      "\"status\":\"internal\"}"));
  EXPECT_FALSE(isRetriableInFlight(
      "{\"error\":\"parse failed near 'request id already in flight' "
      "(bad-request)\",\"status\":\"shed\"}"));
  // Non-JSON lines containing both strings are transport noise, not a
  // retry signal.
  EXPECT_FALSE(isRetriableInFlight(
      "request id already in flight bad-request"));
  EXPECT_FALSE(isRetriableInFlight(""));
}

TEST(ClientTest, RetryBudgetBoundsTheBackoffLadder) {
  // A dead endpoint with a generous attempt count but a small wall-
  // clock budget: the request must fail fast, clipped by the budget,
  // not sleep through the whole exponential ladder.
  DeadPort Dead;
  ASSERT_NE(Dead.port(), 0);

  ClientOptions COpts;
  COpts.Port = Dead.port();
  COpts.MaxAttempts = 64;
  COpts.ConnectTimeoutMs = 500;
  COpts.BackoffBaseMs = 200;
  COpts.BackoffCapMs = 2000;
  COpts.RetryBudgetMs = 250;
  COpts.JitterSeed = 7;
  ClientConnection CC(COpts);
  auto T0 = std::chrono::steady_clock::now();
  ClientResult R = CC.request("{\"probe\":1}");
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(CC.budgetExhausted());
  EXPECT_LT(R.Attempts, 64u) << "the budget, not the attempt count, "
                                "must stop the ladder";
  // Refused local connects are immediate, so the spend is backoff
  // sleeps: budget plus one clipped sleep plus slack, well under the
  // unbounded ladder's multi-second total.
  EXPECT_LT(ElapsedMs, 2000);

  // Budget 0 restores the legacy contract: attempts bound the ladder
  // and the budget flag stays clear.
  COpts.RetryBudgetMs = 0;
  COpts.MaxAttempts = 3;
  COpts.BackoffBaseMs = 1;
  COpts.BackoffCapMs = 2;
  ClientConnection Legacy(COpts);
  ClientResult R2 = Legacy.request("{\"probe\":2}");
  EXPECT_FALSE(R2.Ok);
  EXPECT_EQ(R2.Attempts, 3u);
  EXPECT_FALSE(Legacy.budgetExhausted());
}

TEST(ClientTest, FailsOverToTheNextEndpointAndServes) {
  // Endpoint failover: the primary in the list is dead, the standby is
  // live. The transport failure must rotate, resubmit, and succeed —
  // the jslice_client --connect A --connect B contract.
  DeadPort Dead;
  ASSERT_NE(Dead.port(), 0);

  LiveServer L({});
  ASSERT_TRUE(L.Started);

  ClientOptions COpts;
  COpts.Endpoints = {"127.0.0.1:" + std::to_string(Dead.port()),
                     "127.0.0.1:" + std::to_string(L.port())};
  COpts.MaxAttempts = 4;
  COpts.ConnectTimeoutMs = 500;
  COpts.BackoffBaseMs = 1;
  COpts.BackoffCapMs = 5;
  COpts.JitterSeed = 7;
  ClientConnection CC(COpts);
  EXPECT_EQ(CC.currentEndpoint(),
            "127.0.0.1:" + std::to_string(Dead.port()));
  std::string Line = sliceRequest("fo-1");
  Line.pop_back(); // request() appends the newline.
  ClientResult R = CC.request(Line);
  ASSERT_TRUE(R.Ok) << R.TransportError;
  EXPECT_NE(R.Response.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_GE(CC.failovers(), 1u);
  EXPECT_EQ(CC.currentEndpoint(),
            "127.0.0.1:" + std::to_string(L.port()));

  // Subsequent requests stick to the endpoint that worked.
  ClientResult R2 = CC.request(Line);
  EXPECT_TRUE(R2.Ok) << R2.TransportError;
  EXPECT_EQ(R2.Attempts, 1u);
}

//===----------------------------------------------------------------------===//
// StandbyTail: replication stream consumer against a live primary
//===----------------------------------------------------------------------===//

TEST(StandbyTailTest, TailsALivePrimaryIntoAVerifiableReplica) {
  // End to end over real sockets: a journaled primary with a sync-ack
  // hub, a StandbyTail applying into a replica journal, and the
  // primary's admission released by the tail's durable ack.
  std::string JPath = ::testing::TempDir() + "jslice_tail_primary.jsonl";
  std::string RPath = ::testing::TempDir() + "jslice_tail_replica.jsonl";
  std::remove(JPath.c_str());
  std::remove(RPath.c_str());

  ServerOptions SOpts;
  SOpts.JournalPath = JPath;
  SOpts.ReplAck = ReplAckPolicy::Sync;
  SOpts.ReplAckTimeoutMs = 8000;
  LiveServer L({}, SOpts);
  ASSERT_TRUE(L.Started);

  Journal Replica;
  ASSERT_TRUE(Replica.open(RPath));
  StandbyTailOptions TOpts;
  TOpts.Port = L.port();
  StandbyTail Tail(TOpts, Replica);
  std::string Err;
  ASSERT_TRUE(Tail.start(Err)) << Err;
  ASSERT_TRUE(waitForCount(
                  [&] { return Tail.stats().Connected ? 1u : 0u; }, 1) == 1)
      << "tail never subscribed";
  // The tail reports Connected once its subscribe is sent; the primary
  // registers it when the line is read. A request admitted in between
  // would find no standby to wait for.
  ASSERT_GE(waitForCount([&] { return L.S.stats().Repl.Subscribes; }, 1), 1u)
      << "primary never registered the subscription";

  // A slice served under sync policy proves the ack round-trip: the
  // response cannot have been released before the replica acked, and
  // the stats must show a wait that did NOT time out.
  RawClient C(L.port());
  ASSERT_TRUE(C.sendAll(sliceRequest("tail-1")));
  std::optional<std::string> Resp = C.readLine(10000);
  ASSERT_TRUE(Resp.has_value());
  EXPECT_NE(Resp->find("\"status\":\"ok\""), std::string::npos);

  // Both records (begin + end) land durably in the replica.
  waitForCount([&] { return Tail.stats().Applied; }, 2);
  StandbyTailStats TS = Tail.stats();
  EXPECT_GE(TS.Applied, 2u);
  EXPECT_EQ(TS.CorruptFrames, 0u);
  EXPECT_EQ(TS.PrimaryEpoch, 1u);
  EXPECT_EQ(Tail.lagRecords(), 0u);

  ReplicationCounters RC = L.S.stats().Repl;
  EXPECT_GE(RC.SyncWaits, 1u);
  EXPECT_EQ(RC.SyncTimeouts, 0u)
      << "a healthy standby must ack within the admission wait";

  Tail.stop();
  JournalScan Scan = scanJournalDetailed(RPath);
  EXPECT_EQ(Scan.CorruptRecords, 0u);
  EXPECT_TRUE(Scan.InFlight.empty())
      << "the end record must have replicated too";
  std::remove(JPath.c_str());
  std::remove(RPath.c_str());
}

//===----------------------------------------------------------------------===//
// ChaosProxy
//===----------------------------------------------------------------------===//

TEST(ChaosProxyTest, FaultFreeProxyIsTransparent) {
  LiveServer L({});
  ASSERT_TRUE(L.Started);

  ChaosOptions COpts; // All permilles default to 0.
  COpts.UpstreamPort = L.port();
  COpts.Seed = 11;
  ChaosProxy Proxy(COpts);
  std::string Err;
  ASSERT_TRUE(Proxy.start(Err)) << Err;

  ClientOptions CliOpts;
  CliOpts.Port = Proxy.port();
  CliOpts.JitterSeed = 7;
  ClientConnection CC(CliOpts);
  for (int I = 0; I < 5; ++I) {
    std::string Req = sliceRequest("px-" + std::to_string(I));
    ClientResult R = CC.request(Req.substr(0, Req.size() - 1));
    ASSERT_TRUE(R.Ok) << R.TransportError;
    EXPECT_NE(R.Response.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_EQ(R.Attempts, 1u);
  }
  CC.disconnect();
  Proxy.stop();
  ChaosStats CS = Proxy.stats();
  EXPECT_GE(CS.Connections, 1u);
  EXPECT_GT(CS.BytesForwarded, 0u);
  EXPECT_EQ(CS.Resets + CS.Truncations + CS.Stalls + CS.Delays, 0u);
}

TEST(ChaosProxyTest, AlwaysResetFaultsSurfaceAsTransportFailures) {
  LiveServer L({});
  ASSERT_TRUE(L.Started);

  ChaosOptions COpts;
  COpts.UpstreamPort = L.port();
  COpts.ResetPermille = 1000; // Every response chunk resets.
  COpts.Seed = 11;
  ChaosProxy Proxy(COpts);
  std::string Err;
  ASSERT_TRUE(Proxy.start(Err)) << Err;

  ClientOptions CliOpts;
  CliOpts.Port = Proxy.port();
  CliOpts.MaxAttempts = 3;
  CliOpts.BackoffBaseMs = 1;
  CliOpts.BackoffCapMs = 2;
  CliOpts.JitterSeed = 7;
  ClientConnection CC(CliOpts);
  ClientResult R = CC.request("{\"stats\": true}");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Attempts, 3u);

  CC.disconnect();
  Proxy.stop();
  EXPECT_GE(Proxy.stats().Resets, 3u);
}

TEST(ChaosProxyTest, RetriesRecoverThroughIntermittentResets) {
  // Probabilistic faults, deterministic seed: with 200 permille resets
  // and 10 attempts per request, every request lands. This is the
  // netchaos soak in miniature.
  LiveServer L({});
  ASSERT_TRUE(L.Started);

  ChaosOptions COpts;
  COpts.UpstreamPort = L.port();
  COpts.ResetPermille = 200;
  COpts.TruncatePermille = 100;
  COpts.Seed = 11;
  ChaosProxy Proxy(COpts);
  std::string Err;
  ASSERT_TRUE(Proxy.start(Err)) << Err;

  ClientOptions CliOpts;
  CliOpts.Port = Proxy.port();
  CliOpts.MaxAttempts = 10;
  CliOpts.BackoffBaseMs = 1;
  CliOpts.BackoffCapMs = 4;
  CliOpts.JitterSeed = 7;
  ClientConnection CC(CliOpts);
  unsigned Retried = 0;
  for (int I = 0; I < 20; ++I) {
    std::string Req = sliceRequest("rx-" + std::to_string(I));
    ClientResult R = CC.request(Req.substr(0, Req.size() - 1));
    ASSERT_TRUE(R.Ok) << "request " << I << ": " << R.TransportError;
    EXPECT_NE(R.Response.find("\"id\":\"rx-" + std::to_string(I) + "\""),
              std::string::npos);
    Retried += R.Attempts - 1;
  }
  CC.disconnect();
  Proxy.stop();
  // With these rates some fault must have fired across 20 requests.
  ChaosStats CS = Proxy.stats();
  EXPECT_GT(CS.Resets + CS.Truncations, 0u);
  EXPECT_GT(Retried, 0u);
}

//===----------------------------------------------------------------------===//
// Hot-restart plumbing: fd passing, health answers, inherited listeners
//===----------------------------------------------------------------------===//

TEST(SocketTest, FdPassingTransfersAWorkingDescriptor) {
  // The SCM_RIGHTS fallback path of the generation handoff: the
  // received descriptor must reference the same open file description
  // as the sent one, surviving the sender closing its copy.
  int Pair[2];
  ASSERT_TRUE(makeSocketPair(Pair));
  int Pipe[2];
  ASSERT_EQ(::pipe(Pipe), 0);

  ASSERT_TRUE(sendFdOverSocket(Pair[0], Pipe[0]));
  int Got = recvFdOverSocket(Pair[1], 2000);
  ASSERT_GE(Got, 0);

  // sendFdOverSocket dups internally: the original read end can go
  // away and the transferred descriptor still drains the pipe.
  ::close(Pipe[0]);
  const char Msg[] = "handoff";
  ASSERT_EQ(::write(Pipe[1], Msg, sizeof(Msg)),
            static_cast<ssize_t>(sizeof(Msg)));
  char Back[16] = {};
  ASSERT_EQ(::read(Got, Back, sizeof(Back)),
            static_cast<ssize_t>(sizeof(Msg)));
  EXPECT_STREQ(Back, "handoff");

  ::close(Got);
  ::close(Pipe[1]);
  ::close(Pair[0]);
  ::close(Pair[1]);
}

TEST(SocketTest, RecvFdTimesOutWhenNothingIsSent) {
  // A successor waiting on a predecessor that never sends must get a
  // bounded failure, not a wedge.
  int Pair[2];
  ASSERT_TRUE(makeSocketPair(Pair));
  auto Start = std::chrono::steady_clock::now();
  EXPECT_EQ(recvFdOverSocket(Pair[1], 50), -1);
  auto Waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
  EXPECT_LT(Waited, 2000);
  ::close(Pair[0]);
  ::close(Pair[1]);
}

TEST(TcpServerTest, HealthAnswerCarriesShardHeartbeats) {
  TcpServerOptions TOpts;
  TOpts.Shards = 2;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);

  RawClient C(L.port());
  ASSERT_GE(C.Fd, 0);
  ASSERT_TRUE(C.sendAll("{\"health\": true}\n"));
  std::optional<std::string> Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos) << *Line;
  EXPECT_NE(Line->find("\"transport\""), std::string::npos) << *Line;
  EXPECT_NE(Line->find("\"shard_heartbeat_ages_ms\""), std::string::npos)
      << *Line;
  EXPECT_NE(Line->find("\"shards\":2"), std::string::npos) << *Line;
  // Live loops, default 5s wedge threshold: nothing is wedged, so the
  // probe answer must not be degraded.
  EXPECT_EQ(Line->find("\"wedged\""), std::string::npos) << *Line;
  EXPECT_EQ(Line->find("\"degraded\""), std::string::npos) << *Line;
  EXPECT_FALSE(L.T.anyShardWedged());
}

TEST(TcpServerTest, InheritedListenerFdIsAdoptedAndServes) {
  // The handoff's happy path in miniature: a listener bound elsewhere
  // is adopted wholesale — same port, no re-bind — and serves.
  std::string Err;
  int Fd = listenTcp("127.0.0.1", 0, /*Backlog=*/16, Err,
                     /*ReusePort=*/true);
  ASSERT_GE(Fd, 0) << Err;
  uint16_t Port = tcpLocalPort(Fd);
  ASSERT_NE(Port, 0);

  TcpServerOptions TOpts;
  TOpts.InheritedListenerFd = Fd;
  LiveServer L(TOpts);
  ASSERT_TRUE(L.Started);
  EXPECT_EQ(L.port(), Port);

  RawClient C(Port);
  ASSERT_GE(C.Fd, 0);
  ASSERT_TRUE(C.sendAll(sliceRequest("inherit-1")));
  std::optional<std::string> Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_NE(Line->find("\"id\":\"inherit-1\""), std::string::npos);
  EXPECT_NE(Line->find("\"status\":\"ok\""), std::string::npos);
}

#endif // JSLICE_HAVE_POSIX_PROCESS

} // namespace
