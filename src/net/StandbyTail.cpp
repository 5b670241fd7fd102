//===- net/StandbyTail.cpp - Replication stream consumer -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "net/StandbyTail.h"

#include "net/Socket.h"
#include "service/Json.h"
#include "support/LineFramer.h"
#include "support/Pipe.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#ifdef JSLICE_HAVE_POSIX_PROCESS
#include <poll.h>
#endif

using namespace jslice;

StandbyTail::StandbyTail(const StandbyTailOptions &O, Journal &R)
    : Opts(O), Replica(R) {}

StandbyTail::~StandbyTail() { stop(); }

bool StandbyTail::start(std::string &Err) {
  if (Started.exchange(true)) {
    Err = "standby tail already started";
    return false;
  }
  Stop = false;
  Tailer = std::thread([this] { tailMain(); });
  return true;
}

void StandbyTail::stop() {
  Stop = true;
  if (Tailer.joinable())
    Tailer.join();
  Started = false;
}

StandbyTailStats StandbyTail::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}

uint64_t StandbyTail::lagRecords() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats.PrimarySeq > Stats.AppliedSeq
             ? Stats.PrimarySeq - Stats.AppliedSeq
             : 0;
}

bool StandbyTail::applyFrame(const std::string &Frame, uint64_t &AckOut) {
  std::optional<JsonValue> V = JsonValue::parse(Frame);
  if (!V || !V->isObject()) {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.CorruptFrames;
    return false; // Framing damage: tear and resubscribe.
  }
  const JsonValue *Kind = V->find("repl");
  if (!Kind || !Kind->isString())
    return true; // Not a replication frame (future extension); skip.

  if (Kind->asString() == "hello") {
    bool Snapshot = false;
    if (const JsonValue *S = V->find("snapshot"))
      Snapshot = S->isBool() && S->asBool();
    uint64_t LastSeq = 0, Epoch = 0;
    if (const JsonValue *L = V->find("last_seq"))
      if (L->isNumber() && L->asInt() > 0)
        LastSeq = static_cast<uint64_t>(L->asInt());
    if (const JsonValue *E = V->find("epoch"))
      if (E->isNumber() && E->asInt() > 0)
        Epoch = static_cast<uint64_t>(E->asInt());
    if (Snapshot) {
      // Compaction ate the records between our resume point and the
      // file: applying the compacted file over our stale tail would
      // resurrect completed begins. Start the replica over.
      if (!Replica.resetForSnapshot())
        return false;
    }
    std::lock_guard<std::mutex> Lock(M);
    if (Snapshot) {
      ++Stats.Snapshots;
      Stats.AppliedSeq = 0;
    }
    Stats.PrimarySeq = std::max(Stats.PrimarySeq, LastSeq);
    Stats.PrimaryEpoch = std::max(Stats.PrimaryEpoch, Epoch);
    return true;
  }

  if (Kind->asString() != "rec")
    return true;
  const JsonValue *Line = V->find("line");
  if (!Line || !Line->isString()) {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.CorruptFrames;
    return false;
  }
  // End-to-end verification on the exact bytes the primary journaled:
  // the record's own CRC32, not the transport's checksum, decides.
  std::optional<JournalRecord> Rec = decodeJournalLine(Line->asString());
  if (!Rec) {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.CorruptFrames;
    return false;
  }
  uint64_t Seq = Rec->Seq;
  {
    std::lock_guard<std::mutex> Lock(M);
    // Taps are seq-ordered on the primary, so a high-water mark dedups
    // the catch-up/live overlap.
    if (Seq <= Stats.AppliedSeq) {
      ++Stats.Duplicates;
      return true;
    }
  }
  if (!Replica.appendReplica(Line->asString(), std::move(*Rec)))
    return false; // Replica disk trouble: tear, back off, resubscribe.
  std::lock_guard<std::mutex> Lock(M);
  ++Stats.Applied;
  Stats.AppliedSeq = std::max(Stats.AppliedSeq, Seq);
  Stats.PrimarySeq = std::max(Stats.PrimarySeq, Seq);
  AckOut = Stats.AppliedSeq;
  return true;
}

#ifdef JSLICE_HAVE_POSIX_PROCESS

namespace {

bool sendAll(int Fd, const std::string &Data) {
  size_t Sent = 0;
  while (Sent < Data.size()) {
    int64_t W = sendSome(Fd, Data.data() + Sent, Data.size() - Sent);
    if (W <= 0)
      return false;
    Sent += static_cast<size_t>(W);
  }
  return true;
}

} // namespace

void StandbyTail::runSession(int Fd) {
  uint64_t FromSeq;
  {
    std::lock_guard<std::mutex> Lock(M);
    FromSeq = Stats.AppliedSeq;
  }
  JsonValue Sub = JsonValue::object();
  Sub.set("repl_subscribe", FromSeq);
  if (!sendAll(Fd, Sub.str() + "\n"))
    return;
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Stats.Connects;
    Stats.Connected = true;
  }

  LineFramer Frames; // Uncapped: the primary's records are trusted.
  uint64_t LastAcked = FromSeq;
  while (!Stop) {
    struct pollfd P;
    P.fd = Fd;
    P.events = POLLIN;
    P.revents = 0;
    int N = ::poll(&P, 1, 100); // Short: stop() must stay responsive.
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    if (N == 0)
      continue;
    char Chunk[65536];
    int64_t R = recvSome(Fd, Chunk, sizeof(Chunk));
    if (R == NetWouldBlock)
      continue;
    if (R <= 0)
      return; // EOF or reset: the stream tore.
    Frames.feed(Chunk, static_cast<size_t>(R));

    // Apply every complete line in the burst, then ack the durable
    // high-water mark once — batched acks lose nothing because the
    // ack names a sequence, not a record.
    uint64_t AckHigh = 0;
    while (std::optional<LineFramer::Frame> F = Frames.next()) {
      if (F->Line.empty())
        continue;
      if (!applyFrame(std::string(F->Line), AckHigh))
        return;
    }
    if (AckHigh > LastAcked) {
      JsonValue Ack = JsonValue::object();
      Ack.set("repl_ack", AckHigh);
      if (!sendAll(Fd, Ack.str() + "\n"))
        return;
      LastAcked = AckHigh;
    }
  }
}

void StandbyTail::tailMain() {
  unsigned Attempt = 0;
  while (!Stop) {
    std::string Err;
    int Fd = connectTcp(Opts.Host, Opts.Port, Opts.ConnectTimeoutMs, Err);
    if (Fd >= 0) {
      setTcpNoDelay(Fd);
      Attempt = 0;
      runSession(Fd);
      closeQuietly(Fd);
      std::lock_guard<std::mutex> Lock(M);
      Stats.Connected = false;
      ++Stats.Disconnects;
    }
    if (Stop)
      return;
    // Backoff before the next subscribe; a standby seeded before its
    // primary just keeps knocking.
    uint64_t Shift = Attempt > 10 ? 10 : Attempt;
    uint64_t Delay = Opts.ReconnectBaseMs << Shift;
    if (Opts.ReconnectCapMs && Delay > Opts.ReconnectCapMs)
      Delay = Opts.ReconnectCapMs;
    ++Attempt;
    // Sleep in small slices so stop() never waits out a full backoff.
    while (Delay && !Stop) {
      uint64_t Slice = Delay > 50 ? 50 : Delay;
      std::this_thread::sleep_for(std::chrono::milliseconds(Slice));
      Delay -= Slice;
    }
  }
}

#else // !JSLICE_HAVE_POSIX_PROCESS

void StandbyTail::runSession(int) {}

void StandbyTail::tailMain() {
  // No sockets on this platform; the tail reports disconnected and
  // the standby never warms (fail closed, like the TCP transport).
}

#endif
