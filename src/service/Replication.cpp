//===- service/Replication.cpp - Journal shipping to warm standbys --------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Replication.h"

#include <algorithm>
#include <chrono>

using namespace jslice;

const char *jslice::replAckPolicyName(ReplAckPolicy P) {
  switch (P) {
  case ReplAckPolicy::Async:
    return "async";
  case ReplAckPolicy::Flush:
    return "flush";
  case ReplAckPolicy::Sync:
    return "sync";
  }
  return "async";
}

bool jslice::parseReplAckPolicyName(const std::string &Name,
                                    ReplAckPolicy &Out) {
  if (Name == "async")
    Out = ReplAckPolicy::Async;
  else if (Name == "flush")
    Out = ReplAckPolicy::Flush;
  else if (Name == "sync")
    Out = ReplAckPolicy::Sync;
  else
    return false;
  return true;
}

ReplicationHub::ReplicationHub(Journal &J, ReplAckPolicy P)
    : Wal(J), Policy(P) {
  if (Policy == ReplAckPolicy::Async) {
    Shipper = std::thread([this] { shipperMain(); });
  }
  Wal.setTap([this](const std::string &Line, uint64_t Seq) {
    onRecord(Line, Seq);
  });
}

ReplicationHub::~ReplicationHub() {
  // Detach from the journal first: after this no tap can be in flight
  // (setTap serializes on the journal mutex the tap runs under).
  Wal.setTap(nullptr);
  {
    std::lock_guard<std::mutex> Lock(M);
    ShipperStop = true;
  }
  ShipCv.notify_all();
  AckCv.notify_all();
  if (Shipper.joinable())
    Shipper.join();
}

std::string ReplicationHub::recordFrame(const std::string &Line) {
  // The record ships as the exact journaled bytes (JSON-escaped in
  // transit): the standby verifies the same CRC32 the primary wrote.
  JsonValue F = JsonValue::object();
  F.set("repl", "rec");
  F.set("line", Line);
  return F.str();
}

/// Journal tap: runs under the journal mutex (strict seq order), so it
/// must not call back into the journal.
void ReplicationHub::onRecord(const std::string &Line, uint64_t Seq) {
  std::lock_guard<std::mutex> Lock(M);
  if (Policy == ReplAckPolicy::Async) {
    if (!Subscribers.empty()) {
      Pending.emplace_back(Seq, Line);
      ShipCv.notify_one();
    }
    return;
  }
  // Flush/sync: the record reaches every subscriber's transport buffer
  // before the journal append (and so the admission of the request)
  // returns.
  if (Subscribers.empty())
    return;
  std::string Frame = recordFrame(Line);
  for (Subscriber &S : Subscribers)
    S.Out(Frame);
  Stats.Shipped += Subscribers.size();
  LastShipped = std::max(LastShipped, Seq);
}

void ReplicationHub::shipperMain() {
  std::unique_lock<std::mutex> Lock(M);
  while (true) {
    ShipCv.wait(Lock, [this] { return ShipperStop || !Pending.empty(); });
    if (ShipperStop)
      return;
    auto [Seq, Line] = std::move(Pending.front());
    Pending.pop_front();
    std::string Frame = recordFrame(Line);
    // Ship without the lock: a sink may block on a slow transport
    // buffer, and acks/subscribes must not queue behind it.
    std::vector<Sink> Outs;
    Outs.reserve(Subscribers.size());
    for (Subscriber &S : Subscribers)
      Outs.push_back(S.Out);
    Lock.unlock();
    for (Sink &Out : Outs)
      Out(Frame);
    Lock.lock();
    Stats.Shipped += Outs.size();
    LastShipped = std::max(LastShipped, Seq);
  }
}

uint64_t ReplicationHub::subscribe(uint64_t FromSeq, Sink Out) {
  uint64_t Id = 0;
  // The file read and the registration share one journal critical
  // section, taken journal-then-hub like the tap: no append can land
  // between them, so the backlog ends exactly where the live stream
  // begins.
  Wal.catchUp([&](const Journal::CatchUp &C) {
    bool Snapshot = FromSeq < C.LastCompactSeq;
    std::lock_guard<std::mutex> Lock(M);
    Id = NextSubscriberId++;
    if (Subscribers.size() >= MaxSubscribers)
      Subscribers.erase(Subscribers.begin());
    ++Stats.Subscribes;
    if (Snapshot)
      ++Stats.Snapshots;
    else
      ++Stats.Resumes;

    JsonValue Hello = JsonValue::object();
    Hello.set("repl", "hello");
    Hello.set("epoch", C.Epoch);
    Hello.set("last_seq", C.ThroughSeq);
    Hello.set("snapshot", Snapshot);
    Out(Hello.str());

    // The whole file after a compaction gap, else only the records
    // past the subscriber's resume point.
    C.forEachRecord([&](uint64_t Seq, const std::string &Line) {
      if (!Snapshot && Seq <= FromSeq)
        return;
      Out(recordFrame(Line));
      ++Stats.Shipped;
    });
    Subscribers.push_back(Subscriber{Id, std::move(Out)});
  });
  return Id;
}

void ReplicationHub::ack(uint64_t Seq) {
  {
    std::lock_guard<std::mutex> Lock(M);
    AckedSeq = std::max(AckedSeq, Seq);
  }
  AckCv.notify_all();
}

uint64_t ReplicationHub::ackedSeq() const {
  std::lock_guard<std::mutex> Lock(M);
  return AckedSeq;
}

uint64_t ReplicationHub::lastShippedSeq() const {
  std::lock_guard<std::mutex> Lock(M);
  return LastShipped;
}

bool ReplicationHub::waitAcked(uint64_t Seq, uint64_t TimeoutMs) {
  std::unique_lock<std::mutex> Lock(M);
  ++Stats.SyncWaits;
  if (Subscribers.empty()) {
    ++Stats.SyncNoStandby; // The loss window is open, counted.
    return false;
  }
  bool Acked = AckCv.wait_for(
      Lock, std::chrono::milliseconds(TimeoutMs),
      [this, Seq] { return ShipperStop || AckedSeq >= Seq; });
  if (!Acked || AckedSeq < Seq) {
    ++Stats.SyncTimeouts;
    return false;
  }
  return true;
}

size_t ReplicationHub::subscriberCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Subscribers.size();
}

ReplicationCounters ReplicationHub::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  return Stats;
}
