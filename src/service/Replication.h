//===- service/Replication.h - Journal shipping to warm standbys ----------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Primary-side journal shipping (DESIGN.md, "Replication & failover").
/// The journal is already a checksummed, sequence-numbered, exactly-
/// once-auditable log of server intent; replication ships it live so a
/// warm standby can take over mid-crash with the same quarantine-
/// exactly-the-casualties guarantee a restart has.
///
/// The channel rides the ordinary request transport: a standby
/// connects like any client and sends `{"repl_subscribe": <from_seq>}`;
/// from then on that connection is a one-way record stream. The hub
/// holds the connection's response sink and writes frames:
///
///   {"repl":"hello","epoch":E,"last_seq":N,"snapshot":true|false}
///   {"repl":"rec","line":"<raw journal record line>"}
///
/// The record line is shipped as the *exact bytes* the primary
/// journaled, so the standby verifies the same CRC32 end-to-end —
/// a bit flipped anywhere between the primary's buffer and the
/// standby's disk is caught by the record checksum, not trusted to
/// TCP's weaker one. The standby acks with `{"repl_ack": <seq>}` on
/// the same connection once records are durable in its replica
/// journal.
///
/// Catch-up: a subscriber resuming from `from_seq` gets the tail of
/// the current journal file when nothing below `from_seq` has been
/// compacted away ("snapshot":false — the torn-stream resume path);
/// otherwise the compaction dropped `end` records the standby never
/// saw, so the hub sends the whole compacted file and stamps the hello
/// "snapshot":true — the standby truncates its replica first (applying
/// a compacted file over stale begins would resurrect matched pairs as
/// in-flight). The file read, the hello and backlog frames and the
/// registration all happen in one journal critical section
/// (Journal::catchUp), so no record can be appended between the read
/// and the registration: the backlog ends exactly where the live tap
/// takes over, and the hub keeps no copy of any record. The price is
/// that appends wait while a subscriber's backlog is read and framed
/// (DESIGN.md §18 measures the stall).
///
/// The ack policy prices durability against latency exactly like
/// --journal-sync does for the local disk (the bench's `replication`
/// section quantifies it):
///
///   async  appends return immediately; a shipper thread drains the
///          stream. Loss window on primary death: everything after the
///          standby's last received record.
///   flush  the record is handed to the subscriber's transport buffer
///          before the append returns. Loss window: records buffered
///          but not yet on the standby's disk.
///   sync   the append additionally waits (bounded) for the standby's
///          durable ack. Loss window: zero acknowledged records — the
///          failover matrix asserts it.
///
/// Fencing: every journal record is stamped with the writer's `epoch`
/// (Journal::setEpoch). Promotion bumps the epoch past everything the
/// replica ever saw; a resurrected ex-primary keeps stamping its stale
/// epoch and sheds any request carrying a higher `min_epoch` — split
/// brain cannot double-serve a fenced client, and a post-mortem scan
/// convicts unfenced writes by their stamps.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_REPLICATION_H
#define JSLICE_SERVICE_REPLICATION_H

#include "service/Journal.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace jslice {

/// How hard an append pushes toward the standby before returning —
/// the --repl-ack policy.
enum class ReplAckPolicy {
  Async, ///< Ship from a background thread; appends never wait.
  Flush, ///< Hand the record to the subscriber transport first.
  Sync,  ///< Wait (bounded) for the standby's durable ack.
};

/// "async" / "flush" / "sync" for flags and logs.
const char *replAckPolicyName(ReplAckPolicy P);
/// Parses a --repl-ack value; false on anything unrecognized.
bool parseReplAckPolicyName(const std::string &Name, ReplAckPolicy &Out);

/// Counters for {"stats"} and the failover matrix's assertions.
struct ReplicationCounters {
  uint64_t Shipped = 0;       ///< Record frames handed to subscribers.
  uint64_t Subscribes = 0;    ///< repl_subscribe requests served.
  uint64_t Snapshots = 0;     ///< Catch-ups that resent the whole file.
  uint64_t Resumes = 0;       ///< Incremental catch-ups from from_seq.
  uint64_t SyncWaits = 0;     ///< Appends that waited for an ack.
  uint64_t SyncTimeouts = 0;  ///< ...and timed out (loss window open).
  uint64_t SyncNoStandby = 0; ///< ...and found no subscriber to wait
                              ///< for (loss window open).
};

/// Primary-side fan-out: taps the journal and streams every appended
/// record to subscribed standbys. Thread-safe. The tap and subscribe()'s
/// catch-up both run under the journal mutex and take the hub mutex
/// inside it (lock order: journal, then hub), so hub internals never
/// call back into the journal. With no subscriber the hub holds no
/// record at all.
class ReplicationHub {
public:
  using Sink = std::function<void(const std::string &)>;

  /// Attaches to \p J's append tap. \p Policy selects the shipping
  /// policy; Async starts the shipper thread. \p J must outlive the
  /// hub.
  ReplicationHub(Journal &J, ReplAckPolicy Policy);
  ~ReplicationHub();

  ReplicationHub(const ReplicationHub &) = delete;
  ReplicationHub &operator=(const ReplicationHub &) = delete;

  /// Registers \p Out as a record stream resuming past \p FromSeq and
  /// performs catch-up synchronously (hello frame + backlog records),
  /// with journal appends held off until \p Out is registered.
  /// Returns the subscriber id. At most MaxSubscribers are kept; the
  /// oldest is evicted (its connection is presumed dead — writes to a
  /// closed connection's sink are swallowed by the transport).
  uint64_t subscribe(uint64_t FromSeq, Sink Out);

  /// Records the standby's durable high-water mark (repl_ack) and
  /// wakes sync-policy waiters.
  void ack(uint64_t Seq);

  /// Highest acked sequence (0 before the first ack).
  uint64_t ackedSeq() const;

  /// Sequence of the last record shipped to any subscriber.
  uint64_t lastShippedSeq() const;

  /// Sync policy: blocks until ackedSeq() >= \p Seq or \p TimeoutMs
  /// elapses. Returns false on timeout *or* at once when no subscriber
  /// is connected (a primary without a standby must not hang). Each
  /// counts as a sync wait, plus a sync timeout or a no-standby wait —
  /// the loss window is open and counted, not hidden.
  bool waitAcked(uint64_t Seq, uint64_t TimeoutMs);

  size_t subscriberCount() const;
  ReplAckPolicy policy() const { return Policy; }
  ReplicationCounters counters() const;

private:
  void onRecord(const std::string &Line, uint64_t Seq);
  void shipperMain();
  static std::string recordFrame(const std::string &Line);

  Journal &Wal;
  const ReplAckPolicy Policy;

  mutable std::mutex M;
  std::condition_variable AckCv;
  std::condition_variable ShipCv;
  struct Subscriber {
    uint64_t Id = 0;
    Sink Out;
  };
  std::vector<Subscriber> Subscribers;
  uint64_t NextSubscriberId = 1;
  static constexpr size_t MaxSubscribers = 4;

  /// Async policy: records pending shipment by the shipper thread
  /// (queued only while a subscriber exists).
  std::deque<std::pair<uint64_t, std::string>> Pending;
  bool ShipperStop = false;
  std::thread Shipper;

  uint64_t AckedSeq = 0;
  uint64_t LastShipped = 0;
  ReplicationCounters Stats;
};

} // namespace jslice

#endif // JSLICE_SERVICE_REPLICATION_H
