//===- service/Journal.h - Write-ahead request journal ---------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Crash forensics for the slicing server. Before a request is handed
/// to a worker the server appends a `begin` record (carrying the whole
/// request) and flushes; when its response is written, an `end` record
/// follows. A process that dies mid-request — OOM-killed, kill -9, a
/// bug the in-process guards cannot catch — leaves an unmatched
/// `begin`, and the next startup scans for exactly those: each is
/// *poisoned* (it crashed a server once; re-running it blind invites a
/// crash loop), quarantined as a jslice_stress-compatible reproducer
/// (`poison_<id>.mc` + metadata sidecar), and refused on resubmission
/// by content key until the quarantine is cleared. `jslice_stress
/// --replay-journal` feeds the same records straight into the
/// differential triage + ddmin reducer; `jslice_stress
/// --verify-journal` scrubs a journal's framing offline.
///
/// Records are JSON-Lines, one per event, self-verifying: every record
/// carries a monotonic per-writer sequence number and a CRC32 computed
/// over its own serialization minus the `crc` member (serialization is
/// deterministic — sorted keys, no whitespace — so the check
/// re-serializes and compares):
///
///   {"crc":"1c291ca3","event":"begin","id":"r1","request":{...},"seq":1}
///   {"crc":"5d9f0e11","event":"end","id":"r1","seq":2,"status":"ok"}
///   {"crc":"8b7a0f2e","event":"shutdown","seq":3,"status":"clean"}
///
/// The format has exactly one writer and one reader. encodeJournalRecord
/// stamps and serializes a record once and frames it with its CRC
/// (`"crc"` sorts before every other key, so the frame is a prefix);
/// every append — begin, end, shutdown, reattach — goes through it.
/// decodeJournalLine parses a line once, verifies the CRC and returns
/// the fields every reader needs (JournalRecord): recovery, rotation
/// seeding, the scrubber, replication catch-up and the standby tail
/// all read through it. What a record means for the in-flight set —
/// a begin opens its id, an end closes it — is one fold into one
/// InFlightIndex, shared by the appender, the scan, open() and the
/// replica path.
/// tests/journal/pinned_records.jsonl pins the bytes.
///
/// A record without a valid `crc` is corrupt, whatever else it holds.
/// Recovery distinguishes two kinds of damage. A *torn tail* — the
/// file's final record is partial or fails its checksum — is the
/// expected signature of kill -9 or power loss mid-append: the tail is
/// truncated and the boot proceeds. *Mid-file corruption* — a record
/// that fails verification with intact records after it — means the
/// device or something else rewrote history: the damaged file is
/// quarantined aside as `<path>.corrupt`, every verifiable record is
/// salvaged into a fresh journal, and the event is counted as
/// `journal_corruption` in {"stats"}. Recovery never silently drops a
/// record it cannot prove was never written.
///
/// Under zero-downtime restart (DESIGN.md, "Zero-downtime operations")
/// two server generations briefly append to the *same* file; every
/// record then carries a `"gen":N` stamp (setGeneration) so recovery
/// after a mid-upgrade kill -9 of either generation can attribute each
/// unmatched begin to its owner: a successor quarantines only begins
/// stamped by earlier generations, never its own live in-flight set.
/// (Sequence numbers are monotonic per writer, so the overlap window
/// interleaves two sequences; the scrubber checks monotonicity within
/// each generation stamp, not across the file.) During the overlap
/// window both sides hold rotation (holdRotation): a rewrite-and-
/// rename from one process while the other appends through its own
/// FILE* would strand those appends on the unlinked inode.
///
/// Durability is a policy knob (JournalSync). `Full` — the default and
/// the historical behavior — fsyncs every record: a power cut costs
/// nothing. `Batch` group-commits: appends reach the OS immediately
/// (kill -9 still loses nothing) and a flusher thread fsyncs at a
/// bounded interval, so a power cut can lose at most the last
/// FlushIntervalMs of records. The bench's journal_sync section
/// quantifies the hot-path cost of each.
///
/// Every write reports back. A failed append (short write, EIO,
/// ENOSPC, failed fsync) is retried exactly once through a fresh file
/// handle — never by re-flushing the same fd, which after a failed
/// fsync may silently drop the dirty pages it claimed to hold (the
/// fsyncgate trap) — and if the retry also fails the journal latches
/// `failed()`. A record counts only once its commit succeeded: the
/// tracked file size and the in-flight index advance after the commit,
/// never before, so every reopen shaves a failed record off the file
/// (a begin whose append failed never ran and must not read back as
/// poison). What the *server* does then is the --journal-failure
/// policy (JournalFailure below): refuse requests, serve on with the
/// journal marked lost in {"health"}, or abort. All file I/O goes
/// through the JournalIo seam (service/JournalIo.h) so the disk-chaos
/// harness can prove every one of these paths.
///
/// The journal only ever *matters* for its unmatched begins, so it
/// compacts to exactly those: compact() rewrites the file keeping only
/// in-flight begins (recover() calls it after quarantining, so a
/// restart inherits a minimal journal), and a file growing past the
/// rotation threshold rewrites itself the same way mid-run — a server
/// that lives for a billion requests carries kilobytes, not the full
/// history. Rotation is write-temp / fsync-temp / rename / fsync-dir;
/// a stale `<path>.rotate` left by a crash between those steps is
/// removed by the next open(). The `shutdown` record is the graceful-
/// drain marker (tools/jslice_serve's SIGTERM path): operators can
/// tell a clean stop from a crash without diffing begin/end pairs.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SERVICE_JOURNAL_H
#define JSLICE_SERVICE_JOURNAL_H

#include "service/JournalIo.h"
#include "service/Request.h"

#include <condition_variable>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace jslice {

/// How hard an append pushes toward the disk before returning.
enum class JournalSync {
  Full,  ///< fsync every record (survives power loss). Default.
  Batch, ///< fflush every record; group fsync at a bounded interval.
};

/// "full" / "batch" for flags and logs.
const char *journalSyncName(JournalSync S);
/// Parses a --journal-sync value; false on anything unrecognized.
bool parseJournalSyncName(const std::string &Name, JournalSync &Out);

/// What the server does once the journal latches failed() — the
/// --journal-failure policy. Never the pre-policy behavior of serving
/// on while silently recording nothing.
enum class JournalFailure {
  Shed,    ///< Refuse slice requests deterministically (shed,
           ///< cause "journal-failed"): the journal is load-bearing.
  Degrade, ///< Keep serving with the journal marked lost; {"health"}
           ///< reports degraded and jslice_client --health exits 1.
  Abort,   ///< Drain and exit cleanly: let the supervisor decide.
};

/// "shed" / "degrade" / "abort" for flags and logs.
const char *journalFailureName(JournalFailure F);
/// Parses a --journal-failure value; false on anything unrecognized.
bool parseJournalFailureName(const std::string &Name, JournalFailure &Out);

/// Counters for the journal's own health, folded into {"stats"}.
struct JournalCounters {
  uint64_t Appends = 0;          ///< Records durably appended.
  uint64_t AppendFailures = 0;   ///< Write/flush/fsync failures seen.
  uint64_t Reopens = 0;          ///< Fresh-handle retries that saved an
                                 ///< append after a failure.
  uint64_t RotationFailures = 0; ///< Rewrites abandoned on I/O errors.
  uint64_t CorruptRecords = 0;   ///< Mid-file damage found at open().
  uint64_t TornTails = 0;        ///< Torn final records truncated at open().
  uint64_t SalvagedRecords = 0;  ///< Records rescued from a corrupt file.
  bool Failed = false;           ///< Persistent-failure latch.
};

/// One journal record, decoded and CRC-verified (decodeJournalLine), or
/// the head of one about to be encoded (encodeJournalRecord).
struct JournalRecord {
  std::string Event;  ///< "begin", "end", "shutdown", "reattach".
  std::string Id;     ///< Empty for id-less records (shutdown, reattach).
  uint64_t Seq = 0;   ///< Per-writer sequence number (> 0).
  uint64_t Gen = 0;   ///< Generation stamp (0 = unstamped).
  uint64_t Epoch = 0; ///< Replication epoch stamp (0 = unstamped).
  /// A decoded begin's request. Empty for every other event and for a
  /// begin whose request does not decode: such a begin still counts as
  /// in flight (rotation keeps it) but can never be quarantined.
  std::optional<ServiceRequest> Request;
};

/// One member of a record body, already serialized: its key and the
/// JSON bytes of its value.
struct JournalMember {
  std::string_view Key;
  std::string_view Json;
};

/// The one record encoder. \p Body holds the event's own members
/// (`request`, `status`) in ascending key order, none of them a head
/// key; the encoder merges in `event`, `id` (when non-empty), the
/// `gen`/`epoch` stamps (when non-zero) and `seq` from \p Head, writes
/// every member once in the sorted order JsonValue objects serialize
/// in, and frames the result with the CRC of that serialization.
/// Returns the line without its newline.
std::string encodeJournalRecord(const JournalRecord &Head,
                                std::initializer_list<JournalMember> Body);

/// The one record decoder: parses \p Line once and verifies its CRC by
/// the format's rule (strip `crc`, re-serialize, compare). Nullopt for
/// anything unparseable, missing its `event`/`crc`/`seq`, or failing
/// the check.
std::optional<JournalRecord> decodeJournalLine(const std::string &Line);

/// One begin with no end yet: its record and raw line (rotation
/// rewrites the line verbatim, in sequence order).
struct OpenBegin {
  JournalRecord Rec;
  std::string Line;
};

/// Id -> open begin. Every reader and the appender change it through
/// one fold (Journal.cpp), and only with records that are durably in
/// the file.
using InFlightIndex = std::map<std::string, OpenBegin>;

/// Append side. Thread-safe; every append reaches the OS before
/// returning (the journal's whole point is surviving the process) —
/// how far past the OS it pushes is the JournalSync policy.
class Journal {
public:
  Journal() = default;
  ~Journal();

  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  /// Routes all file I/O through \p IoSeam (tests and the disk-chaos
  /// soak inject faults here). Call before open(); null restores the
  /// real syscalls. Not owned; must outlive the journal.
  void setIo(JournalIo *IoSeam);

  /// Opens \p Path for appending and seeds the in-flight index from
  /// whatever the file already holds, verifying checksums as it reads:
  /// a torn tail is truncated away, mid-file corruption quarantines
  /// the damaged file aside and salvages the verifiable records, and a
  /// stale rotation temp from a crashed predecessor is removed.
  /// \p RotateBytes > 0 arms size-triggered rotation: once the file
  /// exceeds it, the journal is rewritten down to its unmatched
  /// begins. \p Sync selects the durability policy; Batch mode starts
  /// a flusher thread honoring \p FlushIntervalMs. \p Repair = false
  /// suppresses the on-disk repairs (tail truncation, corruption
  /// quarantine, stale-temp removal) — a successor generation opening
  /// the journal while its predecessor still appends must not mistake
  /// a mid-write record for a torn tail and truncate live data; its
  /// recover()/completeHandoff() path reads around damage instead.
  /// Returns false (and stays disabled) when the file cannot be
  /// opened.
  bool open(const std::string &Path, uint64_t RotateBytes = 0,
            JournalSync Sync = JournalSync::Full,
            uint64_t FlushIntervalMs = 25, bool Repair = true);

  bool enabled() const { return File != nullptr; }
  const std::string &path() const { return Path; }

  /// True once an append failed persistently (the fresh-handle retry
  /// failed too). Appends stop reaching the disk; the server's
  /// --journal-failure policy decides what that means.
  bool failed() const;

  /// Counter snapshot.
  JournalCounters counters() const;

  /// Stamps every subsequent record with `"gen":G` (0 = no stamp,
  /// matching the pre-upgrade record shape).
  void setGeneration(uint64_t G);
  uint64_t generation() const;

  /// Stamps every subsequent record with `"epoch":E` — the replication
  /// fencing token (DESIGN.md, "Replication & failover"). 0 = no stamp,
  /// matching pre-replication record shape. Monotonic across
  /// promotions: a resurrected ex-primary still stamps its old epoch,
  /// which is how a post-mortem scan convicts a split-brain write.
  void setEpoch(uint64_t E);
  uint64_t epoch() const;

  /// Highest `"epoch"` stamp seen in replicated records (appendReplica)
  /// plus our own setEpoch — the base a promotion increments past.
  uint64_t maxEpochSeen() const;

  /// Sequence number of the last record appended (0 before the first).
  uint64_t lastSeq() const;

  /// Sequence the last compaction/rotation rewrite happened at: records
  /// with seq below this may no longer be in the file (a subscriber
  /// resuming from an older ack needs a fresh snapshot, not a tail).
  uint64_t lastCompactSeq() const;

  /// Observer called after every successfully appended record with the
  /// raw line and its sequence number — the replication ship hook.
  /// Invoked while the journal mutex is held, so invocations arrive in
  /// strict sequence order (a standby can dedup with a high-water
  /// mark); the tap must therefore never call back into this journal.
  /// A null tap detaches.
  using Tap = std::function<void(const std::string &Line, uint64_t Seq)>;
  void setTap(Tap T);

  /// Appends a pre-formed record line received from a replication
  /// stream verbatim. \p Rec is decodeJournalLine(\p Line): the caller
  /// verified the line once and passes what it decoded. Advances the
  /// sequence counter past the record and tracks its epoch stamp; once
  /// the append is durable, folds it into the in-flight index. Returns
  /// false when the append did not become durable. Does not invoke the
  /// tap (replicas do not re-ship).
  bool appendReplica(const std::string &Line, JournalRecord Rec);

  /// The journal as a replication catch-up sees it; valid only inside
  /// catchUp()'s callback.
  class CatchUp {
  public:
    uint64_t ThroughSeq = 0;     ///< Last sequence appended so far.
    uint64_t LastCompactSeq = 0; ///< As lastCompactSeq().
    uint64_t Epoch = 0;          ///< As epoch().

    /// Reads the file and calls \p Fn on every verifiable record as
    /// (seq, line), in file order. Holds one line at a time.
    void forEachRecord(
        const std::function<void(uint64_t, const std::string &)> &Fn) const;

  private:
    friend class Journal;
    const std::string *Path = nullptr;
  };

  /// Runs \p Fn on a CatchUp of this journal inside one journal
  /// critical section: no append, rotation or compaction lands until
  /// \p Fn returns, so a subscriber \p Fn registers with the tap sees
  /// every record past ThroughSeq live and none twice. The replication
  /// hub's catch-up. \p Fn runs under the journal mutex: like the tap,
  /// it must never call back into this journal.
  void catchUp(const std::function<void(const CatchUp &)> &Fn) const;

  /// Standby side: empties the replica journal before applying a full
  /// snapshot stream (replaying a compacted file over stale records
  /// would resurrect completed begins as in-flight). Keeps the epoch/
  /// generation stamps; resets the sequence counter — the snapshot's
  /// records re-seed it. False when the file cannot be recreated.
  bool resetForSnapshot();

  /// Recovery probe for a latched failed() journal: reopens through a
  /// fresh handle and appends a `reattach` record through the normal
  /// retry path (and the ship tap, like every record). True (and
  /// failed() clears) when the disk took the record durably — the
  /// --journal-failure=degrade reopen probe. No-op returning true when
  /// the journal never failed.
  bool tryReattach();

  /// While held, size-triggered rotation and compact() are suppressed.
  /// Both generations hold during an upgrade overlap window; the
  /// survivor releases once the other process is gone.
  void holdRotation(bool Hold);

  /// Appends the write-ahead record for slice request \p R. False when
  /// the record did not become durable (the journal is disabled or
  /// failed). \p SeqOut (when non-null) receives the record's sequence number —
  /// what a sync-ack replication policy waits on.
  bool begin(const ServiceRequest &R, uint64_t *SeqOut = nullptr);

  /// Appends the completion record for \p Id. Same contract.
  bool end(const std::string &Id, const std::string &Status);

  /// Appends the graceful-shutdown marker (clean drain, no poison).
  bool shutdownRecord();

  /// Rewrites the file keeping only unmatched begins. Returns the
  /// number of records kept; a fully-bracketed journal compacts to an
  /// empty file. No-op (returning 0) when disabled or rotation-held.
  size_t compact();

  /// Bytes currently in the file (as tracked by the appender).
  uint64_t bytes() const;

private:
  bool appendLocked(const std::string &Line);
  bool writeLineLocked(const std::string &Line);
  bool commitLocked();
  bool reopenLocked();
  bool appendRecordLocked(const char *Event, const std::string &Id,
                          std::initializer_list<JournalMember> Body,
                          uint64_t *SeqOut = nullptr);
  bool rewriteLocked();
  void stopFlusherLocked(std::unique_lock<std::mutex> &Lock);
  void flusherMain();

  mutable std::mutex M;
  JournalIo *Io = &JournalIo::system();
  std::FILE *File = nullptr;
  std::string Path;
  uint64_t RotateBytes = 0;
  uint64_t Bytes = 0;
  uint64_t Gen = 0;
  uint64_t Epoch = 0;
  uint64_t MaxEpoch = 0;       ///< Highest epoch stamped or replicated.
  uint64_t NextSeq = 1;
  uint64_t LastCompactSeq = 0; ///< NextSeq when the file was last rewritten.
  Tap ShipTap;                 ///< Post-append observer (replication).
  bool RotationHeld = false;
  bool Failed = false;     ///< Persistent append failure; latched.
  bool SyncBroken = false; ///< Batch flusher saw a failed fsync; the
                           ///< next append must reopen-or-fail.
  JournalCounters Stats;
  /// Every committed begin without a committed end.
  InFlightIndex OpenBegins;

  JournalSync Sync = JournalSync::Full;
  uint64_t FlushIntervalMs = 25;
  bool Dirty = false; ///< Batch: bytes appended since last fsync.
  bool FlusherStop = false;
  std::condition_variable FlushCv;
  std::thread Flusher;
};

/// One in-flight-at-crash request recovered from a journal.
struct PoisonedRequest {
  std::string Id;
  ServiceRequest Request;
  /// Generation stamp of the begin record (0 for unstamped records).
  uint64_t Gen = 0;
  /// Epoch stamp of the begin record (0 for unstamped records).
  uint64_t Epoch = 0;
};

/// CRC32 (the zlib/IEEE polynomial) of \p Data — the journal's record
/// checksum, exposed for tests and the scrub tool.
/// Slice-by-8: eight bytes per step through eight 256-entry tables.
uint32_t journalCrc32(std::string_view Data);

/// Everything one pass over a journal file can tell you.
struct JournalScan {
  std::vector<PoisonedRequest> InFlight; ///< Begins with no end whose
                                         ///< request decodes, by id.
  uint64_t Records = 0;        ///< Checksummed records that verified.
  uint64_t CorruptRecords = 0; ///< Mid-file verification failures.
  bool TornTail = false;       ///< The final record is damaged —
                               ///< expected after kill -9; truncating
                               ///< to GoodBytes repairs it.
  uint64_t GoodBytes = 0;      ///< File offset after the last record
                               ///< that verified.
  uint64_t SeqRegressions = 0; ///< Sequence went backwards within one
                               ///< generation stamp (scrub signal, not
                               ///< corruption: upgrade overlap
                               ///< interleaves two writers).
  bool CleanShutdown = false;  ///< Last verifiable record is the
                               ///< graceful-drain marker.
  bool Exists = false;         ///< The file could be opened at all.
  uint64_t MaxEpoch = 0;       ///< Highest `"epoch"` fencing stamp seen
                               ///< (0 when no record carries one).
  uint64_t MaxSeq = 0;         ///< Highest verified sequence number —
                               ///< what a replica provably holds.
};

/// Scans \p Path, decoding every record once. Missing or empty files
/// yield a default result (first boot is not an error); damaged records
/// never crash the scan and never fabricate an in-flight entry.
/// Read-only: the repair decisions (truncate the tail, quarantine the
/// file) belong to Journal::open and the callers of this scan.
JournalScan scanJournalDetailed(const std::string &Path);

/// True when \p Path's last meaningful record is a clean `shutdown`
/// marker (the graceful-drain test and operators use this). A record
/// that fails verification cannot claim a clean shutdown.
bool journalEndsWithCleanShutdown(const std::string &Path);

/// Writes \p P's program to \p Dir/poison_<id>.mc with a metadata
/// sidecar (same shape as the stress harness's repros). Returns the
/// .mc path, or "" on I/O failure — callers must then leave the
/// journal begin unmatched so the next boot retries, never drop the
/// poison on the floor.
std::string quarantinePoisoned(const std::string &Dir,
                               const PoisonedRequest &P);

} // namespace jslice

#endif // JSLICE_SERVICE_JOURNAL_H
