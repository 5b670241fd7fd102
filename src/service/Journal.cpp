//===- service/Journal.cpp - Write-ahead request journal -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "service/Journal.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace jslice;

const char *jslice::journalSyncName(JournalSync S) {
  switch (S) {
  case JournalSync::Full:
    return "full";
  case JournalSync::Batch:
    return "batch";
  }
  return "full";
}

bool jslice::parseJournalSyncName(const std::string &Name, JournalSync &Out) {
  if (Name == "full")
    Out = JournalSync::Full;
  else if (Name == "batch")
    Out = JournalSync::Batch;
  else
    return false;
  return true;
}

const char *jslice::journalFailureName(JournalFailure F) {
  switch (F) {
  case JournalFailure::Shed:
    return "shed";
  case JournalFailure::Degrade:
    return "degrade";
  case JournalFailure::Abort:
    return "abort";
  }
  return "shed";
}

bool jslice::parseJournalFailureName(const std::string &Name,
                                     JournalFailure &Out) {
  if (Name == "shed")
    Out = JournalFailure::Shed;
  else if (Name == "degrade")
    Out = JournalFailure::Degrade;
  else if (Name == "abort")
    Out = JournalFailure::Abort;
  else
    return false;
  return true;
}

uint32_t jslice::journalCrc32(const std::string &Data) {
  // The zlib/IEEE CRC32, table-driven; built once, thread-safe since
  // C++11 static initialization.
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K < 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
    return T;
  }();
  uint32_t C = 0xffffffffu;
  for (unsigned char B : Data)
    C = Table[(C ^ B) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

namespace {

std::string crcHex(uint32_t C) {
  char Buf[9];
  std::snprintf(Buf, sizeof(Buf), "%08x", C);
  return Buf;
}

/// Minimal record probe: event + id (+ epoch stamp when asked), without
/// materializing requests.
bool probeRecord(const std::string &Line, std::string &Event,
                 std::string &Id, uint64_t *EpochOut = nullptr) {
  std::optional<JsonValue> V = JsonValue::parse(Line);
  if (!V || !V->isObject())
    return false;
  const JsonValue *E = V->find("event");
  if (!E || !E->isString())
    return false;
  Event = E->asString();
  const JsonValue *I = V->find("id");
  Id = (I && I->isString()) ? I->asString() : "";
  if (EpochOut) {
    *EpochOut = 0;
    const JsonValue *Ep = V->find("epoch");
    if (Ep && Ep->isNumber() && Ep->asInt() > 0)
      *EpochOut = static_cast<uint64_t>(Ep->asInt());
  }
  return true;
}

bool isBlank(const std::string &Line) {
  return Line.find_first_not_of(" \t\r") == std::string::npos;
}

} // namespace

JournalLineCheck jslice::verifyJournalLine(const std::string &Line,
                                           uint64_t *SeqOut) {
  std::optional<JsonValue> V = JsonValue::parse(Line);
  if (!V || !V->isObject())
    return JournalLineCheck::Corrupt;
  const JsonValue *E = V->find("event");
  if (!E || !E->isString())
    return JournalLineCheck::Corrupt;
  const JsonValue *Crc = V->find("crc");
  if (!Crc || !Crc->isString() || Crc->asString().size() != 8)
    return JournalLineCheck::Corrupt;
  const JsonValue *Seq = V->find("seq");
  if (!Seq || !Seq->isNumber() || Seq->asInt() <= 0)
    return JournalLineCheck::Corrupt;
  // Serialization is deterministic (sorted keys, no whitespace), so
  // the payload the writer checksummed is exactly this record minus
  // its crc member, re-serialized.
  JsonValue Stripped = *V;
  Stripped.remove("crc");
  if (Crc->asString() != crcHex(journalCrc32(Stripped.str())))
    return JournalLineCheck::Corrupt;
  if (SeqOut)
    *SeqOut = static_cast<uint64_t>(Seq->asInt());
  return JournalLineCheck::Valid;
}

Journal::~Journal() {
  std::unique_lock<std::mutex> Lock(M);
  stopFlusherLocked(Lock);
  if (File) {
    Io->flush(File);
    Io->sync(File);
    Io->close(File);
    File = nullptr;
  }
}

void Journal::setIo(JournalIo *IoSeam) {
  std::lock_guard<std::mutex> Lock(M);
  Io = IoSeam ? IoSeam : &JournalIo::system();
}

bool Journal::open(const std::string &P, uint64_t Rotate, JournalSync S,
                   uint64_t FlushMs, bool Repair) {
  std::unique_lock<std::mutex> Lock(M);
  stopFlusherLocked(Lock);
  if (File) {
    Io->close(File);
    File = nullptr;
  }
  OpenBegins.clear();
  Bytes = 0;
  NextSeq = 1;
  LastCompactSeq = 0;
  Dirty = false;
  Failed = false;
  SyncBroken = false;
  Stats = JournalCounters();

  // A crash between writing the rotation temp and renaming it leaves
  // the temp behind; the journal itself is intact, so the temp is
  // stale by definition. (Skipped in no-repair mode: a predecessor
  // generation may still be alive and rotating.)
  if (Repair)
    Io->remove(P + ".rotate");

  JournalScan Scan =
      Repair ? scanJournalDetailed(P) : JournalScan();
  if (Scan.Exists && Scan.CorruptRecords) {
    // Mid-file corruption: something rewrote history. Quarantine the
    // damaged file aside for forensics and salvage every record that
    // still verifies into a fresh journal.
    Stats.CorruptRecords = Scan.CorruptRecords;
    std::string Damaged = P + ".corrupt";
    if (Io->rename(P, Damaged)) {
      std::FILE *Fresh = Io->open(P, "wb");
      if (!Fresh) {
        // Cannot build the salvage file; put the damaged one back so
        // nothing is lost, and let recovery read around the damage.
        Io->rename(Damaged, P);
      } else {
        std::ifstream In(Damaged, std::ios::binary);
        std::string Line;
        bool Ok = true;
        while (In && std::getline(In, Line)) {
          if (isBlank(Line) ||
              verifyJournalLine(Line) == JournalLineCheck::Corrupt)
            continue;
          std::string Buf = Line + "\n";
          Ok = Io->write(Fresh, Buf.data(), Buf.size()) == Buf.size() && Ok;
          ++Stats.SalvagedRecords;
        }
        Ok = Io->flush(Fresh) && Ok;
        Ok = Io->sync(Fresh) && Ok;
        Io->close(Fresh);
        Io->syncDir(P);
        if (!Ok) {
          // The salvage copy is suspect; fall back to the original.
          Io->remove(P);
          Io->rename(Damaged, P);
        }
      }
    }
  } else if (Scan.Exists && Scan.TornTail) {
    // The expected kill -9 / power-loss signature: the final record is
    // partial. Truncate to the last verified record and proceed.
    Stats.TornTails = 1;
    Io->truncate(P, Scan.GoodBytes);
  }

  // A crash can also cut the final append at exactly its last content
  // byte: the record verifies (all its bytes made it) but its newline
  // did not. Complete the framing, or the next append would splice
  // onto the same line and corrupt a record that survived the crash.
  if (Repair) {
    std::ifstream Tail(P, std::ios::binary | std::ios::ate);
    if (Tail && Tail.tellg() > 0) {
      Tail.seekg(-1, std::ios::end);
      char Last = '\n';
      if (Tail.get(Last) && Last != '\n') {
        std::FILE *F = Io->open(P, "ab");
        if (F) {
          Io->write(F, "\n", 1);
          Io->flush(F);
          Io->sync(F);
          Io->close(F);
        }
      }
    }
  }

  // Seed the in-flight index from the (now repaired) file: rotation
  // must preserve a predecessor's unmatched begins until recover()
  // closes them, even if the first rotation fires before that. Also
  // resume the sequence counter past everything on disk.
  {
    std::ifstream In(P, std::ios::binary);
    std::string Line;
    while (In && std::getline(In, Line)) {
      Bytes += Line.size() + 1;
      if (isBlank(Line))
        continue;
      uint64_t Seq = 0;
      if (verifyJournalLine(Line, &Seq) == JournalLineCheck::Corrupt)
        continue; // Unrepaired damage (see above); never fabricate.
      if (Seq >= NextSeq)
        NextSeq = Seq + 1;
      std::string Event, Id;
      uint64_t RecEpoch = 0;
      if (!probeRecord(Line, Event, Id, &RecEpoch))
        continue;
      MaxEpoch = std::max(MaxEpoch, RecEpoch);
      if (Event == "begin" && !Id.empty())
        OpenBegins[Id] = OpenBegin{Seq, Line};
      else if (Event == "end")
        OpenBegins.erase(Id);
    }
  }

  File = Io->open(P, "ab");
  if (!File)
    return false;
  Path = P;
  RotateBytes = Rotate;
  Sync = S;
  FlushIntervalMs = FlushMs ? FlushMs : 25;
  if (Sync == JournalSync::Batch) {
    FlusherStop = false;
    Flusher = std::thread([this] { flusherMain(); });
  }
  return true;
}

bool Journal::failed() const {
  std::lock_guard<std::mutex> Lock(M);
  return Failed;
}

JournalCounters Journal::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  JournalCounters C = Stats;
  C.Failed = Failed;
  return C;
}

void Journal::setGeneration(uint64_t G) {
  std::lock_guard<std::mutex> Lock(M);
  Gen = G;
}

uint64_t Journal::generation() const {
  std::lock_guard<std::mutex> Lock(M);
  return Gen;
}

void Journal::setEpoch(uint64_t E) {
  std::lock_guard<std::mutex> Lock(M);
  Epoch = E;
  MaxEpoch = std::max(MaxEpoch, E);
}

uint64_t Journal::epoch() const {
  std::lock_guard<std::mutex> Lock(M);
  return Epoch;
}

uint64_t Journal::maxEpochSeen() const {
  std::lock_guard<std::mutex> Lock(M);
  return MaxEpoch;
}

uint64_t Journal::lastSeq() const {
  std::lock_guard<std::mutex> Lock(M);
  return NextSeq - 1;
}

uint64_t Journal::lastCompactSeq() const {
  std::lock_guard<std::mutex> Lock(M);
  return LastCompactSeq;
}

void Journal::setTap(Tap T) {
  std::lock_guard<std::mutex> Lock(M);
  ShipTap = std::move(T);
}

void Journal::holdRotation(bool Hold) {
  std::lock_guard<std::mutex> Lock(M);
  RotationHeld = Hold;
}

void Journal::stopFlusherLocked(std::unique_lock<std::mutex> &Lock) {
  if (!Flusher.joinable())
    return;
  FlusherStop = true;
  FlushCv.notify_all();
  Lock.unlock();
  Flusher.join();
  Lock.lock();
  FlusherStop = false;
}

/// Batch-mode group commit: sleep until records accumulate (or at most
/// one interval), then pay one fsync for all of them. The fsync runs
/// under the journal mutex — that *is* the commit point; appenders
/// queue behind it exactly as they would behind their own fsync, but
/// N records share one disk round-trip instead of paying N.
void Journal::flusherMain() {
  std::unique_lock<std::mutex> Lock(M);
  while (!FlusherStop) {
    FlushCv.wait_for(Lock, std::chrono::milliseconds(FlushIntervalMs),
                     [this] { return FlusherStop || Dirty; });
    if (Dirty && File) {
      if (!Io->sync(File)) {
        // fsyncgate: after a failed fsync this fd's dirty pages may
        // already be dropped; re-fsyncing it would "succeed" without
        // writing them. Route the next append through a fresh handle.
        ++Stats.AppendFailures;
        SyncBroken = true;
      }
      Dirty = false;
      if (FlusherStop)
        break;
      // Bound the commit cadence: wake again one interval from now
      // rather than fsyncing per record under load.
      Lock.unlock();
      std::this_thread::sleep_for(
          std::chrono::milliseconds(FlushIntervalMs));
      Lock.lock();
    }
  }
  // Final commit so close loses nothing that reached the FILE.
  if (Dirty && File) {
    if (!Io->sync(File))
      SyncBroken = true;
    Dirty = false;
  }
}

/// One line into the file and out to the OS. Bytes is only advanced on
/// full success, so it always names the boundary of the last good
/// record — exactly where reopenLocked() truncates torn bytes away.
bool Journal::writeLineLocked(const std::string &Line) {
  std::string Buf = Line;
  Buf += '\n';
  if (Io->write(File, Buf.data(), Buf.size()) != Buf.size())
    return false;
  if (!Io->flush(File))
    return false;
  Bytes += Buf.size();
  return true;
}

/// The post-write durability step for the active sync policy.
bool Journal::commitLocked() {
  switch (Sync) {
  case JournalSync::Full:
    // fflush reached the OS; fsync reaches the disk. A kill -9 only
    // needs the former, a power cut the latter — take both.
    return Io->sync(File);
  case JournalSync::Batch:
    Dirty = true;
    FlushCv.notify_one();
    return true;
  }
  return true;
}

/// Replaces the file handle after any I/O failure. Never re-flushes
/// the old fd (fsyncgate); closes it, shaves any torn bytes the failed
/// write left past the last good record, and opens fresh.
bool Journal::reopenLocked() {
  if (File) {
    Io->close(File);
    File = nullptr;
  }
  Io->truncate(Path, Bytes);
  File = Io->open(Path, "ab");
  return File != nullptr;
}

bool Journal::appendLocked(const std::string &Line) {
  if (!File || Failed)
    return false;
  if (SyncBroken) {
    // The batch flusher hit a failed fsync; this fd cannot be trusted
    // to hold what it buffered. Reopen before appending anything else.
    if (!reopenLocked()) {
      Failed = true;
      return false;
    }
    ++Stats.Reopens;
    SyncBroken = false;
  }
  if (RotateBytes && !RotationHeld && Bytes + Line.size() + 1 > RotateBytes &&
      Bytes > OpenBegins.size() * 64) // Don't thrash a tiny threshold.
    rewriteLocked();
  if (File && writeLineLocked(Line) && commitLocked()) {
    ++Stats.Appends;
    return true;
  }
  ++Stats.AppendFailures;
  // Retry exactly once through a fresh handle — a failed write or
  // fsync may have left a torn record and/or dropped pages; the same
  // fd can report success for data it already lost.
  if (reopenLocked() && writeLineLocked(Line) && commitLocked()) {
    ++Stats.Reopens;
    ++Stats.Appends;
    return true;
  }
  // Persistent failure: latch. The server's --journal-failure policy
  // turns this into shed / degrade / abort — never silence.
  Failed = true;
  return false;
}

/// Stamps gen + epoch + seq + crc onto \p Rec and appends it. The
/// caller passes the record without those fields; serialization order
/// is deterministic, so the crc is computed over the record minus the
/// crc member itself. The ship tap fires outside the mutex.
bool Journal::appendRecord(JsonValue Rec) {
  std::lock_guard<std::mutex> Lock(M);
  if (!File)
    return false;
  if (Gen)
    Rec.set("gen", Gen);
  if (Epoch)
    Rec.set("epoch", Epoch);
  uint64_t Seq = NextSeq++;
  Rec.set("seq", Seq);
  Rec.set("crc", crcHex(journalCrc32(Rec.str())));
  std::string Line = Rec.str();
  if (!appendLocked(Line))
    return false;
  if (ShipTap)
    ShipTap(Line, Seq); // Under the mutex: taps stay in seq order.
  return true;
}

bool Journal::begin(const ServiceRequest &R, uint64_t *SeqOut) {
  JsonValue Rec = JsonValue::object();
  Rec.set("event", "begin");
  Rec.set("id", R.Id);
  Rec.set("request", R.toJson());
  std::lock_guard<std::mutex> Lock(M);
  if (!File)
    return false;
  if (Gen)
    Rec.set("gen", Gen);
  if (Epoch)
    Rec.set("epoch", Epoch);
  uint64_t Seq = NextSeq++;
  Rec.set("seq", Seq);
  Rec.set("crc", crcHex(journalCrc32(Rec.str())));
  std::string Line = Rec.str();
  OpenBegins[R.Id] = OpenBegin{Seq, Line};
  if (!appendLocked(Line))
    return false;
  if (SeqOut)
    *SeqOut = Seq;
  if (ShipTap)
    ShipTap(Line, Seq); // Under the mutex: taps stay in seq order.
  return true;
}

bool Journal::end(const std::string &Id, const std::string &Status) {
  JsonValue Rec = JsonValue::object();
  Rec.set("event", "end");
  Rec.set("id", Id);
  Rec.set("status", Status);
  std::lock_guard<std::mutex> Lock(M);
  if (!File)
    return false;
  OpenBegins.erase(Id);
  if (Gen)
    Rec.set("gen", Gen);
  if (Epoch)
    Rec.set("epoch", Epoch);
  uint64_t Seq = NextSeq++;
  Rec.set("seq", Seq);
  Rec.set("crc", crcHex(journalCrc32(Rec.str())));
  std::string Line = Rec.str();
  if (!appendLocked(Line))
    return false;
  if (ShipTap)
    ShipTap(Line, Seq); // Under the mutex: taps stay in seq order.
  return true;
}

bool Journal::appendReplica(const std::string &Line) {
  uint64_t Seq = 0;
  JournalLineCheck C = verifyJournalLine(Line, &Seq);
  if (C == JournalLineCheck::Corrupt)
    return false;
  std::string Event, Id;
  uint64_t RecEpoch = 0;
  if (!probeRecord(Line, Event, Id, &RecEpoch))
    return false;
  std::lock_guard<std::mutex> Lock(M);
  if (!File)
    return false;
  MaxEpoch = std::max(MaxEpoch, RecEpoch);
  if (Seq >= NextSeq)
    NextSeq = Seq + 1;
  if (Event == "begin" && !Id.empty())
    OpenBegins[Id] = OpenBegin{Seq, Line};
  else if (Event == "end")
    OpenBegins.erase(Id);
  return appendLocked(Line);
}

std::vector<std::string>
Journal::snapshotRecords(uint64_t &ThroughSeq) const {
  std::lock_guard<std::mutex> Lock(M);
  ThroughSeq = NextSeq - 1;
  std::vector<std::string> Records;
  // Every append fflushes before returning, so a plain read of the
  // path sees everything appended so far; holding the mutex keeps the
  // file from rotating or growing underneath the read.
  std::ifstream In(Path, std::ios::binary);
  std::string Line;
  while (In && std::getline(In, Line)) {
    if (isBlank(Line) ||
        verifyJournalLine(Line) == JournalLineCheck::Corrupt)
      continue;
    Records.push_back(Line);
  }
  return Records;
}

bool Journal::resetForSnapshot() {
  std::lock_guard<std::mutex> Lock(M);
  if (!File)
    return false;
  Io->close(File);
  File = nullptr;
  Io->remove(Path);
  File = Io->open(Path, "ab");
  if (!File) {
    Failed = true;
    return false;
  }
  OpenBegins.clear();
  Bytes = 0;
  NextSeq = 1;
  Dirty = false;
  return true;
}

bool Journal::tryReattach() {
  JsonValue Rec = JsonValue::object();
  Rec.set("event", "reattach");
  std::lock_guard<std::mutex> Lock(M);
  if (!Failed)
    return File != nullptr;
  // The latch exists because the last fresh-handle retry failed too;
  // probe with a real durable append, not just an open() — a disk that
  // mounts read-only opens fine and still cannot journal.
  Failed = false;
  if (!reopenLocked()) {
    Failed = true;
    return false;
  }
  ++Stats.Reopens;
  SyncBroken = false;
  if (Gen)
    Rec.set("gen", Gen);
  if (Epoch)
    Rec.set("epoch", Epoch);
  Rec.set("seq", NextSeq);
  ++NextSeq;
  Rec.set("crc", crcHex(journalCrc32(Rec.str())));
  return appendLocked(Rec.str()); // Re-latches Failed on failure.
}

bool Journal::shutdownRecord() {
  JsonValue Rec = JsonValue::object();
  Rec.set("event", "shutdown");
  Rec.set("status", "clean");
  return appendRecord(std::move(Rec));
}

/// Rewrites the file to exactly the unmatched begins. Called with the
/// mutex held. Write-temp / fsync-temp / rename / fsync-dir, so a
/// crash at any point leaves either the old file or the complete new
/// one, never a torn hybrid — and the completed rename survives power
/// loss.
bool Journal::rewriteLocked() {
  std::string Tmp = Path + ".rotate";
  std::FILE *TmpF = Io->open(Tmp, "wb");
  if (!TmpF) {
    ++Stats.RotationFailures;
    return false;
  }
  // Emit in append (sequence) order, not id order, so the rewritten
  // file still reads as one monotonic sequence per writer.
  std::vector<const OpenBegin *> Ordered;
  Ordered.reserve(OpenBegins.size());
  for (const auto &[Id, B] : OpenBegins)
    Ordered.push_back(&B);
  std::sort(Ordered.begin(), Ordered.end(),
            [](const OpenBegin *A, const OpenBegin *B) {
              return A->Seq < B->Seq;
            });
  bool Ok = true;
  uint64_t NewBytes = 0;
  for (const OpenBegin *B : Ordered) {
    std::string Buf = B->Line;
    Buf += '\n';
    Ok = Io->write(TmpF, Buf.data(), Buf.size()) == Buf.size() && Ok;
    NewBytes += Buf.size();
  }
  Ok = Io->flush(TmpF) && Ok;
  Ok = Io->sync(TmpF) && Ok; // The temp must be durable before the
                             // rename can make it the journal.
  Io->close(TmpF);
  if (!Ok) {
    Io->remove(Tmp);
    ++Stats.RotationFailures;
    return false;
  }
  if (!Io->rename(Tmp, Path)) {
    Io->remove(Tmp);
    ++Stats.RotationFailures;
    return false;
  }
  Io->syncDir(Path); // And the rename itself must survive power loss.
  // Records below this sequence may now be gone from the file; a
  // replication subscriber resuming from an older ack needs a fresh
  // snapshot, not an incremental tail.
  LastCompactSeq = NextSeq;
  // The old handle now points at an unlinked inode; reopen the new
  // file. A failed reopen latches the failure rather than silently
  // appending into the void.
  Io->close(File);
  File = Io->open(Path, "ab");
  Bytes = NewBytes;
  if (!File) {
    // Leave the latch to the append path: its fresh-handle retry may
    // still recover the handle this reopen could not get.
    ++Stats.RotationFailures;
    return false;
  }
  return true;
}

size_t Journal::compact() {
  std::lock_guard<std::mutex> Lock(M);
  if (!File || RotationHeld)
    return 0;
  rewriteLocked();
  return OpenBegins.size();
}

uint64_t Journal::bytes() const {
  std::lock_guard<std::mutex> Lock(M);
  return Bytes;
}

JournalScan jslice::scanJournalDetailed(const std::string &Path) {
  JournalScan S;
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return S;
  S.Exists = true;
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());

  // Id -> last unmatched begin. Ids may legitimately recur across
  // completed begin/end pairs; only a begin still open at EOF counts.
  std::map<std::string, PoisonedRequest> Open;
  // Per-generation sequence high-water marks: the upgrade overlap
  // interleaves two writers, each monotonic within its own stamp.
  std::map<uint64_t, uint64_t> SeqHigh;
  std::string LastEvent;
  uint64_t TrailingCorrupt = 0; // Damaged lines after the last good one.

  size_t Pos = 0;
  while (Pos < All.size()) {
    size_t Nl = All.find('\n', Pos);
    size_t End = Nl == std::string::npos ? All.size() : Nl;
    std::string Line = All.substr(Pos, End - Pos);
    size_t LineEnd = Nl == std::string::npos ? All.size() : Nl + 1;
    Pos = LineEnd;
    if (isBlank(Line)) {
      if (!TrailingCorrupt)
        S.GoodBytes = LineEnd; // Blank lines are framing, not damage.
      continue;
    }

    uint64_t Seq = 0;
    JournalLineCheck C = verifyJournalLine(Line, &Seq);
    if (C == JournalLineCheck::Corrupt) {
      ++TrailingCorrupt;
      continue;
    }
    // A good line after damage proves the damage was mid-file, not a
    // torn tail.
    S.CorruptRecords += TrailingCorrupt;
    TrailingCorrupt = 0;
    S.GoodBytes = LineEnd;
    ++S.Records;

    std::optional<JsonValue> V = JsonValue::parse(Line);
    const JsonValue *Event = V->find("event");
    LastEvent = Event->asString();
    uint64_t Gen = 0;
    const JsonValue *G = V->find("gen");
    if (G && G->isNumber() && G->asInt() > 0)
      Gen = static_cast<uint64_t>(G->asInt());
    uint64_t Epoch = 0;
    const JsonValue *Ep = V->find("epoch");
    if (Ep && Ep->isNumber() && Ep->asInt() > 0)
      Epoch = static_cast<uint64_t>(Ep->asInt());
    S.MaxEpoch = std::max(S.MaxEpoch, Epoch);
    S.MaxSeq = std::max(S.MaxSeq, Seq);
    // Strict regressions only: a rotation rewrite can legally emit a
    // begin the appender then re-appends, duplicating one sequence
    // number without reordering anything.
    uint64_t &High = SeqHigh[Gen];
    if (Seq < High)
      ++S.SeqRegressions;
    High = std::max(High, Seq);

    const JsonValue *Id = V->find("id");
    if (!Id || !Id->isString())
      continue; // Id-less records (the shutdown marker) carry no
                // in-flight state.
    if (LastEvent == "begin") {
      const JsonValue *Req = V->find("request");
      ServiceRequest R;
      if (Req && requestFromJson(*Req, R)) {
        PoisonedRequest P;
        P.Id = Id->asString();
        P.Request = std::move(R);
        P.Gen = Gen;
        P.Epoch = Epoch;
        Open[P.Id] = std::move(P);
      }
    } else if (LastEvent == "end") {
      Open.erase(Id->asString());
    }
  }

  S.TornTail = TrailingCorrupt > 0;
  S.CleanShutdown = LastEvent == "shutdown";
  for (auto &[Id, P] : Open)
    S.InFlight.push_back(std::move(P));
  return S;
}

std::vector<PoisonedRequest> jslice::scanJournal(const std::string &Path) {
  return scanJournalDetailed(Path).InFlight;
}

bool jslice::journalEndsWithCleanShutdown(const std::string &Path) {
  JournalScan S = scanJournalDetailed(Path);
  return S.Exists && S.CleanShutdown;
}

std::string jslice::quarantinePoisoned(const std::string &Dir,
                                       const PoisonedRequest &P) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  std::string Base = Dir + "/poison_" + P.Id;
  {
    std::ofstream Out(Base + ".mc");
    if (!Out)
      return "";
    Out << P.Request.Program;
    Out.flush();
    if (!Out)
      return ""; // A half-written reproducer is no reproducer: the
                 // caller must keep the journal begin unmatched.
  }
  {
    std::ofstream Out(Base + ".txt");
    Out << "poisoned request (in flight when a previous server died)\n"
        << "id: " << P.Id << "\n"
        << "algorithm: " << algorithmName(P.Request.Algorithm) << "\n"
        << "criterion: line " << P.Request.Line << " vars "
        << join(P.Request.Vars, ",") << "\n"
        << "replay: jslice_stress --replay-journal <journal>, or slice "
        << "the .mc directly\n";
  }
  return Base + ".mc";
}
