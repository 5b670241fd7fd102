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

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected IEEE polynomial. Row 0 is the
/// classic bytewise table; row K advances a byte's contribution past K
/// more zero bytes, so eight table lookups consume eight input bytes.
constexpr Crc32Tables makeCrc32Tables() {
  Crc32Tables T{};
  for (uint32_t I = 0; I < 256; ++I) {
    uint32_t C = I;
    for (int K = 0; K < 8; ++K)
      C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
    T[0][I] = C;
  }
  for (size_t K = 1; K < 8; ++K)
    for (uint32_t I = 0; I < 256; ++I)
      T[K][I] = (T[K - 1][I] >> 8) ^ T[0][T[K - 1][I] & 0xffu];
  return T;
}

constexpr Crc32Tables Crc32Table = makeCrc32Tables();

/// Four bytes as a little-endian word, whatever the host's byte order.
uint32_t loadLe32(const unsigned char *P) {
  return uint32_t(P[0]) | uint32_t(P[1]) << 8 | uint32_t(P[2]) << 16 |
         uint32_t(P[3]) << 24;
}

} // namespace

uint32_t jslice::journalCrc32(std::string_view Data) {
  const auto &T = Crc32Table;
  const unsigned char *P = reinterpret_cast<const unsigned char *>(Data.data());
  const unsigned char *End = P + Data.size();
  uint32_t C = 0xffffffffu;
  for (; End - P >= 8; P += 8) {
    uint32_t Lo = C ^ loadLe32(P), Hi = loadLe32(P + 4);
    C = T[7][Lo & 0xffu] ^ T[6][(Lo >> 8) & 0xffu] ^
        T[5][(Lo >> 16) & 0xffu] ^ T[4][Lo >> 24] ^ T[3][Hi & 0xffu] ^
        T[2][(Hi >> 8) & 0xffu] ^ T[1][(Hi >> 16) & 0xffu] ^ T[0][Hi >> 24];
  }
  for (; P != End; ++P)
    C = T[0][(C ^ *P) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

namespace {

/// The crc member's value: eight lowercase hex digits (printf's %08x).
constexpr size_t CrcDigits = 8;

void writeCrcHex(char *Out, uint32_t C) {
  static constexpr char Hex[] = "0123456789abcdef";
  for (size_t I = CrcDigits; I-- > 0; C >>= 4)
    Out[I] = Hex[C & 0xfu];
}

bool isBlank(const std::string &Line) {
  return Line.find_first_not_of(" \t\r") == std::string::npos;
}

/// A positive integer member, else 0 (the unstamped value).
uint64_t stamp(const JsonValue &Rec, const char *Key) {
  const JsonValue *V = Rec.find(Key);
  return V && V->isNumber() && V->asInt() > 0
             ? static_cast<uint64_t>(V->asInt())
             : 0;
}

} // namespace

std::string
jslice::encodeJournalRecord(const JournalRecord &Head,
                            std::initializer_list<JournalMember> Body) {
  // Keys serialize sorted and "crc" sorts before every record key, so
  // the checksummed record is the crc-less serialization with the crc
  // member spliced in after its opening brace. The payload is written
  // once, behind a placeholder crc member, each member led by its ','.
  // The first ',' stands in for the payload's '{' while the payload is
  // checksummed where it lies.
  static constexpr std::string_view Placeholder = "{\"crc\":\"00000000\"";
  static constexpr size_t CrcAt = 8; // After {"crc":"
  size_t Size = Placeholder.size() + 96 + Head.Event.size() + Head.Id.size();
  for (const JournalMember &M : Body)
    Size += M.Key.size() + M.Json.size() + 4;
  std::string Line;
  Line.reserve(Size);
  Line += Placeholder;
  // The head's members merge into the body's at their sorted places.
  const JournalMember *Next = Body.begin();
  auto Emit = [&Line](std::string_view Key) {
    Line += ",\"";
    Line += Key;
    Line += "\":";
  };
  auto Member = [&](std::string_view Key) {
    for (; Next != Body.end() && Next->Key < Key; ++Next) {
      Emit(Next->Key);
      Line += Next->Json;
    }
    Emit(Key);
  };
  if (Head.Epoch) {
    Member("epoch");
    appendJsonInt(Line, static_cast<int64_t>(Head.Epoch));
  }
  Member("event");
  appendJsonString(Line, Head.Event);
  if (Head.Gen) {
    Member("gen");
    appendJsonInt(Line, static_cast<int64_t>(Head.Gen));
  }
  if (!Head.Id.empty()) {
    Member("id");
    appendJsonString(Line, Head.Id);
  }
  Member("seq");
  appendJsonInt(Line, static_cast<int64_t>(Head.Seq));
  for (; Next != Body.end(); ++Next) {
    Emit(Next->Key);
    Line += Next->Json;
  }
  Line += '}';
  Line[Placeholder.size()] = '{';
  std::string_view Payload(Line);
  Payload.remove_prefix(Placeholder.size());
  writeCrcHex(&Line[CrcAt], journalCrc32(Payload));
  Line[Placeholder.size()] = ',';
  return Line;
}

std::optional<JournalRecord>
jslice::decodeJournalLine(const std::string &Line) {
  std::optional<JsonValue> V = JsonValue::parse(Line);
  if (!V || !V->isObject())
    return std::nullopt;
  const JsonValue *Event = V->find("event");
  const JsonValue *Crc = V->find("crc");
  const JsonValue *Seq = V->find("seq");
  if (!Event || !Event->isString() || !Crc || !Crc->isString() ||
      Crc->asString().size() != 8 || !Seq || !Seq->isNumber() ||
      Seq->asInt() <= 0)
    return std::nullopt;
  // Serialization is deterministic (sorted keys, no whitespace), so
  // the payload the writer checksummed is exactly this record minus
  // its crc member, re-serialized.
  char Got[CrcDigits];
  std::string Want = Crc->asString();
  V->remove("crc");
  writeCrcHex(Got, journalCrc32(V->str()));
  if (Want != std::string_view(Got, CrcDigits))
    return std::nullopt;

  JournalRecord R;
  R.Event = Event->asString();
  if (const JsonValue *Id = V->find("id"); Id && Id->isString())
    R.Id = Id->asString();
  R.Seq = static_cast<uint64_t>(Seq->asInt());
  R.Gen = stamp(*V, "gen");
  R.Epoch = stamp(*V, "epoch");
  if (R.Event == "begin")
    if (JsonValue *Req = V->find("request")) {
      ServiceRequest Q;
      if (requestFromJson(std::move(*Req), Q))
        R.Request = std::move(Q);
    }
  return R;
}

namespace {

/// The one in-flight fold: a begin with an id opens it (a later begin
/// with the same id replaces it), an end closes it, nothing else
/// touches the index.
void foldInFlight(InFlightIndex &Open, JournalRecord Rec, std::string Line) {
  if (Rec.Event == "begin" && !Rec.Id.empty()) {
    OpenBegin &Slot = Open[Rec.Id];
    Slot = OpenBegin{std::move(Rec), std::move(Line)};
  } else if (Rec.Event == "end") {
    Open.erase(Rec.Id);
  }
}

/// The one pass over a journal file: decodes every line once, folds
/// the verified records into \p Open, and reports what it saw. The
/// public scan and Journal::open (which seeds its in-flight index and
/// sequence counter from \p Open and the result) both read through it.
JournalScan scanInto(const std::string &Path, InFlightIndex &Open) {
  JournalScan S;
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return S;
  S.Exists = true;
  std::string All((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());

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

    std::optional<JournalRecord> R = decodeJournalLine(Line);
    if (!R) {
      ++TrailingCorrupt;
      continue;
    }
    // A good line after damage proves the damage was mid-file, not a
    // torn tail.
    S.CorruptRecords += TrailingCorrupt;
    TrailingCorrupt = 0;
    S.GoodBytes = LineEnd;
    ++S.Records;

    LastEvent = R->Event;
    S.MaxEpoch = std::max(S.MaxEpoch, R->Epoch);
    S.MaxSeq = std::max(S.MaxSeq, R->Seq);
    // Strict regressions only: older writers could emit a begin in a
    // rotation rewrite and then append it again, duplicating one
    // sequence number without reordering anything.
    uint64_t &High = SeqHigh[R->Gen];
    if (R->Seq < High)
      ++S.SeqRegressions;
    High = std::max(High, R->Seq);
    foldInFlight(Open, std::move(*R), std::move(Line));
  }

  S.TornTail = TrailingCorrupt > 0;
  S.CleanShutdown = LastEvent == "shutdown";
  return S;
}

} // namespace

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

  // One pass seeds everything: the in-flight index (rotation must
  // preserve a predecessor's unmatched begins until recover() closes
  // them, even if the first rotation fires before that), the sequence
  // counter (resumed past everything on disk) and the epoch high-water
  // mark. The repairs below keep exactly the records the scan
  // verified, so its fold stays true of the repaired file.
  JournalScan Scan = scanInto(P, OpenBegins);
  NextSeq = Scan.MaxSeq + 1;
  MaxEpoch = std::max(MaxEpoch, Scan.MaxEpoch);
  if (Repair && Scan.CorruptRecords) {
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
          if (isBlank(Line) || !decodeJournalLine(Line))
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
  } else if (Repair && Scan.TornTail) {
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
  std::error_code Ec;
  Bytes = std::filesystem::file_size(P, Ec);
  if (Ec)
    Bytes = 0; // No file yet: the append open below creates it.

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

/// One line into the file, out to the OS, and committed by the sync
/// policy. The line and its newline are two writes into the same stdio
/// buffer, so the line is never copied to append the newline. Bytes
/// advances only after the commit, so it always names the end of the
/// last committed record — exactly where reopenLocked() truncates a
/// failed record, torn or whole, away.
bool Journal::writeLineLocked(const std::string &Line) {
  if (Io->write(File, Line.data(), Line.size()) != Line.size() ||
      Io->write(File, "\n", 1) != 1 || !Io->flush(File) || !commitLocked())
    return false;
  Bytes += Line.size() + 1;
  return true;
}

/// The post-write durability step for the active sync policy. In Batch
/// mode the commit is the handoff to the flusher.
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
  if (File && writeLineLocked(Line)) {
    ++Stats.Appends;
    return true;
  }
  ++Stats.AppendFailures;
  // Retry exactly once through a fresh handle — a failed write or
  // fsync may have left a torn record and/or dropped pages; the same
  // fd can report success for data it already lost.
  if (reopenLocked() && writeLineLocked(Line)) {
    ++Stats.Reopens;
    ++Stats.Appends;
    return true;
  }
  // Persistent failure: latch. The server's --journal-failure policy
  // turns this into shed / degrade / abort — never silence. The retry's
  // bytes may have reached the file without committing; shave them
  // too, or a begin that never ran reads back as poison at next boot.
  reopenLocked();
  Failed = true;
  return false;
}

/// The one append path: stamps gen + epoch + seq onto the record,
/// encodes it with \p Body once, and appends the line. Only a committed
/// record is shipped through the tap (under the mutex, so taps stay in
/// seq order) and then folded into the in-flight index, which takes
/// the line itself rather than a copy.
bool Journal::appendRecordLocked(const char *Event, const std::string &Id,
                                 std::initializer_list<JournalMember> Body,
                                 uint64_t *SeqOut) {
  if (!File)
    return false;
  JournalRecord Head;
  Head.Event = Event;
  Head.Id = Id;
  Head.Gen = Gen;
  Head.Epoch = Epoch;
  uint64_t Seq = Head.Seq = NextSeq++;
  std::string Line = encodeJournalRecord(Head, Body);
  if (!appendLocked(Line))
    return false;
  if (SeqOut)
    *SeqOut = Seq;
  if (ShipTap)
    ShipTap(Line, Seq);
  foldInFlight(OpenBegins, std::move(Head), std::move(Line));
  return true;
}

bool Journal::begin(const ServiceRequest &R, uint64_t *SeqOut) {
  // Serialized before the lock; a canonical program literal is copied,
  // not escaped again.
  std::string Request;
  size_t Size = 128 + R.Id.size() +
                (R.ProgramLiteral.empty() ? R.Program.size() * 9 / 8
                                          : R.ProgramLiteral.size());
  for (const std::string &V : R.Vars)
    Size += V.size() + 3;
  Request.reserve(Size);
  R.appendJson(Request);
  std::lock_guard<std::mutex> Lock(M);
  return appendRecordLocked("begin", R.Id, {{"request", Request}}, SeqOut);
}

bool Journal::end(const std::string &Id, const std::string &Status) {
  std::string Quoted;
  appendJsonString(Quoted, Status);
  std::lock_guard<std::mutex> Lock(M);
  return appendRecordLocked("end", Id, {{"status", Quoted}});
}

bool Journal::shutdownRecord() {
  std::lock_guard<std::mutex> Lock(M);
  return appendRecordLocked("shutdown", "", {{"status", "\"clean\""}});
}

bool Journal::appendReplica(const std::string &Line, JournalRecord Rec) {
  std::lock_guard<std::mutex> Lock(M);
  if (!File)
    return false;
  MaxEpoch = std::max(MaxEpoch, Rec.Epoch);
  NextSeq = std::max(NextSeq, Rec.Seq + 1);
  if (!appendLocked(Line))
    return false;
  foldInFlight(OpenBegins, std::move(Rec), Line);
  return true;
}

void Journal::catchUp(const std::function<void(const CatchUp &)> &Fn) const {
  std::lock_guard<std::mutex> Lock(M);
  CatchUp C;
  C.ThroughSeq = NextSeq - 1;
  C.LastCompactSeq = LastCompactSeq;
  C.Epoch = Epoch;
  C.Path = &Path;
  Fn(C);
}

void Journal::CatchUp::forEachRecord(
    const std::function<void(uint64_t, const std::string &)> &Fn) const {
  // Every append fflushes before returning, so a plain read of the
  // path sees everything appended so far; catchUp() holds the mutex,
  // which keeps the file from rotating or growing meanwhile.
  std::ifstream In(*Path, std::ios::binary);
  std::string Line;
  while (In && std::getline(In, Line)) {
    if (isBlank(Line))
      continue;
    if (std::optional<JournalRecord> R = decodeJournalLine(Line))
      Fn(R->Seq, Line);
  }
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
  // Re-latches Failed on failure.
  return appendRecordLocked("reattach", "", {});
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
              return A->Rec.Seq < B->Rec.Seq;
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
  InFlightIndex Open;
  JournalScan S = scanInto(Path, Open);
  for (auto &[Id, B] : Open)
    if (B.Rec.Request)
      S.InFlight.push_back(PoisonedRequest{Id, std::move(*B.Rec.Request),
                                           B.Rec.Gen, B.Rec.Epoch});
  return S;
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
