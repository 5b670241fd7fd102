//===- support/LineFramer.h - Bounded newline framing -----------*- C++ -*-===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one splitter for every newline-delimited protocol stream: the
/// stdin/file transport, the TCP reactor, the client, the standby's
/// replication tail, and the tools' log readers all cut their bytes
/// here, so the line cap has exactly one rule (DESIGN.md §9, §11):
///
///  * A line is the bytes before '\n'. '\r' and blank lines pass
///    through unchanged.
///  * A line longer than the cap is reported once (an Oversized frame)
///    as soon as it is known to be too long — while still unterminated,
///    or when it completes inside one feed — and its bytes are dropped
///    as they arrive, up to the next '\n'. Retained bytes therefore
///    never exceed cap + one fed chunk.
///  * At end of stream a non-empty unterminated line is delivered,
///    unless the framer is mid-discard.
///  * A consumer may stop pulling between lines (shutdown); the rest
///    stays buffered.
///
/// A cap of 0 means unbounded (the client and the replication tail,
/// which read what a trusted server writes).
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SUPPORT_LINEFRAMER_H
#define JSLICE_SUPPORT_LINEFRAMER_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace jslice {

class LineFramer {
public:
  /// One framing event: a complete line, or the one-time report of a
  /// line past the cap (Line is empty then).
  struct Frame {
    bool Oversized = false;
    /// The line without its '\n'; valid until the next feed() or
    /// next().
    std::string_view Line;
  };

  explicit LineFramer(uint64_t Cap = 0) : Cap(Cap) {}

  /// Appends one chunk read from the stream.
  void feed(const char *Data, size_t Size);

  /// Marks end of stream: next() then delivers the final unterminated
  /// line, if any.
  void finish() { Eof = true; }

  /// The next frame, or nullopt when more input is needed (or, after
  /// finish(), when the stream is exhausted).
  std::optional<Frame> next();

  bool eof() const { return Eof; }
  /// Swallowing the rest of a line already reported Oversized.
  bool discarding() const { return Discarding; }
  /// A line is in progress: bytes are held, or a refused line has not
  /// reached its newline yet. Transports run their read deadline on it.
  bool midLine() const { return Discarding || buffered(); }
  /// Bytes held and not yet delivered.
  size_t buffered() const { return Buf.size() - Head; }

private:
  uint64_t Cap;
  std::string Buf;
  size_t Head = 0; ///< First byte not yet delivered.
  size_t Scan = 0; ///< [Head, Scan) is known to hold no '\n'.
  bool Discarding = false;
  bool Eof = false;
};

} // namespace jslice

#endif // JSLICE_SUPPORT_LINEFRAMER_H
