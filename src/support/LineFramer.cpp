//===- support/LineFramer.cpp - Bounded newline framing -------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "support/LineFramer.h"

#include <cstring>

using namespace jslice;

void LineFramer::feed(const char *Data, size_t Size) {
  if (Discarding) {
    // Drop the refused line's bytes on arrival; only what follows its
    // newline is kept.
    const void *NL = std::memchr(Data, '\n', Size);
    if (!NL)
      return;
    Discarding = false;
    size_t Skip = static_cast<size_t>(static_cast<const char *>(NL) - Data) + 1;
    Data += Skip;
    Size -= Skip;
  }
  // Delivered lines were consumed by offset; reclaim them once per
  // chunk, moving only the undelivered tail.
  if (Head) {
    Buf.erase(0, Head);
    Scan -= Head;
    Head = 0;
  }
  Buf.append(Data, Size);
}

std::optional<LineFramer::Frame> LineFramer::next() {
  if (Discarding)
    return std::nullopt;
  size_t NL = Buf.find('\n', Scan);
  if (NL == std::string::npos) {
    Scan = Buf.size();
    size_t Len = buffered();
    if (Cap && Len > Cap) {
      // Too long before its newline shows up: report it now and drop
      // the rest as it streams in.
      Buf.clear();
      Head = Scan = 0;
      Discarding = true;
      return Frame{true, {}};
    }
    if (!Eof || !Len)
      return std::nullopt;
    Frame Last{false, std::string_view(Buf).substr(Head)};
    Head = Scan = Buf.size();
    return Last;
  }
  std::string_view Line(Buf.data() + Head, NL - Head);
  Head = Scan = NL + 1;
  if (Cap && Line.size() > Cap)
    return Frame{true, {}};
  return Frame{false, Line};
}
