//===- net/WriteBuffer.cpp - Bounded, backpressure-aware write buffer ------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//

#include "net/WriteBuffer.h"

#include "net/Socket.h"

using namespace jslice;

bool WriteBuffer::appendLine(std::string_view Line) {
  if (Cap && pending() + Line.size() + 1 > Cap)
    return false;
  // Compact before growing once the dead prefix dominates; amortized
  // one move per buffer-half.
  if (Off > Buf.size() / 2 && Off > 4096) {
    Buf.erase(0, Off);
    Off = 0;
  }
  Buf.append(Line);
  Buf.push_back('\n');
  return true;
}

WriteBuffer::FlushResult WriteBuffer::flush(int Fd) {
  while (Off < Buf.size()) {
    int64_t W = sendSome(Fd, Buf.data() + Off, Buf.size() - Off);
    if (W == NetWouldBlock)
      return FlushResult::Blocked;
    if (W < 0)
      return FlushResult::PeerClosed;
    Off += static_cast<size_t>(W);
  }
  Buf.clear();
  Off = 0;
  return FlushResult::Drained;
}
