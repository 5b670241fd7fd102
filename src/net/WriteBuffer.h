//===- net/WriteBuffer.h - Bounded, backpressure-aware write buffer --------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-connection outbound buffer of the TCP transport
/// (net/TcpServer.h). Two rules give the containment guarantee:
///
///  * append() is *bounded*: once buffered-but-unsent bytes would
///    exceed the cap, it refuses. The connection behind a reader that
///    stopped draining gets disconnected — it never grows the server's
///    memory and never blocks the event loop or other connections.
///  * flush() never blocks: it loops sendSome() (non-blocking, short
///    writes expected) until the buffer drains, the socket would
///    block, or the peer turns out to be dead. EAGAIN is a normal
///    outcome, not an error — the caller re-arms POLLOUT and moves on.
///
/// Flushed bytes are trimmed lazily (an offset, compacted once it
/// passes half the buffer) so a slow reader costs one memmove per
/// buffer-half, not one per write.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_NET_WRITEBUFFER_H
#define JSLICE_NET_WRITEBUFFER_H

#include <cstddef>
#include <string>
#include <string_view>

namespace jslice {

class WriteBuffer {
public:
  /// \p CapBytes bounds *pending* (unsent) bytes; 0 means unbounded.
  explicit WriteBuffer(size_t CapBytes) : Cap(CapBytes) {}

  /// Queues \p Line and a newline (the transport's framing). False —
  /// and nothing queued — when pending bytes would exceed the cap; the
  /// caller must treat the connection as a stalled reader and
  /// disconnect it.
  bool appendLine(std::string_view Line);

  enum class FlushResult {
    Drained,    ///< Everything pending was written.
    Blocked,    ///< Socket full; re-arm POLLOUT and retry later.
    PeerClosed, ///< EPIPE/ECONNRESET — the peer is gone.
  };

  /// Writes as much pending data as the socket accepts right now.
  FlushResult flush(int Fd);

  bool empty() const { return Off == Buf.size(); }
  size_t pending() const { return Buf.size() - Off; }

private:
  size_t Cap;
  size_t Off = 0; ///< Bytes of Buf already written.
  std::string Buf;
};

} // namespace jslice

#endif // JSLICE_NET_WRITEBUFFER_H
