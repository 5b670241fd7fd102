//===- support/LogHistogram.h - Fixed-size log-linear histogram ------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A histogram of non-negative integer samples whose size never grows:
/// HdrHistogram's log-linear bucketing with the precision fixed. Values
/// below 32 get a bucket each; above that every power-of-two octave is
/// split into 16 equal buckets, so no bucket is wider than 1/16 of its
/// lower bound. 976 buckets cover all of uint64_t, recording is O(1)
/// without allocation, and a percentile is one cumulative scan.
///
/// percentile() reports the middle of the bucket holding the requested
/// sample, which is within 1/32 (3.125%) of that sample's value, and
/// exact below 32. Not thread-safe: callers serialize.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SUPPORT_LOGHISTOGRAM_H
#define JSLICE_SUPPORT_LOGHISTOGRAM_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace jslice {

class LogHistogram {
public:
  static constexpr unsigned SubBits = 4;
  static constexpr uint64_t Sub = uint64_t(1) << SubBits; ///< Per octave.
  static constexpr size_t NumBuckets = (64 - SubBits + 1) * Sub;

  void record(uint64_t V) {
    ++Counts[bucketOf(V)];
    ++Total;
  }

  uint64_t count() const { return Total; }

  /// The sample of rank min(count - 1, count * Pct / 100) in ascending
  /// order (so 50 is the median), at bucket resolution; 0 when empty.
  double percentile(unsigned Pct) const {
    if (!Total)
      return 0;
    uint64_t Rank = Total * Pct / 100;
    if (Rank >= Total)
      Rank = Total - 1;
    uint64_t Seen = 0;
    size_t B = 0;
    while ((Seen += Counts[B]) <= Rank)
      ++B;
    // Bucket B holds [Low, Low + Width): the first 2 * Sub buckets are
    // one value wide, then each octave's Sub buckets share one width.
    if (B < 2 * Sub)
      return static_cast<double>(B);
    unsigned Shift = static_cast<unsigned>(B / Sub) - 1;
    uint64_t Low = (B % Sub + Sub) << Shift;
    uint64_t Width = uint64_t(1) << Shift;
    return static_cast<double>(Low) + static_cast<double>(Width - 1) / 2;
  }

private:
  static size_t bucketOf(uint64_t V) {
    if (V < 2 * Sub)
      return static_cast<size_t>(V);
    unsigned Shift = 63 - static_cast<unsigned>(__builtin_clzll(V)) - SubBits;
    return static_cast<size_t>((Shift + 1) * Sub + (V >> Shift) - Sub);
  }

  std::array<uint64_t, NumBuckets> Counts{};
  uint64_t Total = 0;
};

} // namespace jslice

#endif // JSLICE_SUPPORT_LOGHISTOGRAM_H
