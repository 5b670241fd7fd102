//===- support/BitVector.h - Dense fixed-width bit set --------------------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bit set sized at construction, with the bulk set algebra the
/// reaching-definitions solver needs (|=, &=, reset-of, equality).
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SUPPORT_BITVECTOR_H
#define JSLICE_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace jslice {

/// Dense bit set over the index range [0, size()).
class BitVector {
public:
  using Word = uint64_t;
  static constexpr size_t BitsPerWord = 64;

  BitVector() = default;
  explicit BitVector(size_t NumBits) { resize(NumBits); }

  void resize(size_t NumBits) {
    Size = NumBits;
    Words.assign((NumBits + BitsPerWord - 1) / BitsPerWord, 0);
  }

  size_t size() const { return Size; }

  /// The backing words, bit i of word w being index w * BitsPerWord + i
  /// (bits past size() are zero).
  size_t numWords() const { return Words.size(); }
  Word word(size_t WordIdx) const { return Words[WordIdx]; }

  bool test(size_t Idx) const {
    assert(Idx < Size && "bit index out of range");
    return (Words[Idx / BitsPerWord] >> (Idx % BitsPerWord)) & 1;
  }

  void set(size_t Idx) {
    assert(Idx < Size && "bit index out of range");
    Words[Idx / BitsPerWord] |= Word(1) << (Idx % BitsPerWord);
  }

  void reset(size_t Idx) {
    assert(Idx < Size && "bit index out of range");
    Words[Idx / BitsPerWord] &= ~(Word(1) << (Idx % BitsPerWord));
  }

  void clear() {
    for (Word &W : Words)
      W = 0;
  }

  /// Number of set bits.
  size_t count() const {
    size_t N = 0;
    for (Word W : Words)
      N += static_cast<size_t>(__builtin_popcountll(W));
    return N;
  }

  bool any() const {
    for (Word W : Words)
      if (W)
        return true;
    return false;
  }

  /// Set union; both operands must have equal size.
  BitVector &operator|=(const BitVector &RHS) {
    assert(Size == RHS.Size && "size mismatch in BitVector |=");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] |= RHS.Words[I];
    return *this;
  }

  /// Set intersection; both operands must have equal size.
  BitVector &operator&=(const BitVector &RHS) {
    assert(Size == RHS.Size && "size mismatch in BitVector &=");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= RHS.Words[I];
    return *this;
  }

  /// Set difference: removes every bit set in \p RHS.
  BitVector &resetOf(const BitVector &RHS) {
    assert(Size == RHS.Size && "size mismatch in BitVector resetOf");
    for (size_t I = 0, E = Words.size(); I != E; ++I)
      Words[I] &= ~RHS.Words[I];
    return *this;
  }

  friend bool operator==(const BitVector &A, const BitVector &B) {
    return A.Size == B.Size && A.Words == B.Words;
  }
  friend bool operator!=(const BitVector &A, const BitVector &B) {
    return !(A == B);
  }

  /// Invokes \p Fn on every set index, in increasing order.
  template <typename Callable> void forEachSetBit(Callable Fn) const {
    for (size_t WI = 0, WE = Words.size(); WI != WE; ++WI) {
      Word W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * BitsPerWord + Bit);
        W &= W - 1;
      }
    }
  }

private:
  size_t Size = 0;
  std::vector<Word> Words;
};

/// A read-only view of a fixed-width bit set stored elsewhere, as whole
/// words (bits past size() are zero): one row of a flat bit matrix.
class BitVectorRef {
public:
  using Word = BitVector::Word;
  static constexpr size_t BitsPerWord = BitVector::BitsPerWord;

  BitVectorRef(const Word *Words, size_t NumBits)
      : Words(Words), Size(NumBits) {}

  size_t size() const { return Size; }

  bool test(size_t Idx) const {
    assert(Idx < Size && "bit index out of range");
    return (Words[Idx / BitsPerWord] >> (Idx % BitsPerWord)) & 1;
  }

  /// Invokes \p Fn on every set index, in increasing order.
  template <typename Callable> void forEachSetBit(Callable Fn) const {
    for (size_t WI = 0, WE = (Size + BitsPerWord - 1) / BitsPerWord;
         WI != WE; ++WI) {
      Word W = Words[WI];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(WI * BitsPerWord + Bit);
        W &= W - 1;
      }
    }
  }

private:
  const Word *Words;
  size_t Size;
};

} // namespace jslice

#endif // JSLICE_SUPPORT_BITVECTOR_H
