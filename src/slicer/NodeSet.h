//===- slicer/NodeSet.h - A slice's CFG nodes, as the engine's bitset ------===//
//
// Part of the jslice project: a reproduction of H. Agrawal, "On Slicing
// Programs with Jump Statements", PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The node set a slice leaves the engine as. It owns the traversal's
/// own BitVector (moved in, never copied into another representation),
/// so handing a slice out costs one popcount over its words instead of
/// one heap node per member. It reads like an ordered set of node ids:
/// ascending iteration, O(1) size and membership, set equality, and an
/// implicit conversion to std::set<unsigned> for callers that want one.
///
//===----------------------------------------------------------------------===//

#ifndef JSLICE_SLICER_NODESET_H
#define JSLICE_SLICER_NODESET_H

#include "support/BitVector.h"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <set>
#include <utility>

namespace jslice {

/// An immutable set of CFG node ids over a bitset.
class NodeSet {
public:
  /// Ascending iteration over the members, skipping zero words.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = unsigned;
    using difference_type = std::ptrdiff_t;
    using pointer = const unsigned *;
    using reference = unsigned;

    const_iterator() = default;

    unsigned operator*() const {
      return static_cast<unsigned>(WordIdx * BitVector::BitsPerWord +
                                   __builtin_ctzll(Rest));
    }

    const_iterator &operator++() {
      Rest &= Rest - 1;
      skipZeroWords();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++*this;
      return Old;
    }

    friend bool operator==(const const_iterator &L, const const_iterator &R) {
      return L.WordIdx == R.WordIdx && L.Rest == R.Rest;
    }
    friend bool operator!=(const const_iterator &L, const const_iterator &R) {
      return !(L == R);
    }

  private:
    friend class NodeSet;

    const_iterator(const BitVector *Bits, size_t WordIdx)
        : Bits(Bits), WordIdx(WordIdx),
          Rest(WordIdx < Bits->numWords() ? Bits->word(WordIdx) : 0) {
      skipZeroWords();
    }

    void skipZeroWords() {
      while (!Rest && ++WordIdx < Bits->numWords())
        Rest = Bits->word(WordIdx);
      if (!Rest)
        WordIdx = Bits->numWords(); // The end position.
    }

    const BitVector *Bits = nullptr;
    size_t WordIdx = 0;
    BitVector::Word Rest = 0; ///< Unvisited bits of the current word.
  };
  using iterator = const_iterator;
  using value_type = unsigned;

  NodeSet() = default;
  /// Takes ownership of \p Bits: the members are its set bits.
  explicit NodeSet(BitVector Bits)
      : Bits(std::move(Bits)), Count(this->Bits.count()) {}

  NodeSet(const NodeSet &) = default;
  NodeSet &operator=(const NodeSet &) = default;
  /// A moved-from set is empty.
  NodeSet(NodeSet &&O) noexcept
      : Bits(std::exchange(O.Bits, BitVector())),
        Count(std::exchange(O.Count, 0)) {}
  NodeSet &operator=(NodeSet &&O) noexcept {
    Bits = std::exchange(O.Bits, BitVector());
    Count = std::exchange(O.Count, 0);
    return *this;
  }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// 1 when \p Node is a member, else 0 (ids past the universe too).
  size_t count(unsigned Node) const {
    return Node < Bits.size() && Bits.test(Node);
  }
  bool contains(unsigned Node) const { return count(Node) != 0; }

  const_iterator begin() const { return const_iterator(&Bits, 0); }
  const_iterator end() const {
    return const_iterator(&Bits, Bits.numWords());
  }

  /// The members as an ordered std::set.
  operator std::set<unsigned>() const { return {begin(), end()}; }

  /// Set equality: the members, not the universe sizes, decide.
  friend bool operator==(const NodeSet &L, const NodeSet &R) {
    if (L.Count != R.Count)
      return false;
    // Equal counts and equal common words leave no member in the
    // longer set's tail.
    size_t Common = std::min(L.Bits.numWords(), R.Bits.numWords());
    for (size_t I = 0; I != Common; ++I)
      if (L.Bits.word(I) != R.Bits.word(I))
        return false;
    return true;
  }
  friend bool operator!=(const NodeSet &L, const NodeSet &R) {
    return !(L == R);
  }

private:
  BitVector Bits;
  size_t Count = 0;
};

} // namespace jslice

#endif // JSLICE_SLICER_NODESET_H
