//===- dyndist/support/DenseBitSet.h - Word-parallel index set --*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set of small non-negative integers stored as a dense bitset: member I
/// is bit I % 64 of word I / 64. It is built for sets over a dense id space
/// (the per-run process ids): union is a word-wise OR, difference a
/// word-wise AND-NOT, size a popcount, and enumeration ascends like the
/// sorted maps it stands in for.
///
/// The first InlineWords words live inside the object (an InlineVec), so a
/// set over the few hundred ids an experiment spawns copies without
/// touching the heap; larger id spaces spill once and keep the capacity.
/// Trailing zero words carry no meaning: size and emptiness look at
/// members only.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SUPPORT_DENSEBITSET_H
#define DYNDIST_SUPPORT_DENSEBITSET_H

#include "dyndist/support/InlineVec.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace dyndist {

class DenseBitSet {
public:
  /// Words kept inline: ids below 1024 never allocate.
  static constexpr unsigned InlineWords = 16;

  /// Adds \p I; returns whether it was new.
  bool insert(uint64_t I) {
    uint64_t W = I / 64;
    if (W >= Words.size()) {
      Words.reserve(W + 1);
      while (Words.size() <= W)
        Words.push_back(0);
    }
    uint64_t Bit = uint64_t(1) << (I % 64);
    bool New = (Words[W] & Bit) == 0;
    Words[W] |= Bit;
    return New;
  }

  /// Number of members.
  size_t count() const {
    size_t N = 0;
    for (uint64_t Word : Words)
      N += static_cast<size_t>(std::popcount(Word));
    return N;
  }

  bool empty() const {
    return std::all_of(Words.begin(), Words.end(),
                       [](uint64_t Word) { return Word == 0; });
  }

  /// Adds every member of \p Other in one pass (OR and detect new bits
  /// together) and returns whether any was new. The receiver grows only
  /// to \p Other's last nonzero word.
  bool unionWith(const DenseBitSet &Other) {
    uint32_t End = Other.Words.size();
    if (End > Words.size()) {
      while (End > Words.size() && Other.Words[End - 1] == 0)
        --End;
      Words.reserve(End);
      while (Words.size() < End)
        Words.push_back(0);
    }
    uint64_t *Dst = Words.begin();
    const uint64_t *Src = Other.Words.begin();
    uint64_t Added = 0;
    for (uint32_t W = 0; W != End; ++W) {
      uint64_t Old = Dst[W], New = Src[W];
      Added |= New & ~Old;
      Dst[W] = Old | New;
    }
    return Added != 0;
  }

  /// Members of \p A that are not in \p B.
  static DenseBitSet difference(const DenseBitSet &A, const DenseBitSet &B) {
    DenseBitSet Out;
    Out.Words.reserve(A.Words.size());
    for (uint32_t W = 0; W != A.Words.size(); ++W)
      Out.Words.push_back(A.Words[W] & ~B.word(W));
    return Out;
  }

  /// Calls \p Fn(I) for every member I, ascending.
  template <typename FnT> void forEach(FnT Fn) const {
    for (uint32_t W = 0; W != Words.size(); ++W)
      for (uint64_t Bits = Words[W]; Bits != 0; Bits &= Bits - 1)
        Fn(uint64_t(W) * 64 + static_cast<uint64_t>(std::countr_zero(Bits)));
  }

private:
  uint64_t word(uint32_t W) const { return W < Words.size() ? Words[W] : 0; }

  InlineVec<uint64_t, InlineWords> Words;
};

} // namespace dyndist

#endif // DYNDIST_SUPPORT_DENSEBITSET_H
