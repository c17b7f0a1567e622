//===- dyndist/support/FlatMap.h - Sorted flat-vector map -------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sorted flat-vector map: the std::map subset the protocol state
/// actually uses, stored as one contiguous `std::vector<std::pair<K, V>>`
/// ordered by key. Enumeration ascends exactly like std::map, so code (and
/// recorded traces) that iterate a FlatMap produce byte-identical output to
/// the tree-map implementation they replace — while lookups are a cache-
/// friendly binary search over one allocation and clear() retains
/// capacity.
///
/// Intended for the small-to-medium keyed aggregates of the protocol layer
/// (contribution sets, peer-sampling views, heard-from tables):
/// populations up to a few thousand keys where contiguity beats the
/// tree's per-node pointer chasing at every size.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SUPPORT_FLATMAP_H
#define DYNDIST_SUPPORT_FLATMAP_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace dyndist {

/// \tparam Storage the underlying sorted sequence: std::vector by default,
/// or an InlineVec<std::pair<KeyT, ValueT>, N> when the map is an actor
/// member whose common population should live inline in the actor.
template <typename KeyT, typename ValueT,
          typename Storage = std::vector<std::pair<KeyT, ValueT>>>
class FlatMap {
public:
  using value_type = std::pair<KeyT, ValueT>;
  using iterator = typename Storage::iterator;
  using const_iterator = typename Storage::const_iterator;

  iterator begin() { return Entries.begin(); }
  iterator end() { return Entries.end(); }
  const_iterator begin() const { return Entries.begin(); }
  const_iterator end() const { return Entries.end(); }

  size_t size() const { return Entries.size(); }
  bool empty() const { return Entries.empty(); }
  void clear() { Entries.clear(); } // Capacity retained.
  void reserve(size_t N) { Entries.reserve(N); }

  iterator find(const KeyT &Key) {
    iterator It = lowerBound(Key);
    return (It != Entries.end() && It->first == Key) ? It : Entries.end();
  }
  const_iterator find(const KeyT &Key) const {
    const_iterator It = lowerBound(Key);
    return (It != Entries.end() && It->first == Key) ? It : Entries.end();
  }

  size_t count(const KeyT &Key) const { return contains(Key) ? 1 : 0; }

  /// std::map::at for present keys. Absence is a caller bug (asserted), not
  /// an exception: the library builds keep asserts on in every build type.
  const ValueT &at(const KeyT &Key) const {
    const_iterator It = find(Key);
    assert(It != Entries.end() && "FlatMap::at(): key not present");
    return It->second;
  }

  bool contains(const KeyT &Key) const {
    const_iterator It = lowerBound(Key);
    return It != Entries.end() && It->first == Key;
  }

  /// Inserts (Key, Value) when Key is absent; the resident entry wins
  /// otherwise — std::map::emplace semantics.
  std::pair<iterator, bool> emplace(const KeyT &Key, ValueT Value) {
    iterator It = lowerBound(Key);
    if (It != Entries.end() && It->first == Key)
      return {It, false};
    It = Entries.emplace(It, Key, std::move(Value));
    return {It, true};
  }

  /// std::map::try_emplace — identical to emplace() for this subset.
  std::pair<iterator, bool> try_emplace(const KeyT &Key, ValueT Value) {
    return emplace(Key, std::move(Value));
  }

  /// Hinted insert. The one hint the callers use — `end()` while building
  /// in ascending key order — appends in O(1); any other hint degrades to
  /// a plain emplace.
  iterator emplace_hint(const_iterator Hint, const KeyT &Key, ValueT Value) {
    if (Hint == Entries.end() &&
        (Entries.empty() || Entries.back().first < Key)) {
      Entries.emplace_back(Key, std::move(Value));
      return Entries.end() - 1;
    }
    return emplace(Key, std::move(Value)).first;
  }

  /// Insert-or-default then reference, std::map::operator[].
  ValueT &operator[](const KeyT &Key) {
    iterator It = lowerBound(Key);
    if (It == Entries.end() || It->first != Key)
      It = Entries.emplace(It, Key, ValueT{});
    return It->second;
  }

  size_t erase(const KeyT &Key) {
    iterator It = lowerBound(Key);
    if (It == Entries.end() || It->first != Key)
      return 0;
    Entries.erase(It);
    return 1;
  }

  iterator erase(const_iterator It) { return Entries.erase(It); }

  friend bool operator==(const FlatMap &L, const FlatMap &R) {
    return L.Entries == R.Entries;
  }

private:
  iterator lowerBound(const KeyT &Key) {
    return std::lower_bound(
        Entries.begin(), Entries.end(), Key,
        [](const value_type &E, const KeyT &K) { return E.first < K; });
  }
  const_iterator lowerBound(const KeyT &Key) const {
    return std::lower_bound(
        Entries.begin(), Entries.end(), Key,
        [](const value_type &E, const KeyT &K) { return E.first < K; });
  }

  Storage Entries;
};

} // namespace dyndist

#endif // DYNDIST_SUPPORT_FLATMAP_H
