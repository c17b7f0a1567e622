//===- dyndist/support/InlineVec.h - Small-buffer flat vector ---*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small-buffer vector for trivially copyable elements: the first
/// InlineCap elements live inside the object itself, so a slab of records
/// each holding an InlineVec is one contiguous allocation with no per-record
/// pointer chasing — the storage shape the actor-state slabs are built on.
/// Records whose population outgrows the buffer spill to the heap once and
/// keep that capacity across clear()/reset() (the slab recycling
/// discipline: clearing retains capacity).
///
/// Deliberately minimal: exactly the std::vector subset FlatMap,
/// DenseBitSet and the slab-backed protocol state use. Elements must be
/// trivially copyable — growth and erasure are memmoves, never
/// element-wise construction.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SUPPORT_INLINEVEC_H
#define DYNDIST_SUPPORT_INLINEVEC_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

namespace dyndist {

template <typename T, unsigned InlineCap> class InlineVec {
  // The SmallVector relaxation: std::pair of trivial types is not trivially
  // copy-assignable, but byte-wise relocation of such elements is still
  // sound — construction and destruction are what must be trivial.
  static_assert(std::is_trivially_copy_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "InlineVec is a memmove machine: elements must be trivially "
                "relocatable");
  static_assert(InlineCap > 0, "a zero inline buffer defeats the purpose");

public:
  using value_type = T;
  using iterator = T *;
  using const_iterator = const T *;

  InlineVec() = default;
  ~InlineVec() {
    if (isHeap())
      delete[] Data;
  }

  InlineVec(const InlineVec &Other) { assignFrom(Other); }
  InlineVec &operator=(const InlineVec &Other) {
    if (this != &Other) {
      clear();
      reserve(Other.Size);
      relocate(Data, Other.Data, Other.Size);
      Size = Other.Size;
    }
    return *this;
  }

  InlineVec(InlineVec &&Other) noexcept { stealFrom(Other); }
  InlineVec &operator=(InlineVec &&Other) noexcept {
    if (this != &Other) {
      if (isHeap())
        delete[] Data;
      stealFrom(Other);
    }
    return *this;
  }

  iterator begin() { return Data; }
  iterator end() { return Data + Size; }
  const_iterator begin() const { return Data; }
  const_iterator end() const { return Data + Size; }

  uint32_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  T &operator[](size_t I) { return Data[I]; }
  const T &operator[](size_t I) const { return Data[I]; }
  T &back() { return Data[Size - 1]; }
  const T &back() const { return Data[Size - 1]; }

  /// Drops the elements; inline or spilled capacity is retained.
  void clear() { Size = 0; }

  void reserve(size_t N) {
    if (N > Cap)
      grow(N);
  }

  void push_back(const T &V) {
    if (Size == Cap)
      grow(Size + 1);
    Data[Size++] = V;
  }

  template <typename... ArgTs> void emplace_back(ArgTs &&...Args) {
    push_back(T(std::forward<ArgTs>(Args)...));
  }

  /// Inserts before \p Pos (shifting the tail), std::vector::emplace.
  template <typename... ArgTs>
  iterator emplace(const_iterator Pos, ArgTs &&...Args) {
    size_t Index = static_cast<size_t>(Pos - Data);
    assert(Index <= Size && "insert position out of range");
    if (Size == Cap)
      grow(Size + 1);
    relocateOverlapping(Data + Index + 1, Data + Index, Size - Index);
    Data[Index] = T(std::forward<ArgTs>(Args)...);
    ++Size;
    return Data + Index;
  }

  iterator erase(const_iterator Pos) {
    size_t Index = static_cast<size_t>(Pos - Data);
    assert(Index < Size && "erase position out of range");
    relocateOverlapping(Data + Index, Data + Index + 1, Size - Index - 1);
    --Size;
    return Data + Index;
  }

  friend bool operator==(const InlineVec &L, const InlineVec &R) {
    if (L.Size != R.Size)
      return false;
    for (uint32_t I = 0; I != L.Size; ++I)
      if (!(L.Data[I] == R.Data[I]))
        return false;
    return true;
  }

private:
  bool isHeap() const { return Data != inlineData(); }
  T *inlineData() { return reinterpret_cast<T *>(Inline); }
  const T *inlineData() const { return reinterpret_cast<const T *>(Inline); }

  // The void* casts state the SmallVector relaxation (see the
  // static_assert above) to -Wclass-memaccess: byte-wise relocation of
  // trivially-copy-constructible, trivially-destructible elements is
  // sound even when their copy *assignment* is non-trivial (std::pair).
  static void relocate(T *Dst, const T *Src, size_t N) {
    std::memcpy(static_cast<void *>(Dst), static_cast<const void *>(Src),
                N * sizeof(T));
  }
  static void relocateOverlapping(T *Dst, const T *Src, size_t N) {
    std::memmove(static_cast<void *>(Dst), static_cast<const void *>(Src),
                 N * sizeof(T));
  }

  void grow(size_t Need) {
    size_t NewCap = Cap * 2;
    if (NewCap < Need)
      NewCap = Need;
    T *Fresh = new T[NewCap];
    relocate(Fresh, Data, Size);
    if (isHeap())
      delete[] Data;
    Data = Fresh;
    Cap = static_cast<uint32_t>(NewCap);
  }

  void assignFrom(const InlineVec &Other) {
    Data = inlineData();
    Size = 0;
    Cap = InlineCap;
    reserve(Other.Size);
    relocate(Data, Other.Data, Other.Size);
    Size = Other.Size;
  }

  /// Takes Other's heap block (or copies its inline elements) and leaves
  /// it empty on its own inline buffer.
  void stealFrom(InlineVec &Other) {
    if (Other.isHeap()) {
      Data = Other.Data;
      Size = Other.Size;
      Cap = Other.Cap;
    } else {
      Data = inlineData();
      Cap = InlineCap;
      Size = Other.Size;
      relocate(Data, Other.Data, Other.Size);
    }
    Other.Data = Other.inlineData();
    Other.Size = 0;
    Other.Cap = InlineCap;
  }

  T *Data = inlineData();
  uint32_t Size = 0;
  uint32_t Cap = InlineCap;
  alignas(T) unsigned char Inline[InlineCap * sizeof(T)];
};

} // namespace dyndist

#endif // DYNDIST_SUPPORT_INLINEVEC_H
