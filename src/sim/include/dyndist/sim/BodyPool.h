//===- dyndist/sim/BodyPool.h - Pooled payload allocator --------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A size-bucketed slab recycler for message payloads and actors. Each
/// Simulator owns one pool; freed blocks return to a per-bucket LIFO free
/// list whose capacity is retained across churn, exactly like the Graph
/// slot table — so steady-state messaging and arrivals allocate nothing.
/// The pool is strictly single-threaded (one Simulator per sweep shard, per
/// the SweepRunner discipline), which is what makes MessageBody's
/// non-atomic refcount safe.
///
/// Both kinds of pooled object, payloads and actors, derive from
/// PoolAllocated, whose class-level operator new reaches the pool through
/// a thread-local "active pool" that the owning Simulator installs for the
/// duration of run()/spawn()/leave() (RAII scope, nestable; the churn
/// driver opens one with Simulator::poolScope() around its factory).
/// Objects created outside any simulator scope — harness setup code, tests
/// — fall back to the plain heap and are freed there. Either way the block
/// carries a 16-byte header in front of the object (allocateHeadered())
/// that names the pool it came from, so `delete` sends it home — to a
/// retired pool too — and hits()/misses() count both kinds of block.
///
/// Lifetime: the pool outlives its blocks. A Simulator destroyed while
/// blocks are still live (its own actors, destroyed after it retires the
/// pool; a test keeping a MessageRef around) retires the pool instead of
/// deleting it: the pool frees its cached slabs, hands every
/// later-returning block straight to the heap, and deletes itself when the
/// last one comes home.
///
/// Under AddressSanitizer a cached block is poisoned while it sits on a
/// free list, so a stale body or actor pointer into recycled storage is
/// reported as a use-after-poison instead of reading the next tenant.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_BODYPOOL_H
#define DYNDIST_SIM_BODYPOOL_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DYNDIST_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DYNDIST_POOL_ASAN 1
#endif
#endif
#ifdef DYNDIST_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace dyndist {

class BodyPool {
public:
  /// Bucket geometry: sizes are rounded up to 16-byte steps; anything past
  /// MaxPooledBytes (no protocol payload comes close) uses the plain heap.
  static constexpr size_t Granularity = 16;
  static constexpr size_t MaxPooledBytes = 512;
  static constexpr uint32_t NumBuckets =
      static_cast<uint32_t>(MaxPooledBytes / Granularity);

  BodyPool() = default;
  BodyPool(const BodyPool &) = delete;
  BodyPool &operator=(const BodyPool &) = delete;

  ~BodyPool() { releaseCached(); }

  /// The pool installed by the innermost live Scope on this thread, or
  /// null when allocation should use the plain heap.
  static BodyPool *active() { return Active; }

  /// Installs \p P as the active pool for the scope's lifetime; nests.
  class Scope {
  public:
    explicit Scope(BodyPool *P) : Prev(Active) { Active = P; }
    ~Scope() { Active = Prev; }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    BodyPool *Prev;
  };

  /// Returns a block of at least \p Bytes and records its bucket in
  /// \p BucketOut, or null when \p Bytes is beyond pooling (caller goes to
  /// the heap). A recycled block is a hit; a fresh slab is a miss.
  void *allocate(size_t Bytes, uint32_t &BucketOut) {
    if (Bytes > MaxPooledBytes)
      return nullptr;
    uint32_t Bucket =
        static_cast<uint32_t>((Bytes + Granularity - 1) / Granularity);
    Bucket = Bucket == 0 ? 0 : Bucket - 1; // Bucket B holds (B+1)*16 bytes.
    BucketOut = Bucket;
    ++Outstanding;
    std::vector<void *> &List = Free[Bucket];
    if (!List.empty()) {
      ++HitCount;
      void *Block = List.back();
      List.pop_back();
      unpoison(Block, Bucket);
      return Block;
    }
    ++MissCount;
    return ::operator new(blockBytes(Bucket));
  }

  /// Returns \p Block (allocated from bucket \p Bucket) to the free list —
  /// or to the heap when the owning simulator is already gone, deleting
  /// the retired pool once its last block is home.
  void recycle(void *Block, uint32_t Bucket) {
    assert(Bucket < NumBuckets && "bad bucket index");
    assert(Outstanding > 0 && "recycle without allocate");
    --Outstanding;
    if (!Retired) {
      Free[Bucket].push_back(Block);
      poison(Block, Bucket);
      return;
    }
    ::operator delete(Block);
    if (Outstanding == 0)
      delete this;
  }

  /// Called by the owning Simulator's destructor (pool is heap-allocated):
  /// deletes the pool now if every block has been returned, otherwise
  /// switches it to retired self-deleting mode.
  static void retire(BodyPool *P) {
    if (P->Outstanding == 0) {
      delete P;
      return;
    }
    // Cached slabs are useless now — no allocation will ever hit again.
    P->releaseCached();
    P->Retired = true;
  }

  /// Storage for a PoolAllocated object: a block of the active pool, or of
  /// the heap outside any scope or past MaxPooledBytes, with a Header in
  /// front that records where it came from. Returns the address after the
  /// header.
  static void *allocateHeadered(size_t Bytes) {
    BodyPool *P = active();
    uint32_t Bucket = 0;
    void *Block = P ? P->allocate(sizeof(Header) + Bytes, Bucket) : nullptr;
    if (!Block) { // No pool in scope, or the object is beyond pooling.
      Block = ::operator new(sizeof(Header) + Bytes);
      P = nullptr;
    }
    Header *H = ::new (Block) Header{P, Bucket};
    return H + 1;
  }

  /// Returns an allocateHeadered() block to the pool its header names —
  /// a retired one included — or to the heap.
  static void freeHeadered(void *Obj) {
    if (!Obj)
      return;
    Header *H = static_cast<Header *>(Obj) - 1;
    if (H->Pool)
      H->Pool->recycle(H, H->Bucket);
    else
      ::operator delete(H);
  }

  /// The pool an allocateHeadered() block came from, read from the header
  /// in front of \p Obj; null for a heap block.
  static BodyPool *poolOf(const void *Obj) {
    return (static_cast<const Header *>(Obj) - 1)->Pool;
  }

  /// Allocations served from a free list / from fresh slabs.
  uint64_t hits() const { return HitCount; }
  uint64_t misses() const { return MissCount; }

  /// Blocks currently alive out of this pool (tests).
  uint64_t outstanding() const { return Outstanding; }

private:
  /// Prefix of an allocateHeadered() block; a full alignment unit, so the
  /// object behind it keeps the heap's max_align_t alignment.
  struct alignas(std::max_align_t) Header {
    BodyPool *Pool; ///< Recycling destination; null = heap.
    uint32_t Bucket;
  };

  static size_t blockBytes(uint32_t Bucket) {
    return (size_t(Bucket) + 1) * Granularity;
  }

  static void poison([[maybe_unused]] void *Block,
                     [[maybe_unused]] uint32_t Bucket) {
#ifdef DYNDIST_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(Block, blockBytes(Bucket));
#endif
  }

  static void unpoison([[maybe_unused]] void *Block,
                       [[maybe_unused]] uint32_t Bucket) {
#ifdef DYNDIST_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(Block, blockBytes(Bucket));
#endif
  }

  /// Hands every cached block back to the heap.
  void releaseCached() {
    for (uint32_t B = 0; B != NumBuckets; ++B) {
      for (void *Block : Free[B]) {
        unpoison(Block, B);
        ::operator delete(Block);
      }
      Free[B].clear();
    }
  }

  std::vector<void *> Free[NumBuckets];
  uint64_t Outstanding = 0;
  uint64_t HitCount = 0;
  uint64_t MissCount = 0;
  bool Retired = false;

  // Inline + constinit: every TU sees the constant initializer, so access
  // compiles to a direct TLS load instead of a call through the TLS init
  // wrapper (which GCC's UBSan runtime resolves to null across archives).
  static inline thread_local constinit BodyPool *Active = nullptr;
};

/// Base of every pooled object (MessageBody, Actor): class-level
/// operator new and delete put the object behind an allocateHeadered()
/// header, so a plain `delete` returns the block to the pool that header
/// names. The operators are defined out of line (Simulator.cpp): inlined
/// into a file that replaces the global operator new, GCC reports them as
/// -Wmismatched-new-delete.
class PoolAllocated {
public:
  static void *operator new(size_t Bytes);
  static void operator delete(void *Obj);
  /// Pool blocks are only max_align_t-aligned: an over-aligned object
  /// bypasses the pool and its header.
  static void *operator new(size_t Bytes, std::align_val_t Align);
  static void operator delete(void *Obj, std::align_val_t Align);

protected:
  PoolAllocated() = default;
  ~PoolAllocated() = default;
};

} // namespace dyndist

#endif // DYNDIST_SIM_BODYPOOL_H
