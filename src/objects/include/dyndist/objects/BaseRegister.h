//===- dyndist/objects/BaseRegister.h - Unreliable register -----*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unreliable base register: a shared (sequence, value) cell that may
/// crash responsively or nonresponsively, and that an adversary may suspend.
///
/// The cell is an array of single-writer slots. A write stores into one
/// slot (slot 0 unless the caller names another); a read returns the pair
/// with the highest sequence number over all slots. No operation compares
/// before it stores, so the object stays a plain read/write register: a
/// client that owns a slot can never overwrite another client's pair.
/// Constructions with a single writer per object only ever use slot 0.
///
/// The invocation interface is asynchronous: an operation either completes
/// inline (the normal case — the callback runs before the call returns),
/// completes later (the object was suspended and is resumed), or never
/// completes (nonresponsive crash). Algorithms therefore never block on a
/// single object; they count completions across a set of objects, which is
/// exactly the programming discipline the nonresponsive model forces.
///
/// Thread-safety: all methods may be called from any thread; callbacks run
/// on the invoking thread (inline completion) or on the resume()-ing thread
/// (deferred completion). An optional jitter source injects scheduling
/// noise for stress tests.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_OBJECTS_BASEREGISTER_H
#define DYNDIST_OBJECTS_BASEREGISTER_H

#include "dyndist/objects/Failures.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

namespace dyndist {

/// A tagged register value: monotone sequence number plus payload. The
/// initial content is {0, 0}.
struct TaggedValue {
  uint64_t Seq = 0;
  int64_t Value = 0;

  friend bool operator==(const TaggedValue &A, const TaggedValue &B) {
    return A.Seq == B.Seq && A.Value == B.Value;
  }
};

/// The unreliable shared register.
class BaseRegister {
public:
  /// Read completion: nullopt is ⊥ (responsive-crash answer).
  using ReadCallback = std::function<void(std::optional<TaggedValue>)>;
  /// Write completion: false is ⊥ (responsive-crash answer).
  using WriteCallback = std::function<void(bool)>;

  explicit BaseRegister(FailureMode Mode = FailureMode::Responsive);

  /// Reads the cell: the highest-Seq pair over all slots (the lowest slot
  /// on ties). Completion semantics per class comment.
  void asyncRead(ReadCallback Done);

  /// Writes slot \p Slot of the cell. The slot stores exactly what is
  /// written, older or not; tag discipline is the caller's.
  void asyncWrite(TaggedValue V, WriteCallback Done, size_t Slot = 0);

  /// Crashes the object (idempotent). Pending suspended operations are
  /// answered ⊥ under Responsive mode and dropped under Nonresponsive.
  void crash();

  /// Withholds operations until resume(). Operations invoked while
  /// suspended are fully deferred: their effects apply — and their
  /// callbacks run — at resume time, in invocation order. Until then the
  /// object is indistinguishable from a nonresponsive-crashed one.
  void suspend();

  /// Applies and completes all withheld operations, in invocation order,
  /// and lifts the suspension.
  void resume();

  /// Applies and completes only the \p Index-th withheld operation (0 =
  /// oldest), leaving the object suspended and the others withheld.
  /// Withheld operations are pending — invoked, not yet responded — and
  /// pending operations are concurrent, so an adversary may legitimately
  /// linearize them in any order; this is the knob the lower-bound
  /// demonstrations (reads overtaking in-flight writes) turn.
  void resumeOne(size_t Index);

  /// Number of currently withheld operations.
  size_t deferredCount() const;

  /// Current lifecycle state.
  ObjectState state() const;

  /// The failure severity this object exhibits when crashed.
  FailureMode mode() const { return Mode; }

  /// Number of operations that will never complete (dropped by a
  /// nonresponsive crash); inspection for tests.
  uint64_t droppedOps() const;

private:
  struct Pending {
    bool IsRead;
    TaggedValue WriteValue; ///< Valid when !IsRead.
    size_t WriteSlot = 0;   ///< Valid when !IsRead.
    ReadCallback ReadDone;
    WriteCallback WriteDone;
  };

  /// The highest-Seq pair over the slots. Caller holds Mutex.
  TaggedValue readLocked() const;
  /// Stores \p V into slot \p Slot. Caller holds Mutex.
  void writeLocked(size_t Slot, TaggedValue V);

  FailureMode Mode;
  mutable std::mutex Mutex;
  ObjectState State = ObjectState::Ok;
  std::vector<TaggedValue> Slots = std::vector<TaggedValue>(1);
  std::vector<Pending> Deferred;
  uint64_t Dropped = 0;
};

} // namespace dyndist

#endif // DYNDIST_OBJECTS_BASEREGISTER_H
