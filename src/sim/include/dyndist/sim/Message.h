//===- dyndist/sim/Message.h - Protocol message envelope --------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Message payloads for simulated protocols.
///
/// Protocols define payloads as subclasses of MessageBody carrying a
/// protocol-chosen integer \c Kind discriminator, and dispatch with manual
/// tag checks plus static_cast (closed hierarchy, no dynamic_cast), in the
/// style recommended by the LLVM Programmer's Manual for closed type
/// hierarchies. Payloads are immutable after sending and shared by
/// reference so a broadcast does not copy the body per recipient.
///
/// Sharing is intrusive: MessageBody carries a non-atomic refcount and
/// MessageRef is a one-pointer IntrusivePtr handle, so a broadcast costs a
/// counter bump instead of shared_ptr's atomic control-block traffic. A
/// body is a PoolAllocated object, exactly like an actor: its storage
/// comes from the owning Simulator's BodyPool (size-bucketed LIFO slab
/// recycler) when one is in scope, making steady-state messaging
/// allocation-free, and from the plain heap otherwise; the 16-byte header
/// in front of the body names its pool, and the last release deletes it
/// back there. Non-atomic counts are safe
/// because a body never leaves its simulator, and each SweepRunner shard
/// runs its simulators on a single thread; the kernel asserts the
/// no-crossing rule in debug builds (see docs/MODEL.md §7).
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_MESSAGE_H
#define DYNDIST_SIM_MESSAGE_H

#include "dyndist/sim/BodyPool.h"
#include "dyndist/support/IntrusiveRefCnt.h"

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace dyndist {

/// Base class of all protocol message payloads.
class MessageBody : public PoolAllocated {
public:
  explicit MessageBody(int Kind) : Kind(Kind) {}
  virtual ~MessageBody();

  MessageBody(const MessageBody &) = delete;
  MessageBody &operator=(const MessageBody &) = delete;

  /// Protocol-defined discriminator; see bodyAs<T>().
  int kind() const { return Kind; }

  /// Abstract payload size in "units": one unit per scalar field carried
  /// (an identity is one unit, a value one unit, so a contribution entry
  /// is two). The kernel accumulates it into SimStats::PayloadUnits,
  /// giving experiments a bandwidth axis beyond message counts — the
  /// state a protocol ships grows with the system in exactly the way the
  /// paper's "very large number of entities" worries about. Default: 1.
  virtual size_t weight() const { return 1; }

  /// Intrusive refcount interface consumed by IntrusivePtr (MessageRef).
  /// Non-atomic by design: bodies never cross threads (one Simulator per
  /// sweep shard), which the kernel checks in debug builds.
  void intrusiveRetain() const { ++RefCnt; }
  void intrusiveRelease() const {
    assert(RefCnt > 0 && "over-release of message body");
    if (--RefCnt == 0)
      delete this; // Virtual: the payload's destructor, then its pool.
  }

  /// Current share count (tests; a freshly made body is 1).
  uint32_t refCount() const { return RefCnt; }

  /// The pool this body's storage came from, read from its header; null
  /// for plain-heap bodies. Only for bodies made by makeBody().
  BodyPool *pool() const { return BodyPool::poolOf(this); }

private:
  const int Kind;
  mutable uint32_t RefCnt = 1; ///< Creator's reference; adopt()ed once.
};

/// Shared immutable reference to a payload.
using MessageRef = IntrusivePtr<const MessageBody>;

/// Checked downcast helper: asserts that \p Body's kind matches \p T::KindId
/// and returns it as const T&. Each payload type must expose a
/// \c static constexpr int KindId member.
template <typename T> const T &bodyAs(const MessageBody &Body) {
  assert(Body.kind() == T::KindId && "message kind mismatch");
  return static_cast<const T &>(Body);
}

/// Convenience constructor for payloads: builds \p T in storage recycled
/// from the active BodyPool (plain heap when none is in scope or the
/// payload is outsized) and returns the owning handle.
template <typename T, typename... Args> MessageRef makeBody(Args &&...As) {
  static_assert(std::is_base_of_v<MessageBody, T>,
                "payloads derive from MessageBody");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned payloads are not supported by the pool");
  T *Obj = new T(std::forward<Args>(As)...);
  MessageBody *Base = Obj;
  // pool() reads the header in front of the MessageBody subobject, so it
  // must coincide with the allocation (single-base hierarchy).
  assert(static_cast<void *>(Base) == static_cast<void *>(Obj) &&
         "MessageBody must be the primary base of every payload");
  return MessageRef::adopt(Base);
}

} // namespace dyndist

#endif // DYNDIST_SIM_MESSAGE_H
