//===- sim/CalendarQueue.h - Calendar-bucket event storage ------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel's event storage: the Simulator's own calendar, which the run
/// loop drains in both engines, and one calendar per shard of the
/// space-sharded engine. Internal to
/// src/sim — not installed under include/dyndist.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_CALENDARQUEUE_H
#define DYNDIST_SIM_CALENDARQUEUE_H

#include "dyndist/sim/Message.h"
#include "dyndist/sim/Types.h"
#include "dyndist/support/InlineFunction.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

namespace dyndist {

class Simulator;
using ActionFn = InlineFunction<void(Simulator &)>;

namespace detail {

/// A scheduled kernel event: one slim 16-byte calendar node. Nodes are
/// written once at push and read once at pop — there is no sift to move
/// them — so a delivery's payload reference rides inline instead of in a
/// side table. The reference is an owned +1 parked as a raw pointer
/// (IntrusivePtr::detach() on push, MessageRef::adopt() on pop/teardown).
///
/// The kernel streams these by the hundred-thousand per instant, and at
/// million-process scale the queue/sort passes are bandwidth-bound — so
/// the node is packed hard: endpoints are 32-bit (process ids index the
/// process table, which can never reach 2^32 entries), and the kind tag
/// lives in the low bits of the payload pointer, whose storage is at
/// least 16-byte aligned (BodyPool granularity / max_align_t). A timer
/// node has no payload, so its id rides in the same word, shifted past
/// the tag — 62 bits of id space.
///
/// Deliver: (A=Src, B=Dst, Bits=body|kind). Timer: (A=owner, B=owner,
/// Bits=id<<2|kind). Action: (A=slot, B=0). B is always the destination —
/// the sharded counting-sort key — and A is always the pusher, which is
/// the sharded mailbox-merge key.
struct SimEvent {
  uint32_t A;     ///< Pusher: source / timer owner. Action: slot.
  uint32_t B;     ///< Destination. Action: 0.
  uintptr_t Bits; ///< Kind tag (low 2 bits) + payload pointer / timer id.

  static SimEvent deliver(uint32_t Src, uint32_t Dst, const MessageBody *B) {
    uintptr_t P = reinterpret_cast<uintptr_t>(B);
    assert((P & 3) == 0 && "payload storage must be 4-byte aligned");
    return {Src, Dst, P}; // KDeliver == 0: the word *is* the pointer.
  }
  static SimEvent timer(uint32_t Owner, TimerId Id) {
    return {Owner, Owner, (static_cast<uintptr_t>(Id) << 2) | 1u};
  }
  static SimEvent action(uint32_t Slot) { return {Slot, 0, 2u}; }

  uint32_t kind() const { return static_cast<uint32_t>(Bits & 3); }
  const MessageBody *body() const {
    return reinterpret_cast<const MessageBody *>(Bits); // Valid iff KDeliver.
  }
  TimerId timerId() const { return static_cast<TimerId>(Bits >> 2); }
};
static_assert(sizeof(SimEvent) == 16, "calendar nodes stay two words");

/// Event storage: a calendar queue in two tiers (Brown, CACM 31(10), 1988),
/// split at the end of a 64-instant window [Start, Start + 63].
///
/// The near tier is one calendar "year" of Window one-tick buckets: instant
/// T lives in Ring[T % Window], and bit T % Window of Occupied says whether
/// that bucket holds an instant. Each bucket is a FIFO of SimEvent nodes.
/// Sequence numbers are assigned in push order and instants never run
/// backwards, so within one bucket FIFO order *is* sequence order and the
/// (time, sequence) execution contract holds without materializing
/// sequence numbers at all. A push is one array append; the front is a
/// rotate and a count-trailing-zeros over Occupied; no ordering work is
/// done per event or per instant.
///
/// Window invariant. Every near instant lies in [Start, Start + Window), so
/// no two pending instants share a bucket. Start moves only in advanceTo(),
/// at the clock, and only while the near tier is empty: it becomes the new
/// clock (saturated so the window still ends at the last instant), which no
/// pending event precedes and no later push can precede. That is why spills
/// happen at the clock and frontTime() only reads: a window opened anywhere
/// else — at one calendar's own lowest far instant, say, while another
/// queue holds the clock below it — would not cover a later push at the
/// clock.
///
/// The far tier holds every event past the window, in push order, as an
/// unsorted list of {Time, SimEvent} — the unsorted top tier of the ladder
/// queue (Tang, Goh and Thng, ACM TOMACS 15(3), 2005). A far push is one
/// append. It is there for events a run never reaches, such as a churn
/// departure drawn thousands of ticks past the horizon: they stay unsorted
/// until reset() drops them.
///
/// Spills. When advanceTo() opens a window, spill() moves the far events
/// inside it into their buckets. It scans the list and moves what lies in
/// the window, in push order. When a scan moves fewer than 1/8 of the list
/// (instants spread far wider than the window), the rest of the list goes
/// into Old, a min-heap on (time, push order); later spills take from Old
/// first, because everything in it was pushed before anything still
/// listed. So a list scan either moves at least 1/8 of the events it
/// visits or empties the list into the heap, which each far event enters
/// at most once.
///
/// Tie-break. A spill fills only buckets of a fresh window, which no push
/// has reached yet, and fills each in push order (Old's instant before the
/// list's); later pushes append behind. Each FIFO therefore stays in push
/// order and the contract above holds.
struct CalendarQueue {
  enum : uint32_t { KDeliver = 0, KTimer = 1, KAction = 2 };

  struct Bucket {
    uint32_t Head = 0; ///< Next unread index into Fifo.
    std::vector<SimEvent> Fifo;
  };

  /// Instants in the near tier's window: one per bit of Occupied.
  static constexpr SimTime Window = 64;
  static_assert(Window == 8 * sizeof(uint64_t),
                "one occupancy bit per ring bucket");

  Bucket Ring[Window];   ///< Instant T lives in Ring[T % Window].
  uint64_t Occupied = 0; ///< Bit S set while Ring[S] holds an instant.
  SimTime Start = 0;     ///< First instant of the window.
  /// FIFO buffers of retired buckets, handed to the next bucket that
  /// opens; a closed bucket owns no buffer.
  std::vector<std::vector<SimEvent>> Spare;

  /// A far-tier event: its instant and its node.
  struct FarEvent {
    SimTime Time;
    SimEvent E;
  };
  /// A far event moved out of the list: Seq keeps its push order.
  struct OldEvent {
    SimTime Time;
    uint64_t Seq;
    SimEvent E;
  };

  std::vector<FarEvent> Far;    ///< Far list, in push order.
  SimTime FarLow = ~SimTime(0); ///< Lowest instant in Far (~0 when empty).
  std::vector<OldEvent> Old;    ///< Min-heap by (Time, Seq); see spill().
  uint64_t OldSeq = 0;          ///< Next Seq handed to Old.

  std::vector<ActionFn> Actions;
  std::vector<uint32_t> FreeActions;

  /// Timer bookkeeping as two bitmaps indexed by TimerId (ids are assigned
  /// densely from 1; sharded lanes index by their dense *local* id): Live
  /// marks timers armed but not yet popped, Cancelled marks live timers
  /// whose firing was revoked. Both bits are dropped when the timer's
  /// event is popped on *any* path (fire, cancelled, dead process), and
  /// cancelTimer() flips Cancelled only while Live is set, so cancelling
  /// an unknown or already-fired id is a no-op rather than a leak. Two
  /// bits per timer ever armed — the only queue state that grows with a
  /// run's length, at 1/4 byte per timer.
  std::vector<uint64_t> TimerLive;
  std::vector<uint64_t> TimerCancelled;
  size_t TimerPending = 0; ///< Live population count, kept incrementally.

  CalendarQueue() = default;
  CalendarQueue(const CalendarQueue &) = delete;
  CalendarQueue &operator=(const CalendarQueue &) = delete;

  // Hands parked payload references in undrained buckets and the far tier
  // back to their refcounts (and thus to the body pool) before the pool is
  // retired.
  ~CalendarQueue() { releasePending(); }

  /// Arena-reset path: clears every pending event, action, and timer bit
  /// while retaining all capacity already faulted — FIFO buffers, the far
  /// tier, the action pool, and the timer bitmaps. Parked payload
  /// references are re-homed to their pools first, exactly as the
  /// destructor would. The window returns to [0, Window), as the clock
  /// returns to 0.
  // DYNDIST_SERIAL_ONLY: tears down shared queue state between runs.
  void reset() {
    releasePending();
    for (uint64_t Bits = Occupied; Bits; Bits &= Bits - 1)
      recycle(Ring[std::countr_zero(Bits)]);
    Occupied = 0;
    Start = 0;
    Far.clear();
    FarLow = ~SimTime(0);
    Old.clear();
    OldSeq = 0;
    // clear() destroys any undrained callables (their captures must not
    // leak into the next run) but keeps the vector's storage.
    Actions.clear();
    FreeActions.clear();
    for (uint64_t &W : TimerLive)
      W = 0;
    for (uint64_t &W : TimerCancelled)
      W = 0;
    TimerPending = 0;
  }

  /// Hands the parked payload references of every pending delivery back to
  /// their refcounts (teardown and reset paths).
  void releasePending() {
    auto Release = [](const SimEvent &E) {
      if (E.kind() == KDeliver)
        MessageRef::adopt(E.body());
    };
    for (uint64_t Bits = Occupied; Bits; Bits &= Bits - 1) {
      const Bucket &B = Ring[std::countr_zero(Bits)];
      for (size_t I = B.Head, N = B.Fifo.size(); I != N; ++I)
        Release(B.Fifo[I]);
    }
    for (const FarEvent &F : Far)
      Release(F.E);
    for (const OldEvent &O : Old)
      Release(O.E);
  }

  /// True when neither tier holds an event.
  bool empty() const { return !Occupied && Far.empty() && Old.empty(); }

  /// The lowest far instant; ~0 when the far tier is empty.
  SimTime farFront() const {
    return Old.empty() ? FarLow : std::min(FarLow, Old.front().Time);
  }

  /// The earliest pending instant of both tiers; undefined when empty().
  /// Far instants all lie past the window, so the ring's front, when there
  /// is one, is the answer.
  SimTime frontTime() const {
    if (!Occupied) [[unlikely]]
      return farFront();
    return Start + static_cast<SimTime>(std::countr_zero(
                       std::rotr(Occupied, static_cast<int>(Start % Window))));
  }

  /// True when instant \p T, the clock, has a bucket.
  bool frontIs(SimTime T) const { return (Occupied >> (T % Window)) & 1; }

  /// The bucket of pending instant \p T.
  Bucket &bucket(SimTime T) {
    assert(frontIs(T) && "no bucket at this instant");
    return Ring[T % Window];
  }

  /// Moves the window to the clock \p Now when the near tier is empty, and
  /// spills the far events it reaches; see the window invariant above.
  void advanceTo(SimTime Now) {
    if (Occupied)
      return;
    assert(farFront() >= Now && "far tier fell behind the clock");
    Start = std::min(Now, ~SimTime(0) - (Window - 1));
    if (farFront() - Start < Window)
      spill();
  }

  /// Ring[T % Window] for instant \p T, opened on first use with a spare
  /// buffer.
  Bucket &slotAt(SimTime T) {
    const unsigned S = static_cast<unsigned>(T % Window);
    const uint64_t Bit = uint64_t(1) << S;
    if (!(Occupied & Bit)) {
      Occupied |= Bit;
      if (!Spare.empty()) {
        Ring[S].Fifo = std::move(Spare.back());
        Spare.pop_back();
      }
    }
    return Ring[S];
  }

  void push(SimTime Time, const SimEvent &E) {
    if (Time - Start >= Window) [[unlikely]] {
      pushFar(Time, E);
      return;
    }
    slotAt(Time).Fifo.push_back(E);
  }

  /// Appends \p Run's events at instant \p Time, in order, and leaves
  /// \p Run empty. A run into a new bucket is stolen wholesale: \p Run
  /// comes back holding the bucket's spare buffer, so steady state still
  /// allocates nothing.
  void pushRun(SimTime Time, std::vector<SimEvent> &Run) {
    if (Time - Start >= Window) [[unlikely]] {
      for (const SimEvent &E : Run)
        pushFar(Time, E);
      Run.clear();
      return;
    }
    std::vector<SimEvent> &Fifo = slotAt(Time).Fifo;
    if (Fifo.empty())
      Fifo.swap(Run);
    else
      Fifo.insert(Fifo.end(), Run.begin(), Run.end());
    Run.clear();
  }

  [[gnu::noinline]] void pushFar(SimTime Time, const SimEvent &E) {
    Far.push_back({Time, E});
    FarLow = std::min(FarLow, Time);
  }

  /// Orders Old as a min-heap on (Time, Seq).
  static bool laterOld(const OldEvent &A, const OldEvent &B) {
    return A.Time != B.Time ? A.Time > B.Time : A.Seq > B.Seq;
  }

  /// Moves every far event inside the window into its bucket, Old's before
  /// the list's, each in push order (see Spills above).
  // DYNDIST_SERIAL_ONLY: rebuilds a calendar's near tier between rounds.
  [[gnu::noinline]] void spill() {
    const SimTime Last = Start + (Window - 1);
    while (!Old.empty() && Old.front().Time <= Last) {
      std::pop_heap(Old.begin(), Old.end(), laterOld);
      slotAt(Old.back().Time).Fifo.push_back(Old.back().E);
      Old.pop_back();
    }
    if (FarLow > Last)
      return;
    // Stable partition: movers go to their buckets in push order, the rest
    // close ranks.
    const size_t Scanned = Far.size();
    size_t Kept = 0;
    FarLow = ~SimTime(0);
    for (const FarEvent &F : Far) {
      if (F.Time <= Last) {
        slotAt(F.Time).Fifo.push_back(F.E);
        continue;
      }
      Far[Kept++] = F;
      FarLow = std::min(FarLow, F.Time);
    }
    Far.resize(Kept);
    if (8 * (Scanned - Kept) >= Scanned)
      return;
    for (const FarEvent &F : Far) {
      Old.push_back({F.Time, OldSeq++, F.E});
      std::push_heap(Old.begin(), Old.end(), laterOld);
    }
    Far.clear();
    FarLow = ~SimTime(0);
  }

  /// Retires the drained bucket of instant \p T: clears its FIFO and its
  /// bit, and hands its buffer to the spare stack.
  void retire(SimTime T) {
    Bucket &B = bucket(T);
    assert(B.Head == B.Fifo.size() && "retiring a non-empty bucket");
    recycle(B);
    Occupied &= ~(uint64_t(1) << (T % Window));
  }

  /// Empties \p B and hands its buffer to the spare stack.
  void recycle(Bucket &B) {
    B.Fifo.clear();
    B.Head = 0;
    Spare.push_back(std::move(B.Fifo));
  }

  uint32_t allocAction(ActionFn Action) {
    if (!FreeActions.empty()) {
      uint32_t Slot = FreeActions.back();
      FreeActions.pop_back();
      Actions[Slot] = std::move(Action);
      return Slot;
    }
    Actions.push_back(std::move(Action));
    return static_cast<uint32_t>(Actions.size() - 1);
  }

  ActionFn takeAction(uint64_t Slot) {
    ActionFn A = std::move(Actions[Slot]);
    Actions[Slot] = nullptr;
    FreeActions.push_back(static_cast<uint32_t>(Slot));
    return A;
  }

  /// Marks \p Id live (armTimer). Ids are dense, so the bitmaps grow by
  /// amortized O(1).
  void markTimerArmed(TimerId Id) {
    size_t Word = Id / 64;
    if (Word >= TimerLive.size()) {
      TimerLive.resize(Word + 1, 0);
      TimerCancelled.resize(Word + 1, 0);
    }
    TimerLive[Word] |= uint64_t(1) << (Id % 64);
    ++TimerPending;
  }

  /// Revokes a live timer; unknown/fired/cancelled ids are no-ops.
  void markTimerCancelled(TimerId Id) {
    size_t Word = Id / 64;
    if (Word < TimerLive.size() && (TimerLive[Word] >> (Id % 64)) & 1)
      TimerCancelled[Word] |= uint64_t(1) << (Id % 64);
  }

  /// Drops \p Id's bookkeeping at pop; returns true when it should fire.
  bool collectTimer(TimerId Id) {
    size_t Word = Id / 64;
    uint64_t Mask = uint64_t(1) << (Id % 64);
    assert((TimerLive[Word] & Mask) && "popping a timer that was never live");
    TimerLive[Word] &= ~Mask;
    --TimerPending;
    bool Cancelled = (TimerCancelled[Word] & Mask) != 0;
    TimerCancelled[Word] &= ~Mask;
    return !Cancelled;
  }
};

} // namespace detail
} // namespace dyndist

#endif // DYNDIST_SIM_CALENDARQUEUE_H
