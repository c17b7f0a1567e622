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

/// Event storage: a calendar-bucket queue in two tiers, split at a moving
/// boundary B (Boundary).
///
/// The near tier holds every pending instant below B. Each such instant
/// owns a FIFO of SimEvent nodes; a small binary heap orders the instants.
/// Sequence numbers are assigned in push order and instants never run
/// backwards, so within one bucket FIFO order *is* sequence order and the
/// (time, sequence) execution contract holds without materializing
/// sequence numbers at all. The payoff over a per-event heap: push and pop
/// are O(1) contiguous array moves, and ordering work (heap sift) is paid
/// once per distinct instant, not once per event — under fixed latency
/// that is once per tick for hundreds of events.
///
/// A near push finds its instant's bucket through Index, an open-addressed
/// instant -> slot table owned by the queue. Buckets and their FIFO
/// capacity are recycled through a free list and the table keeps its
/// capacity, so steady-state scheduling allocates nothing, not even for a
/// push that opens a new instant.
///
/// The far tier holds every event at or past B as an unsorted list of
/// {Time, SimEvent} in push order — the unsorted top tier of the ladder
/// queue (Tang, Goh and Thng, ACM TOMACS 15(3), 2005). A far push is one
/// append: no bucket, index entry or heap sift. It is there for events a
/// run never reaches, such as a churn departure drawn thousands of ticks
/// past the horizon: they stay unsorted until reset() drops them.
///
/// Boundary rule. B moves only while the near tier is empty, and only
/// forward. spill() sets it FarWindow ticks past the lowest far instant and
/// moves every far event below it into buckets, in push order. When that
/// window would move fewer than 1/8 of the far events (instants spread over
/// a range much wider than the window), B is set instead one past the far
/// tier's 1/8-quantile (nth_element), so a spill scans no event more than 8
/// times per event it moves. The window is a constant of the queue: a
/// boundary that doubled per spill measured 4–7% slower on the E1 matrix.
///
/// Tie-break. Near instants lie below B and far instants at or past it, so
/// no instant has events in both tiers. Until a spill, every push at or
/// past the old B went to the far list, so the buckets a spill fills are
/// new, and it fills them in push order; later pushes append behind. Each
/// FIFO therefore stays in push order and the contract above holds.
///
/// A run never spills for nothing: with only far events left,
/// frontTime(MaxTime) answers B when B is already past MaxTime, and the
/// run stops at its time limit with those events still unsorted.
struct CalendarQueue {
  enum : uint32_t { KDeliver = 0, KTimer = 1, KAction = 2 };

  struct Bucket {
    SimTime Time = 0;
    uint32_t Head = 0; ///< Next unread index into Fifo.
    std::vector<SimEvent> Fifo;
  };

  std::vector<Bucket> Buckets;       ///< Slot pool; capacity retained.
  std::vector<uint32_t> FreeBuckets; ///< Recycled Buckets slots.
  std::vector<uint32_t> TimeHeap;    ///< Bucket slots, min-heap by Time.

  static constexpr uint32_t NoBucket = UINT32_MAX;
  static constexpr unsigned MinIndexBits = 4;

  /// One instant -> bucket slot mapping of Index; empty when Slot is
  /// NoBucket (Time is then stale and never read).
  struct IndexEntry {
    SimTime Time = 0;
    uint32_t Slot = NoBucket;
  };

  /// Instant -> bucket slot for every pending instant: open addressing
  /// with linear probing over a power-of-two table kept at most half full.
  /// A probe starts at the Fibonacci hash of the instant (one multiply,
  /// top IndexBits bits) and compares inline keys, so it touches no bucket.
  /// Deletion shifts the rest of the probe run back (no tombstones), so
  /// every live entry sits in an unbroken run from its home position.
  /// Lookup-only: pop order always comes from TimeHeap, never from the
  /// table's layout.
  std::vector<IndexEntry> Index;
  unsigned IndexBits = MinIndexBits; ///< log2(Index.size()).

  /// A far-tier event: its instant and its node.
  struct FarEvent {
    SimTime Time;
    SimEvent E;
  };

  /// Width of the near tier a spill opens past the lowest far instant.
  static constexpr SimTime FarWindow = 64;

  SimTime Boundary = FarWindow;   ///< B: near instants < B <= far instants.
  std::vector<FarEvent> Far;      ///< Far tier, in push order.
  std::vector<SimTime> FarTimes;  ///< spill()'s quantile scratch.

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

  CalendarQueue() : Index(size_t(1) << MinIndexBits) {}

  ~CalendarQueue() {
    // Hand parked payload references in undrained buckets back to their
    // refcounts (and thus to the body pool) before the pool is retired.
    for (uint32_t Slot : TimeHeap) {
      Bucket &B = Buckets[Slot];
      for (size_t I = B.Head, N = B.Fifo.size(); I != N; ++I)
        if (B.Fifo[I].kind() == KDeliver)
          MessageRef::adopt(B.Fifo[I].body());
    }
    releaseFar();
  }

  /// Arena-reset path: clears every pending event, action, and timer bit
  /// while retaining all capacity already faulted — bucket slots, FIFO
  /// storage, the far list, the action pool, and the timer bitmaps. Parked
  /// payload references in undrained buckets and far deliveries are
  /// re-homed to their pools first, exactly as the destructor would. B
  /// returns to its initial FarWindow, as the clock returns to 0. Every
  /// bucket slot ends on the free list (descending, so slot 0 is handed
  /// out first, matching a fresh queue's allocation order).
  // DYNDIST_SERIAL_ONLY: tears down shared queue state between runs.
  void reset() {
    // Only slots still on the heap can hold content or an Index entry:
    // retireFront() clears a bucket and its entry before free-listing it
    // and bucketFor() hands out clean slots, so the free-listed majority
    // needs no per-bucket touch-up — just the canonical free-list rebuild
    // below. Entries are emptied in place, without indexErase()'s shifts:
    // nothing moves while the loop runs, so each instant is still found by
    // scanning from its home position, past the holes already made.
    size_t Mask = Index.size() - 1;
    for (uint32_t Slot : TimeHeap) {
      Bucket &B = Buckets[Slot];
      for (size_t I = B.Head, N = B.Fifo.size(); I != N; ++I)
        if (B.Fifo[I].kind() == KDeliver)
          MessageRef::adopt(B.Fifo[I].body());
      B.Fifo.clear(); // Capacity retained, like retireFront().
      B.Head = 0;
      size_t At = indexHome(B.Time);
      while (Index[At].Slot != Slot)
        At = (At + 1) & Mask;
      Index[At].Slot = NoBucket;
    }
    TimeHeap.clear();
    releaseFar();
    Far.clear();
    Boundary = FarWindow;
    FreeBuckets.resize(Buckets.size());
    for (uint32_t I = 0, N = static_cast<uint32_t>(Buckets.size()); I != N;
         ++I)
      FreeBuckets[I] = N - 1 - I;
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

  /// Hands the parked payload references of far deliveries back to their
  /// refcounts (teardown and reset paths).
  void releaseFar() {
    for (const FarEvent &F : Far)
      if (F.E.kind() == KDeliver)
        MessageRef::adopt(F.E.body());
  }

  /// True when neither tier holds an event.
  bool empty() const { return TimeHeap.empty() && Far.empty(); }

  /// The earliest pending instant of both tiers; undefined when empty().
  /// With only far events pending they spill first, unless B is already
  /// past \p MaxTime: then the answer is B, a lower bound on every far
  /// instant, and a caller that stops past MaxTime never pays the spill.
  SimTime frontTime(SimTime MaxTime) {
    if (TimeHeap.empty()) [[unlikely]] {
      if (Boundary > MaxTime)
        return Boundary;
      spill();
    }
    return Buckets[TimeHeap.front()].Time;
  }

  /// True when the near tier's front bucket is instant \p T.
  bool frontIs(SimTime T) const {
    return !TimeHeap.empty() && Buckets[TimeHeap.front()].Time == T;
  }

  /// Keeps B past the clock as it moves to \p Now. Only an empty queue can
  /// have B at or below Now (its instants ran out while another queue's ran
  /// on); B then moves to FarWindow past Now, so a push at Now lands in the
  /// near tier and can run within this instant.
  void advanceTo(SimTime Now) {
    if (Boundary > Now)
      return;
    assert(empty() && "B fell behind the clock with events pending");
    Boundary = Now + std::min(FarWindow, ~SimTime(0) - Now);
  }

  /// The bucket holding instant \p Time, created (and heap-inserted) on
  /// first use.
  uint32_t bucketFor(SimTime Time) {
    size_t At = indexProbe(Time);
    if (Index[At].Slot != NoBucket)
      return Index[At].Slot;
    uint32_t Slot;
    if (!FreeBuckets.empty()) {
      Slot = FreeBuckets.back();
      FreeBuckets.pop_back();
    } else {
      Slot = static_cast<uint32_t>(Buckets.size());
      Buckets.emplace_back();
    }
    Buckets[Slot].Time = Time;
    heapPush(Slot);
    if (2 * TimeHeap.size() > Index.size())
      growIndex(); // Re-inserts every pending instant, this one included.
    else
      Index[At] = {Time, Slot};
    return Slot;
  }

  /// Home position of \p Time in Index: the top IndexBits bits of its
  /// Fibonacci hash, which spreads consecutive instants apart.
  size_t indexHome(SimTime Time) const {
    return static_cast<size_t>((Time * 0x9E3779B97F4A7C15ull) >>
                               (64 - IndexBits));
  }

  /// Position of \p Time's entry, or of the empty entry ending its probe
  /// run when the instant is not pending.
  size_t indexProbe(SimTime Time) const {
    size_t Mask = Index.size() - 1;
    size_t At = indexHome(Time);
    while (Index[At].Slot != NoBucket && Index[At].Time != Time)
      At = (At + 1) & Mask;
    return At;
  }

  /// Doubles Index and re-inserts every pending instant (the TimeHeap's).
  void growIndex() {
    ++IndexBits;
    Index.assign(size_t(1) << IndexBits, IndexEntry{});
    for (uint32_t Slot : TimeHeap)
      Index[indexProbe(Buckets[Slot].Time)] = {Buckets[Slot].Time, Slot};
  }

  /// Removes pending instant \p Time's entry. Backward-shift deletion:
  /// each later entry of the probe run whose home does not lie in the
  /// cyclic range (hole, entry] moves into the hole, so no lookup ever
  /// crosses an empty entry to reach its key.
  void indexErase(SimTime Time) {
    size_t Mask = Index.size() - 1;
    size_t Hole = indexProbe(Time);
    assert(Index[Hole].Slot != NoBucket && "erasing an instant not pending");
    for (size_t At = (Hole + 1) & Mask; Index[At].Slot != NoBucket;
         At = (At + 1) & Mask) {
      size_t Home = indexHome(Index[At].Time);
      if (((At - Home) & Mask) >= ((At - Hole) & Mask)) {
        Index[Hole] = Index[At];
        Hole = At;
      }
    }
    Index[Hole].Slot = NoBucket;
  }

  void push(SimTime Time, const SimEvent &E) {
    if (Time >= Boundary) [[unlikely]] {
      pushFar(Time, E);
      return;
    }
    Buckets[bucketFor(Time)].Fifo.push_back(E);
  }

  /// Appends \p Run's events at instant \p Time, in order, and leaves
  /// \p Run empty. A run into a new bucket is stolen wholesale: \p Run
  /// comes back holding the bucket's recycled FIFO capacity, so steady
  /// state still allocates nothing.
  void pushRun(SimTime Time, std::vector<SimEvent> &Run) {
    if (Time >= Boundary) [[unlikely]] {
      for (const SimEvent &E : Run)
        pushFar(Time, E);
      Run.clear();
      return;
    }
    std::vector<SimEvent> &Fifo = Buckets[bucketFor(Time)].Fifo;
    if (Fifo.empty())
      Fifo.swap(Run);
    else
      Fifo.insert(Fifo.end(), Run.begin(), Run.end());
    Run.clear();
  }

  [[gnu::noinline]] void pushFar(SimTime Time, const SimEvent &E) {
    Far.push_back({Time, E});
  }

  /// Moves B forward past the lowest far instant and the far events below
  /// it into buckets, in push order (see the boundary rule above). Needs an
  /// empty near tier and a non-empty far one.
  // DYNDIST_SERIAL_ONLY: rebuilds a calendar's near tier between rounds.
  [[gnu::noinline]] void spill() {
    assert(TimeHeap.empty() && !Far.empty() && "spill needs only far events");
    SimTime Lowest = Far.front().Time;
    for (const FarEvent &F : Far)
      Lowest = std::min(Lowest, F.Time);
    // The last instant to move; saturating, so an instant near the end of
    // time still spills.
    SimTime Last = Lowest + std::min(FarWindow - 1, ~SimTime(0) - Lowest);
    size_t Moving = 0;
    for (const FarEvent &F : Far)
      Moving += F.Time <= Last;
    const size_t Eighth = Far.size() / 8;
    if (Moving < Eighth) {
      FarTimes.resize(Far.size());
      for (size_t I = 0, N = Far.size(); I != N; ++I)
        FarTimes[I] = Far[I].Time;
      std::nth_element(FarTimes.begin(), FarTimes.begin() + Eighth,
                       FarTimes.end());
      Last = FarTimes[Eighth];
    }
    // Stable partition: movers go to their buckets in push order, the rest
    // close ranks.
    size_t Kept = 0;
    for (const FarEvent &F : Far) {
      if (F.Time > Last)
        Far[Kept++] = F;
      else
        Buckets[bucketFor(F.Time)].Fifo.push_back(F.E);
    }
    Far.resize(Kept);
    Boundary = Last == ~SimTime(0) ? Last : Last + 1;
  }

  void heapPush(uint32_t Slot) {
    size_t I = TimeHeap.size();
    TimeHeap.push_back(Slot);
    SimTime T = Buckets[Slot].Time;
    while (I > 0) {
      size_t Parent = (I - 1) / 2;
      if (Buckets[TimeHeap[Parent]].Time <= T)
        break;
      TimeHeap[I] = TimeHeap[Parent];
      I = Parent;
    }
    TimeHeap[I] = Slot;
  }

  /// Retires the exhausted front bucket: recycles its slot (FIFO capacity
  /// retained) and re-establishes the heap over the remaining instants.
  void retireFront() {
    uint32_t Slot = TimeHeap.front();
    Bucket &B = Buckets[Slot];
    assert(B.Head == B.Fifo.size() && "retiring a non-empty bucket");
    indexErase(B.Time);
    B.Fifo.clear();
    B.Head = 0;
    FreeBuckets.push_back(Slot);

    uint32_t Last = TimeHeap.back();
    TimeHeap.pop_back();
    size_t N = TimeHeap.size();
    if (N == 0)
      return;
    SimTime LastTime = Buckets[Last].Time;
    size_t I = 0;
    for (;;) {
      size_t Child = 2 * I + 1;
      if (Child >= N)
        break;
      if (Child + 1 < N &&
          Buckets[TimeHeap[Child + 1]].Time < Buckets[TimeHeap[Child]].Time)
        ++Child;
      if (Buckets[TimeHeap[Child]].Time >= LastTime)
        break;
      TimeHeap[I] = TimeHeap[Child];
      I = Child;
    }
    TimeHeap[I] = Last;
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
