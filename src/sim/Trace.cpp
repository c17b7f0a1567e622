//===- Trace.cpp - Execution traces ----------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/Trace.h"

#include "dyndist/support/InlineVec.h"

#include <algorithm>
#include <cassert>

using namespace dyndist;

namespace {

/// Retired record buffers recycled across Trace instances. Thread-local: a
/// Simulator and its trace are single-threaded objects, and the pool must
/// not serialize unrelated simulators running on different threads. The
/// point is the mapped pages: a full-trace run accumulates tens of MB of
/// records, and above glibc's mmap-threshold cap that storage is returned
/// to the kernel on free — so without recycling, every fresh Simulator
/// re-faults (and growth-copies) the whole buffer again, which costs more
/// than the appends themselves.
constexpr size_t PoolMaxBuffers = 4;
constexpr size_t PoolMinRecords = 1024; ///< Don't pool trivial buffers.

using BufferPool = std::vector<std::vector<TraceRecord>>;

/// The pool is reached through a trivially-destructible thread-local
/// pointer slot rather than directly, because Trace destructors can run
/// *after* the thread's TLS teardown: a Trace held in a function-local
/// static (e.g. a captured fixture) is destroyed in the static-destruction
/// phase, which the standard sequences after all main-thread thread-local
/// destructors. PoolOwner nulls the slot when the pool itself dies, so
/// such late destructors observe null and skip recycling instead of
/// pushing into a destroyed vector.
BufferPool *&poolSlot() {
  thread_local BufferPool *Slot = nullptr;
  return Slot;
}

struct PoolOwner {
  BufferPool Buffers;
  PoolOwner() { poolSlot() = &Buffers; }
  ~PoolOwner() { poolSlot() = nullptr; }
};

BufferPool *recordBufferPool() {
  // After Owner's destructor has run, the initialization guard stays set:
  // re-entry skips construction and the slot reads back null.
  thread_local PoolOwner Owner;
  return poolSlot();
}

} // namespace

Trace::Trace() {
  BufferPool *Pool = recordBufferPool();
  if (Pool && !Pool->empty()) {
    Records = std::move(Pool->back());
    Pool->pop_back();
  }
}

Trace::~Trace() {
  BufferPool *Pool = recordBufferPool();
  if (!Pool || Records.capacity() < PoolMinRecords ||
      Pool->size() >= PoolMaxBuffers)
    return;
  Records.clear();
  Pool->push_back(std::move(Records));
}

void Trace::appendRecord(const TraceRecord &R) {
  // Deferred-error contract, mirroring ColumnarTraceWriter: a record that
  // goes back in time is dropped and latched, never silently stored where
  // it would corrupt downstream framing.
  if (!Records.empty() && R.Time < Records.back().Time) {
    OrderViolated = true;
    return;
  }
  switch (R.kind()) {
  case TraceKind::Join: {
    // Join subjects ascend (ids are assigned in spawn order), so this is an
    // O(1) append on the kernel path; replayed traces may hit the general
    // insert.
    PresenceInterval &I = Intervals[R.subject()];
    I.JoinTime = R.Time;
    I.EndTime.reset();
    I.Crashed = false;
    break;
  }
  case TraceKind::Leave:
  case TraceKind::Crash: {
    auto It = Intervals.find(R.subject());
    assert(It != Intervals.end() && "leave/crash for a process never joined");
    It->second.EndTime = R.Time;
    It->second.Crashed = R.kind() == TraceKind::Crash;
    break;
  }
  default:
    break;
  }
  Records.push_back(R);
}

void Trace::append(TraceEvent E) {
  appendRecord(TraceRecord::make(E.Kind, E.Time, E.Subject, E.Peer, E.MsgKind,
                                 Keys.intern(E.Key), E.Value));
}

void Trace::appendBatch(const TraceRecord *R, size_t N,
                        const TraceKeyTable &ForeignKeys) {
  for (size_t I = 0; I != N; ++I) {
    TraceRecord Rec = R[I];
    if (uint32_t Id = Rec.keyId())
      Rec.setKeyId(Keys.intern(std::string(ForeignKeys.name(Id))));
    appendRecord(Rec);
  }
}

std::vector<ProcessId> Trace::membersAt(SimTime T) const {
  std::vector<ProcessId> Out;
  for (const auto &[P, I] : Intervals)
    if (I.upAt(T))
      Out.push_back(P);
  return Out;
}

size_t Trace::membersCountAt(SimTime T) const {
  size_t N = 0;
  for (const auto &[P, I] : Intervals) {
    (void)P;
    if (I.upAt(T))
      ++N;
  }
  return N;
}

std::vector<ProcessId> Trace::membersThroughout(SimTime From,
                                                SimTime To) const {
  std::vector<ProcessId> Out;
  for (const auto &[P, I] : Intervals)
    if (I.upThroughout(From, To))
      Out.push_back(P);
  return Out;
}

size_t Trace::maxConcurrency() const {
  // Sweep join/end instants. Presence is [Join, End): a process whose
  // interval ends at T is no longer up at T, so ends apply before joins at
  // equal timestamps — consistent with PresenceInterval::upAt().
  //
  // Intervals ascends by ProcessId, and live traces assign pids in spawn
  // order, so the join instants are already sorted: only the end instants
  // (a small minority when sessions outlive the horizon) need a sort, and
  // the sweep is a linear merge of the two sequences. Deserialized or
  // hand-built traces may break the join monotonicity; detect that in the
  // same pass and fall back to the full delta sort. The ends gather in an
  // inline buffer: the common run ends few sessions, so the sweep makes no
  // heap call.
  InlineVec<SimTime, 16> Ends;
  SimTime PrevJoin = 0;
  bool JoinsSorted = true;
  for (const auto &[P, I] : Intervals) {
    (void)P;
    JoinsSorted &= I.JoinTime >= PrevJoin;
    PrevJoin = I.JoinTime;
    if (I.EndTime)
      Ends.push_back(*I.EndTime);
  }
  size_t Best = 0, Cur = 0;
  if (JoinsSorted) {
    std::sort(Ends.begin(), Ends.end());
    size_t E = 0;
    for (const auto &[P, I] : Intervals) {
      (void)P;
      while (E != Ends.size() && Ends[E] <= I.JoinTime) {
        --Cur;
        ++E;
      }
      ++Cur;
      Best = std::max(Best, Cur);
    }
    return Best;
  }
  std::vector<std::pair<SimTime, int>> Deltas;
  Deltas.reserve(Intervals.size() * 2);
  for (const auto &[P, I] : Intervals) {
    (void)P;
    Deltas.emplace_back(I.JoinTime, +1);
    if (I.EndTime)
      Deltas.emplace_back(*I.EndTime, -1);
  }
  std::sort(Deltas.begin(), Deltas.end(),
            [](const auto &A, const auto &B) {
              if (A.first != B.first)
                return A.first < B.first;
              return A.second < B.second; // Ends before joins at equal time.
            });
  for (const auto &[T, D] : Deltas) {
    (void)T;
    Cur = static_cast<size_t>(static_cast<long>(Cur) + D);
    Best = std::max(Best, Cur);
  }
  return Best;
}

std::optional<TraceEvent>
Trace::firstObservation(ProcessId Subject, const std::string &Key) const {
  uint32_t Id = Keys.find(Key);
  if (Id == 0 && !Key.empty())
    return std::nullopt;
  auto R = firstObservationRecord(Subject, Id);
  if (!R)
    return std::nullopt;
  return TraceEvent{R->kind(),   R->Time, R->subject(), R->peer(),
                    R->MsgKind, Key,     R->Value};
}

std::optional<TraceRecord>
Trace::firstObservationRecord(ProcessId Subject, uint32_t KeyId) const {
  for (const TraceRecord &R : Records)
    if (R.kind() == TraceKind::Observe && R.subject() == Subject &&
        R.keyId() == KeyId)
      return R;
  return std::nullopt;
}

size_t Trace::countKind(TraceKind Kind) const {
  size_t N = 0;
  for (const TraceRecord &R : Records)
    if (R.kind() == Kind)
      ++N;
  return N;
}

void Trace::clear() {
  Records.clear();
  Intervals.clear();
  OrderViolated = false;
}

void Trace::resetForReuse() {
  clear();
  Keys.reset();
}
