//===- Trace.cpp - Execution traces ----------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/Trace.h"

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
  const TraceKind Kind = R.kind();
  const bool Membership = Kind == TraceKind::Join ||
                          Kind == TraceKind::Leave || Kind == TraceKind::Crash;
  // Presence is [Join, End), so the count at an instant is the one its
  // last membership record leaves: fold it into the peak once a later
  // instant opens, whatever order the records within it came in.
  if (Membership && R.Time != MembershipTime) {
    Peak = std::max(Peak, Up);
    MembershipTime = R.Time;
  }
  switch (Kind) {
  case TraceKind::Join: {
    // Join subjects ascend (ids are assigned in spawn order), so this is an
    // O(1) append on the kernel path; replayed traces may hit the general
    // insert. A join of a process already up restarts its interval
    // without counting it twice.
    auto [It, New] = Intervals.try_emplace(R.subject(), PresenceInterval{});
    PresenceInterval &I = It->second;
    if (New || I.EndTime)
      ++Up;
    I.JoinTime = R.Time;
    I.EndTime.reset();
    I.Crashed = false;
    break;
  }
  case TraceKind::Leave:
  case TraceKind::Crash: {
    auto It = Intervals.find(R.subject());
    assert(It != Intervals.end() && "leave/crash for a process never joined");
    if (!It->second.EndTime)
      --Up;
    It->second.EndTime = R.Time;
    It->second.Crashed = Kind == TraceKind::Crash;
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

size_t Trace::maxConcurrency() const { return std::max(Peak, Up); }

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
  Up = 0;
  Peak = 0;
  MembershipTime = 0;
  OrderViolated = false;
}

void Trace::resetForReuse() {
  clear();
  Keys.reset();
}
