//===- sim/ShardEngine.h - Space-sharded execution engine -------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The space-sharded deterministic engine behind Simulator::setShards().
/// Process P lives on shard P % K; each shard (a "lane") owns a calendar
/// queue, a body pool, a timer-id sub-space, a trace buffer, and stat
/// counters. Simulator::run is the one run loop of both engines: it picks
/// the next instant over its own queue and the lanes' (nextTime), opens
/// every empty near tier's window there (advanceTo), and at each instant:
///
///   1. *Environment sub-phase* (serial): Simulator::drainFront runs all
///      scheduled actions at the instant in FIFO order — spawns, crashes,
///      harness stimuli, and the sends/timers of onStart/onStop hooks —
///      exactly as it runs every event in legacy mode. They go through the
///      Simulator's own serial entry points and context (sendMessage,
///      injectStimulus, armTimer, spawn, leave), whose sharded branches
///      append directly to the destination lane's calendar.
///   2. *Parallel sub-phase* (runRounds): every lane executes its events
///      at the instant in canonical order — ascending destination (a
///      stable counting sort), which within one destination preserves
///      (push-instant, pusher, push-order). Sends go to per-destination-
///      shard outboxes; nothing touches another lane's state.
///   3. *Barrier* (serial): lane stats fold into the global counters,
///      per-lane trace runs merge in ascending-destination order,
///      deferred departures are applied, and outboxes flush into the
///      destination lanes' calendars via a pusher-ordered K-way merge.
///
/// Every cross-lane ordering decision is positional (destination id,
/// pusher id, push order) — never thread identity — so a run is
/// byte-identical for a given seed at any shard count and any worker
/// arrangement. That schedule is deliberately *different* from the legacy
/// single-stream one: actors draw from private seed-derived streams
/// (ActorRngs) instead of the shared split, which is exactly what makes
/// the schedule shard-count-invariant. See docs/MODEL.md §7.
///
/// Payload refcounts stay non-atomic: a body delivered during the
/// parallel sub-phase is never released there. Its parked reference is
/// deferred, grouped by the pool (lane) that owns the storage, and
/// released by that lane's job at the start of the *next* round — after a
/// barrier, so owner-lane release is single-threaded by construction.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_SHARDENGINE_H
#define DYNDIST_SIM_SHARDENGINE_H

#include "CalendarQueue.h"
#include "dyndist/sim/Simulator.h"
#include "dyndist/support/WorkerPool.h"

#include <cstdint>
#include <vector>

namespace dyndist {
namespace detail {

struct ShardEngine {
  ShardEngine(Simulator &Sim, unsigned ShardCount);
  ~ShardEngine();

  ShardEngine(const ShardEngine &) = delete;
  ShardEngine &operator=(const ShardEngine &) = delete;

  /// One batch of events bound for the same future instant on one
  /// destination shard.
  struct OutRun {
    SimTime Time = 0;
    std::vector<SimEvent> Events;
  };

  /// Outbox toward one destination shard: a few OutRun slots reused
  /// across rounds (capacity retained; under fixed latency there is
  /// exactly one live run per round).
  struct Outbox {
    std::vector<OutRun> Runs;
    uint32_t Live = 0;             ///< Runs[0..Live) are active.
    uint32_t Cached = UINT32_MAX;  ///< Last runFor() hit.

    std::vector<SimEvent> &runFor(SimTime T) {
      if (Cached != UINT32_MAX && Runs[Cached].Time == T)
        return Runs[Cached].Events;
      for (uint32_t I = 0; I != Live; ++I)
        if (Runs[I].Time == T) {
          Cached = I;
          return Runs[I].Events;
        }
      if (Live == Runs.size())
        Runs.emplace_back();
      Runs[Live].Time = T;
      Cached = Live;
      return Runs[Live++].Events;
    }

    void reset() {
      for (uint32_t I = 0; I != Live; ++I)
        Runs[I].Events.clear();
      Live = 0;
      Cached = UINT32_MAX;
    }
  };

  /// Everything one shard owns. Lanes never touch each other's mutable
  /// state during the parallel sub-phase; cross-lane traffic rides in
  /// outboxes and the parity-buffered deferred-release lists, both
  /// handed over across a barrier.
  struct Lane {
    CalendarQueue Q;           ///< This shard's calendar (deliver/timer).
    BodyPool *Bodies = nullptr;///< Payload pool for actors run here.
    SimStats Stats;            ///< Folded into the global stats per round.
    TimerId NextLocalTimer = 0;///< Dense local ids; global = L*K + s + 1.
    std::vector<Outbox> Out;   ///< [dst shard] pending pushes this round.
    /// Parked payload references to release, grouped by owning lane;
    /// double-buffered by round parity (written round R, drained R+1).
    std::vector<std::vector<const MessageBody *>> Defer[2];
    /// POD records of this round. Observe records carry vocabulary key
    /// ids (TraceKeys.h), so a lane never reads or grows the key table.
    std::vector<TraceRecord> TraceBuf;
    /// (destination, record count) runs into TraceBuf, ascending.
    std::vector<std::pair<ProcessId, uint32_t>> TraceRuns;
    std::vector<ProcessId> Leaves; ///< Deferred leaveSystem() calls.
    std::vector<uint32_t> Counts;  ///< Counting-sort histogram scratch.
    std::vector<SimEvent> Sorted;  ///< Canonically ordered bucket scratch.
  };

  class LaneContext;

  Simulator &S;
  const unsigned K;
  /// Round-up reciprocal of K (Granlund-Montgomery / Lemire): for any
  /// N < 2^32, N / K == high64(N * KMagic). The sort keys every event on
  /// a division by K, and a hardware divide is ~20 cycles against a ~3
  /// cycle multiply-high — on the hot path that is the difference between
  /// the sharded loop beating the legacy loop and trailing it. Zero when
  /// K == 1 (divide is the identity; the reciprocal would wrap).
  const uint64_t KMagic;
  std::vector<Lane> Lanes;
  /// Private per-process random streams, indexed by ProcessId; seeded
  /// positionally from the master seed at spawn.
  std::vector<Rng> ActorRngs;
  WorkerPool Pool;
  bool UseThreads = false;
  bool InParallel = false; ///< True while lane jobs run (assert guard).
  unsigned Parity = 0;     ///< Deferred-release double-buffer selector.
  size_t ProcLimit = 0;    ///< Process-table size snapshot for the sort.

  /// N / K without a hardware divide. Exact for N < 2^32, which covers
  /// every sort key (process ids bounded by the table size, dense local
  /// timer ids) — guarded where ids are minted, not per call.
  uint64_t divK(uint64_t N) const {
    if (K == 1)
      return N;
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(KMagic) * N) >> 64);
  }

  unsigned shardOf(uint64_t P) const {
    if (K == 1)
      return 0;
    return static_cast<unsigned>(P - divK(P) * K);
  }

  /// Arena-reset path (Simulator::reset): clears every lane's calendar,
  /// outboxes, deferred-release lists, trace scratch, timer bookkeeping,
  /// stat counters, and the per-process random streams, retaining lane
  /// pools, queue capacity, and the worker-pool threads. K is immutable —
  /// a shard-count change rebuilds the whole kernel.
  // DYNDIST_SERIAL_ONLY: tears down shared lane state between runs.
  void reset();

  // --- Simulator entry points ---
  /// Lowers \p T to the earliest pending instant over the lanes'
  /// calendars; false when every lane is empty. Reads only: spills happen
  /// in advanceTo.
  bool nextTime(SimTime &T) const;
  /// Opens the window of every lane whose near tier is empty at the clock
  /// \p T, spilling the far events it reaches.
  // DYNDIST_SERIAL_ONLY: spills far tiers in every lane's calendar.
  void advanceTo(SimTime T);
  /// Executes every lane event at instant \p T: one parallel round and its
  /// barrier, repeated while delay-0 timers re-populate the instant.
  // DYNDIST_SERIAL_ONLY: owns the fork/join rounds; never re-entered from
  // a lane.
  void runRounds(SimTime T);
  /// Releases every deferred payload reference (both parities).
  void drainDeferred();
  size_t pendingTimers() const;
  uint64_t poolHits() const;
  uint64_t poolMisses() const;

  // --- lane-side paths (parallel sub-phase) ---
  void laneSend(unsigned LaneIdx, ProcessId From, ProcessId To,
                MessageRef Body);
  TimerId laneArmTimer(unsigned LaneIdx, ProcessId P, SimTime Delay);
  /// Arms a timer on lane \p LaneIdx: straight into its calendar when
  /// \p Direct (serial phases), through its own outbox otherwise.
  TimerId armOnLane(unsigned LaneIdx, ProcessId P, SimTime Delay,
                    bool Direct);
  /// Cancels the timer with strided global id \p Id on the lane that armed
  /// it; id 0 ("no timer") is a no-op. Serial phases may cancel on any
  /// lane, a lane only its own timers (LaneContext asserts that).
  void cancelLaneTimer(TimerId Id);

private:
  // Barrier scratch (serial-phase only): retained capacity across rounds.
  std::vector<SimTime> FlushTimes;
  std::vector<std::vector<SimEvent> *> FlushSources;
  std::vector<size_t> FlushCur;
  std::vector<SimEvent> FlushMerged; ///< Pusher-ordered merge of one flush.
  std::vector<size_t> MergeCur;
  std::vector<size_t> TraceBufCur;

  // DYNDIST_SERIAL_ONLY: owns the fork/join; never re-entered from a lane.
  void parallelRound(SimTime T);
  void laneJob(unsigned LaneIdx, SimTime T);
  void executeBucket(unsigned LaneIdx, SimTime T);
  // DYNDIST_SERIAL_ONLY: barrier stats fold into the shared SimStats.
  void foldLaneStats();
  /// Drains each lane's ascending \p Seq through \p Take(lane, item) in
  /// one ascending order across lanes, by \p Key(item); clears them.
  template <typename T, typename KeyFn, typename TakeFn>
  void mergeLanes(std::vector<T> Lane::*Seq, KeyFn Key, TakeFn Take);
  // DYNDIST_SERIAL_ONLY: ascending-destination merge into the shared trace.
  void mergeTraces();
  // DYNDIST_SERIAL_ONLY: applies deferred departures at the barrier.
  void applyLeaves();
  // DYNDIST_SERIAL_ONLY: pusher-ordered outbox drain into the calendars.
  void flushOutboxes();
  /// Releases payloads parked in outboxes (teardown and reset paths).
  void dropOutboxes();
  unsigned ownerLaneOf(const MessageBody *Body) const;
};

} // namespace detail
} // namespace dyndist

#endif // DYNDIST_SIM_SHARDENGINE_H
