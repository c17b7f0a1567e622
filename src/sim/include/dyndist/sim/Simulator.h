//===- dyndist/sim/Simulator.h - Discrete-event kernel ----------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic discrete-event simulation kernel.
///
/// Events (message deliveries, timer firings, environment actions) are
/// executed in (time, sequence) order, where sequence numbers are assigned
/// at scheduling time; together with the seeded Rng this makes every run a
/// pure function of its seed and configuration. The kernel is intentionally
/// mechanism-only: membership policy (who joins/leaves when) belongs to the
/// arrival models, and topology policy (who neighbors whom) is delegated to
/// a TopologyProvider installed by the layer above (dyndist_core).
///
/// Hot-path complexity guarantees (see docs/MODEL.md, "Kernel internals"):
/// the process table is a dense vector indexed by the sequentially-assigned
/// ProcessId, so isUp()/actorFor() and the per-event destination lookup are
/// O(1); the up-set is maintained incrementally, so upCount() is O(1) and
/// upSet() is allocation-free; the event queue is a calendar queue — a ring
/// of 64 one-tick buckets, each a FIFO of slim 16-byte nodes, with one
/// occupancy word, and an unsorted far list for instants past the ring's
/// window — so pushing and popping an event are O(1) array moves (each
/// node is written once and read once; payload references ride inline) and
/// finding the next instant is a count-trailing-zeros. FIFO order within an
/// instant is sequence order by construction, so the (time, sequence)
/// execution contract is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_SIMULATOR_H
#define DYNDIST_SIM_SIMULATOR_H

#include "dyndist/sim/Actor.h"
#include "dyndist/sim/BodyPool.h"
#include "dyndist/sim/Latency.h"
#include "dyndist/sim/Message.h"
#include "dyndist/sim/Trace.h"
#include "dyndist/sim/TraceSink.h"
#include "dyndist/sim/Types.h"
#include "dyndist/support/InlineFunction.h"
#include "dyndist/support/Random.h"

#include <cassert>
#include <memory>
#include <vector>

namespace dyndist {

namespace detail {
struct CalendarQueue;
struct ShardEngine;
} // namespace detail

/// Supplies the overlay neighborhood of each up process. Installed by the
/// dynamic-system layer; the default (when none is installed) is a full
/// mesh over all up processes, i.e. the static-system corner where locality
/// is not a constraint.
class TopologyProvider {
public:
  virtual ~TopologyProvider();

  /// Number of current neighbors of \p P among up processes.
  virtual size_t neighborCountOf(ProcessId P) const = 0;

  /// The \p I-th neighbor of \p P in ascending-id order.
  virtual ProcessId neighborAtOf(ProcessId P, size_t I) const = 0;

  /// Invokes \p F for each neighbor of \p P in ascending-id order. \p F
  /// must not mutate the topology.
  virtual void forEachNeighborOf(ProcessId P,
                                 FunctionRef<void(ProcessId)> F) const = 0;
};

class Simulator;

/// Run limits; a run stops when any limit is hit or no events remain.
struct RunLimits {
  SimTime MaxTime = ~0ULL;      ///< Stop before executing events past this.
  uint64_t MaxEvents = 50'000'000; ///< Hard event-count backstop.
};

/// Reason a run stopped.
enum class StopReason { QueueExhausted, TimeLimit, EventLimit, Halted };

/// Aggregate message-economy counters for benchmarks.
struct SimStats {
  uint64_t MessagesSent = 0;
  uint64_t MessagesDelivered = 0;
  uint64_t MessagesDropped = 0;
  uint64_t PayloadUnits = 0; ///< Sum of MessageBody::weight() over sends
                             ///< and injected stimuli.
  uint64_t TimersFired = 0;
  uint64_t EventsExecuted = 0;

  /// Allocation-economy counters: payload and actor allocations served
  /// from the body pool's free lists vs fresh slabs, and scheduled
  /// callables whose captures overflowed the InlineFunction buffer onto
  /// the heap. In steady state the first should dominate the second and
  /// the third should stay 0 — the observable form of "messaging
  /// allocates nothing".
  uint64_t BodyPoolHits = 0;
  uint64_t BodyPoolMisses = 0;
  uint64_t InlineFnHeapFallbacks = 0;

  friend bool operator==(const SimStats &, const SimStats &) = default;
};

/// Owning callable types of the kernel's scheduling surface: move-only,
/// small-buffer-optimized, allocation-free for the common capture shapes
/// (a ProcessId plus a weak token plus a config reference).
using ActionFn = InlineFunction<void(Simulator &)>;
using MembershipHookFn = InlineFunction<void(ProcessId)>;

/// The deterministic event-driven kernel.
// DYNDIST_SERIAL_CONTEXT: the serial context of both engines. The legacy
// loop runs everything here on one thread; the sharded engine runs its
// environment phase and barrier through the same entry points, between
// parallel rounds. Lanes only read it: the process table, the neighbor
// accessors and accountSend().
class Simulator {
public:
  /// Creates a kernel seeded with \p Seed; latency defaults to
  /// FixedLatency(1) until setLatencyModel() is called.
  explicit Simulator(uint64_t Seed);
  ~Simulator();

  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;

  /// Arena-reset path: clears all *runtime* state — clock, pending events
  /// and actions, timers, processes, the up-set, the trace
  /// (including its key table), and the stat counters (the cumulative body
  /// pool hit/miss counters excepted; see below) — and re-seeds the random
  /// streams exactly as the constructor would, while retaining every
  /// capacity already faulted (calendar buckets, body-pool free lists,
  /// trace buffers, the process table, sharded lane state).
  ///
  /// *Configuration* survives: the installed latency model, loss rate,
  /// trace level, topology provider, membership hooks, and the shard count
  /// are preserved — callers re-run the same setup cheaply, or call the
  /// setters again to change it. The trace sink is flushed and detached
  /// (a fresh kernel has none). A reset-reused run is byte-identical to a
  /// fresh-construction run of the same seed and configuration: same
  /// schedule, same trace bytes, same stats — except BodyPoolHits/Misses,
  /// which are cumulative allocation-economy counters and legitimately
  /// differ between a cold and a warm pool (the same carve-out the sharded
  /// kernel's K-invariance contract makes). See docs/MODEL.md §7.
  // DYNDIST_SERIAL_ONLY: tears down shared kernel state between runs.
  void reset(uint64_t NewSeed);

  /// Moves the recorded trace out of the kernel, leaving an empty trace
  /// behind (key table included). The cheap way for a harness to keep a
  /// run's trace alive past the next reset() without the O(events) copy
  /// that assigning trace() costs.
  // DYNDIST_SERIAL_ONLY: swaps the shared trace object between runs.
  Trace takeTrace();

  /// Replaces the latency model (owned by the simulator).
  void setLatencyModel(std::unique_ptr<LatencyModel> Model);

  /// Sets an independent per-message loss probability in [0, 1] (default
  /// 0: reliable channels). Lost messages are recorded as Drop events at
  /// send time and never delivered — fair-lossy channels, the message-
  /// passing face of an unreliable environment.
  void setLossRate(double Probability);

  /// Selects how much of the execution is recorded (default: Full). The
  /// level changes only what trace() contains, never the schedule: the
  /// same seed executes the same events at every level.
  void setTraceLevel(TraceLevel Level) { TraceLev = Level; }

  /// Installs a streaming trace sink (not owned; must outlive the run or
  /// be detached with nullptr). While a sink is installed, every record the
  /// active TraceLevel admits is streamed to the sink *instead of* being
  /// accumulated in trace() — the production-scale path for runs whose
  /// full trace would not fit in memory. Records arrive at the sink in
  /// exactly the order trace() would have held them (for sharded runs, the
  /// barrier's ascending-destination merge order), delivered in flat POD
  /// batches through TraceSink::appendBatch. Any records still buffered
  /// for the previous sink are flushed to it before the switch.
  void setTraceSink(TraceSink *S) {
    flushTraceSink();
    Sink = S;
  }

  /// Delivers any records buffered for the installed sink. run() flushes
  /// on every exit path and the destructor flushes too, so this is only
  /// needed when inspecting sink output mid-run (e.g. between spawns
  /// before the first run()).
  // DYNDIST_SERIAL_ONLY: drains the shared record buffer into the sink.
  void flushTraceSink();

  /// Installs the topology provider (not owned; must outlive the run).
  /// Passing nullptr restores the default full mesh.
  void setTopologyProvider(const TopologyProvider *Provider);

  /// Switches the kernel into space-sharded execution with \p K shards
  /// (process P lives on shard P % K). Must be called before the first
  /// spawn. Sharded runs are a *different* deterministic contract than the
  /// legacy single-stream schedule: each process draws from a private
  /// seed-derived random stream and same-instant events execute in
  /// canonical (destination, push-instant, pusher, push-order) order, so a
  /// sharded run is byte-identical for the same seed at *any* shard count
  /// (1, 2, 4, ...) and any worker-thread arrangement — but not to the
  /// legacy schedule. Run limits and halt() are honored between the
  /// environment's events and at instant boundaries, never inside a lane
  /// round. See docs/MODEL.md §7.
  void setShards(unsigned K);

  /// The configured shard count; 0 in legacy single-stream mode.
  unsigned shards() const;

  /// Optional hook invoked right after a process joins / right after it
  /// leaves or crashes; the dynamic-system layer uses these to keep the
  /// overlay in sync with membership.
  void setMembershipHooks(MembershipHookFn OnUp, MembershipHookFn OnDown);

  /// Spawns a new process running \p A; it joins (and onStart runs) at the
  /// current instant. Returns its never-reused identity.
  // DYNDIST_SERIAL_ONLY: grows the process table and the actor streams.
  ProcessId spawn(std::unique_ptr<Actor> A);

  /// Makes this simulator's BodyPool the active one for the returned
  /// scope's lifetime, so an actor built before spawn() takes it (a churn
  /// arrival) draws its storage from the pool as a run-time spawn does.
  BodyPool::Scope poolScope() { return BodyPool::Scope(Bodies); }

  /// Gracefully removes \p P at the current instant (onStop runs).
  // DYNDIST_SERIAL_ONLY: runs onStop and shrinks the shared up-set.
  void leave(ProcessId P);

  /// Crashes \p P at the current instant (silent; no hook runs).
  void crash(ProcessId P);

  /// True when \p P is currently up. O(1).
  bool isUp(ProcessId P) const {
    return P < Processes.size() && Processes[P].Up;
  }

  /// The incrementally-maintained up-set (ascending, no allocation). The
  /// reference is invalidated by the next membership change.
  const std::vector<ProcessId> &upSet() const { return UpSet; }

  /// Number of currently-up processes. O(1).
  size_t upCount() const { return UpSet.size(); }

  /// Schedules an environment action (churn driver, experiment step) at
  /// absolute time \p When. Actions run interleaved with protocol events in
  /// deterministic order. The callable is stored in an SBO ActionFn: the
  /// common capture shapes stay allocation-free, larger ones fall back to
  /// one heap allocation (counted in SimStats::InlineFnHeapFallbacks).
  void scheduleAt(SimTime When, ActionFn Action);

  /// Schedules an environment action after \p Delay ticks.
  void scheduleAfter(SimTime Delay, ActionFn Action);

  /// Runs until limits; returns why the run stopped.
  StopReason run(RunLimits Limits = RunLimits());

  /// Requests the current run() to stop after the executing event.
  void halt();

  /// Current virtual time.
  SimTime now() const { return Clock; }

  /// The recorded execution so far.
  const Trace &trace() const { return Log; }

  /// Message-economy counters. The pool counters are snapshotted from the
  /// body pool(s) on each call — in sharded mode the per-lane pools fold
  /// in — everything else is maintained inline.
  const SimStats &stats() const;

  /// Kernel randomness (environment stream; actors draw from a split).
  Rng &rng() { return KernelRng; }

  /// The actor object for \p P (valid even after it left or crashed, for
  /// post-run inspection); null for unknown ids. O(1).
  Actor *actorFor(ProcessId P) const {
    return P < Processes.size() ? Processes[P].TheActor.get() : nullptr;
  }

  /// Sends a message on behalf of \p From (used by Context and by drivers
  /// that inject external stimuli). In sharded mode the loss and latency
  /// draws come from \p From's private stream and the delivery lands
  /// directly in the destination lane's calendar.
  // DYNDIST_SERIAL_ONLY: pushes straight into a foreign lane's calendar.
  void sendMessage(ProcessId From, ProcessId To, MessageRef Body);

  /// Delivers \p Body to \p To as a harness stimulus: one tick of delay,
  /// exempt from the loss model (stimuli are experiment control, not
  /// protocol traffic). The sender is recorded as \p To itself.
  // DYNDIST_SERIAL_ONLY: pushes straight into a foreign lane's calendar.
  void injectStimulus(ProcessId To, MessageRef Body);

  /// Topology accessors: degree of \p P, its \p I-th neighbor
  /// (ascending), and in-place visitation. Under the default full mesh
  /// these read the up-set directly (skipping \p P itself); with a provider
  /// installed they forward to it.
  size_t neighborCount(ProcessId P) const;
  ProcessId neighborAt(ProcessId P, size_t I) const;
  void forEachNeighbor(ProcessId P, FunctionRef<void(ProcessId)> F) const;

  /// Number of timers armed but not yet fired, cancelled-and-collected, or
  /// drained. Cancellation bookkeeping is dropped when the timer's event is
  /// popped — on the fire path, the cancelled path, and the dead-process
  /// path alike — so this returns 0 after a run that exhausted the queue.
  size_t pendingTimers() const;

private:
  class ContextImpl;
  friend class ContextImpl;
  friend struct detail::ShardEngine;

  /// Executes the front bucket of Pending, which is due now: deliveries
  /// and timers (legacy mode) and actions (both engines), in push order.
  /// Returns true, with the reason in \p Out, when a halt or the event
  /// limit stops the run inside the bucket; the rest stays queued for the
  /// next run().
  bool drainFront(const RunLimits &Limits, StopReason &Out);
  void deliver(ProcessId Src, ProcessId Dst, MessageRef Body);
  void fireTimer(ProcessId P, TimerId Id);
  // DYNDIST_SERIAL_ONLY: arms on the owning lane without deferral.
  TimerId armTimer(ProcessId P, SimTime Delay);
  // DYNDIST_SERIAL_ONLY: may touch any lane's calendar; lanes must cancel
  // through their own context (LaneContext::cancelTimer).
  void disarmTimer(TimerId Id);
  /// Pushes a delivery onto \p Dst's calendar: the one queue in legacy
  /// mode, the owning lane's in sharded mode.
  void pushDeliver(SimTime Time, ProcessId Src, ProcessId Dst,
                   MessageRef Body);
  void pushAction(SimTime Time, ActionFn Action);
  void markDown(ProcessId P, bool Crashed);

  /// The accounting every protocol send shares, serial or lane-phase:
  /// counts the send into \p St, hands its Send record (and a Drop record
  /// when the loss draw from \p R hits) to \p Rec, and returns the
  /// delivery delay drawn from \p R, or 0 when the message is lost
  /// (latency models never return 0).
  template <typename RecordFn>
  SimTime accountSend(SimStats &St, RecordFn &&Rec, Rng &R, ProcessId From,
                      ProcessId To, const MessageBody &Body) const {
    ++St.MessagesSent;
    St.PayloadUnits += Body.weight();
    const bool Full = TraceLev == TraceLevel::Full;
    if (Full)
      Rec(TraceRecord::make(TraceKind::Send, Clock, From, To, Body.kind()));
    if (LossRate > 0.0 && R.nextBernoulli(LossRate)) {
      ++St.MessagesDropped;
      if (Full)
        Rec(TraceRecord::make(TraceKind::Drop, Clock, To, From, Body.kind()));
      return 0;
    }
    if (FixedDelay)
      return FixedDelay;
    const SimTime Delay = Latency->sample(R, From, To);
    assert(Delay >= 1 && "message latency must cross an instant boundary");
    return Delay;
  }

  /// Records buffered per appendBatch() flush toward an installed sink:
  /// amortizes the virtual sink dispatch ~64K:1 on the Full-trace hot path.
  static constexpr size_t SinkBatchRecords = 65536;

  /// Routes one admitted trace record: into the sink batch buffer when a
  /// sink is installed, else straight into the in-memory Log. Every
  /// emission site funnels through here so the sink sees exactly what the
  /// Log would have.
  void record(const TraceRecord &R) {
    if (Sink) {
      SinkBuf.push_back(R);
      if (SinkBuf.size() == SinkBatchRecords)
        flushTraceSink();
    } else {
      Log.appendRecord(R);
    }
  }

  SimTime Clock = 0;
  TimerId NextTimer = 0;
  uint64_t Seed = 0; ///< Master seed; sharded mode derives per-actor streams.
  bool HaltRequested = false;
  TraceLevel TraceLev = TraceLevel::Full;

  Rng KernelRng;
  Rng ActorRng;
  double LossRate = 0.0;
  std::unique_ptr<LatencyModel> Latency;
  /// Cached LatencyModel::fixedTicks() of the installed model; non-zero
  /// skips the virtual sample() per message (FixedLatency draws nothing
  /// from the Rng, so the schedule is unchanged).
  SimTime FixedDelay = 0;
  const TopologyProvider *Topology = nullptr;
  MembershipHookFn OnUpHook;
  MembershipHookFn OnDownHook;

  /// Payload slab recycler; heap-allocated because its lifetime can exceed
  /// the simulator's (retired mode) when a MessageRef outlives the run.
  /// See BodyPool::retire().
  BodyPool *Bodies;

  /// Dense process table indexed by ProcessId (ids are assigned 0, 1, 2,
  /// ... in spawn order and never reused). Records of departed processes
  /// are kept for post-run inspection, exactly as before.
  struct ProcessRecord {
    std::unique_ptr<Actor> TheActor;
    bool Up = false;
  };
  std::vector<ProcessRecord> Processes;

  /// Ascending identities of up processes, maintained incrementally:
  /// spawn appends (ids strictly increase), markDown erases in place.
  std::vector<ProcessId> UpSet;

  // Owned via unique_ptr because the queue internals (calendar buckets,
  // action pool, timer bookkeeping) live in an internal header. In sharded
  // mode Pending holds only environment actions; protocol events live in
  // the per-shard calendars inside the engine.
  std::unique_ptr<detail::CalendarQueue> Pending;

  /// Non-null iff setShards() switched this kernel into sharded mode.
  std::unique_ptr<detail::ShardEngine> Sharded;

  Trace Log;
  /// Streaming trace consumer; non-null diverts recording away from Log.
  TraceSink *Sink = nullptr;
  /// Pending records for the sink (flat POD buffer, flushed in batches).
  /// Key ids resolve against Log's key table, which keeps interning even
  /// while a sink diverts the records themselves.
  std::vector<TraceRecord> SinkBuf;
  /// Mutable so stats() (const) can fold the live pool counters in.
  mutable SimStats Stats;
};

} // namespace dyndist

#endif // DYNDIST_SIM_SIMULATOR_H
