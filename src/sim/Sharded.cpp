//===- Sharded.cpp - Space-sharded execution engine --------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Implementation of the sharded engine declared in ShardEngine.h: the lane
// rounds Simulator::run calls at each instant, and the barrier between
// them. The correctness skeleton:
//
//   * Canonical event order. Within one instant, events execute in
//     (destination, push-instant, pusher, push-order) order. The order is
//     realized structurally, not by sorting keys: a lane's tick bucket is a
//     concatenation of push-instant segments (environment pushes appended
//     directly in the serial phase, parallel pushes appended per round by
//     the barrier's pusher-ordered merge), and the stable counting sort by
//     destination at execution time preserves segment order within each
//     destination. Pusher residues are disjoint across source lanes
//     (pid % K), so the barrier merge never sees a tie.
//
//   * Shard-count invariance. By induction over rounds: if every lane's
//     bucket holds the same canonical event sequence (projected onto its
//     residue class) regardless of K, then execution order, every actor's
//     private rng draw sequence, and therefore every push this round are
//     K-independent; the barrier reassembles the pushes into the same
//     canonical segments. The base case is the serial environment stream,
//     which is identical at any K.
//
//   * Thread safety without atomics. During a parallel round a lane writes
//     only its own state plus its outboxes and deferred-release lists,
//     which are read by other lanes only after (respectively before) a
//     barrier. Message refcounts mutate either inside the single handler
//     executing the body's destination, or on the owning lane's thread via
//     the parity-buffered deferral — never concurrently.
//
//===----------------------------------------------------------------------===//

#include "ShardEngine.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace dyndist;
using namespace dyndist::detail;

//===----------------------------------------------------------------------===//
// Contexts
//===----------------------------------------------------------------------===//

/// Context handed to hooks running inside a parallel round. Everything it
/// touches is lane-local or read-only shared state; membership effects
/// (leaveSystem) are deferred to the barrier.
// DYNDIST_LANE_PHASE: every member executes on a worker lane; the linter
// walks calls from here looking for serial-only reachability.
class ShardEngine::LaneContext final : public Context {
public:
  LaneContext(ShardEngine &E, Lane &Ln, unsigned LaneIdx, ProcessId P,
              SimTime Now)
      : E(E), Ln(Ln), LaneIdx(LaneIdx), P(P), Now(Now) {}

  SimTime now() const override { return Now; }
  ProcessId self() const override { return P; }

  size_t neighborCount() const override { return E.S.neighborCount(P); }
  ProcessId neighborAt(size_t I) const override {
    return E.S.neighborAt(P, I);
  }
  void forEachNeighbor(FunctionRef<void(ProcessId)> F) const override {
    E.S.forEachNeighbor(P, F);
  }

  void send(ProcessId To, MessageRef Body) override {
    E.laneSend(LaneIdx, P, To, std::move(Body));
  }

  TimerId setTimer(SimTime Delay) override {
    return E.laneArmTimer(LaneIdx, P, Delay);
  }

  void cancelTimer(TimerId Id) override {
    assert((Id == 0 || E.shardOf(Id - 1) == LaneIdx) &&
           "cancelling a foreign lane's timer");
    E.cancelLaneTimer(Id);
  }

  Rng &rng() override { return E.ActorRngs[P]; }

  void observe(TraceKey Key, int64_t Value) override {
    if (E.S.TraceLev == TraceLevel::Off)
      return;
    Ln.TraceBuf.push_back(TraceRecord::make(TraceKind::Observe, Now, P,
                                            InvalidProcess, 0, keyIdOf(Key),
                                            Value));
  }

  void leaveSystem() override {
    // Deferred to the barrier: the departure (onStop, hooks, trace record)
    // is a membership effect and runs serially. Events already queued for
    // this process at the current instant still execute first.
    Ln.Leaves.push_back(P);
  }

  /// Rebinds the context to the next destination group, so the bucket
  /// loop builds one context per round instead of one per destination.
  void reseat(ProcessId NewP) { P = NewP; }

private:
  ShardEngine &E;
  Lane &Ln;
  unsigned LaneIdx;
  ProcessId P;
  SimTime Now;
};

//===----------------------------------------------------------------------===//
// Construction / teardown
//===----------------------------------------------------------------------===//

ShardEngine::ShardEngine(Simulator &Sim, unsigned ShardCount)
    : S(Sim), K(ShardCount),
      KMagic(ShardCount > 1 ? ~uint64_t(0) / ShardCount + 1 : 0) {
  assert(K >= 1 && "at least one shard");
  Lanes = std::vector<Lane>(K);
  for (Lane &Ln : Lanes) {
    Ln.Bodies = new BodyPool();
    Ln.Out.resize(K);
    Ln.Defer[0].resize(K);
    Ln.Defer[1].resize(K);
  }
  // Thread budget: one thread per lane by default (the caller participates,
  // so K lanes park K-1 workers). DYNDIST_SHARD_THREADS caps the total;
  // "=1" forces fully inline execution — same bytes, one thread — which is
  // how the verify harness cross-checks determinism under TSan.
  // dyndist-lint: allow(D2) config entry point; the thread budget changes
  // parallelism only — the TSan harness pins =1 to prove bytes are equal
  const char *Env = std::getenv("DYNDIST_SHARD_THREADS");
  unsigned Budget = K;
  if (Env) {
    unsigned Parsed = static_cast<unsigned>(std::strtoul(Env, nullptr, 10));
    Budget = Parsed == 0 ? 1 : Parsed;
  }
  unsigned Total = std::min(Budget, K);
  UseThreads = Total > 1;
  if (UseThreads)
    Pool.ensureWorkers(Total - 1);
}

ShardEngine::~ShardEngine() {
  drainDeferred();
  dropOutboxes();
  // Queue teardown re-homes parked payloads into the pools that own their
  // storage (lane pools and the simulator's main pool alike), so the
  // queues must die before the lane pools are retired.
  std::vector<BodyPool *> Pools;
  Pools.reserve(K);
  for (Lane &Ln : Lanes)
    Pools.push_back(Ln.Bodies);
  Lanes.clear();
  for (BodyPool *P : Pools)
    BodyPool::retire(P);
}

void ShardEngine::reset() {
  assert(!InParallel && "reset during a parallel round");
  // Settle every parked payload reference first (both parities), exactly
  // as teardown does — then the queues can drop their remaining events.
  drainDeferred();
  dropOutboxes();
  for (Lane &Ln : Lanes) {
    Ln.Q.reset();
    Ln.Stats = SimStats{};
    Ln.NextLocalTimer = 0;
    Ln.TraceBuf.clear();
    Ln.TraceRuns.clear();
    Ln.Leaves.clear();
    // Counts/Sorted are per-round scratch, re-sized on use; keep them.
  }
  ActorRngs.clear();
  Parity = 0;
  ProcLimit = 0;
}

size_t ShardEngine::pendingTimers() const {
  size_t N = 0;
  for (const Lane &Ln : Lanes)
    N += Ln.Q.TimerPending;
  return N;
}

uint64_t ShardEngine::poolHits() const {
  uint64_t N = 0;
  for (const Lane &Ln : Lanes)
    N += Ln.Bodies->hits();
  return N;
}

uint64_t ShardEngine::poolMisses() const {
  uint64_t N = 0;
  for (const Lane &Ln : Lanes)
    N += Ln.Bodies->misses();
  return N;
}

//===----------------------------------------------------------------------===//
// Lane-side paths
//===----------------------------------------------------------------------===//

TimerId ShardEngine::armOnLane(unsigned LaneIdx, ProcessId P, SimTime Delay,
                               bool Direct) {
  Lane &Ln = Lanes[LaneIdx];
  TimerId Local = Ln.NextLocalTimer++;
  Ln.Q.markTimerArmed(Local);
  // Global ids stride by K so each lane allocates from a disjoint dense
  // sub-space without coordination; +1 keeps 0 as the "no timer" sentinel.
  // The strided id must stay below 2^32 for the divK() reciprocal that
  // recovers (lane, local) from it.
  TimerId Global = Local * K + LaneIdx + 1;
  assert(Global <= UINT32_MAX && "timer-id space exhausted for divK()");
  SimEvent E = SimEvent::timer(static_cast<uint32_t>(P), Global);
  SimTime When = S.Clock + Delay;
  if (Direct)
    Ln.Q.push(When, E);
  else
    Ln.Out[LaneIdx].runFor(When).push_back(E);
  return Global;
}

TimerId ShardEngine::laneArmTimer(unsigned LaneIdx, ProcessId P,
                                  SimTime Delay) {
  // Through the outbox even though it lands on the arming lane itself:
  // the executing bucket must stay frozen during the round, and the
  // barrier merge is what stitches same-instant pushes into canonical
  // order. Delay 0 is legal (a timer may fire later this same instant —
  // the round loop re-enters); message latency is always >= 1.
  return armOnLane(LaneIdx, P, Delay, /*Direct=*/false);
}

void ShardEngine::laneSend(unsigned LaneIdx, ProcessId From, ProcessId To,
                           MessageRef Body) {
  assert(Body && "message body must not be null");
  Lane &Ln = Lanes[LaneIdx];
  // Handlers must send bodies they allocated (their lane's pool, or the
  // heap): re-sending a *received* body would bump a refcount another
  // lane's handler may be touching concurrently.
  assert((!Body->pool() || Body->pool() == Ln.Bodies) &&
         "sharded handlers send bodies they allocated themselves");
  const SimTime Delay = S.accountSend(
      Ln.Stats, [&Ln](const TraceRecord &R) { Ln.TraceBuf.push_back(R); },
      ActorRngs[From], From, To, *Body);
  if (!Delay)
    return;
  SimEvent E = SimEvent::deliver(static_cast<uint32_t>(From),
                                 static_cast<uint32_t>(To), Body.detach());
  Ln.Out[shardOf(To)].runFor(S.Clock + Delay).push_back(E);
}

void ShardEngine::cancelLaneTimer(TimerId Id) {
  if (Id == 0)
    return; // Unknown-id no-op, matching the legacy contract.
  Lanes[shardOf(Id - 1)].Q.markTimerCancelled(divK(Id - 1));
}

unsigned ShardEngine::ownerLaneOf(const MessageBody *Body) const {
  BodyPool *P = Body->pool();
  // Main-pool and plain-heap bodies are released by lane 0: the main pool
  // is only ever touched from one thread per round, and heap deallocation
  // is thread-safe anyway.
  if (!P || P == S.Bodies)
    return 0;
  for (unsigned L = 0; L != K; ++L)
    if (Lanes[L].Bodies == P)
      return L;
  assert(false && "message body from a foreign pool");
  return 0;
}

//===----------------------------------------------------------------------===//
// Instants and rounds (Simulator::run drives them)
//===----------------------------------------------------------------------===//

bool ShardEngine::nextTime(SimTime &T) const {
  bool Any = false;
  for (const Lane &Ln : Lanes)
    if (!Ln.Q.empty()) {
      T = std::min(T, Ln.Q.frontTime());
      Any = true;
    }
  return Any;
}

void ShardEngine::advanceTo(SimTime T) {
  for (Lane &Ln : Lanes)
    Ln.Q.advanceTo(T);
}

void ShardEngine::runRounds(SimTime T) {
  // Rounds repeat while delay-0 timers keep re-populating the instant.
  auto Due = [T](const Lane &Ln) { return Ln.Q.frontIs(T); };
  while (std::any_of(Lanes.begin(), Lanes.end(), Due))
    parallelRound(T);
}

void ShardEngine::parallelRound(SimTime T) {
  Parity ^= 1u;
  ProcLimit = S.Processes.size();
  InParallel = true;
  // DYNDIST_LANE_REGION_BEGIN: the job body below fans out across worker
  // lanes; everything it reaches must stay off serial-only APIs.
  auto Job = [this, T](unsigned LaneIdx) { laneJob(LaneIdx, T); };
  // DYNDIST_LANE_REGION_END
  Pool.run(K, Job);
  InParallel = false;

  // Barrier, in canonical order: counters, trace, membership, then the
  // mailbox flush that seeds future instants.
  foldLaneStats();
  if (S.TraceLev != TraceLevel::Off)
    mergeTraces();
  applyLeaves();
  flushOutboxes();
}

void ShardEngine::foldLaneStats() {
  for (Lane &Ln : Lanes) {
    SimStats &LS = Ln.Stats;
    S.Stats.MessagesSent += LS.MessagesSent;
    S.Stats.MessagesDelivered += LS.MessagesDelivered;
    S.Stats.MessagesDropped += LS.MessagesDropped;
    S.Stats.PayloadUnits += LS.PayloadUnits;
    S.Stats.TimersFired += LS.TimersFired;
    S.Stats.EventsExecuted += LS.EventsExecuted;
    LS = SimStats{};
  }
}

// DYNDIST_LANE_PHASE: runs concurrently on each worker lane.
void ShardEngine::laneJob(unsigned LaneIdx, SimTime T) {
  Lane &Ln = Lanes[LaneIdx];
  BodyPool::Scope PoolScope(Ln.Bodies);
  // First settle the payload references every lane deferred to us last
  // round: we own the pools their storage recycles into. Runs even when
  // this lane has no events at T — which is why the round dispatches all
  // K jobs unconditionally.
  const unsigned Prev = Parity ^ 1u;
  for (Lane &Src : Lanes) {
    std::vector<const MessageBody *> &V = Src.Defer[Prev][LaneIdx];
    for (const MessageBody *B : V)
      MessageRef::adopt(B); // Adopt-and-drop: releases the parked +1.
    V.clear();
  }
  if (Ln.Q.frontIs(T))
    executeBucket(LaneIdx, T);
}

// DYNDIST_LANE_PHASE: runs concurrently on each worker lane; dispatches
// into actor hooks (onMessage/onTimer), so the whole protocol layer is
// lane-phase-reachable from here.
void ShardEngine::executeBucket(unsigned LaneIdx, SimTime T) {
  Lane &Ln = Lanes[LaneIdx];
  CalendarQueue &Q = Ln.Q;
  CalendarQueue::Bucket &B = Q.bucket(T);
  const size_t N = B.Fifo.size() - B.Head;
  const SimEvent *Ev = B.Fifo.data() + B.Head;

  // Stable counting sort by local destination index: canonical execution
  // order at O(n + n/K) with two linear passes, no comparisons, and no
  // hardware divides (divK is a multiply-high).
  const size_t LocalLimit = ProcLimit / K + 1;
  if (Ln.Counts.size() < LocalLimit)
    Ln.Counts.resize(LocalLimit);
  uint32_t *Counts = Ln.Counts.data();
  std::fill_n(Counts, LocalLimit, 0u);
  for (size_t I = 0; I != N; ++I) {
    assert(Ev[I].B < ProcLimit && "event for an unknown process");
    // Two random streams hide behind prefetches: the histogram line eight
    // events ahead (the array outgrows L1 from ~10^4 processes per lane),
    // and the payload line far ahead, so the execution loop below finds
    // delivered bodies already resident.
    if (I + 8 < N) {
      __builtin_prefetch(&Counts[divK(Ev[I + 8].B)], 1, 3);
      const uintptr_t Bits = Ev[I + 8].Bits;
      if ((Bits & 3) == CalendarQueue::KDeliver)
        __builtin_prefetch(reinterpret_cast<const void *>(Bits), 0, 2);
    }
    ++Counts[divK(Ev[I].B)];
  }
  uint32_t Sum = 0;
  for (size_t I = 0; I != LocalLimit; ++I) {
    uint32_t C = Counts[I];
    Counts[I] = Sum;
    Sum += C;
  }
  if (Ln.Sorted.size() < N)
    Ln.Sorted.resize(N);
  SimEvent *Sorted = Ln.Sorted.data();
  for (size_t I = 0; I != N; ++I) {
    if (I + 8 < N)
      __builtin_prefetch(&Counts[divK(Ev[I + 8].B)], 1, 3);
    Sorted[Counts[divK(Ev[I].B)]++] = Ev[I];
  }

  // The bucket is frozen for the round (all new pushes ride the outboxes),
  // so retire it before executing: handlers never touch it again.
  B.Head = B.Fifo.size();
  Q.retire(T);

  uint64_t Delivered = 0, Dropped = 0, Fired = 0;
  const bool Full = S.TraceLev == TraceLevel::Full;
  const bool Recording = S.TraceLev != TraceLevel::Off;
  std::vector<std::vector<const MessageBody *>> &Defer = Ln.Defer[Parity];
  LaneContext Ctx(*this, Ln, LaneIdx, 0, T);

  size_t I = 0;
  while (I != N) {
    const ProcessId Dst = Sorted[I].B;
    // Hoist the per-destination lookups out of the event loop: every event
    // in the group shares them.
    Simulator::ProcessRecord &Rec = S.Processes[Dst];
    Actor *A = Rec.Up ? Rec.TheActor.get() : nullptr;
    const size_t RunStart = Recording ? Ln.TraceBuf.size() : 0;
    Ctx.reseat(Dst);
    do {
      const SimEvent &E = Sorted[I];
      if (I + 4 < N) {
        const uintptr_t Bits = Sorted[I + 4].Bits;
        if ((Bits & 3) == CalendarQueue::KDeliver)
          __builtin_prefetch(reinterpret_cast<const void *>(Bits));
      }
      if (E.kind() == CalendarQueue::KDeliver) {
        const MessageBody *Body = E.body();
        BodyPool *BP = Body->pool();
        // A body whose storage this lane owns — its own pool, or (on lane
        // 0) the main pool and the plain heap — settles inline right after
        // the handler: nothing else can touch its refcount this round.
        // Only a foreign lane's body parks its reference for that lane to
        // release after the next barrier.
        const bool Own =
            BP == Ln.Bodies || (LaneIdx == 0 && (!BP || BP == S.Bodies));
        if (!Own)
          Defer[ownerLaneOf(Body)].push_back(Body);
        if (A) {
          ++Delivered;
          if (Full)
            Ln.TraceBuf.push_back(TraceRecord::make(TraceKind::Deliver, T, Dst,
                                                    E.A, Body->kind()));
          A->onMessage(Ctx, E.A, *Body);
        } else {
          ++Dropped;
          if (Full)
            Ln.TraceBuf.push_back(
                TraceRecord::make(TraceKind::Drop, T, Dst, E.A, Body->kind()));
        }
        if (Own)
          MessageRef::adopt(Body); // Adopt-and-drop: releases the parked +1.
      } else {
        assert(E.kind() == CalendarQueue::KTimer &&
               "lane calendars hold only deliveries and timers");
        const TimerId Id = E.timerId();
        const bool ShouldFire = Q.collectTimer(divK(Id - 1));
        if (ShouldFire && A) {
          ++Fired;
          A->onTimer(Ctx, Id);
        }
      }
      ++I;
    } while (I != N && Sorted[I].B == Dst);
    if (Recording && Ln.TraceBuf.size() != RunStart)
      Ln.TraceRuns.push_back(
          {Dst, static_cast<uint32_t>(Ln.TraceBuf.size() - RunStart)});
  }

  Ln.Stats.MessagesDelivered += Delivered;
  Ln.Stats.MessagesDropped += Dropped;
  Ln.Stats.TimersFired += Fired;
  Ln.Stats.EventsExecuted += N;
}

//===----------------------------------------------------------------------===//
// Barrier pieces
//===----------------------------------------------------------------------===//

template <typename T, typename KeyFn, typename TakeFn>
void ShardEngine::mergeLanes(std::vector<T> Lane::*Seq, KeyFn Key,
                             TakeFn Take) {
  // Each lane's sequence ascends by key and keys are disjoint across lanes
  // (residue classes), so taking the smallest head never meets a tie.
  MergeCur.assign(K, 0);
  for (;;) {
    unsigned Best = K;
    ProcessId BestKey = 0;
    for (unsigned L = 0; L != K; ++L) {
      const std::vector<T> &V = Lanes[L].*Seq;
      if (MergeCur[L] == V.size())
        continue;
      const ProcessId LK = Key(V[MergeCur[L]]);
      if (Best == K || LK < BestKey) {
        BestKey = LK;
        Best = L;
      }
    }
    if (Best == K)
      break;
    Take(Best, (Lanes[Best].*Seq)[MergeCur[Best]++]);
  }
  for (Lane &Ln : Lanes)
    (Ln.*Seq).clear();
}

void ShardEngine::mergeTraces() {
  // Merging the runs by destination reassembles the canonical record order.
  TraceBufCur.assign(K, 0);
  using Run = std::pair<ProcessId, uint32_t>;
  mergeLanes(
      &Lane::TraceRuns, [](const Run &R) { return R.first; },
      [this](unsigned L, const Run &R) {
        size_t &Cur = TraceBufCur[L];
        for (uint32_t I = 0; I != R.second; ++I)
          S.record(Lanes[L].TraceBuf[Cur++]);
      });
  for (Lane &Ln : Lanes)
    Ln.TraceBuf.clear();
}

void ShardEngine::applyLeaves() {
  // Ascending by process; Simulator::leave re-checks liveness, so a double
  // leaveSystem() call collapses to one departure.
  mergeLanes(
      &Lane::Leaves, [](ProcessId P) { return P; },
      [this](unsigned, ProcessId P) { S.leave(P); });
}

void ShardEngine::flushOutboxes() {
  for (unsigned D = 0; D != K; ++D) {
    Lane &DL = Lanes[D];
    // Distinct target instants this round (tiny: one under fixed latency).
    FlushTimes.clear();
    for (unsigned Src = 0; Src != K; ++Src) {
      Outbox &O = Lanes[Src].Out[D];
      for (uint32_t R = 0; R != O.Live; ++R)
        if (!O.Runs[R].Events.empty())
          FlushTimes.push_back(O.Runs[R].Time);
    }
    if (FlushTimes.empty())
      continue;
    std::sort(FlushTimes.begin(), FlushTimes.end());
    FlushTimes.erase(std::unique(FlushTimes.begin(), FlushTimes.end()),
                     FlushTimes.end());
    for (SimTime FT : FlushTimes) {
      FlushSources.clear();
      for (unsigned Src = 0; Src != K; ++Src) {
        Outbox &O = Lanes[Src].Out[D];
        for (uint32_t R = 0; R != O.Live; ++R)
          if (O.Runs[R].Time == FT && !O.Runs[R].Events.empty())
            FlushSources.push_back(&O.Runs[R].Events);
      }
      // Through the queue, so a flush past the lane's window goes to its
      // far tier, in the same order.
      if (FlushSources.size() == 1) {
        DL.Q.pushRun(FT, *FlushSources[0]);
        continue;
      }
      // Pusher-ordered merge: each source run ascends in pusher id (lanes
      // execute destinations in ascending order and the pusher *is* the
      // executing destination), and pusher residues are disjoint across
      // sources, so the minimum is always unique.
      FlushCur.assign(FlushSources.size(), 0);
      size_t Remaining = 0;
      for (const std::vector<SimEvent> *Sv : FlushSources)
        Remaining += Sv->size();
      while (Remaining--) {
        size_t Best = 0;
        uint64_t BestA = ~uint64_t(0);
        for (size_t SI = 0; SI != FlushSources.size(); ++SI) {
          if (FlushCur[SI] == FlushSources[SI]->size())
            continue;
          const uint64_t A = (*FlushSources[SI])[FlushCur[SI]].A;
          if (A <= BestA) {
            BestA = A;
            Best = SI;
          }
        }
        FlushMerged.push_back((*FlushSources[Best])[FlushCur[Best]++]);
      }
      DL.Q.pushRun(FT, FlushMerged);
    }
  }
  for (Lane &Ln : Lanes)
    for (Outbox &O : Ln.Out)
      O.reset();
}

void ShardEngine::dropOutboxes() {
  // Outboxes are empty between rounds by construction, but stay defensive:
  // re-home any parked payload references before the queues or pools go.
  for (Lane &Ln : Lanes)
    for (Outbox &O : Ln.Out) {
      for (uint32_t R = 0; R != O.Live; ++R)
        for (const SimEvent &E : O.Runs[R].Events)
          if (E.kind() == CalendarQueue::KDeliver)
            MessageRef::adopt(E.body());
      O.reset();
    }
}

void ShardEngine::drainDeferred() {
  for (unsigned Par = 0; Par != 2; ++Par)
    for (Lane &Ln : Lanes)
      for (std::vector<const MessageBody *> &V : Ln.Defer[Par]) {
        for (const MessageBody *B : V)
          MessageRef::adopt(B);
        V.clear();
      }
}
