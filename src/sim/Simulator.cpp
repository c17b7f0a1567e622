//===- Simulator.cpp - Discrete-event kernel --------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/Simulator.h"

#include "CalendarQueue.h"
#include "ShardEngine.h"

#include <algorithm>
#include <cassert>

using namespace dyndist;
using detail::CalendarQueue;
using detail::SimEvent;

MessageBody::~MessageBody() = default;
Context::~Context() = default;
Actor::~Actor() = default;
TopologyProvider::~TopologyProvider() = default;

void *PoolAllocated::operator new(size_t Bytes) {
  return BodyPool::allocateHeadered(Bytes);
}

void PoolAllocated::operator delete(void *Obj) { BodyPool::freeHeadered(Obj); }

void *PoolAllocated::operator new(size_t Bytes, std::align_val_t Align) {
  return ::operator new(Bytes, Align);
}

void PoolAllocated::operator delete(void *Obj, std::align_val_t Align) {
  ::operator delete(Obj, Align);
}

void Actor::onStart(Context &Ctx) { (void)Ctx; }
void Actor::onMessage(Context &Ctx, ProcessId From, const MessageBody &Body) {
  (void)Ctx;
  (void)From;
  (void)Body;
}
void Actor::onTimer(Context &Ctx, TimerId Id) {
  (void)Ctx;
  (void)Id;
}
void Actor::onStop(Context &Ctx) { (void)Ctx; }

/// Expands the master seed into the private stream seed of process \p P,
/// in the same two-round SplitMix64 shape as SweepRunner's per-run seeds:
/// positional, order-independent, and cheap enough to do at every spawn.
static uint64_t deriveActorSeed(uint64_t MasterSeed, ProcessId P) {
  uint64_t State = MasterSeed;
  uint64_t Master = splitMix64(State);
  State = Master ^ (P + 0x2545f4914f6cdd1dULL);
  return splitMix64(State);
}

/// Context implementation bound to one (simulator, process) pair for the
/// duration of a single hook invocation: every legacy hook, and in sharded
/// mode the serial-phase hooks (onStart at spawn, onStop at leave).
// DYNDIST_SERIAL_CONTEXT: only ever runs serially (drainFront, or the
// sharded engine's barrier between parallel rounds), so this context may
// mutate shared state directly.
class Simulator::ContextImpl : public Context {
public:
  ContextImpl(Simulator &S, ProcessId P) : S(S), P(P) {}

  SimTime now() const override { return S.Clock; }
  ProcessId self() const override { return P; }

  size_t neighborCount() const override { return S.neighborCount(P); }

  ProcessId neighborAt(size_t I) const override { return S.neighborAt(P, I); }

  void forEachNeighbor(FunctionRef<void(ProcessId)> F) const override {
    S.forEachNeighbor(P, F);
  }

  void send(ProcessId To, MessageRef Body) override {
    S.sendMessage(P, To, std::move(Body));
  }

  TimerId setTimer(SimTime Delay) override { return S.armTimer(P, Delay); }

  void cancelTimer(TimerId Id) override { S.disarmTimer(Id); }

  Rng &rng() override {
    return S.Sharded ? S.Sharded->ActorRngs[P] : S.ActorRng;
  }

  void observe(TraceKey Key, int64_t Value) override {
    if (S.TraceLev == TraceLevel::Off)
      return;
    S.record(TraceRecord::make(TraceKind::Observe, S.Clock, P,
                               InvalidProcess, 0, keyIdOf(Key), Value));
  }

  void leaveSystem() override { S.leave(P); }

private:
  Simulator &S;
  ProcessId P;
};

Simulator::Simulator(uint64_t MasterSeed)
    : Seed(MasterSeed), KernelRng(MasterSeed), ActorRng(KernelRng.split()),
      Latency(std::make_unique<FixedLatency>(1)),
      FixedDelay(Latency->fixedTicks()), Bodies(new BodyPool()),
      Pending(std::make_unique<CalendarQueue>()) {}

Simulator::~Simulator() {
  // Deliver any still-buffered sink records first (the sink outlives us by
  // contract), then drain queued payloads back into the pools and retire
  // them: a pool either dies now (every body home) or switches to
  // self-deleting retired mode so MessageRefs that outlive this simulator
  // stay valid. The engine's lane queues can park main-pool bodies
  // (environment-phase sends), so the engine must drain before the main
  // pool retires.
  flushTraceSink();
  Pending.reset();
  Sharded.reset();
  BodyPool::retire(Bodies);
}

void Simulator::reset(uint64_t NewSeed) {
  // Flush-and-detach the sink first: buffered records belong to the run
  // that produced them, and their key ids resolve against the key table we
  // are about to reset.
  flushTraceSink();
  Sink = nullptr;
  // Order matters below exactly as in the destructor: the engine's lane
  // queues can park main-pool bodies (environment-phase sends), so the
  // engine drains before the main calendar. Nothing retires — every pool
  // and table keeps its faulted capacity for the next run.
  if (Sharded)
    Sharded->reset();
  Pending->reset();
  Processes.clear();
  UpSet.clear();
  Clock = 0;
  NextTimer = 0;
  HaltRequested = false;
  Log.resetForReuse();
  Stats = SimStats{};
  // Re-seed exactly as the constructor: kernel stream from the master
  // seed, actor stream from its first split.
  Seed = NewSeed;
  KernelRng = Rng(NewSeed);
  ActorRng = KernelRng.split();
}

Trace Simulator::takeTrace() {
  Trace Out = std::move(Log);
  Log = Trace();
  return Out;
}

void Simulator::flushTraceSink() {
  if (SinkBuf.empty())
    return;
  if (Sink)
    Sink->appendBatch(SinkBuf.data(), SinkBuf.size(), Log.keys());
  SinkBuf.clear();
}

void Simulator::setShards(unsigned K) {
  assert(K >= 1 && "shard count must be positive");
  assert(Processes.empty() && "setShards() must precede the first spawn");
  assert(!Sharded && "shard count can only be set once");
  Sharded = std::make_unique<detail::ShardEngine>(*this, K);
}

unsigned Simulator::shards() const { return Sharded ? Sharded->K : 0; }

const SimStats &Simulator::stats() const {
  uint64_t Hits = Bodies->hits();
  uint64_t Misses = Bodies->misses();
  if (Sharded) {
    Hits += Sharded->poolHits();
    Misses += Sharded->poolMisses();
  }
  Stats.BodyPoolHits = Hits;
  Stats.BodyPoolMisses = Misses;
  return Stats;
}

void Simulator::setLatencyModel(std::unique_ptr<LatencyModel> Model) {
  assert(Model && "latency model must not be null");
  Latency = std::move(Model);
  FixedDelay = Latency->fixedTicks();
}

void Simulator::setLossRate(double Probability) {
  assert(Probability >= 0.0 && Probability <= 1.0 &&
         "loss rate must be a probability");
  LossRate = Probability;
}

void Simulator::setTopologyProvider(const TopologyProvider *Provider) {
  Topology = Provider;
}

void Simulator::setMembershipHooks(MembershipHookFn OnUp,
                                   MembershipHookFn OnDown) {
  if (OnUp.usesHeap())
    ++Stats.InlineFnHeapFallbacks;
  if (OnDown.usesHeap())
    ++Stats.InlineFnHeapFallbacks;
  OnUpHook = std::move(OnUp);
  OnDownHook = std::move(OnDown);
}

ProcessId Simulator::spawn(std::unique_ptr<Actor> A) {
  assert(A && "spawn() requires an actor");
  BodyPool::Scope PoolScope(Bodies); // onStart/hooks may makeBody().
  ProcessId P = Processes.size();
  // Grab the raw pointer first: the hooks below may spawn recursively and
  // reallocate the table, but the actor object itself is stable.
  Actor *Raw = A.get();
  Processes.push_back(ProcessRecord{std::move(A), true});
  UpSet.push_back(P); // Ids strictly increase, so UpSet stays sorted.

  if (TraceLev != TraceLevel::Off)
    record(TraceRecord::make(TraceKind::Join, Clock, P));

  if (OnUpHook)
    OnUpHook(P);

  if (Sharded) {
    assert(!Sharded->InParallel && "spawn during a parallel round");
    assert(Sharded->ActorRngs.size() == P &&
           "actor streams out of sync with the table");
    Sharded->ActorRngs.emplace_back(deriveActorSeed(Seed, P));
  }
  ContextImpl Ctx(*this, P);
  Raw->onStart(Ctx);
  return P;
}

void Simulator::markDown(ProcessId P, bool Crashed) {
  assert(P < Processes.size() && "unknown process");
  ProcessRecord &Rec = Processes[P];
  if (!Rec.Up)
    return;
  Rec.Up = false;

  auto It = std::lower_bound(UpSet.begin(), UpSet.end(), P);
  assert(It != UpSet.end() && *It == P && "up-set out of sync");
  UpSet.erase(It);

  if (TraceLev != TraceLevel::Off)
    record(TraceRecord::make(Crashed ? TraceKind::Crash : TraceKind::Leave,
                             Clock, P));

  if (OnDownHook)
    OnDownHook(P);
}

void Simulator::leave(ProcessId P) {
  if (!isUp(P))
    return;
  assert(!(Sharded && Sharded->InParallel) && "leave during a parallel round");
  BodyPool::Scope PoolScope(Bodies); // onStop/hooks may makeBody().
  ContextImpl Ctx(*this, P);
  Processes[P].TheActor->onStop(Ctx);
  markDown(P, /*Crashed=*/false);
}

void Simulator::crash(ProcessId P) {
  BodyPool::Scope PoolScope(Bodies); // The down-hook may makeBody().
  markDown(P, /*Crashed=*/true);
}

size_t Simulator::neighborCount(ProcessId P) const {
  if (Topology)
    return Topology->neighborCountOf(P);
  // Full mesh: everyone up except P itself.
  return UpSet.size() - (isUp(P) ? 1 : 0);
}

ProcessId Simulator::neighborAt(ProcessId P, size_t I) const {
  if (Topology)
    return Topology->neighborAtOf(P, I);
  // Full mesh: the up-set ascends, so skip P's own position.
  auto It = std::lower_bound(UpSet.begin(), UpSet.end(), P);
  size_t SelfPos =
      (It != UpSet.end() && *It == P) ? size_t(It - UpSet.begin()) : ~size_t(0);
  return UpSet[I < SelfPos ? I : I + 1];
}

void Simulator::forEachNeighbor(ProcessId P,
                                FunctionRef<void(ProcessId)> F) const {
  if (Topology) {
    Topology->forEachNeighborOf(P, F);
    return;
  }
  for (ProcessId Q : UpSet)
    if (Q != P)
      F(Q);
}

size_t Simulator::pendingTimers() const {
  return Sharded ? Sharded->pendingTimers() : Pending->TimerPending;
}

void Simulator::pushDeliver(SimTime Time, ProcessId Src, ProcessId Dst,
                            MessageRef Body) {
  CalendarQueue &Q =
      Sharded ? Sharded->Lanes[Sharded->shardOf(Dst)].Q : *Pending;
  // Parked +1; re-adopted at pop or queue teardown.
  Q.push(Time, SimEvent::deliver(static_cast<uint32_t>(Src),
                                 static_cast<uint32_t>(Dst), Body.detach()));
}

void Simulator::pushAction(SimTime Time, ActionFn Action) {
  if (Action.usesHeap())
    ++Stats.InlineFnHeapFallbacks;
  Pending->push(Time, SimEvent::action(Pending->allocAction(std::move(Action))));
}

void Simulator::sendMessage(ProcessId From, ProcessId To, MessageRef Body) {
  assert(Body && "message body must not be null");
  // Non-atomic refcounts and pool recycling are only safe while a body
  // stays inside the simulator whose pool allocated it (heap-fallback
  // bodies, pool() == null, may enter from outside). Sharded serial-phase
  // sends come from the main pool too: lanes send through laneSend.
  assert((!Body->pool() || Body->pool() == Bodies) &&
         "message body crossed Simulator instances");
  Rng *R = &KernelRng;
  if (Sharded) {
    assert(!Sharded->InParallel && "serial send during a parallel round");
    assert(From < Sharded->ActorRngs.size() && "sender has no private stream");
    R = &Sharded->ActorRngs[From];
  }
  const SimTime Delay = accountSend(
      Stats, [this](const TraceRecord &Rec) { record(Rec); }, *R, From, To,
      *Body);
  if (Delay)
    pushDeliver(Clock + Delay, From, To, std::move(Body));
}

void Simulator::injectStimulus(ProcessId To, MessageRef Body) {
  assert(Body && "stimulus body must not be null");
  assert((!Body->pool() || Body->pool() == Bodies) &&
         "stimulus body crossed Simulator instances");
  assert(!(Sharded && Sharded->InParallel) &&
         "stimulus during a parallel round");
  // Stimuli ship payload too: account their weight on the same counter as
  // sendMessage so PayloadUnits covers everything the harness injects.
  Stats.PayloadUnits += Body->weight();
  pushDeliver(Clock + 1, To, To, std::move(Body));
}

TimerId Simulator::armTimer(ProcessId P, SimTime Delay) {
  if (Sharded) {
    assert(!Sharded->InParallel && "serial timer during a parallel round");
    return Sharded->armOnLane(Sharded->shardOf(P), P, Delay, /*Direct=*/true);
  }
  TimerId Id = ++NextTimer;
  Pending->markTimerArmed(Id);
  Pending->push(Clock + Delay, SimEvent::timer(static_cast<uint32_t>(P), Id));
  return Id;
}

void Simulator::disarmTimer(TimerId Id) {
  if (!Sharded) {
    Pending->markTimerCancelled(Id);
    return;
  }
  assert(!Sharded->InParallel && "unrouted cancel during a parallel round");
  Sharded->cancelLaneTimer(Id);
}

void Simulator::scheduleAt(SimTime When, ActionFn Action) {
  assert(When >= Clock && "cannot schedule in the past");
  pushAction(When, std::move(Action));
}

void Simulator::scheduleAfter(SimTime Delay, ActionFn Action) {
  scheduleAt(Clock + Delay, std::move(Action));
}

void Simulator::deliver(ProcessId Src, ProcessId Dst, MessageRef Body) {
  Actor *A = isUp(Dst) ? Processes[Dst].TheActor.get() : nullptr;
  if (!A) {
    ++Stats.MessagesDropped;
    if (TraceLev == TraceLevel::Full)
      record(
          TraceRecord::make(TraceKind::Drop, Clock, Dst, Src, Body->kind()));
    return;
  }
  ++Stats.MessagesDelivered;
  if (TraceLev == TraceLevel::Full)
    record(
        TraceRecord::make(TraceKind::Deliver, Clock, Dst, Src, Body->kind()));
  ContextImpl Ctx(*this, Dst);
  A->onMessage(Ctx, Src, *Body);
}

void Simulator::fireTimer(ProcessId P, TimerId Id) {
  Actor *A = isUp(P) ? Processes[P].TheActor.get() : nullptr;
  if (!A)
    return;
  ++Stats.TimersFired;
  ContextImpl Ctx(*this, P);
  A->onTimer(Ctx, Id);
}

StopReason Simulator::run(RunLimits Limits) {
  HaltRequested = false;
  // Everything an action or a serial hook allocates with makeBody() during
  // this run draws from (and recycles into) this simulator's pool; lane
  // jobs install their own lanes' pools.
  BodyPool::Scope PoolScope(Bodies);
  StopReason Reason = StopReason::QueueExhausted;
  for (;;) {
    // The earliest pending instant over every queue. The run ends when all
    // of them are empty; no instant is reserved to say so, so an event at
    // the last instant runs too.
    bool Any = !Pending->empty();
    SimTime T = Any ? Pending->frontTime() : ~SimTime(0);
    if (Sharded && Sharded->nextTime(T))
      Any = true;
    if (!Any)
      break;
    if (HaltRequested) {
      Reason = StopReason::Halted;
      break;
    }
    if (Stats.EventsExecuted >= Limits.MaxEvents) {
      Reason = StopReason::EventLimit;
      break;
    }
    // All events at one instant share the time-limit check.
    if (T > Limits.MaxTime) {
      Reason = StopReason::TimeLimit;
      break;
    }
    assert(T >= Clock && "event queue went backwards");
    Clock = T;
    // Each queue with an empty near tier opens its window at T, so its due
    // bucket at T and every push back into T land near.
    Pending->advanceTo(T);
    if (Sharded)
      Sharded->advanceTo(T);
    if (Pending->frontIs(T) && drainFront(Limits, Reason))
      break;
    if (Sharded)
      Sharded->runRounds(T);
  }
  // Leave no cross-round debt behind: later serial code (teardown, the
  // next run) must see every refcount settled.
  if (Sharded)
    Sharded->drainDeferred();
  // Any records still buffered for an installed sink belong to this run;
  // push them out so the caller sees a complete file/trace after run().
  flushTraceSink();
  return Reason;
}

bool Simulator::drainFront(const RunLimits &Limits, StopReason &Out) {
  CalendarQueue &Q = *Pending;
  [[maybe_unused]] const bool ActionsOnly = Sharded != nullptr;
  // The bucket at the clock stays put for its whole drain: handlers and
  // actions cannot schedule into the past, and a same-instant push lands in
  // this very bucket (appended behind Head). Its FIFO may reallocate, so
  // each step re-reads it.
  CalendarQueue::Bucket &B = Q.bucket(Clock);
  while (B.Head != B.Fifo.size()) {
    if (HaltRequested) {
      Out = StopReason::Halted;
      return true;
    }
    if (Stats.EventsExecuted >= Limits.MaxEvents) {
      Out = StopReason::EventLimit;
      return true;
    }
    SimEvent E = B.Fifo[B.Head++];
    ++Stats.EventsExecuted;
    assert((!ActionsOnly || E.kind() == CalendarQueue::KAction) &&
           "only environment actions live in the serial queue when sharded");
    switch (E.kind()) {
    case CalendarQueue::KDeliver:
      deliver(E.A, E.B, MessageRef::adopt(E.body()));
      break;
    case CalendarQueue::KTimer:
      // Drop the cancellation bookkeeping on every pop path, fired or
      // not, so it never outlives the timers it describes.
      if (Q.collectTimer(E.timerId()))
        fireTimer(E.A, E.timerId());
      break;
    default: {
      auto Action = Q.takeAction(E.A);
      Action(*this);
      break;
    }
    }
  }
  Q.retire(Clock);
  return false;
}

void Simulator::halt() { HaltRequested = true; }
