//===- SimTest.cpp - dyndist_sim unit tests -----------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/Simulator.h"

#include "TraceTestUtil.h"

#include <gtest/gtest.h>

using namespace dyndist;

namespace {

/// Test payload carrying one integer.
struct PingMsg : MessageBody {
  static constexpr int KindId = 900;
  explicit PingMsg(int64_t Payload) : MessageBody(KindId), Payload(Payload) {}
  int64_t Payload;
};

/// Actor that logs everything it experiences.
class Recorder : public Actor {
public:
  void onStart(Context &Ctx) override { StartedAt.push_back(Ctx.now()); }
  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override {
    Received.push_back({Ctx.now(), From, bodyAs<PingMsg>(Body).Payload});
  }
  void onTimer(Context &Ctx, TimerId Id) override {
    TimersFired.push_back({Ctx.now(), Id});
  }
  void onStop(Context &Ctx) override { StoppedAt.push_back(Ctx.now()); }

  struct Rx {
    SimTime T;
    ProcessId From;
    int64_t Payload;
  };
  std::vector<SimTime> StartedAt, StoppedAt;
  std::vector<Rx> Received;
  std::vector<std::pair<SimTime, TimerId>> TimersFired;
};

/// Actor that echoes every ping back with payload + 1.
class EchoBack : public Actor {
public:
  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override {
    int64_t P = bodyAs<PingMsg>(Body).Payload;
    if (P < 10)
      Ctx.send(From, makeBody<PingMsg>(P + 1));
  }
};

} // namespace

TEST(Simulator, SpawnRunsOnStartImmediately) {
  Simulator S(1);
  auto Owned = std::make_unique<Recorder>();
  Recorder *R = Owned.get();
  ProcessId P = S.spawn(std::move(Owned));
  EXPECT_TRUE(S.isUp(P));
  ASSERT_EQ(R->StartedAt.size(), 1u);
  EXPECT_EQ(R->StartedAt[0], 0u);
}

TEST(Simulator, MessageDeliveryWithFixedLatency) {
  Simulator S(1);
  auto OwnedA = std::make_unique<Recorder>();
  Recorder *A = OwnedA.get();
  ProcessId Pa = S.spawn(std::move(OwnedA));
  ProcessId Pb = S.spawn(std::make_unique<Recorder>());

  S.sendMessage(Pb, Pa, makeBody<PingMsg>(7));
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);

  ASSERT_EQ(A->Received.size(), 1u);
  EXPECT_EQ(A->Received[0].T, 1u); // FixedLatency(1) default.
  EXPECT_EQ(A->Received[0].From, Pb);
  EXPECT_EQ(A->Received[0].Payload, 7);
}

TEST(Simulator, PingPongConverges) {
  Simulator S(1);
  ProcessId Pa = S.spawn(std::make_unique<EchoBack>());
  ProcessId Pb = S.spawn(std::make_unique<EchoBack>());
  S.sendMessage(Pa, Pb, makeBody<PingMsg>(0));
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);
  // Payload counts 0..10: 11 deliveries.
  EXPECT_EQ(S.stats().MessagesDelivered, 11u);
}

TEST(Simulator, CrashDropsInFlightMessages) {
  Simulator S(1);
  auto OwnedA = std::make_unique<Recorder>();
  Recorder *A = OwnedA.get();
  ProcessId Pa = S.spawn(std::move(OwnedA));
  ProcessId Pb = S.spawn(std::make_unique<Recorder>());

  S.sendMessage(Pb, Pa, makeBody<PingMsg>(1));
  S.crash(Pa);
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);

  EXPECT_TRUE(A->Received.empty());
  EXPECT_EQ(S.stats().MessagesDropped, 1u);
  EXPECT_EQ(S.trace().countKind(TraceKind::Drop), 1u);
}

TEST(Simulator, GracefulLeaveRunsOnStop) {
  Simulator S(1);
  auto Owned = std::make_unique<Recorder>();
  Recorder *R = Owned.get();
  ProcessId P = S.spawn(std::move(Owned));
  S.scheduleAt(5, [P](Simulator &Sim) { Sim.leave(P); });
  S.run();
  ASSERT_EQ(R->StoppedAt.size(), 1u);
  EXPECT_EQ(R->StoppedAt[0], 5u);
  EXPECT_FALSE(S.isUp(P));
}

TEST(Simulator, CrashDoesNotRunOnStop) {
  Simulator S(1);
  auto Owned = std::make_unique<Recorder>();
  Recorder *R = Owned.get();
  ProcessId P = S.spawn(std::move(Owned));
  S.scheduleAt(5, [P](Simulator &Sim) { Sim.crash(P); });
  S.run();
  EXPECT_TRUE(R->StoppedAt.empty());
}

TEST(Simulator, TimersFireAtTheRightTime) {
  Simulator S(1);
  auto Owned = std::make_unique<Recorder>();
  Recorder *R = Owned.get();
  ProcessId P = S.spawn(std::move(Owned));
  S.scheduleAt(3, [P](Simulator &Sim) {
    // Arm a timer on behalf of the actor through a self-message trick is
    // not available here; use the context by sending a message instead.
    (void)P;
    (void)Sim;
  });
  // Arm via a helper actor method: schedule a message whose handler arms a
  // timer is overkill; instead test timers through Context in an actor.
  class TimerArmer : public Actor {
  public:
    void onStart(Context &Ctx) override { Id = Ctx.setTimer(7); }
    void onTimer(Context &Ctx, TimerId Fired) override {
      FiredAt = Ctx.now();
      FiredId = Fired;
    }
    TimerId Id = 0;
    SimTime FiredAt = 0;
    TimerId FiredId = 0;
  };
  auto OwnedTa = std::make_unique<TimerArmer>();
  TimerArmer *Ta = OwnedTa.get();
  S.spawn(std::move(OwnedTa));
  S.run();
  EXPECT_EQ(Ta->FiredAt, 7u);
  EXPECT_EQ(Ta->FiredId, Ta->Id);
  (void)R;
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  class CancelActor : public Actor {
  public:
    void onStart(Context &Ctx) override {
      TimerId T = Ctx.setTimer(10);
      Ctx.cancelTimer(T);
      Keep = Ctx.setTimer(5);
    }
    void onTimer(Context &Ctx, TimerId Id) override {
      (void)Ctx;
      Fired.push_back(Id);
    }
    TimerId Keep = 0;
    std::vector<TimerId> Fired;
  };
  Simulator S(1);
  auto Owned = std::make_unique<CancelActor>();
  CancelActor *A = Owned.get();
  S.spawn(std::move(Owned));
  S.run();
  ASSERT_EQ(A->Fired.size(), 1u);
  EXPECT_EQ(A->Fired[0], A->Keep);
}

TEST(Simulator, TimerOnDownProcessDoesNotFire) {
  class Armer : public Actor {
  public:
    void onStart(Context &Ctx) override { Ctx.setTimer(10); }
    void onTimer(Context &Ctx, TimerId) override {
      (void)Ctx;
      ++Fired;
    }
    int Fired = 0;
  };
  Simulator S(1);
  auto Owned = std::make_unique<Armer>();
  Armer *A = Owned.get();
  ProcessId P = S.spawn(std::move(Owned));
  S.scheduleAt(5, [P](Simulator &Sim) { Sim.crash(P); });
  S.run();
  EXPECT_EQ(A->Fired, 0);
}

TEST(Simulator, DeterministicRuns) {
  auto RunOnce = [](uint64_t Seed) {
    Simulator S(Seed);
    S.setLatencyModel(std::make_unique<UniformLatency>(1, 5));
    std::vector<ProcessId> Ps;
    for (int I = 0; I != 5; ++I)
      Ps.push_back(S.spawn(std::make_unique<EchoBack>()));
    for (int I = 0; I != 4; ++I)
      S.sendMessage(Ps[I], Ps[I + 1], makeBody<PingMsg>(0));
    S.run();
    std::vector<std::tuple<int, SimTime, ProcessId, ProcessId>> Sig;
    for (const TraceRecord &E : S.trace().records())
      Sig.emplace_back(static_cast<int>(E.kind()), E.Time, E.subject(),
                       E.peer());
    return Sig;
  };
  EXPECT_EQ(RunOnce(99), RunOnce(99));
  EXPECT_NE(RunOnce(99), RunOnce(100));
}

/// The engines every stop test runs on: the legacy loop (0) and the
/// sharded engine with one and two lanes. Each stops at the pinned instant
/// and event count, and a resumed run() picks up there.
constexpr unsigned StopTestShards[] = {0, 1, 2};

/// Spawns an EchoBack pair on \p S and starts its ping-pong: one delivery
/// per tick at ticks 1..11, all executed by the lanes when sharded.
static void startPingPong(Simulator &S) {
  ProcessId Pa = S.spawn(std::make_unique<EchoBack>());
  ProcessId Pb = S.spawn(std::make_unique<EchoBack>());
  S.sendMessage(Pa, Pb, makeBody<PingMsg>(0));
}

TEST(Simulator, TimeLimitStopsRun) {
  for (unsigned Shards : StopTestShards) {
    SCOPED_TRACE(::testing::Message() << "shards " << Shards);
    Simulator S(1);
    if (Shards)
      S.setShards(Shards);
    startPingPong(S);
    RunLimits L;
    L.MaxTime = 5;
    EXPECT_EQ(S.run(L), StopReason::TimeLimit);
    EXPECT_EQ(S.now(), 5u);
    EXPECT_EQ(S.stats().EventsExecuted, 5u);
    EXPECT_EQ(S.run(), StopReason::QueueExhausted);
    EXPECT_EQ(S.now(), 11u);
    EXPECT_EQ(S.stats().EventsExecuted, 11u);
  }
}

TEST(Simulator, EventLimitStopsRun) {
  for (unsigned Shards : StopTestShards) {
    SCOPED_TRACE(::testing::Message() << "shards " << Shards);
    Simulator S(1);
    if (Shards)
      S.setShards(Shards);
    // Three self-perpetuating action chains, three actions per tick.
    std::function<void(Simulator &)> Loop = [&Loop](Simulator &Sim) {
      Sim.scheduleAfter(1, Loop);
    };
    for (int I = 0; I != 3; ++I)
      S.scheduleAfter(1, Loop);
    startPingPong(S);
    RunLimits L;
    L.MaxEvents = 30; // Ticks 1..7 run four events each.
    EXPECT_EQ(S.run(L), StopReason::EventLimit);
    EXPECT_EQ(S.now(), 8u); // Two of tick 8's actions ran.
    EXPECT_EQ(S.stats().EventsExecuted, 30u);
    L.MaxEvents = 45;
    EXPECT_EQ(S.run(L), StopReason::EventLimit);
    EXPECT_EQ(S.now(), 12u); // One of tick 12's actions ran.
    EXPECT_EQ(S.stats().EventsExecuted, 45u);
  }
}

TEST(Simulator, HaltStopsRun) {
  for (unsigned Shards : StopTestShards) {
    SCOPED_TRACE(::testing::Message() << "shards " << Shards);
    Simulator S(1);
    if (Shards)
      S.setShards(Shards);
    std::function<void(Simulator &)> Loop = [&Loop](Simulator &Sim) {
      Sim.scheduleAfter(1, Loop);
    };
    S.scheduleAfter(1, Loop);
    startPingPong(S);
    // Pushed before any of tick 10's other events, so they open its
    // bucket in this order: the halt lands mid-bucket, and the run stops
    // before the next event in it.
    bool BeforeHaltRan = false, AfterHaltRan = false;
    S.scheduleAt(10, [&BeforeHaltRan](Simulator &) { BeforeHaltRan = true; });
    S.scheduleAt(10, [](Simulator &Sim) { Sim.halt(); });
    S.scheduleAt(10, [&AfterHaltRan](Simulator &) { AfterHaltRan = true; });
    EXPECT_EQ(S.run(), StopReason::Halted);
    EXPECT_EQ(S.now(), 10u);
    EXPECT_TRUE(BeforeHaltRan);
    EXPECT_FALSE(AfterHaltRan);
    EXPECT_EQ(S.stats().EventsExecuted, 20u); // Ticks 1..9, then two.
    RunLimits L;
    L.MaxTime = 20;
    EXPECT_EQ(S.run(L), StopReason::TimeLimit);
    EXPECT_TRUE(AfterHaltRan);
    EXPECT_EQ(S.now(), 20u);
    EXPECT_EQ(S.stats().EventsExecuted, 34u);
  }
}

TEST(Simulator, DefaultTopologyIsFullMesh) {
  Simulator S(1);
  ProcessId A = S.spawn(std::make_unique<Recorder>());
  ProcessId B = S.spawn(std::make_unique<Recorder>());
  ProcessId C = S.spawn(std::make_unique<Recorder>());
  auto neighborsOf = [&S](ProcessId P) {
    std::vector<ProcessId> N;
    S.forEachNeighbor(P, [&](ProcessId Q) { N.push_back(Q); });
    return N;
  };
  EXPECT_EQ(neighborsOf(A), (std::vector<ProcessId>{B, C}));
  S.crash(B);
  EXPECT_EQ(neighborsOf(A), (std::vector<ProcessId>{C}));
}

TEST(Simulator, ObserveLandsInTrace) {
  class Observer : public Actor {
  public:
    void onStart(Context &Ctx) override {
      Ctx.observe(TraceKey::OtqValue, 42);
    }
  };
  Simulator S(1);
  ProcessId P = S.spawn(std::make_unique<Observer>());
  auto Obs = observationsOf(S.trace(), keyNameOf(TraceKey::OtqValue));
  ASSERT_EQ(Obs.size(), 1u);
  EXPECT_EQ(Obs[0].subject(), P);
  EXPECT_EQ(Obs[0].Value, 42);
  EXPECT_TRUE(
      S.trace().firstObservation(P, keyNameOf(TraceKey::OtqValue)).has_value());
  EXPECT_FALSE(S.trace().firstObservation(P, "other").has_value());
}

TEST(Trace, PresenceIntervalsAndConcurrency) {
  Trace T;
  T.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Join, 5, 2, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Leave, 10, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Join, 10, 3, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Crash, 20, 2, InvalidProcess, 0, "", 0});

  EXPECT_EQ(T.totalArrivals(), 3u);
  EXPECT_EQ(T.membersAt(7), (std::vector<ProcessId>{1, 2}));
  // At t=10 process 1 is gone (end exclusive) and 3 is present.
  EXPECT_EQ(T.membersAt(10), (std::vector<ProcessId>{2, 3}));
  EXPECT_EQ(T.membersThroughout(6, 15), (std::vector<ProcessId>{2}));
  // At t=10 process 1's interval has ended ([Join, End) is end-exclusive),
  // so the join of 3 does not overlap it.
  EXPECT_EQ(T.maxConcurrency(), 2u);
  EXPECT_TRUE(T.presence().at(2).Crashed);
  EXPECT_FALSE(T.presence().at(1).Crashed);
}

TEST(Trace, ClearResetsEverything) {
  Trace T;
  T.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  T.clear();
  EXPECT_TRUE(T.records().empty());
  EXPECT_EQ(T.totalArrivals(), 0u);
}

TEST(Latency, FixedAlwaysSame) {
  Rng R(1);
  FixedLatency L(3);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(L.sample(R, 0, 1), 3u);
}

TEST(Latency, UniformWithinBounds) {
  Rng R(1);
  UniformLatency L(2, 6);
  for (int I = 0; I != 1000; ++I) {
    SimTime T = L.sample(R, 0, 1);
    EXPECT_GE(T, 2u);
    EXPECT_LE(T, 6u);
  }
}

TEST(Latency, HeavyTailRespectsMinAndCap) {
  Rng R(1);
  HeavyTailLatency L(2, 1.1, 50);
  bool SawLarge = false;
  for (int I = 0; I != 5000; ++I) {
    SimTime T = L.sample(R, 0, 1);
    EXPECT_GE(T, 2u);
    EXPECT_LE(T, 50u);
    if (T > 20)
      SawLarge = true;
  }
  EXPECT_TRUE(SawLarge); // The tail actually produces large delays.
}

TEST(Simulator, LossRateOneDropsEverything) {
  Simulator S(1);
  S.setLossRate(1.0);
  auto Owned = std::make_unique<Recorder>();
  Recorder *R = Owned.get();
  ProcessId Pa = S.spawn(std::move(Owned));
  ProcessId Pb = S.spawn(std::make_unique<Recorder>());
  for (int I = 0; I != 10; ++I)
    S.sendMessage(Pb, Pa, makeBody<PingMsg>(I));
  S.run();
  EXPECT_TRUE(R->Received.empty());
  EXPECT_EQ(S.stats().MessagesSent, 10u);
  EXPECT_EQ(S.stats().MessagesDropped, 10u);
  EXPECT_EQ(S.trace().countKind(TraceKind::Drop), 10u);
}

TEST(Simulator, LossRateZeroDeliversEverything) {
  Simulator S(1);
  S.setLossRate(0.0);
  ProcessId Pa = S.spawn(std::make_unique<Recorder>());
  ProcessId Pb = S.spawn(std::make_unique<Recorder>());
  for (int I = 0; I != 10; ++I)
    S.sendMessage(Pb, Pa, makeBody<PingMsg>(I));
  S.run();
  EXPECT_EQ(S.stats().MessagesDelivered, 10u);
  EXPECT_EQ(S.stats().MessagesDropped, 0u);
}

TEST(Simulator, PartialLossIsStatisticallyFair) {
  Simulator S(7);
  S.setLossRate(0.3);
  ProcessId Pa = S.spawn(std::make_unique<Recorder>());
  ProcessId Pb = S.spawn(std::make_unique<Recorder>());
  const int N = 2000;
  for (int I = 0; I != N; ++I)
    S.sendMessage(Pb, Pa, makeBody<PingMsg>(I));
  S.run();
  double DropFraction =
      double(S.stats().MessagesDropped) / double(S.stats().MessagesSent);
  EXPECT_NEAR(DropFraction, 0.3, 0.05);
  EXPECT_EQ(S.stats().MessagesDelivered + S.stats().MessagesDropped,
            static_cast<uint64_t>(N));
}

TEST(Simulator, LossIsSeedDeterministic) {
  auto RunOnce = [](uint64_t Seed) {
    Simulator S(Seed);
    S.setLossRate(0.5);
    ProcessId Pa = S.spawn(std::make_unique<Recorder>());
    ProcessId Pb = S.spawn(std::make_unique<Recorder>());
    for (int I = 0; I != 100; ++I)
      S.sendMessage(Pb, Pa, makeBody<PingMsg>(I));
    S.run();
    return S.stats().MessagesDropped;
  };
  EXPECT_EQ(RunOnce(3), RunOnce(3));
}

TEST(Simulator, InjectStimulusBypassesLoss) {
  Simulator S(1);
  S.setLossRate(1.0); // Every protocol message is lost...
  auto Owned = std::make_unique<Recorder>();
  Recorder *R = Owned.get();
  ProcessId P = S.spawn(std::move(Owned));
  S.injectStimulus(P, makeBody<PingMsg>(5)); // ...but stimuli get through.
  S.run();
  ASSERT_EQ(R->Received.size(), 1u);
  EXPECT_EQ(R->Received[0].Payload, 5);
  EXPECT_EQ(R->Received[0].From, P); // Recorded as a self-delivery.
}

TEST(Simulator, PayloadUnitsDefaultToOnePerMessage) {
  Simulator S(1);
  ProcessId Pa = S.spawn(std::make_unique<Recorder>());
  ProcessId Pb = S.spawn(std::make_unique<Recorder>());
  for (int I = 0; I != 5; ++I)
    S.sendMessage(Pb, Pa, makeBody<PingMsg>(I));
  S.run();
  EXPECT_EQ(S.stats().PayloadUnits, 5u);
}

TEST(Simulator, IndexedNeighborAccessMatchesCopyApi) {
  // The accessors (neighborCount / neighborAt / forEachNeighbor) must
  // agree with the full mesh's definition -- every up process other than
  // P, ascending -- for up and down processes alike.
  Simulator S(3);
  std::vector<ProcessId> Ids;
  for (int I = 0; I != 6; ++I)
    Ids.push_back(S.spawn(std::make_unique<Recorder>()));
  S.crash(Ids[2]); // Punch a hole in the up-set.
  S.leave(Ids[4]);

  for (ProcessId P : Ids) {
    std::vector<ProcessId> Expected;
    for (ProcessId Q : Ids)
      if (Q != P && S.isUp(Q))
        Expected.push_back(Q);
    ASSERT_EQ(S.neighborCount(P), Expected.size()) << "process " << P;
    std::vector<ProcessId> Indexed;
    for (size_t I = 0; I != S.neighborCount(P); ++I)
      Indexed.push_back(S.neighborAt(P, I));
    EXPECT_EQ(Indexed, Expected) << "process " << P;
    std::vector<ProcessId> Visited;
    S.forEachNeighbor(P, [&](ProcessId N) { Visited.push_back(N); });
    EXPECT_EQ(Visited, Expected) << "process " << P;
  }

  // A down process is not its own neighbor but still sees the up mesh.
  EXPECT_EQ(S.neighborCount(Ids[2]), S.upCount());
  // An up process skips itself.
  EXPECT_EQ(S.neighborCount(Ids[0]), S.upCount() - 1);
}
