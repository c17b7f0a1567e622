//===- ShardedKernelTest.cpp - space-sharded engine regression tests -----------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// The sharded-kernel contract (docs/MODEL.md §7): for a given seed the
// space-sharded engine executes ONE deterministic schedule, byte-identical
// at every shard count and thread arrangement. These tests pin that
// contract with golden KernelLoad digests at n=10^4, byte-compare full
// experiment traces across --shards ∈ {1,2,4} and threaded-vs-inline
// execution, and cross-check Membership's suspicion bookkeeping against a
// std::set reference rebuilt from the trace under churn.
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"
#include "dyndist/aggregation/Experiment.h"
#include "dyndist/core/Membership.h"
#include "dyndist/graph/Generators.h"
#include "dyndist/graph/Overlay.h"
#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/sim/TraceIO.h"
#include "dyndist/support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace dyndist;

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// The schedule-determined counters. The allocation-economy counters
/// (BodyPoolHits/Misses) are deliberately excluded: free-list hit rates
/// depend on how bodies distribute across the K per-lane pools, which is
/// an execution arrangement, not a schedule property.
testing::AssertionResult scheduleStatsEqual(const SimStats &A,
                                            const SimStats &B) {
  if (A.MessagesSent == B.MessagesSent &&
      A.MessagesDelivered == B.MessagesDelivered &&
      A.MessagesDropped == B.MessagesDropped &&
      A.PayloadUnits == B.PayloadUnits && A.TimersFired == B.TimersFired &&
      A.EventsExecuted == B.EventsExecuted &&
      A.InlineFnHeapFallbacks == B.InlineFnHeapFallbacks)
    return testing::AssertionSuccess();
  return testing::AssertionFailure()
         << "schedule counters diverge: sent " << A.MessagesSent << "/"
         << B.MessagesSent << " delivered " << A.MessagesDelivered << "/"
         << B.MessagesDelivered << " events " << A.EventsExecuted << "/"
         << B.EventsExecuted;
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden KernelLoad digests at n = 10^4
//===----------------------------------------------------------------------===//

TEST(ShardedKernel, KernelLoadGoldenAcrossShardCounts) {
  KernelLoadConfig Cfg;
  Cfg.Seed = 42;
  Cfg.Processes = 10000;
  Cfg.Horizon = 100;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;

  std::vector<KernelLoadResult> Runs;
  for (unsigned K : {1u, 2u, 4u}) {
    Cfg.Shards = K;
    Runs.push_back(runKernelLoad(Cfg, TraceLevel::Off));
  }

  // Shard-count invariance: K is an execution arrangement, not a schedule
  // input.
  for (const KernelLoadResult &R : Runs) {
    EXPECT_TRUE(scheduleStatsEqual(R.Stats, Runs[0].Stats));
    EXPECT_EQ(R.Stop, Runs[0].Stop);
    EXPECT_EQ(R.PendingTimers, Runs[0].PendingTimers);
  }

  // Golden pins: any drift here is a schedule change in the sharded
  // engine and must be deliberate (update docs/MODEL.md §7 alongside).
  const SimStats &St = Runs[0].Stats;
  EXPECT_EQ(St.MessagesSent, 499992u);
  EXPECT_EQ(St.MessagesDelivered, 479927u);
  EXPECT_EQ(St.MessagesDropped, 73u);
  EXPECT_EQ(St.PayloadUnits, 499992u);
  EXPECT_EQ(St.TimersFired, 249996u);
  EXPECT_EQ(St.EventsExecuted, 750003u);
}

//===----------------------------------------------------------------------===//
// Experiment digests are --shards invariant
//===----------------------------------------------------------------------===//

namespace {

/// One full experiment (overlay + churn + flooding query + monitor) at
/// shard count \p Shards, digested to its serialized trace plus stats.
std::pair<std::string, SimStats> experimentDigest(unsigned Shards) {
  ExperimentConfig Cfg;
  Cfg.Seed = 11;
  Cfg.Class.Arrival = ArrivalModel::infiniteArrival();
  Cfg.InitialMembers = 24;
  Cfg.OverlayDegree = 3;
  Cfg.Churn.JoinRate = 0.08;
  Cfg.Churn.MeanSession = 120;
  Cfg.Churn.CrashFraction = 0.4;
  Cfg.QueryAt = 80;
  Cfg.Horizon = 240;
  Cfg.KeepTrace = true; // Forces Full tracing: every record in the digest.
  Cfg.Shards = Shards;
  ExperimentResult R = runQueryExperiment(Cfg);
  EXPECT_TRUE(R.RecordedTrace.has_value());
  return {traceToJsonLines(*R.RecordedTrace), R.Stats};
}

} // namespace

TEST(ShardedKernel, ExperimentTraceShardInvariant) {
  auto [Trace1, Stats1] = experimentDigest(1);
  auto [Trace2, Stats2] = experimentDigest(2);
  auto [Trace4, Stats4] = experimentDigest(4);

  EXPECT_FALSE(Trace1.empty());
  EXPECT_EQ(Trace1, Trace2);
  EXPECT_EQ(Trace1, Trace4);
  EXPECT_TRUE(scheduleStatsEqual(Stats1, Stats2));
  EXPECT_TRUE(scheduleStatsEqual(Stats1, Stats4));

  // Thread arrangement is equally irrelevant: K = 4 executed fully inline
  // (worker budget 1) produces the same bytes as the threaded run.
  ASSERT_EQ(setenv("DYNDIST_SHARD_THREADS", "1", 1), 0);
  auto [TraceInline, StatsInline] = experimentDigest(4);
  unsetenv("DYNDIST_SHARD_THREADS");
  EXPECT_EQ(fnv1a(Trace1), fnv1a(TraceInline));
  EXPECT_TRUE(scheduleStatsEqual(Stats1, StatsInline));
}

namespace {

/// A churny gossip experiment at shard count \p Shards, digested to its
/// serialized trace plus stats.
std::pair<std::string, SimStats> gossipExperimentDigest(unsigned Shards,
                                                        bool Digest) {
  ExperimentConfig Cfg;
  Cfg.Seed = 23;
  Cfg.Class.Arrival = ArrivalModel::infiniteArrival();
  Cfg.UseRecommended = false;
  Cfg.Algorithm = RecommendedAlgorithm::GossipBestEffort;
  Cfg.InitialMembers = 24;
  Cfg.OverlayDegree = 3;
  Cfg.Churn.JoinRate = 0.3;
  Cfg.Churn.MeanSession = 100;
  Cfg.Churn.CrashFraction = 0.3;
  Cfg.QueryAt = 80;
  Cfg.Horizon = 240;
  Cfg.Gossip.ReportAfter = 60;
  Cfg.Gossip.Rounds = 30;
  Cfg.Gossip.RoundEvery = 2;
  Cfg.Gossip.DigestMode = Digest;
  Cfg.KeepTrace = true;
  Cfg.Shards = Shards;
  ExperimentResult R = runQueryExperiment(Cfg);
  EXPECT_TRUE(R.RecordedTrace.has_value());
  return {traceToJsonLines(*R.RecordedTrace), R.Stats};
}

} // namespace

TEST(ShardedKernel, GossipTraceShardInvariant) {
  // Pinned trace digests, recorded from the sorted-map contribution sets
  // the bitset replaced: the legacy kernel (shards 0) runs its own
  // schedule, every sharded count runs one shared schedule.
  struct Pin {
    bool Digest;
    uint64_t Legacy, Sharded;
  };
  const Pin Pins[] = {
      {false, 0xaa0c6671f9b05d01ULL, 0x415d885b55dd86a8ULL},
      {true, 0x33a1b2a6882e302dULL, 0xf1dde8e4bdd3dc41ULL},
  };
  for (const Pin &P : Pins) {
    auto [Trace0, Stats0] = gossipExperimentDigest(0, P.Digest);
    auto [Trace1, Stats1] = gossipExperimentDigest(1, P.Digest);
    auto [Trace2, Stats2] = gossipExperimentDigest(2, P.Digest);
    auto [Trace4, Stats4] = gossipExperimentDigest(4, P.Digest);
    EXPECT_EQ(fnv1a(Trace0), P.Legacy) << "digest=" << P.Digest;
    EXPECT_EQ(fnv1a(Trace1), P.Sharded) << "digest=" << P.Digest;
    EXPECT_EQ(Trace1, Trace2);
    EXPECT_EQ(Trace1, Trace4);
    EXPECT_TRUE(scheduleStatsEqual(Stats1, Stats2));
    EXPECT_TRUE(scheduleStatsEqual(Stats1, Stats4));

    ASSERT_EQ(setenv("DYNDIST_SHARD_THREADS", "1", 1), 0);
    auto [TraceInline, StatsInline] = gossipExperimentDigest(4, P.Digest);
    unsetenv("DYNDIST_SHARD_THREADS");
    EXPECT_EQ(fnv1a(Trace1), fnv1a(TraceInline));
    EXPECT_TRUE(scheduleStatsEqual(Stats1, StatsInline));
  }
}

//===----------------------------------------------------------------------===//
// Membership state vs a std::set reference under churn
//===----------------------------------------------------------------------===//

TEST(ShardedKernel, MembershipMatchesTraceReferenceUnderChurn) {
  // The detector claims map/set-identical bookkeeping; the trace is the
  // independent witness. Every suspicion transition is recorded as an
  // observation, so replaying member.suspect / member.restore into
  // per-process std::sets must reconstruct each detector's final
  // SuspectedView exactly — in both engines, under churn, for the live
  // and the departed alike (a crashed detector's state stays as the
  // crash left it).
  for (unsigned Shards : {0u, 3u}) {
    for (uint64_t Seed : {1u, 5u, 9u}) {
      Simulator S(Seed);
      if (Shards > 0)
        S.setShards(Shards);
      DynamicOverlay Overlay(2, Rng(Seed + 1));
      S.setTopologyProvider(&Overlay);
      auto Config = std::make_shared<MembershipConfig>();
      auto Factory = makeMembershipFactory(Config);

      const size_t N = 10;
      Graph G = makeComplete(N);
      std::map<ProcessId, MembershipActor *> Actors;
      std::vector<ProcessId> Pids;
      for (size_t I = 0; I != N; ++I) {
        auto Owned = Factory();
        auto *A = static_cast<MembershipActor *>(Owned.get());
        ProcessId P = S.spawn(std::move(Owned));
        Actors[P] = A;
        Pids.push_back(P);
      }
      Overlay.seed(std::move(G));

      // Churn: staggered silent crashes (suspicion fodder), each followed
      // by a fresh spawn.
      for (size_t I = 0; I != 3; ++I) {
        SimTime At = 40 + static_cast<SimTime>(I) * 40;
        ProcessId Victim = Pids[2 * I + 1];
        S.scheduleAt(At, [Victim, &Factory, &Actors](Simulator &Sim) {
          Sim.crash(Victim);
          auto Owned = Factory();
          auto *A = static_cast<MembershipActor *>(Owned.get());
          Actors[Sim.spawn(std::move(Owned))] = A;
        });
      }

      RunLimits L;
      L.MaxTime = 260;
      S.run(L);

      // Reference model: fold the observation stream in trace order.
      std::map<ProcessId, std::set<ProcessId>> Ref;
      for (const TraceRecord &R : S.trace().records()) {
        TraceEventView E = TraceEventView::of(R, S.trace().keys());
        if (E.Kind != TraceKind::Observe)
          continue;
        if (E.Key == MemberSuspectKey)
          Ref[E.Subject].insert(static_cast<ProcessId>(E.Value));
        else if (E.Key == MemberRestoreKey)
          Ref[E.Subject].erase(static_cast<ProcessId>(E.Value));
      }
      EXPECT_GT(observationsOf(S.trace(), MemberSuspectKey).size(), 0u);

      size_t Live = 0;
      for (const auto &[P, A] : Actors) {
        Live += S.isUp(P);
        const std::set<ProcessId> &Want = Ref[P];
        MembershipActor::SuspectedView View = A->suspected();
        EXPECT_EQ(View.size(), Want.size());
        std::vector<ProcessId> Got;
        View.forEach([&Got](ProcessId Q) { Got.push_back(Q); });
        EXPECT_TRUE(std::is_sorted(Got.begin(), Got.end()));
        EXPECT_EQ(Got, std::vector<ProcessId>(Want.begin(), Want.end()));
        for (const auto &Entry : Actors)
          EXPECT_EQ(View.count(Entry.first), Want.count(Entry.first));
      }
      EXPECT_EQ(Actors.size(), N + 3); // Every detector checked.
      EXPECT_EQ(Live, N);              // 10 crashed+replaced to 10 again.
    }
  }
}

//===----------------------------------------------------------------------===//
// Serial-phase hooks under loss, cancels, stimuli and churn
//===----------------------------------------------------------------------===//

namespace {

struct EnvNote : MessageBody {
  static constexpr int KindId = 930;
  explicit EnvNote(int64_t Hops) : MessageBody(KindId), Hops(Hops) {}
  int64_t Hops;
};

/// Drives every Context path a serial-phase hook can take: onStart sends,
/// arms two timers, cancels one and draws from rng(); onStop sends a
/// farewell. Handlers forward with a hop budget and sometimes leave, so
/// lane-phase sends and barrier departures (whose onStop runs serially)
/// mix in.
class EnvPhaseActor : public Actor {
public:
  void onStart(Context &Ctx) override {
    Ctx.observe(TraceKey::OtqValue,
                static_cast<int64_t>(Ctx.rng().nextBelow(1000)));
    sendToNeighbor(Ctx, 0);
    Ctx.setTimer(1 + Ctx.rng().nextBelow(4));
    TimerId Decoy = Ctx.setTimer(2);
    Ctx.cancelTimer(Decoy);
  }
  void onMessage(Context &Ctx, ProcessId, const MessageBody &Body) override {
    const int64_t Hops = bodyAs<EnvNote>(Body).Hops;
    Ctx.observe(TraceKey::OtqInclude, Hops);
    if (Hops < 3)
      sendToNeighbor(Ctx, Hops + 1);
    else if (Ctx.rng().nextBelow(16) == 0)
      Ctx.leaveSystem();
  }
  void onTimer(Context &Ctx, TimerId) override {
    if (++Rounds > 4)
      return;
    sendToNeighbor(Ctx, 1);
    Ctx.setTimer(1 + Ctx.rng().nextBelow(3));
  }
  void onStop(Context &Ctx) override { sendToNeighbor(Ctx, 2); }

private:
  static void sendToNeighbor(Context &Ctx, int64_t Hops) {
    const size_t N = Ctx.neighborCount();
    if (N == 0)
      return;
    Ctx.send(Ctx.neighborAt(Ctx.rng().nextBelow(N)), makeBody<EnvNote>(Hops));
  }
  int Rounds = 0;
};

/// A lossy full-mesh run of EnvPhaseActors with churn-driven spawns,
/// leaves and crashes plus one injected stimulus, digested to its Full
/// trace plus stats.
std::pair<std::string, SimStats> envPhaseDigest(unsigned Shards) {
  Simulator S(29);
  if (Shards > 0)
    S.setShards(Shards);
  S.setLossRate(0.2);
  for (int I = 0; I != 12; ++I)
    S.spawn(std::make_unique<EnvPhaseActor>());
  for (SimTime T = 3; T <= 60; T += 3)
    S.scheduleAt(T, [T](Simulator &Sim) {
      Sim.spawn(std::make_unique<EnvPhaseActor>());
      const std::vector<ProcessId> &Up = Sim.upSet();
      const ProcessId Victim = Up[Sim.rng().nextBelow(Up.size())];
      if (T % 12 == 0)
        Sim.crash(Victim);
      else
        Sim.leave(Victim);
    });
  S.scheduleAt(10, [](Simulator &Sim) {
    Sim.injectStimulus(Sim.upSet().front(), makeBody<EnvNote>(0));
  });
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);
  EXPECT_EQ(S.pendingTimers(), 0u);
  return {traceToJsonLines(S.trace()), S.stats()};
}

} // namespace

TEST(ShardedKernel, EnvPhaseGoldenAcrossShardCounts) {
  // Pinned on both engines: loss draws, serial-phase timer cancels, the
  // stimulus and onStart/onStop sends each feed the digest and the stats.
  struct Pin {
    unsigned Shards;
    uint64_t Digest;
    SimStats Stats;
  };
  auto pinnedStats = [](uint64_t Sent, uint64_t Delivered, uint64_t Dropped,
                        uint64_t Units, uint64_t Fired, uint64_t Events) {
    SimStats St;
    St.MessagesSent = Sent;
    St.MessagesDelivered = Delivered;
    St.MessagesDropped = Dropped;
    St.PayloadUnits = Units;
    St.TimersFired = Fired;
    St.EventsExecuted = Events;
    return St;
  };
  const Pin Pins[] = {
      {0, 0xb92c7f3abf9f5b86ULL, pinnedStats(389, 306, 84, 390, 135, 511)},
      {1, 0x9ddf02f30ec536a3ULL, pinnedStats(301, 231, 71, 302, 96, 416)},
  };
  for (const Pin &P : Pins) {
    auto [Trace, Stats] = envPhaseDigest(P.Shards);
    EXPECT_EQ(fnv1a(Trace), P.Digest)
        << "shards=" << P.Shards << " digest=0x" << std::hex << fnv1a(Trace);
    EXPECT_TRUE(scheduleStatsEqual(Stats, P.Stats))
        << "shards=" << P.Shards << " dropped " << Stats.MessagesDropped
        << " units " << Stats.PayloadUnits << " fired " << Stats.TimersFired;
    EXPECT_GT(Stats.MessagesDropped, 0u);
  }

  auto [Trace1, Stats1] = envPhaseDigest(1);
  for (unsigned K : {2u, 4u}) {
    auto [TraceK, StatsK] = envPhaseDigest(K);
    EXPECT_EQ(TraceK, Trace1) << "shards=" << K;
    EXPECT_TRUE(scheduleStatsEqual(StatsK, Stats1)) << "shards=" << K;
  }
  ASSERT_EQ(setenv("DYNDIST_SHARD_THREADS", "1", 1), 0);
  auto [TraceInline, StatsInline] = envPhaseDigest(4);
  unsetenv("DYNDIST_SHARD_THREADS");
  EXPECT_EQ(TraceInline, Trace1);
  EXPECT_TRUE(scheduleStatsEqual(StatsInline, Stats1));
}

//===----------------------------------------------------------------------===//
// The calendar's far tier on every lane path
//===----------------------------------------------------------------------===//

namespace {

/// Forwards notes and re-arms timers at delays past the calendar's 64-tick
/// far window, so lane deliveries, lane timers and outbox flushes land in
/// the far tier as often as in the near one.
class FarTierActor : public Actor {
public:
  void onStart(Context &Ctx) override {
    sendToNeighbor(Ctx, 0);
    Ctx.setTimer(40 + Ctx.rng().nextBelow(120));
  }
  void onMessage(Context &Ctx, ProcessId, const MessageBody &Body) override {
    const int64_t Hops = bodyAs<EnvNote>(Body).Hops;
    Ctx.observe(TraceKey::OtqInclude, Hops);
    if (Hops < 5)
      sendToNeighbor(Ctx, Hops + 1);
    if (Ctx.rng().nextBelow(8) == 0)
      Ctx.setTimer(Ctx.rng().nextBelow(200));
  }
  void onTimer(Context &Ctx, TimerId) override {
    if (++Rounds > 4)
      return;
    // Two notes to one neighbor: with four latencies they often share an
    // instant, so one flush carries both in push order.
    const size_t N = Ctx.neighborCount();
    if (N != 0) {
      const ProcessId To = Ctx.neighborAt(Ctx.rng().nextBelow(N));
      Ctx.send(To, makeBody<EnvNote>(1));
      Ctx.send(To, makeBody<EnvNote>(2));
    }
    Ctx.setTimer(50 + Ctx.rng().nextBelow(150));
  }

private:
  static void sendToNeighbor(Context &Ctx, int64_t Hops) {
    const size_t N = Ctx.neighborCount();
    if (N == 0)
      return;
    Ctx.send(Ctx.neighborAt(Ctx.rng().nextBelow(N)), makeBody<EnvNote>(Hops));
  }
  int Rounds = 0;
};

/// A full-mesh run of FarTierActors under 64..67-tick latencies, with
/// spawns and departures every 40 ticks, stopped at a time limit with far
/// events pending and then resumed to exhaustion; digested to its Full
/// trace plus stats.
std::pair<std::string, SimStats> farTierDigest(unsigned Shards) {
  Simulator S(37);
  if (Shards > 0)
    S.setShards(Shards);
  S.setLatencyModel(std::make_unique<UniformLatency>(64, 67));
  for (int I = 0; I != 24; ++I)
    S.spawn(std::make_unique<FarTierActor>());
  for (SimTime T = 40; T <= 480; T += 40)
    S.scheduleAt(T, [T](Simulator &Sim) {
      Sim.spawn(std::make_unique<FarTierActor>());
      const std::vector<ProcessId> &Up = Sim.upSet();
      const ProcessId Victim = Up[Sim.rng().nextBelow(Up.size())];
      if (T % 120 == 0)
        Sim.crash(Victim);
      else
        Sim.leave(Victim);
    });
  RunLimits Stop;
  Stop.MaxTime = 300;
  EXPECT_EQ(S.run(Stop), StopReason::TimeLimit);
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);
  EXPECT_EQ(S.pendingTimers(), 0u);
  return {traceToJsonLines(S.trace()), S.stats()};
}

} // namespace

TEST(ShardedKernel, FarTierGoldenAcrossShardCounts) {
  // Pinned before the far tier existed: the tier must not move a schedule.
  struct Pin {
    unsigned Shards;
    uint64_t Digest;
    SimStats Stats;
  };
  auto pinnedStats = [](uint64_t Sent, uint64_t Delivered, uint64_t Dropped,
                        uint64_t Units, uint64_t Fired, uint64_t Events) {
    SimStats St;
    St.MessagesSent = Sent;
    St.MessagesDelivered = Delivered;
    St.MessagesDropped = Dropped;
    St.PayloadUnits = Units;
    St.TimersFired = Fired;
    St.EventsExecuted = Events;
    return St;
  };
  const Pin Pins[] = {
      {0, 0xdb01260d04474a17ULL, pinnedStats(1190, 1149, 41, 1190, 258, 1484)},
      {1, 0xa8faf957f3007fe9ULL, pinnedStats(1201, 1151, 50, 1201, 274, 1513)},
  };
  for (const Pin &P : Pins) {
    auto [Trace, Stats] = farTierDigest(P.Shards);
    EXPECT_EQ(fnv1a(Trace), P.Digest)
        << "shards=" << P.Shards << " digest=0x" << std::hex << fnv1a(Trace);
    EXPECT_TRUE(scheduleStatsEqual(Stats, P.Stats))
        << "shards=" << P.Shards << " sent " << Stats.MessagesSent
        << " delivered " << Stats.MessagesDelivered << " dropped "
        << Stats.MessagesDropped << " units " << Stats.PayloadUnits
        << " fired " << Stats.TimersFired << " events "
        << Stats.EventsExecuted;
  }

  auto [Trace1, Stats1] = farTierDigest(1);
  for (unsigned K : {2u, 4u}) {
    auto [TraceK, StatsK] = farTierDigest(K);
    EXPECT_EQ(TraceK, Trace1) << "shards=" << K;
    EXPECT_TRUE(scheduleStatsEqual(StatsK, Stats1)) << "shards=" << K;
  }
  ASSERT_EQ(setenv("DYNDIST_SHARD_THREADS", "1", 1), 0);
  auto [TraceInline, StatsInline] = farTierDigest(4);
  unsetenv("DYNDIST_SHARD_THREADS");
  EXPECT_EQ(TraceInline, Trace1);
  EXPECT_TRUE(scheduleStatsEqual(StatsInline, Stats1));
}

namespace {

/// Re-arms a one-tick timer until its instant reaches Until.
class TickActor : public Actor {
public:
  explicit TickActor(SimTime Until) : Until(Until) {}
  void onStart(Context &Ctx) override { Ctx.setTimer(1); }
  void onTimer(Context &Ctx, TimerId) override {
    if (Ctx.now() < Until)
      Ctx.setTimer(1);
  }

private:
  SimTime Until;
};

/// Arms a zero-delay timer from onStart and notes its firing.
class ZeroTimerActor : public Actor {
public:
  void onStart(Context &Ctx) override { Ctx.setTimer(0); }
  void onTimer(Context &, TimerId) override { Fired = true; }
  bool Fired = false;
};

} // namespace

TEST(ShardedKernel, SerialTimerIntoIdleLaneFiresInItsInstantsFirstRound) {
  // Process 0 ticks on lane 0 while every other lane idles, so the clock
  // runs past an idle lane's far-tier boundary. At T = 200 an action
  // spawns one process per lane, each arming a zero-delay timer from
  // onStart: every one must fire in that instant's first round, ahead of
  // an event limit that falls due inside the instant.
  for (unsigned K : {2u, 4u}) {
    Simulator S(5);
    S.setShards(K);
    S.spawn(std::make_unique<TickActor>(300));
    for (unsigned L = 1; L != K; ++L)
      S.spawn(std::make_unique<Actor>());
    S.scheduleAt(200, [K](Simulator &Sim) {
      for (unsigned L = 0; L != K; ++L)
        Sim.spawn(std::make_unique<ZeroTimerActor>());
    });
    RunLimits Before;
    Before.MaxTime = 199;
    EXPECT_EQ(S.run(Before), StopReason::TimeLimit);
    RunLimits Limit;
    Limit.MaxEvents = S.stats().EventsExecuted + 2;
    EXPECT_EQ(S.run(Limit), StopReason::EventLimit) << "shards=" << K;
    EXPECT_EQ(S.now(), 200u) << "shards=" << K;
    for (ProcessId P = K; P != 2 * K; ++P)
      EXPECT_TRUE(static_cast<ZeroTimerActor *>(S.actorFor(P))->Fired)
          << "shards=" << K << " process " << P;
  }
}
