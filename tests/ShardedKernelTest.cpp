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
// execution, and cross-check the slab-backed protocol state (StateSlab /
// FlatMap / Membership suspicion bookkeeping) against std::map / std::set
// references under churn and slot recycling.
//
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"
#include "dyndist/aggregation/Experiment.h"
#include "dyndist/core/Membership.h"
#include "dyndist/graph/Generators.h"
#include "dyndist/graph/Overlay.h"
#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/sim/TraceIO.h"
#include "dyndist/support/FlatMap.h"
#include "dyndist/support/InlineVec.h"
#include "dyndist/support/Random.h"
#include "dyndist/support/StateSlab.h"

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
// Slab-backed membership state vs a std::set reference under churn
//===----------------------------------------------------------------------===//

TEST(ShardedKernel, MembershipSlabMatchesTraceReferenceUnderChurn) {
  // The detector's slab record claims map/set-identical bookkeeping; the
  // trace is the independent witness. Every suspicion transition is
  // recorded as an observation, so replaying member.suspect /
  // member.restore into per-process std::sets must reconstruct each live
  // detector's final SuspectedView exactly — in both engines, with slots
  // recycling under churn.
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

      // Churn: staggered silent crashes (suspicion fodder) plus fresh
      // spawns that re-acquire the crashed tenants' slab slots.
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

      size_t Checked = 0;
      for (const auto &[P, A] : Actors) {
        if (!S.isUp(P))
          continue; // A recycled slot no longer answers for the departed.
        ++Checked;
        const std::set<ProcessId> &Want = Ref[P];
        MembershipActor::SuspectedView View = A->suspected();
        EXPECT_EQ(View.size(), Want.size());
        std::vector<ProcessId> Got;
        View.forEach([&Got](ProcessId Q) { Got.push_back(Q); });
        EXPECT_TRUE(std::is_sorted(Got.begin(), Got.end()));
        EXPECT_EQ(Got, std::vector<ProcessId>(Want.begin(), Want.end()));
        for (ProcessId Q : Pids)
          EXPECT_EQ(View.count(Q), Want.count(Q));
      }
      EXPECT_EQ(Checked, N); // 10 crashed+replaced to 10 again.
    }
  }
}

//===----------------------------------------------------------------------===//
// Randomized StateSlab<FlatMap> vs std::map under slot recycling
//===----------------------------------------------------------------------===//

TEST(ShardedKernel, SlabFlatMapMatchesMapReferenceRandomized) {
  // The exact shape PeerSamplingActor stores per slot: a FlatMap over an
  // InlineVec record inside a StateSlab. Drive it with a random op mix —
  // insert, overwrite, erase, merge, slot release/reacquire (the churn
  // pattern) — against a per-slot std::map reference, checking full
  // ascending enumeration equality as we go.
  using View = FlatMap<uint32_t, uint64_t,
                       InlineVec<std::pair<uint32_t, uint64_t>, 8>>;
  struct Rec {
    View V;
    void reset() { V.clear(); }
  };

  StateSlab<Rec> Slab;
  struct Live {
    SlabHandle H;
    std::map<uint32_t, uint64_t> Ref;
  };
  std::vector<Live> Lives;        // Live tenants.
  std::vector<uint32_t> Free;     // Released slots, LIFO like the kernel.
  std::vector<SlabHandle> Stale;  // Handles whose slot moved on.
  uint32_t NextSlot = 0;

  Rng R(2024);
  auto CheckEqual = [&Slab](const Live &L) {
    const Rec *Got = Slab.find(L.H);
    ASSERT_NE(Got, nullptr);
    ASSERT_EQ(Got->V.size(), L.Ref.size());
    auto It = L.Ref.begin();
    for (const auto &[K, Val] : Got->V) {
      EXPECT_EQ(K, It->first);
      EXPECT_EQ(Val, It->second);
      ++It;
    }
  };

  for (int Op = 0; Op != 20000; ++Op) {
    uint64_t Roll = R.nextBelow(100);
    if (Lives.empty() || (Roll < 6 && Lives.size() < 48)) {
      // Spawn: reuse a freed slot when one exists, else a fresh one.
      uint32_t Slot;
      if (!Free.empty() && R.nextBelow(2) == 0) {
        Slot = Free.back();
        Free.pop_back();
      } else {
        Slot = NextSlot++;
      }
      Lives.push_back({Slab.acquire(Slot), {}});
      // A reacquired slot starts empty even though the record is reused.
      CheckEqual(Lives.back());
    } else if (Roll < 10 && Lives.size() > 1) {
      // Crash: release a random tenant; its handle must go stale once the
      // slot is reacquired.
      size_t I = static_cast<size_t>(R.nextBelow(Lives.size()));
      Free.push_back(Lives[I].H.Slot);
      Stale.push_back(Lives[I].H);
      Lives.erase(Lives.begin() + static_cast<long>(I));
    } else if (Roll < 16 && Lives.size() > 1) {
      // Merge a random other record in, one emplace per entry.
      size_t A = static_cast<size_t>(R.nextBelow(Lives.size()));
      size_t B = static_cast<size_t>(R.nextBelow(Lives.size()));
      if (A != B) {
        View &Into = Slab.at(Lives[A].H).V;
        for (const auto &[K, Val] : Slab.at(Lives[B].H).V)
          Into.emplace(K, Val);
        for (const auto &[K, Val] : Lives[B].Ref)
          Lives[A].Ref.emplace(K, Val); // Resident wins in both.
        CheckEqual(Lives[A]);
      }
    } else {
      Live &L = Lives[static_cast<size_t>(R.nextBelow(Lives.size()))];
      uint32_t Key = static_cast<uint32_t>(R.nextBelow(64));
      uint64_t Kind = R.nextBelow(4);
      View &V = Slab.at(L.H).V;
      if (Kind == 0) {
        auto [It, New] = V.emplace(Key, Roll);
        auto [RIt, RNew] = L.Ref.emplace(Key, Roll);
        EXPECT_EQ(New, RNew);
        EXPECT_EQ(It->second, RIt->second);
      } else if (Kind == 1) {
        V[Key] = Roll;
        L.Ref[Key] = Roll;
      } else if (Kind == 2) {
        EXPECT_EQ(V.erase(Key), L.Ref.erase(Key));
      } else {
        EXPECT_EQ(V.contains(Key), L.Ref.count(Key) == 1);
        EXPECT_EQ(V.count(Key), L.Ref.count(Key));
      }
      if (Op % 7 == 0)
        CheckEqual(L);
    }
  }
  for (const Live &L : Lives)
    CheckEqual(L);
  // Stale handles answer null exactly when their slot was reacquired.
  for (const SlabHandle &H : Stale) {
    bool Reacquired = false;
    for (const Live &L : Lives)
      Reacquired |= L.H.Slot == H.Slot;
    if (Reacquired) {
      EXPECT_EQ(Slab.find(H), nullptr);
    }
  }
}
