//===- MembershipTest.cpp - heartbeat membership detector tests ----------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// These tests wire the overlay as a *pure topology provider* (no membership
// hooks): a crashed process stays in the graph, exactly because crashes are
// silent and no oracle removes the node — detecting the silence is the
// detector's whole job. (DynamicOverlay::attachTo(), used elsewhere, is the
// idealized membership oracle; here we deliberately do without it.)
//
//===----------------------------------------------------------------------===//

#include "dyndist/core/Membership.h"

#include "TraceTestUtil.h"
#include "dyndist/graph/Generators.h"
#include "dyndist/graph/Overlay.h"

#include <gtest/gtest.h>

using namespace dyndist;

namespace {

struct DetectorRun {
  Simulator S;
  DynamicOverlay Overlay;
  std::shared_ptr<MembershipConfig> Config;
  std::vector<ProcessId> Pids;
  std::vector<MembershipActor *> Actors;

  DetectorRun(size_t N, uint64_t Seed = 1)
      : S(Seed), Overlay(2, Rng(Seed + 1)),
        Config(std::make_shared<MembershipConfig>()) {
    // Topology only — no hooks: the overlay does not learn about crashes.
    S.setTopologyProvider(&Overlay);
    Graph G = makeComplete(N);
    for (size_t I = 0; I != N; ++I) {
      auto Owned = std::make_unique<MembershipActor>(Config);
      Actors.push_back(Owned.get());
      Pids.push_back(S.spawn(std::move(Owned)));
    }
    Overlay.seed(std::move(G));
  }
};

} // namespace

TEST(Membership, AccurateUnderSynchronousLatency) {
  DetectorRun Run(6);
  RunLimits L;
  L.MaxTime = 200;
  Run.S.run(L);
  // Nobody failed: no suspicion ever.
  EXPECT_TRUE(observationsOf(Run.S.trace(), MemberSuspectKey).empty());
  for (MembershipActor *A : Run.Actors)
    EXPECT_TRUE(A->suspected().empty());
}

TEST(Membership, CompleteAfterACrash) {
  DetectorRun Run(6);
  ProcessId Victim = Run.Pids[2];
  Run.S.scheduleAt(50, [Victim](Simulator &Sim) { Sim.crash(Victim); });
  RunLimits L;
  L.MaxTime = 300;
  Run.S.run(L);

  // Every live process suspects the victim...
  for (size_t I = 0; I != Run.Pids.size(); ++I) {
    if (Run.Pids[I] == Victim)
      continue;
    EXPECT_TRUE(Run.Actors[I]->suspected().count(Victim))
        << "process " << Run.Pids[I];
  }
  // ...and did so within one timeout plus one heartbeat period.
  SimTime Deadline =
      50 + Run.Config->SuspectAfter + 2 * Run.Config->HeartbeatEvery + 2;
  auto Suspicions = observationsOf(Run.S.trace(), MemberSuspectKey);
  ASSERT_EQ(Suspicions.size(), 5u);
  for (const TraceRecord &E : Suspicions) {
    EXPECT_EQ(static_cast<ProcessId>(E.Value), Victim);
    EXPECT_LE(E.Time, Deadline);
  }
  // Nobody suspects anyone else.
  for (size_t I = 0; I != Run.Pids.size(); ++I) {
    if (Run.Pids[I] == Victim)
      continue;
    EXPECT_EQ(Run.Actors[I]->suspected().size(), 1u);
  }
}

TEST(Membership, MultipleCrashesAllDetected) {
  DetectorRun Run(8, 3);
  Run.S.scheduleAt(40, [&Run](Simulator &Sim) { Sim.crash(Run.Pids[0]); });
  Run.S.scheduleAt(90, [&Run](Simulator &Sim) { Sim.crash(Run.Pids[5]); });
  RunLimits L;
  L.MaxTime = 400;
  Run.S.run(L);
  for (size_t I = 0; I != Run.Pids.size(); ++I) {
    if (I == 0 || I == 5)
      continue;
    EXPECT_TRUE(Run.Actors[I]->suspected().count(Run.Pids[0]));
    EXPECT_TRUE(Run.Actors[I]->suspected().count(Run.Pids[5]));
    EXPECT_EQ(Run.Actors[I]->suspected().size(), 2u);
  }
}

TEST(Membership, GracefulLeaveWithOverlayRepairIsForgotten) {
  // When the overlay *is* told about a departure (a graceful leave routed
  // through the patch rule), the departed process stops being a neighbor
  // and is forgotten rather than suspected.
  DetectorRun Run(6, 5);
  ProcessId Leaver = Run.Pids[1];
  Run.S.scheduleAt(50, [&Run, Leaver](Simulator &Sim) {
    Sim.leave(Leaver);
    Run.Overlay.leave(Leaver); // The leave is announced to the overlay.
  });
  RunLimits L;
  L.MaxTime = 300;
  Run.S.run(L);
  EXPECT_TRUE(observationsOf(Run.S.trace(), MemberSuspectKey).empty());
  for (size_t I = 0; I != Run.Pids.size(); ++I) {
    if (Run.Pids[I] == Leaver)
      continue;
    EXPECT_TRUE(Run.Actors[I]->suspected().empty());
  }
}

TEST(Membership, HeavyTailLatencyOnlyEventuallyAccurate) {
  // Under heavy-tailed delays some heartbeat eventually exceeds any fixed
  // timeout: false suspicions happen, and later heartbeats lift them.
  Simulator S(11);
  S.setLatencyModel(std::make_unique<HeavyTailLatency>(1, 0.5, 500));
  DynamicOverlay O(2, Rng(12));
  S.setTopologyProvider(&O);
  auto Cfg = std::make_shared<MembershipConfig>();
  Cfg->HeartbeatEvery = 6;
  Cfg->SuspectAfter = 15;
  Graph G = makeComplete(5);
  for (size_t I = 0; I != 5; ++I)
    S.spawn(std::make_unique<MembershipActor>(Cfg));
  O.seed(std::move(G));
  RunLimits L;
  L.MaxTime = 8000;
  S.run(L);

  size_t FalseSuspicions = S.trace().countKind(TraceKind::Observe);
  auto Suspects = observationsOf(S.trace(), MemberSuspectKey);
  auto Restores = observationsOf(S.trace(), MemberRestoreKey);
  (void)FalseSuspicions;
  EXPECT_GT(Suspects.size(), 0u); // Accuracy is lost...
  EXPECT_GT(Restores.size(), 0u); // ...but suspicion is not permanent.
  // Eventual accuracy in the run: restores keep pace with suspicions
  // (every suspicion of a live process is eventually lifted; at most the
  // final in-flight ones may remain).
  EXPECT_GE(Restores.size() + 5, Suspects.size());
}

TEST(Membership, LiveViewExcludesSuspects) {
  // Drive the actor directly through a scripted context-free scenario:
  // after a crash, liveView() drops the victim while neighbors() (the raw
  // overlay view) still lists it.
  DetectorRun Run(4, 13);
  ProcessId Victim = Run.Pids[3];
  Run.S.scheduleAt(30, [Victim](Simulator &Sim) { Sim.crash(Victim); });

  // Probe liveView from inside an actor hook at the end of the run: use a
  // scheduled action that sends one more heartbeat round and then checks.
  RunLimits L;
  L.MaxTime = 200;
  Run.S.run(L);
  ASSERT_TRUE(Run.Actors[0]->suspected().count(Victim));
  // The overlay still believes the victim is a neighbor (no hooks), so the
  // detector's opinion is the only thing separating them.
  EXPECT_TRUE(Run.Overlay.graph().hasNode(Victim));
}

namespace {

/// Probes MembershipActor::liveView from inside a hook (Context is only
/// valid there): an auxiliary actor asks the detector for its view via a
/// direct call scheduled through its own timer.
class ViewProbe : public MembershipActor {
public:
  explicit ViewProbe(std::shared_ptr<const MembershipConfig> Config)
      : MembershipActor(std::move(Config)) {}

  void onTimer(Context &Ctx, TimerId Id) override {
    MembershipActor::onTimer(Ctx, Id);
    LastView = liveView(Ctx);
    LastRawNeighbors = Ctx.neighborCount();
  }

  std::vector<ProcessId> LastView;
  size_t LastRawNeighbors = 0;
};

} // namespace

TEST(Membership, LiveViewShrinksWhileRawNeighborsDoNot) {
  Simulator S(21);
  DynamicOverlay O(2, Rng(22));
  S.setTopologyProvider(&O); // No hooks: crashes stay in the graph.
  auto Cfg = std::make_shared<MembershipConfig>();
  Graph G = makeComplete(5);
  auto Probe = std::make_unique<ViewProbe>(Cfg);
  ViewProbe *P = Probe.get();
  S.spawn(std::move(Probe));
  std::vector<ProcessId> Others;
  for (int I = 0; I != 4; ++I)
    Others.push_back(S.spawn(std::make_unique<MembershipActor>(Cfg)));
  O.seed(std::move(G));
  S.scheduleAt(40, [&Others](Simulator &Sim) { Sim.crash(Others[1]); });
  RunLimits L;
  L.MaxTime = 200;
  S.run(L);
  // The raw overlay still lists 4 neighbors; the detector's view has 3.
  EXPECT_EQ(P->LastRawNeighbors, 4u);
  EXPECT_EQ(P->LastView.size(), 3u);
  for (ProcessId N : P->LastView)
    EXPECT_NE(N, Others[1]);
}
