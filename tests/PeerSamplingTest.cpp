//===- PeerSamplingTest.cpp - partial-view shuffling tests ---------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/core/PeerSampling.h"
#include "dyndist/arrival/Churn.h"
#include "dyndist/graph/Algorithms.h"
#include "dyndist/graph/Generators.h"
#include "dyndist/graph/Overlay.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

using namespace dyndist;

namespace {

/// Builds the directed union graph of all live actors' views (as an
/// undirected Graph for the connectivity analysis).
Graph viewGraph(const Simulator &S,
                const std::map<ProcessId, PeerSamplingActor *> &Actors) {
  Graph G;
  for (const auto &[P, A] : Actors) {
    (void)A;
    if (S.isUp(P))
      G.addNode(P);
  }
  for (const auto &[P, A] : Actors) {
    if (!S.isUp(P))
      continue;
    for (const auto &[Peer, Age] : A->view()) {
      (void)Age;
      if (G.hasNode(Peer) && Peer != P)
        G.addEdge(P, Peer);
    }
  }
  return G;
}

} // namespace

TEST(PeerSampling, ViewsBoundedAndSelfFree) {
  auto Cfg = std::make_shared<PeerSamplingConfig>();
  Cfg->ViewSize = 5;
  Cfg->ShuffleSize = 3;

  Simulator S(3);
  DynamicOverlay O(3, Rng(4));
  O.attachTo(S);
  std::map<ProcessId, PeerSamplingActor *> Actors;
  for (int I = 0; I != 20; ++I) {
    auto Owned = std::make_unique<PeerSamplingActor>(Cfg);
    PeerSamplingActor *A = Owned.get();
    Actors[S.spawn(std::move(Owned))] = A;
  }
  RunLimits L;
  L.MaxTime = 500;
  S.run(L);

  for (const auto &[P, A] : Actors) {
    EXPECT_LE(A->view().size(), 5u);
    EXPECT_GE(A->view().size(), 1u) << "process " << P;
    EXPECT_FALSE(A->view().count(P)) << "self-pointer in view";
  }
}

TEST(PeerSampling, ViewGraphStaysConnectedStatically) {
  auto Cfg = std::make_shared<PeerSamplingConfig>();
  Simulator S(7);
  DynamicOverlay O(3, Rng(8));
  O.attachTo(S);
  std::map<ProcessId, PeerSamplingActor *> Actors;
  for (int I = 0; I != 24; ++I) {
    auto Owned = std::make_unique<PeerSamplingActor>(Cfg);
    PeerSamplingActor *A = Owned.get();
    Actors[S.spawn(std::move(Owned))] = A;
  }
  RunLimits L;
  L.MaxTime = 800;
  S.run(L);

  Graph G = viewGraph(S, Actors);
  EXPECT_TRUE(isConnected(G));
  // Well mixed: the union graph's diameter is small.
  auto D = diameter(G);
  ASSERT_TRUE(D.has_value());
  EXPECT_LE(*D, 6u);
}

TEST(PeerSampling, ViewsShuffleAwayFromBootstrapNeighbors) {
  // After enough rounds a node's view should contain peers it was never
  // introduced to by the overlay — knowledge spreads by shuffling.
  auto Cfg = std::make_shared<PeerSamplingConfig>();
  Cfg->ViewSize = 4;
  Simulator S(11);
  DynamicOverlay O(2, Rng(12));
  O.attachTo(S);
  std::map<ProcessId, PeerSamplingActor *> Actors;
  for (int I = 0; I != 24; ++I) {
    auto Owned = std::make_unique<PeerSamplingActor>(Cfg);
    PeerSamplingActor *A = Owned.get();
    Actors[S.spawn(std::move(Owned))] = A;
  }
  // Freeze the bootstrap topology: a ring, so each node knows only 2.
  O.seed(makeRing(24));
  RunLimits L;
  L.MaxTime = 1000;
  S.run(L);

  size_t NodesWithForeigners = 0;
  for (const auto &[P, A] : Actors) {
    bool Foreign = false;
    for (const auto &[Peer, Age] : A->view()) {
      (void)Age;
      // Ring neighbors of P are P±1 mod 24.
      if (Peer != (P + 1) % 24 && Peer != (P + 23) % 24)
        Foreign = true;
    }
    NodesWithForeigners += Foreign;
  }
  EXPECT_GT(NodesWithForeigners, 20u);
}

TEST(PeerSampling, DeadPeersAgeOutUnderChurn) {
  auto Cfg = std::make_shared<PeerSamplingConfig>();
  Cfg->ViewSize = 5;
  Cfg->ShuffleEvery = 6;

  Simulator S(13);
  DynamicOverlay O(3, Rng(14));
  O.attachTo(S);
  auto Actors = std::make_shared<std::map<ProcessId, PeerSamplingActor *>>();
  auto Factory = [Cfg, Actors]() -> std::unique_ptr<Actor> {
    auto Owned = std::make_unique<PeerSamplingActor>(Cfg);
    // Registered post-spawn via the simulator's id; track by pointer and
    // fix up below (ids assigned in spawn order).
    Actors->emplace(Actors->size(), Owned.get());
    return Owned;
  };
  ChurnParams P;
  P.JoinRate = 0.15;
  P.MeanSession = 150;
  P.Horizon = 600;
  ChurnDriver Driver(ArrivalModel::infiniteArrival(), P, Factory, Rng(15));
  Driver.populateInitial(S, 16);
  Driver.start(S);
  RunLimits L;
  L.MaxTime = 900; // 300 ticks of quiet after churn ends.
  S.run(L);

  // Among live actors, views must be mostly live references: dead entries
  // age out within a few shuffle periods of quiet.
  size_t LiveEntries = 0, TotalEntries = 0;
  for (const auto &[Id, A] : *Actors) {
    if (!S.isUp(Id))
      continue;
    for (const auto &[Peer, Age] : A->view()) {
      (void)Age;
      ++TotalEntries;
      LiveEntries += S.isUp(Peer);
    }
  }
  ASSERT_GT(TotalEntries, 0u);
  double LiveFraction = double(LiveEntries) / double(TotalEntries);
  EXPECT_GT(LiveFraction, 0.85) << LiveEntries << "/" << TotalEntries;
}

TEST(PeerSampling, IsolatedNodeRebootstrapsFromOverlay) {
  auto Cfg = std::make_shared<PeerSamplingConfig>();
  Cfg->ViewSize = 3;
  Simulator S(17);
  DynamicOverlay O(2, Rng(18));
  O.attachTo(S);
  // One node joins alone: empty view; a second node joins later and the
  // first must discover it via the overlay fallback.
  auto OwnedA = std::make_unique<PeerSamplingActor>(Cfg);
  PeerSamplingActor *A = OwnedA.get();
  S.spawn(std::move(OwnedA));
  EXPECT_TRUE(A->view().empty());
  S.scheduleAt(20, [Cfg](Simulator &Sim) {
    Sim.spawn(std::make_unique<PeerSamplingActor>(Cfg));
  });
  RunLimits L;
  L.MaxTime = 200;
  S.run(L);
  EXPECT_EQ(A->view().size(), 1u);
  EXPECT_TRUE(A->view().count(1));
}

TEST(PeerSampling, CrashedActorKeepsItsViewAfterReplacement) {
  // An actor's view is its own member: crashing it freezes the view, and
  // a replacement spawned from the same factory leaves it untouched.
  auto Cfg = std::make_shared<PeerSamplingConfig>();
  auto Factory = makePeerSamplingFactory(Cfg);
  Simulator S(19);
  DynamicOverlay O(3, Rng(20));
  O.attachTo(S);
  std::vector<PeerSamplingActor *> Actors;
  for (int I = 0; I != 12; ++I) {
    auto Owned = Factory();
    Actors.push_back(static_cast<PeerSamplingActor *>(Owned.get()));
    S.spawn(std::move(Owned));
  }
  using Entries = std::vector<std::pair<ProcessId, uint64_t>>;
  const ProcessId Victim = 5;
  Entries AtCrash;
  PeerSamplingActor *Replacement = nullptr;
  S.scheduleAt(100, [&](Simulator &Sim) {
    const auto &View = Actors[Victim]->view();
    AtCrash.assign(View.begin(), View.end());
    Sim.crash(Victim);
    auto Owned = Factory();
    Replacement = static_cast<PeerSamplingActor *>(Owned.get());
    Sim.spawn(std::move(Owned));
  });
  RunLimits L;
  L.MaxTime = 300;
  S.run(L);

  ASSERT_FALSE(AtCrash.empty());
  ASSERT_NE(Replacement, nullptr);
  EXPECT_FALSE(Replacement->view().empty());
  const auto &After = Actors[Victim]->view();
  EXPECT_EQ(Entries(After.begin(), After.end()), AtCrash);
}
