//===- GraphTest.cpp - dyndist_graph unit tests --------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/graph/Algorithms.h"
#include "dyndist/graph/Generators.h"
#include "dyndist/graph/Overlay.h"

#include "GraphTestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

using namespace dyndist;

TEST(Graph, AddRemoveNodesAndEdges) {
  Graph G;
  EXPECT_TRUE(G.addNode(1));
  EXPECT_FALSE(G.addNode(1));
  G.addNode(2);
  G.addNode(3);
  EXPECT_TRUE(G.addEdge(1, 2));
  EXPECT_FALSE(G.addEdge(2, 1)); // Undirected: already present.
  EXPECT_EQ(G.edgeCount(), 1u);
  EXPECT_TRUE(G.hasEdge(2, 1));
  EXPECT_EQ(G.degree(1), 1u);

  EXPECT_TRUE(G.removeEdge(1, 2));
  EXPECT_FALSE(G.removeEdge(1, 2));
  EXPECT_EQ(G.edgeCount(), 0u);
  EXPECT_TRUE(G.checkConsistency());
}

TEST(Graph, RemoveNodeDropsIncidentEdges) {
  Graph G;
  for (ProcessId P : {1, 2, 3, 4})
    G.addNode(P);
  G.addEdge(1, 2);
  G.addEdge(1, 3);
  G.addEdge(2, 3);
  EXPECT_TRUE(G.removeNode(1));
  EXPECT_EQ(G.edgeCount(), 1u);
  EXPECT_FALSE(G.hasEdge(1, 2));
  EXPECT_TRUE(G.hasEdge(2, 3));
  EXPECT_TRUE(G.checkConsistency());
  EXPECT_FALSE(G.removeNode(1));
}

TEST(Graph, NeighborsSortedAndQueries) {
  Graph G;
  for (ProcessId P : {5, 1, 9, 3})
    G.addNode(P);
  G.addEdge(5, 9);
  G.addEdge(5, 1);
  G.addEdge(5, 3);
  EXPECT_EQ(neighborList(G, 5), (std::vector<ProcessId>{1, 3, 9}));
  EXPECT_EQ(neighborList(G, 42), std::vector<ProcessId>{});
  EXPECT_EQ(nodeList(G), (std::vector<ProcessId>{1, 3, 5, 9}));
}

TEST(Graph, EpochBumpsOnEverySuccessfulMutation) {
  Graph G;
  uint64_t Last = G.epoch();
  // Expects \p Changed iff the epoch moved since the previous check.
  auto Moved = [&](bool Changed, const char *What) {
    uint64_t Now = G.epoch();
    if (Changed)
      EXPECT_GT(Now, Last) << What;
    else
      EXPECT_EQ(Now, Last) << What;
    Last = Now;
  };
  EXPECT_TRUE(G.addNode(1));
  Moved(true, "add node");
  EXPECT_FALSE(G.addNode(1));
  Moved(false, "add present node");
  G.addNode(2);
  G.addNode(3);
  Moved(true, "add two nodes");
  EXPECT_TRUE(G.addEdge(1, 2));
  Moved(true, "add edge");
  EXPECT_FALSE(G.addEdge(2, 1));
  Moved(false, "add present edge");
  EXPECT_TRUE(G.removeEdge(1, 2));
  Moved(true, "remove edge");
  EXPECT_FALSE(G.removeEdge(1, 2));
  EXPECT_FALSE(G.removeEdge(1, 9));
  Moved(false, "remove absent edges");
  G.addEdge(2, 3);
  Moved(true, "add edge");
  const ProcessId Targets[] = {3, 1};
  G.addNodeWithEdges(4, Targets);
  Moved(true, "add node with edges");
  G.addNodeWithEdges(5, {});
  Moved(true, "add node with no edges");
  EXPECT_TRUE(G.removeNode(4) && G.removeNode(5));
  Moved(true, "remove nodes");
  EXPECT_TRUE(G.removeNode(3)); // Drops edge {2, 3} too.
  Moved(true, "remove node");
  EXPECT_FALSE(G.removeNode(3));
  EXPECT_FALSE(G.removeNode(77));
  Moved(false, "remove absent nodes");
  EXPECT_TRUE(G.hasNode(2) && !G.hasEdge(1, 3) && G.degree(2) == 0);
  Moved(false, "queries");
  G.clear();
  Moved(true, "clear");
  G.clear();
  Moved(true, "clear an empty graph");

  // A copy starts at its source's epoch; assigning into a graph moves its
  // epoch past every value it showed before, whatever the source's value.
  Graph Other;
  Other.addNode(5);
  Graph Copy(Other);
  EXPECT_EQ(Copy.epoch(), Other.epoch());
  uint64_t Before = G.epoch();
  G = Other;
  EXPECT_GT(G.epoch(), std::max(Before, Other.epoch()));
  Last = G.epoch();
  G = Graph();
  Moved(true, "move-assign a fresh graph");
  EXPECT_EQ(G.nodeCount(), 0u);
}

// addNodeWithEdges() equals addNode() plus one addEdge() per target, for
// targets in any order and for a newcomer whose id is above, below or
// between the ids already present.
TEST(Graph, AddNodeWithEdgesMatchesAddEdgeLoop) {
  const std::vector<ProcessId> Base = {2, 4, 6, 8, 10};
  const std::vector<std::pair<ProcessId, std::vector<ProcessId>>> Joins = {
      {20, {8, 2, 6}}, {1, {10, 4}}, {7, {20, 1, 6, 2}}, {0, {}}, {9, {7}}};
  Graph Fast, Ref;
  for (ProcessId P : Base) {
    Fast.addNode(P);
    Ref.addNode(P);
  }
  for (const auto &[P, Targets] : Joins) {
    Fast.addNodeWithEdges(P, Targets);
    Ref.addNode(P);
    for (ProcessId T : Targets)
      Ref.addEdge(P, T);
    EXPECT_EQ(nodeList(Fast), nodeList(Ref)) << P;
    for (ProcessId Q : Ref.nodesView())
      EXPECT_EQ(neighborList(Fast, Q), neighborList(Ref, Q)) << P << " " << Q;
    EXPECT_EQ(Fast.edgeCount(), Ref.edgeCount()) << P;
    EXPECT_TRUE(Fast.checkConsistency()) << P;
  }
}

// Node and neighbor lists stay sorted and duplicate-free whether ids
// arrive ascending (the append fast path), descending, or repeated.
TEST(Graph, SortedInsertAscendingDescendingAndDuplicate) {
  const std::vector<ProcessId> Ascending = {0, 1, 2, 7, 8, 20};
  const std::vector<ProcessId> Descending(Ascending.rbegin(),
                                          Ascending.rend());
  const std::vector<ProcessId> Mixed = {8, 20, 0, 20, 7, 0, 1, 2, 8};
  for (const auto *Order : {&Ascending, &Descending, &Mixed}) {
    Graph G;
    std::set<ProcessId> Seen;
    for (ProcessId P : *Order)
      EXPECT_EQ(G.addNode(P), Seen.insert(P).second) << P;
    EXPECT_EQ(nodeList(G), Ascending);
    // Hub 100 joins after every other id, then links to them in the same
    // order: its neighbor list grows through the same three patterns.
    G.addNode(100);
    Seen.clear();
    for (ProcessId P : *Order)
      EXPECT_EQ(G.addEdge(100, P), Seen.insert(P).second) << P;
    EXPECT_EQ(neighborList(G, 100), Ascending);
    EXPECT_EQ(neighborList(G, 0), std::vector<ProcessId>{100});
    EXPECT_EQ(G.edgeCount(), Ascending.size());
    EXPECT_TRUE(G.checkConsistency());
  }
}

TEST(Algorithms, ConnectivityAndComponents) {
  Graph G;
  for (ProcessId P : {0, 1, 2, 3, 4})
    G.addNode(P);
  G.addEdge(0, 1);
  G.addEdge(2, 3);
  EXPECT_FALSE(isConnected(G));
  auto Comps = connectedComponents(G);
  ASSERT_EQ(Comps.size(), 3u);
  EXPECT_EQ(Comps[0], (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(Comps[1], (std::vector<ProcessId>{2, 3}));
  EXPECT_EQ(Comps[2], (std::vector<ProcessId>{4}));
  G.addEdge(1, 2);
  G.addEdge(3, 4);
  EXPECT_TRUE(isConnected(G));
}

TEST(Algorithms, DiameterKnownTopologies) {
  EXPECT_EQ(diameter(makeRing(8)).value(), 4u);
  EXPECT_EQ(diameter(makeRing(9)).value(), 4u);
  EXPECT_EQ(diameter(makeLine(6)).value(), 5u);
  EXPECT_EQ(diameter(makeComplete(5)).value(), 1u);
  EXPECT_EQ(diameter(makeTorus(4, 4)).value(), 4u);
}

TEST(Algorithms, DiameterDisconnectedIsNull) {
  Graph G;
  G.addNode(0);
  G.addNode(1);
  EXPECT_FALSE(diameter(G).has_value());
  EXPECT_FALSE(eccentricity(G, 0).has_value());
}

TEST(Algorithms, EmptyGraphEdgeCases) {
  Graph G;
  EXPECT_TRUE(isConnected(G));
  EXPECT_FALSE(diameter(G).has_value());
  EXPECT_TRUE(connectedComponents(G).empty());
}

TEST(Algorithms, BallAroundMatchesTtlCoverage) {
  Graph G = makeLine(10);
  EXPECT_EQ(ballAround(G, 0, 0), (std::vector<ProcessId>{0}));
  EXPECT_EQ(ballAround(G, 0, 3), (std::vector<ProcessId>{0, 1, 2, 3}));
  EXPECT_EQ(ballAround(G, 5, 2).size(), 5u);
  EXPECT_EQ(ballAround(G, 0, 99).size(), 10u);
}

TEST(Generators, ErdosRenyiConnected) {
  Rng R(1);
  Graph G = makeErdosRenyi(50, 0.2, R);
  EXPECT_EQ(G.nodeCount(), 50u);
  EXPECT_TRUE(isConnected(G));
  EXPECT_TRUE(G.checkConsistency());
}

TEST(Generators, RandomRegularDegrees) {
  Rng R(2);
  Graph G = makeRandomRegular(20, 4, R);
  EXPECT_EQ(G.nodeCount(), 20u);
  for (ProcessId P : G.nodesView())
    EXPECT_EQ(G.degree(P), 4u);
  EXPECT_TRUE(isConnected(G));
}

TEST(Generators, BarabasiAlbertStructure) {
  Rng R(3);
  Graph G = makeBarabasiAlbert(60, 2, R);
  EXPECT_EQ(G.nodeCount(), 60u);
  EXPECT_TRUE(isConnected(G));
  // Seed clique of 3 plus 57 nodes x 2 links.
  EXPECT_EQ(G.edgeCount(), 3u + 57u * 2u);
  for (ProcessId P : G.nodesView())
    EXPECT_GE(G.degree(P), 2u);
}

TEST(Generators, GeometricConnected) {
  Rng R(4);
  Graph G = makeGeometric(40, 0.35, R);
  EXPECT_EQ(G.nodeCount(), 40u);
  EXPECT_TRUE(isConnected(G));
}

TEST(Generators, SmallDiameterOfRandomGraphs) {
  Rng R(5);
  Graph G = makeRandomRegular(64, 4, R);
  auto D = diameter(G);
  ASSERT_TRUE(D.has_value());
  EXPECT_LE(*D, 8u); // Expander-like: ~log(n).
}

TEST(Overlay, JoinLinksToTargetDegree) {
  DynamicOverlay O(3, Rng(1));
  for (ProcessId P = 0; P != 10; ++P)
    O.join(P);
  const Graph &G = O.graph();
  EXPECT_EQ(G.nodeCount(), 10u);
  EXPECT_TRUE(isConnected(G));
  // Every late joiner got exactly 3 links at join time (degree can only
  // grow afterwards).
  for (ProcessId P = 3; P != 10; ++P)
    EXPECT_GE(G.degree(P), 3u);
}

namespace {

/// A patched leave written edge by edge, as DynamicOverlay::leave did it
/// before Graph::spliceOut: one hasEdge/addEdge per adjacent pair of P's
/// sorted neighbors, then removeNode(P). The oracle spliceOut must equal.
void spliceOutEdgeByEdge(Graph &G, ProcessId P) {
  std::vector<ProcessId> Nbrs = neighborList(G, P);
  for (size_t I = 0; I + 1 < Nbrs.size(); ++I)
    if (!G.hasEdge(Nbrs[I], Nbrs[I + 1]))
      G.addEdge(Nbrs[I], Nbrs[I + 1]);
  G.removeNode(P);
}

/// The overlay's join and patch-path leave rules written edge by edge with
/// addNode/addEdge, drawing from its own copy of the overlay's stream: the
/// reference DynamicOverlay's one-step attach must reproduce.
struct ReferenceOverlay {
  size_t Degree;
  Rng R;
  AttachMode Mode;
  Graph G;
  ProcessId LastJoined = InvalidProcess;

  void join(ProcessId P) {
    std::vector<ProcessId> Members = nodeList(G);
    std::vector<ProcessId> Picks;
    if (Mode == AttachMode::Chain && !Members.empty()) {
      Picks.push_back(G.hasNode(LastJoined) ? LastJoined : Members.back());
    } else if (Members.size() <= Degree) {
      Picks = Members;
    } else {
      while (Picks.size() != Degree) {
        ProcessId T = Members[R.nextBelow(Members.size())];
        if (std::find(Picks.begin(), Picks.end(), T) == Picks.end())
          Picks.push_back(T);
      }
    }
    G.addNode(P);
    for (ProcessId T : Picks)
      G.addEdge(P, T);
    LastJoined = P;
  }

  void leave(ProcessId P) { spliceOutEdgeByEdge(G, P); }
};

} // namespace

// DynamicOverlay::join attaches in one Graph call; the result must equal
// the edge-by-edge reference — same adjacency, same edge count, the same
// random draws — in both attach modes, under churn, and for hand-driven
// joins whose ids sit below the ids already present.
TEST(Overlay, OneStepAttachMatchesEdgeByEdgeReference) {
  for (AttachMode Mode : {AttachMode::Random, AttachMode::Chain})
    for (size_t Degree : {1u, 3u, 5u})
      for (uint64_t Seed : {1u, 2u, 3u}) {
        DynamicOverlay O(Degree, Rng(Seed), Mode);
        ReferenceOverlay Ref{Degree, Rng(Seed), Mode, Graph()};
        Rng Ops(Seed + 100);
        // Ascending spawn ids from 1000; every fifth join takes a fresh
        // id below them (5, 10, 15, ...), so target lists also take
        // mid-list inserts.
        ProcessId NextHigh = 1000, NextLow = 5;
        for (int Step = 0; Step != 300; ++Step) {
          const std::vector<ProcessId> Nodes = nodeList(O.graph());
          if (Nodes.size() > 4 && Ops.nextBelow(3) == 0) {
            ProcessId Victim = Nodes[Ops.nextBelow(Nodes.size())];
            O.leave(Victim);
            Ref.leave(Victim);
          } else {
            ProcessId P = Step % 5 == 4 ? (NextLow += 5) : NextHigh++;
            O.join(P);
            Ref.join(P);
          }
          const Graph &G = O.graph();
          ASSERT_EQ(nodeList(G), nodeList(Ref.G)) << "step " << Step;
          for (ProcessId P : G.nodesView())
            ASSERT_EQ(neighborList(G, P), neighborList(Ref.G, P))
                << "step " << Step << " node " << P;
          ASSERT_EQ(G.edgeCount(), Ref.G.edgeCount()) << "step " << Step;
          ASSERT_TRUE(G.checkConsistency()) << "step " << Step;
        }
      }
}

// Graph::spliceOut(P) equals the edge-by-edge patched leave, step by step,
// over 600 seeded random sequences of addNode, addNodeWithEdges,
// removeNode, addEdge and patched leaves on a small id space. The extra
// edges leave some path links already present; the run must meet leavers
// of degree 0, 1 and 2, a partly linked path and an absent leaver (which
// returns false and leaves graph and epoch unchanged).
TEST(GraphSpliceOut, MatchesEdgeByEdgeReference) {
  size_t SeenDegree[3] = {0, 0, 0};
  size_t PartlyLinked = 0, Absent = 0, Splices = 0;
  for (uint64_t Case = 0; Case != 600; ++Case) {
    Rng R(Case);
    const ProcessId IdSpace = 6 + static_cast<ProcessId>(R.nextBelow(20));
    Graph G, Ref;
    for (int Step = 0; Step != 40; ++Step) {
      ProcessId P = static_cast<ProcessId>(R.nextBelow(IdSpace));
      uint64_t Before = G.epoch();
      bool Mutated = true;
      switch (R.nextBelow(6)) {
      case 0:
        Mutated = G.addNode(P);
        EXPECT_EQ(Ref.addNode(P), Mutated);
        break;
      case 1: { // Join linked to up to four distinct present members.
        if (G.hasNode(P)) {
          Mutated = false;
          break;
        }
        std::vector<ProcessId> Members = nodeList(G);
        R.shuffle(Members);
        Members.resize(std::min<size_t>(Members.size(), R.nextBelow(5)));
        G.addNodeWithEdges(P, Members);
        Ref.addNode(P);
        for (ProcessId T : Members)
          Ref.addEdge(P, T);
        break;
      }
      case 2:
        Mutated = G.removeNode(P);
        EXPECT_EQ(Ref.removeNode(P), Mutated);
        break;
      case 3: { // An extra edge: links some future leaver's path early.
        ProcessId Q = static_cast<ProcessId>(R.nextBelow(IdSpace));
        Mutated = P != Q && G.hasNode(P) && G.hasNode(Q) && G.addEdge(P, Q);
        if (Mutated)
          Ref.addEdge(P, Q);
        break;
      }
      default: { // Patched leave, twice as likely as the other steps.
        std::vector<ProcessId> Path = neighborList(Ref, P);
        size_t Linked = 0;
        for (size_t I = 0; I + 1 < Path.size(); ++I)
          Linked += Ref.hasEdge(Path[I], Path[I + 1]);
        bool Present = Ref.hasNode(P);
        spliceOutEdgeByEdge(Ref, P);
        Mutated = G.spliceOut(P);
        ASSERT_EQ(Mutated, Present) << "case " << Case << " step " << Step;
        if (!Present) {
          ++Absent;
          break;
        }
        ++Splices;
        if (Path.size() < 3)
          ++SeenDegree[Path.size()];
        PartlyLinked += Linked != 0 && Linked + 1 < Path.size();
        break;
      }
      }
      const std::string Where =
          "case " + std::to_string(Case) + " step " + std::to_string(Step);
      if (Mutated)
        ASSERT_GT(G.epoch(), Before) << Where;
      else
        ASSERT_EQ(G.epoch(), Before) << Where;
      ASSERT_EQ(nodeList(G), nodeList(Ref)) << Where;
      for (ProcessId Q : Ref.nodesView())
        ASSERT_EQ(neighborList(G, Q), neighborList(Ref, Q))
            << Where << " node " << Q;
      ASSERT_EQ(G.edgeCount(), Ref.edgeCount()) << Where;
      ASSERT_TRUE(G.checkConsistency()) << Where;
    }
  }
  EXPECT_GE(Splices, 500u);
  EXPECT_GT(SeenDegree[0], 0u);
  EXPECT_GT(SeenDegree[1], 0u);
  EXPECT_GT(SeenDegree[2], 0u);
  EXPECT_GT(PartlyLinked, 0u);
  EXPECT_GT(Absent, 0u);
}

TEST(Overlay, LeavePreservesConnectivity) {
  Rng R(7);
  DynamicOverlay O(2, Rng(2));
  for (ProcessId P = 0; P != 30; ++P)
    O.join(P);
  // Remove 20 random nodes; connectivity must survive every step.
  std::vector<ProcessId> Nodes = nodeList(O.graph());
  R.shuffle(Nodes);
  for (size_t I = 0; I != 20; ++I) {
    O.leave(Nodes[I]);
    EXPECT_TRUE(isConnected(O.graph())) << "after removing " << Nodes[I];
    EXPECT_TRUE(O.graph().checkConsistency());
  }
  EXPECT_EQ(O.graph().nodeCount(), 10u);
}

TEST(Overlay, ChainModeGrowsDiameterLinearly) {
  DynamicOverlay O(3, Rng(3), AttachMode::Chain);
  for (ProcessId P = 0; P != 40; ++P)
    O.join(P);
  auto D = diameter(O.graph());
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, 39u); // A pure chain.
}

TEST(Overlay, RandomModeKeepsDiameterSmall) {
  DynamicOverlay O(3, Rng(4));
  for (ProcessId P = 0; P != 100; ++P)
    O.join(P);
  auto D = diameter(O.graph());
  ASSERT_TRUE(D.has_value());
  EXPECT_LE(*D, 8u);
}

TEST(Overlay, SeedInstallsTopology) {
  DynamicOverlay O(2, Rng(5));
  O.seed(makeRing(6));
  EXPECT_EQ(O.graph().nodeCount(), 6u);
  EXPECT_EQ(neighborList(O.graph(), 0), (std::vector<ProcessId>{1, 5}));
}

TEST(Overlay, AttachToSimulatorTracksMembership) {
  Simulator S(1);
  DynamicOverlay O(2, Rng(6));
  O.attachTo(S);

  class Noop : public Actor {};
  ProcessId A = S.spawn(std::make_unique<Noop>());
  ProcessId B = S.spawn(std::make_unique<Noop>());
  ProcessId C = S.spawn(std::make_unique<Noop>());
  EXPECT_EQ(O.graph().nodeCount(), 3u);
  EXPECT_TRUE(isConnected(O.graph()));

  // Simulator neighbor queries route through the overlay.
  std::vector<ProcessId> Routed;
  S.forEachNeighbor(A, [&](ProcessId N) { Routed.push_back(N); });
  EXPECT_EQ(Routed, neighborList(O.graph(), A));

  S.crash(B);
  EXPECT_EQ(O.graph().nodeCount(), 2u);
  EXPECT_FALSE(O.graph().hasNode(B));
  EXPECT_TRUE(isConnected(O.graph()));
  (void)C;
}

TEST(Overlay, RandomRewireKeepsDegreesNearTarget) {
  DynamicOverlay O(3, Rng(7), AttachMode::Random, RepairMode::RandomRewire);
  Rng R(8);
  ProcessId Next = 0;
  for (size_t I = 0; I != 24; ++I)
    O.join(Next++);
  // Departure-heavy workload.
  for (int Step = 0; Step != 200; ++Step) {
    if (O.graph().nodeCount() <= 4 || R.nextBernoulli(0.45)) {
      O.join(Next++);
    } else {
      auto Nodes = nodeList(O.graph());
      O.leave(R.pick(Nodes));
    }
    ASSERT_TRUE(O.graph().checkConsistency());
  }
  // Mean degree stays near the target (the patch rule would inflate it).
  const Graph &G = O.graph();
  uint64_t Sum = 0;
  for (ProcessId P : G.nodesView())
    Sum += G.degree(P);
  double Mean = double(Sum) / double(G.nodeCount());
  EXPECT_LT(Mean, 5.0);
}

TEST(Overlay, RandomRewireCanDisconnectAtDegreeOne) {
  // The ablation's point: with one link per node, random rewiring has no
  // connectivity guarantee — across seeds a disconnection must occur.
  int Disconnections = 0;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    DynamicOverlay O(1, Rng(Seed), AttachMode::Random,
                     RepairMode::RandomRewire);
    Rng R(Seed * 7 + 1);
    ProcessId Next = 0;
    for (size_t I = 0; I != 16; ++I)
      O.join(Next++);
    for (int Step = 0; Step != 120 && !Disconnections; ++Step) {
      if (O.graph().nodeCount() <= 4 || R.nextBernoulli(0.45)) {
        O.join(Next++);
      } else {
        auto Nodes = nodeList(O.graph());
        O.leave(R.pick(Nodes));
      }
      if (!isConnected(O.graph()))
        ++Disconnections;
    }
  }
  EXPECT_GT(Disconnections, 0);
}

TEST(Algorithms, ArticulationPointsKnownShapes) {
  // Line: every interior node is a cut vertex.
  EXPECT_EQ(articulationPoints(makeLine(6)),
            (std::vector<ProcessId>{1, 2, 3, 4}));
  // Ring and complete graph: none.
  EXPECT_TRUE(articulationPoints(makeRing(8)).empty());
  EXPECT_TRUE(articulationPoints(makeComplete(6)).empty());
  // Star: the hub only.
  Graph Star;
  Star.addNode(0);
  for (ProcessId P = 1; P <= 5; ++P) {
    Star.addNode(P);
    Star.addEdge(0, P);
  }
  EXPECT_EQ(articulationPoints(Star), (std::vector<ProcessId>{0}));
  // Two triangles sharing vertex 2.
  Graph Bowtie;
  for (ProcessId P = 0; P <= 4; ++P)
    Bowtie.addNode(P);
  Bowtie.addEdge(0, 1);
  Bowtie.addEdge(1, 2);
  Bowtie.addEdge(2, 0);
  Bowtie.addEdge(2, 3);
  Bowtie.addEdge(3, 4);
  Bowtie.addEdge(4, 2);
  EXPECT_EQ(articulationPoints(Bowtie), (std::vector<ProcessId>{2}));
}

TEST(Algorithms, ArticulationPointsEdgeCases) {
  Graph Empty;
  EXPECT_TRUE(articulationPoints(Empty).empty());
  Graph One;
  One.addNode(7);
  EXPECT_TRUE(articulationPoints(One).empty());
  Graph Two;
  Two.addNode(1);
  Two.addNode(2);
  Two.addEdge(1, 2);
  EXPECT_TRUE(articulationPoints(Two).empty());
}

TEST(Algorithms, ArticulationPointsMatchBruteForce) {
  // Property: v is reported iff removing v increases the component count.
  Rng R(19);
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Graph G = makeErdosRenyi(18, 0.12, R, /*ForceConnected=*/false);
    auto Reported = articulationPoints(G);
    std::set<ProcessId> ReportedSet(Reported.begin(), Reported.end());
    size_t BaseComponents = connectedComponents(G).size();
    for (ProcessId V : G.nodesView()) {
      Graph Removed = G;
      bool Isolated = Removed.degree(V) == 0;
      Removed.removeNode(V);
      size_t After = connectedComponents(Removed).size();
      // Removing V also removes one (possibly empty) component slot when V
      // was isolated; normalize.
      size_t Expected = Isolated ? BaseComponents - 1 : BaseComponents;
      bool IsCut = After > Expected;
      EXPECT_EQ(IsCut, ReportedSet.count(V) != 0)
          << "seed " << Seed << " vertex " << V;
    }
  }
}

TEST(Graph, RandomizedMutationsMatchReferenceModel) {
  // Property: under arbitrary interleavings of add/remove node/edge, the
  // slot-indexed graph behaves exactly like the obvious map/set model, and
  // its structural invariants (including free-list/slot bookkeeping) hold
  // after every single step.
  Rng R(0xfeedULL);
  std::map<ProcessId, std::set<ProcessId>> Model;
  Graph G;
  size_t ModelEdges = 0;
  constexpr ProcessId IdSpace = 24; // Small id space => dense interleaving.

  for (size_t Step = 0; Step != 4000; ++Step) {
    ProcessId A = R.nextBelow(IdSpace);
    ProcessId B = R.nextBelow(IdSpace);
    switch (R.nextBelow(4)) {
    case 0: { // addNode
      bool Added = G.addNode(A);
      EXPECT_EQ(Added, Model.emplace(A, std::set<ProcessId>()).second);
      break;
    }
    case 1: { // removeNode
      auto It = Model.find(A);
      bool Existed = It != Model.end();
      if (Existed) {
        for (ProcessId N : It->second) {
          Model[N].erase(A);
          --ModelEdges;
        }
        Model.erase(It);
      }
      EXPECT_EQ(G.removeNode(A), Existed);
      break;
    }
    case 2: { // addEdge (only when legal: both present, no self-loop)
      if (A == B || !Model.count(A) || !Model.count(B))
        break;
      bool Added = Model[A].insert(B).second;
      Model[B].insert(A);
      if (Added)
        ++ModelEdges;
      EXPECT_EQ(G.addEdge(A, B), Added);
      break;
    }
    case 3: { // removeEdge
      bool Existed = Model.count(A) && Model[A].erase(B);
      if (Existed) {
        Model[B].erase(A);
        --ModelEdges;
      }
      EXPECT_EQ(G.removeEdge(A, B), Existed);
      break;
    }
    }

    ASSERT_TRUE(G.checkConsistency()) << "after step " << Step;
    ASSERT_EQ(G.nodeCount(), Model.size()) << "after step " << Step;
    ASSERT_EQ(G.edgeCount(), ModelEdges) << "after step " << Step;

    // Full observable-state comparison every few steps (it is O(V + E)).
    if (Step % 16 != 0)
      continue;
    std::vector<ProcessId> ModelNodes;
    for (const auto &[P, Nbrs] : Model)
      ModelNodes.push_back(P);
    ASSERT_EQ(nodeList(G), ModelNodes) << "after step " << Step;
    for (const auto &[P, Nbrs] : Model) {
      std::vector<ProcessId> Expected(Nbrs.begin(), Nbrs.end());
      ASSERT_EQ(neighborList(G, P), Expected) << "node " << P;
      ASSERT_EQ(G.degree(P), Nbrs.size()) << "node " << P;
      NeighborView View = G.neighborView(P);
      ASSERT_TRUE(std::equal(View.begin(), View.end(), Expected.begin(),
                             Expected.end()))
          << "view of node " << P;
      size_t Visited = 0;
      G.forEachNeighbor(P, [&](ProcessId N) {
        ASSERT_EQ(N, Expected[Visited++]);
      });
      ASSERT_EQ(Visited, Expected.size()) << "node " << P;
    }
  }
}

TEST(Graph, SlotRecyclingKeepsDenseIndexConsistent) {
  // Churn the same small population so departures' slots get recycled, and
  // check the dense-index surface (slotOf/slotId/slotNeighbors) stays in
  // sync with the id surface.
  Graph G;
  for (ProcessId P = 0; P != 8; ++P)
    G.addNode(P);
  for (ProcessId P = 0; P + 1 != 8; ++P)
    G.addEdge(P, P + 1);
  for (int Round = 0; Round != 50; ++Round) {
    ProcessId Victim = static_cast<ProcessId>(Round % 8);
    G.removeNode(Victim);
    EXPECT_EQ(G.slotOf(Victim), Graph::NoSlot);
    G.addNode(Victim);
    for (ProcessId P = 0; P != 8; ++P)
      if (P != Victim && !G.hasEdge(Victim, P) && (P + Victim) % 3 == 0)
        G.addEdge(Victim, P);
    ASSERT_TRUE(G.checkConsistency()) << "round " << Round;
    for (ProcessId P : G.nodesView()) {
      uint32_t S = G.slotOf(P);
      ASSERT_NE(S, Graph::NoSlot);
      ASSERT_LT(S, G.slotTableSize());
      ASSERT_EQ(G.slotId(S), P);
      NeighborView Dense = G.slotNeighbors(S);
      NeighborView ById = G.neighborView(P);
      ASSERT_TRUE(std::equal(Dense.begin(), Dense.end(), ById.begin(),
                             ById.end()));
    }
  }
  // slotTableSize never exceeds the peak population: slots are recycled.
  EXPECT_EQ(G.slotTableSize(), 8u);
}

namespace {

Graph makeStar(size_t N) {
  Graph G;
  for (ProcessId P = 0; P != N; ++P)
    G.addNode(P);
  for (ProcessId P = 1; P < N; ++P)
    G.addEdge(0, P);
  return G;
}

Graph makeRandomTree(size_t N, Rng &R) {
  Graph G;
  for (ProcessId P = 0; P != N; ++P) {
    G.addNode(P);
    if (P != 0)
      G.addEdge(P, static_cast<ProcessId>(R.nextBelow(P)));
  }
  return G;
}

/// Removes a random third of the nodes, then re-adds all but one of them
/// with fresh random edges: recycled slots leave slot order different from
/// id order, and one freed slot stays a hole in the slot table.
void punchSlotHoles(Graph &G, Rng &R) {
  std::vector<ProcessId> Nodes = nodeList(G);
  std::vector<ProcessId> Gone;
  for (ProcessId P : Nodes)
    if (R.nextBelow(3) == 0 && G.removeNode(P))
      Gone.push_back(P);
  if (!Gone.empty())
    Gone.pop_back();
  // Free slots are reused last-in first-out, so re-adding in ascending id
  // order hands the smallest id the slot of the largest.
  std::vector<ProcessId> Present = nodeList(G);
  for (ProcessId P : Gone) {
    G.addNode(P);
    for (int Link = 0; Link != 2 && !Present.empty(); ++Link) {
      ProcessId Peer = R.pick(Present);
      if (!G.hasEdge(P, Peer))
        G.addEdge(P, Peer);
    }
    Present.push_back(P);
  }
}

/// A graph of diameter 4 whose 4-sweep from node 0 bounds it at 3 from
/// below, with two nodes at the centre's depth.
Graph makeUnderestimated() {
  Graph G;
  for (ProcessId P = 0; P != 9; ++P)
    G.addNode(P);
  for (auto [A, B] : {std::pair<ProcessId, ProcessId>{0, 4}, {0, 6}, {0, 7},
                      {1, 2}, {1, 5}, {1, 7}, {1, 8}, {3, 5}, {4, 5}, {6, 8}})
    G.addEdge(A, B);
  return G;
}

/// \p G with its node ids replaced by a random permutation of sparse ids
/// above 10^5, so that id order and node ranks follow no pattern of \p G.
Graph withSparseIds(const Graph &G, Rng &R) {
  std::vector<ProcessId> Ids;
  for (size_t I = 0; I != G.nodeCount(); ++I)
    Ids.push_back(100003 + 7919 * static_cast<ProcessId>(I));
  for (size_t I = Ids.size(); I > 1; --I)
    std::swap(Ids[I - 1], Ids[R.nextBelow(I)]);
  std::map<ProcessId, ProcessId> To;
  for (ProcessId P : G.nodesView())
    To.emplace(P, Ids[To.size()]);
  Graph Out;
  for (ProcessId P : G.nodesView())
    Out.addNode(To[P]);
  for (ProcessId P : G.nodesView())
    for (ProcessId Q : G.neighborView(P))
      if (P < Q)
        Out.addEdge(To[P], To[Q]);
  return Out;
}

/// Calls \p Check(Name, G) on every graph of the diameter corpus: fixed
/// topologies, small dense random draws, random trees and G(n, p) draws
/// (some split, some with slot holes), and churned overlays sampled the way
/// the admissibility monitor samples them. Stops at the first fatal
/// failure \p Check raises.
template <typename Fn> void forEachDiameterCase(Fn &&Check) {
  auto Run = [&](const std::string &Name, const Graph &G) {
    if (!::testing::Test::HasFatalFailure())
      Check(Name, G);
  };
  Run("empty", Graph());
  for (size_t N : {1, 2, 3, 7, 8, 63, 64, 65, 129, 160, 161}) {
    std::string Tag = std::to_string(N);
    Run("path" + Tag, makeLine(N));
    Run("star" + Tag, makeStar(N));
    Run("complete" + Tag, makeComplete(std::min<size_t>(N, 70)));
    if (N >= 3)
      Run("ring" + Tag, makeRing(N));
  }
  for (auto [W, H] : {std::pair<size_t, size_t>{3, 3}, {4, 7}, {8, 8},
                      {9, 15}, {13, 10}})
    Run("torus" + std::to_string(W) + "x" + std::to_string(H),
        makeTorus(W, H));
  Run("underestimated", makeUnderestimated());

  // 64 nodes fill a machine word exactly; sparse ids go through the rank
  // table rather than mapping onto node indices.
  {
    Rng R(64);
    for (auto &[Name, G] : std::vector<std::pair<std::string, Graph>>{
             {"path", makeLine(64)},
             {"ring", makeRing(64)},
             {"complete", makeComplete(64)},
             {"tree", makeRandomTree(64, R)},
             {"gnp", makeErdosRenyi(64, 0.06, R)}})
      Run("sparse-ids " + Name + "64", withSparseIds(G, R));
  }

  // Small dense draws: the shapes where the 4-sweep bound is most often
  // short of the diameter.
  for (uint64_t Seed = 1; Seed <= 3000; ++Seed) {
    Rng R(Seed);
    size_t N = 4 + static_cast<size_t>(R.nextBelow(12));
    Run("small seed " + std::to_string(Seed),
        makeErdosRenyi(N, 0.15 + 0.5 * R.nextDouble(), R,
                       /*ForceConnected=*/false));
  }

  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    Rng R(Seed);
    size_t N = std::vector<size_t>{2, 5, 17, 63, 64, 65, 100, 129}[Seed % 8];
    std::string Tag = " n=" + std::to_string(N) + " seed " +
                      std::to_string(Seed);
    Run("tree" + Tag, makeRandomTree(N, R));
    // Sparse G(n, p) around the connectivity threshold: some draws split.
    Run("gnp" + Tag, makeErdosRenyi(N, 2.0 / double(N), R,
                                    /*ForceConnected=*/false));
    double Dense = std::min(1.0, 6.0 / double(N));
    Run("gnp-connected" + Tag, makeErdosRenyi(N, Dense, R));
    Graph Holes = makeErdosRenyi(N, Dense, R);
    punchSlotHoles(Holes, R);
    Run("slot-holes" + Tag, Holes);
  }

  // Churned overlays; RandomRewire at degree 1 disconnects.
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    for (AttachMode Mode : {AttachMode::Chain, AttachMode::Random})
      for (RepairMode Repair :
           {RepairMode::PatchPath, RepairMode::RandomRewire})
        for (size_t Degree : {1, 3}) {
          DynamicOverlay O(Degree, Rng(Seed), Mode, Repair);
          Rng R(Seed * 31 + Degree);
          ProcessId Next = 0;
          for (size_t I = 0; I != 40; ++I)
            O.join(Next++);
          for (int Step = 0; Step != 600; ++Step) {
            if (O.graph().nodeCount() <= 3 || R.nextBernoulli(0.55)) {
              O.join(Next++);
            } else {
              ProcessId Victim = R.pick(nodeList(O.graph()));
              O.leave(Victim);
            }
            if (Step % 16 != 0)
              continue;
            Run("overlay mode " + std::to_string(int(Mode)) + " repair " +
                    std::to_string(int(Repair)) + " degree " +
                    std::to_string(Degree) + " seed " + std::to_string(Seed) +
                    " step " + std::to_string(Step),
                O.graph());
          }
        }
}

} // namespace

TEST(Algorithms, DiameterMatchesAllSourcesReference) {
  EXPECT_EQ(diameter(makeUnderestimated()), 4u);
  forEachDiameterCase([](const std::string &Name, const Graph &G) {
    ASSERT_EQ(diameter(G), allSourcesDiameter(G)) << Name;
  });
}

TEST(Algorithms, DiameterAboveMatchesReferenceAtEveryFloor) {
  Rng Pick(0xD1A);
  size_t Calls = 0;
  forEachDiameterCase([&](const std::string &Name, const Graph &G) {
    std::optional<uint64_t> Ref = allSourcesDiameter(G);
    // A disconnected graph has no diameter; its floors scale with its size,
    // so the largest exceeds any distance in it.
    uint64_t D = Ref.value_or(G.nodeCount());
    ProcessId Absent = G.nodeCount() ? G.nodesView().back() + 1 : 7;
    ProcessId Front = G.nodeCount() ? G.nodesView().front() : InvalidProcess;
    ProcessId Member = G.nodeCount() ? G.nodesView()[Pick.nextBelow(
                                           G.nodeCount())]
                                     : InvalidProcess;
    ProcessId Previous = InvalidProcess;
    for (uint64_t Floor : {uint64_t(0), D ? D - 1 : 0, D, D + 1, 2 * D + 5})
      for (ProcessId Hint :
           {InvalidProcess, Absent, Front, Member, Previous}) {
        ProcessId Centre = Hint;
        std::optional<uint64_t> Got = diameterAbove(G, Floor, Centre);
        ++Calls;
        std::string Where = Name + " floor " + std::to_string(Floor) +
                            " hint " + std::to_string(Hint);
        ASSERT_EQ(Got.has_value(), Ref.has_value()) << Where;
        if (!Ref)
          continue;
        if (*Ref > Floor)
          ASSERT_EQ(*Got, *Ref) << Where;
        else
          ASSERT_LE(*Got, Floor) << Where;
        ASSERT_TRUE(G.hasNode(Centre)) << Where;
        Previous = Centre;
      }
  });
  EXPECT_GT(Calls, 100000u);
}

TEST(Algorithms, DiameterAboveHintCrossesTheWordSizeSwitch) {
  // Overlays grow from 50 to 80 nodes by churned joins and shrink back, so
  // hints pass between graphs on either side of 64 nodes.
  size_t Calls = 0, Crossings = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed)
    for (AttachMode Mode : {AttachMode::Chain, AttachMode::Random})
      for (RepairMode Repair :
           {RepairMode::PatchPath, RepairMode::RandomRewire})
        for (size_t Degree : {1, 3}) {
          DynamicOverlay O(Degree, Rng(Seed), Mode, Repair);
          Rng R(Seed * 17 + Degree);
          ProcessId Next = 0;
          while (O.graph().nodeCount() != 50)
            O.join(Next++);
          uint64_t RunningMax = 0;
          ProcessId Centre = InvalidProcess, ExactCentre = InvalidProcess;
          size_t LastCount = 50;
          bool Growing = true;
          for (int Step = 0; Growing || O.graph().nodeCount() > 50; ++Step) {
            ASSERT_LT(Step, 4000);
            if (O.graph().nodeCount() >= 80)
              Growing = false;
            if (R.nextBernoulli(Growing ? 0.75 : 0.25))
              O.join(Next++);
            else
              O.leave(R.pick(nodeList(O.graph())));
            const Graph &G = O.graph();
            size_t Count = G.nodeCount();
            Crossings += (LastCount <= 64) != (Count <= 64);
            LastCount = Count;

            std::optional<uint64_t> Ref = allSourcesDiameter(G);
            std::string Where = "seed " + std::to_string(Seed) + " mode " +
                                std::to_string(int(Mode)) + " repair " +
                                std::to_string(int(Repair)) + " degree " +
                                std::to_string(Degree) + " step " +
                                std::to_string(Step);
            std::optional<uint64_t> Got = diameterAbove(G, RunningMax, Centre);
            ++Calls;
            ASSERT_EQ(Got.has_value(), Ref.has_value()) << Where;
            if (Ref && *Ref > RunningMax) {
              ASSERT_EQ(*Got, *Ref) << Where;
            } else if (Ref) {
              ASSERT_LE(*Got, RunningMax) << Where;
            }
            RunningMax = std::max(RunningMax, Got.value_or(0));
            ASSERT_EQ(diameterAbove(G, 0, ExactCentre), Ref) << Where;
          }
        }
  EXPECT_GT(Calls, 3000u);
  EXPECT_GE(Crossings, 64u); // Every overlay crosses both ways.
}
