//===- AggregationTest.cpp - one-time-query algorithm tests --------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Echo.h"
#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/Flooding.h"
#include "dyndist/aggregation/Gossip.h"
#include "dyndist/aggregation/Token.h"
#include "dyndist/core/DynamicSystem.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/core/Solvability.h"
#include "dyndist/graph/Algorithms.h"
#include "dyndist/graph/Generators.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/sim/TraceIO.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace dyndist;

namespace {

/// Runs one query over a fixed topology with no churn and returns the
/// checker's verdict. Actors are produced by \p Factory; process ids are
/// 0..N-1 matching \p Topology's nodes; the issuer is process 0.
QueryVerdict runStaticQuery(Graph Topology,
                            const ChurnDriver::ActorFactory &Factory,
                            SimTime Horizon = 500, uint64_t Seed = 1,
                            std::function<void(Simulator &)> Arrange = {}) {
  size_t N = Topology.nodeCount();
  Simulator S(Seed);
  DynamicOverlay O(2, Rng(Seed + 1));
  O.attachTo(S);
  for (size_t I = 0; I != N; ++I)
    S.spawn(Factory());
  // Replace the randomly accreted overlay with the requested topology.
  O.seed(std::move(Topology));

  scheduleQueryStart(S, 1, /*Issuer=*/0);
  if (Arrange)
    Arrange(S);
  RunLimits L;
  L.MaxTime = Horizon;
  S.run(L);

  auto Issue = S.trace().firstObservation(0, OtqIssueKey);
  if (!Issue)
    return QueryVerdict(); // Not even issued: all-false verdict.
  return checkOneTimeQuery(S.trace(), 0, Issue->Time, Horizon);
}

std::function<int64_t()> onesValue() {
  return [] { return 1; };
}

std::function<int64_t()> countingValue() {
  auto Counter = std::make_shared<int64_t>(0);
  return [Counter] { return ++(*Counter); };
}

} // namespace

//===----------------------------------------------------------------------===//
// Flooding
//===----------------------------------------------------------------------===//

TEST(Flooding, ValidOnRingWithTtlEqualDiameter) {
  auto Cfg = std::make_shared<FloodConfig>();
  Cfg->Ttl = 8; // Ring of 16 has diameter 8.
  QueryVerdict V =
      runStaticQuery(makeRing(16), makeFloodFactory(Cfg, countingValue()));
  EXPECT_TRUE(V.valid()) << V.str();
  EXPECT_EQ(V.IncludedCount, 16u);
  // Sum of 1..16.
  EXPECT_EQ(V.Aggregate, 136);
}

TEST(Flooding, TtlBelowDiameterMissesTheFringe) {
  auto Cfg = std::make_shared<FloodConfig>();
  Cfg->Ttl = 5; // Too small for a 16-ring.
  QueryVerdict V =
      runStaticQuery(makeRing(16), makeFloodFactory(Cfg, onesValue()));
  EXPECT_TRUE(V.Terminated);
  EXPECT_FALSE(V.Complete);
  // Ball of radius 5 around the issuer on a ring covers 11 of 16.
  EXPECT_EQ(V.IncludedCount, 11u);
  EXPECT_NEAR(V.Coverage, 11.0 / 16.0, 1e-12);
  EXPECT_TRUE(V.AggregateConsistent); // What it reports is consistent...
  EXPECT_FALSE(V.valid());            // ...but the spec is violated.
}

TEST(Flooding, TtlCoverageMatchesGraphBall) {
  // Property sweep: for every TTL, flooding's contributor set over a static
  // snapshot equals the BFS ball of that radius.
  Graph Line = makeLine(12);
  for (uint64_t Ttl = 0; Ttl <= 12; ++Ttl) {
    auto Cfg = std::make_shared<FloodConfig>();
    Cfg->Ttl = Ttl;
    QueryVerdict V =
        runStaticQuery(makeLine(12), makeFloodFactory(Cfg, onesValue()));
    EXPECT_EQ(V.IncludedCount, ballAround(Line, 0, Ttl).size())
        << "ttl=" << Ttl;
  }
}

TEST(Flooding, ZeroTtlIncludesOnlyIssuer) {
  auto Cfg = std::make_shared<FloodConfig>();
  Cfg->Ttl = 0;
  QueryVerdict V =
      runStaticQuery(makeRing(8), makeFloodFactory(Cfg, onesValue()));
  EXPECT_TRUE(V.Terminated);
  EXPECT_EQ(V.IncludedCount, 1u);
  EXPECT_EQ(V.Aggregate, 1);
}

TEST(Flooding, WorksOnArbitraryConnectedGraphs) {
  Rng R(5);
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    Graph G = makeErdosRenyi(24, 0.18, R);
    auto Diam = diameter(G);
    ASSERT_TRUE(Diam.has_value());
    auto Cfg = std::make_shared<FloodConfig>();
    Cfg->Ttl = *Diam;
    Graph Copy = G;
    QueryVerdict V = runStaticQuery(std::move(Copy),
                                    makeFloodFactory(Cfg, onesValue()), 500,
                                    Seed);
    EXPECT_TRUE(V.valid()) << "seed " << Seed << ": " << V.str();
    EXPECT_EQ(V.IncludedCount, 24u);
  }
}

TEST(Flooding, PartialSynchronyDeadlineSizedByMaxLatency) {
  auto Cfg = std::make_shared<FloodConfig>();
  Cfg->Ttl = 8;
  Cfg->MaxLatency = 4; // Must match the uniform latency's upper bound.
  size_t N = 16;
  Simulator S(9);
  S.setLatencyModel(std::make_unique<UniformLatency>(1, 4));
  DynamicOverlay O(2, Rng(10));
  O.attachTo(S);
  auto Factory = makeFloodFactory(Cfg, onesValue());
  for (size_t I = 0; I != N; ++I)
    S.spawn(Factory());
  O.seed(makeRing(N));
  scheduleQueryStart(S, 1, 0);
  RunLimits L;
  L.MaxTime = 500;
  S.run(L);
  auto Issue = S.trace().firstObservation(0, OtqIssueKey);
  ASSERT_TRUE(Issue.has_value());
  QueryVerdict V = checkOneTimeQuery(S.trace(), 0, Issue->Time, 500);
  EXPECT_TRUE(V.valid()) << V.str();
}

//===----------------------------------------------------------------------===//
// Echo (PIF)
//===----------------------------------------------------------------------===//

TEST(Echo, ValidWithoutAnyKnowledge) {
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    Rng R(Seed);
    Graph G = makeErdosRenyi(20, 0.2, R);
    QueryVerdict V = runStaticQuery(std::move(G),
                                    makeEchoFactory(countingValue()), 500,
                                    Seed);
    EXPECT_TRUE(V.valid()) << "seed " << Seed << ": " << V.str();
    EXPECT_EQ(V.IncludedCount, 20u);
  }
}

TEST(Echo, ValidOnPathologicalTopologies) {
  EXPECT_TRUE(
      runStaticQuery(makeLine(24), makeEchoFactory(onesValue())).valid());
  EXPECT_TRUE(
      runStaticQuery(makeComplete(12), makeEchoFactory(onesValue())).valid());
  EXPECT_TRUE(
      runStaticQuery(makeTorus(4, 4), makeEchoFactory(onesValue())).valid());
}

TEST(Echo, SingletonSystem) {
  Graph G;
  G.addNode(0);
  QueryVerdict V = runStaticQuery(std::move(G), makeEchoFactory(onesValue()));
  EXPECT_TRUE(V.valid()) << V.str();
  EXPECT_EQ(V.IncludedCount, 1u);
}

TEST(Echo, CrashDuringWaveBlocksTermination) {
  // On the line, node k engages at t = 2 + k. Node 5 engages at t=7 and
  // owes node 4 an echo that only comes back around t=16; crashing node 5
  // at t=9 — after it engaged, before it echoed — leaves node 4's pending
  // count stuck forever. (Crashing *before* engagement would not block:
  // the overlay patch rule reroutes the wave around the hole.)
  QueryVerdict V = runStaticQuery(
      makeLine(10), makeEchoFactory(onesValue()), 500, 1,
      [](Simulator &S) { S.scheduleAt(9, [](Simulator &Sim) { Sim.crash(5); }); });
  EXPECT_FALSE(V.Terminated);
}

TEST(Echo, LateJoinerBehindTheWaveIsMissed) {
  // A process joining right next to the issuer after the wave front passed
  // is never engaged; if it stays, completeness fails. With a static seed
  // overlay we emulate the join by spawning mid-run.
  Simulator S(21);
  DynamicOverlay O(2, Rng(22));
  O.attachTo(S);
  auto Factory = makeEchoFactory(onesValue());
  for (size_t I = 0; I != 8; ++I)
    S.spawn(Factory());
  O.seed(makeRing(8));
  scheduleQueryStart(S, 1, 0);
  // Wave crosses the 8-ring within ~6 ticks; the joiner arrives at t=3
  // attached to random members but behind the wave in the worst case.
  S.scheduleAt(3, [&Factory](Simulator &Sim) { Sim.spawn(Factory()); });
  RunLimits L;
  L.MaxTime = 400;
  S.run(L);
  auto Issue = S.trace().firstObservation(0, OtqIssueKey);
  ASSERT_TRUE(Issue.has_value());
  QueryVerdict V = checkOneTimeQuery(S.trace(), 0, Issue->Time, 400);
  // The wave itself terminates (echoes converge), but the late joiner makes
  // completeness fragile; at minimum the checker must have flagged it as
  // required (it stayed) and the verdict reflects whether it was caught.
  EXPECT_TRUE(V.Terminated);
  if (!V.Complete) {
    EXPECT_EQ(V.Missed, (std::vector<ProcessId>{8}));
  }
}

//===----------------------------------------------------------------------===//
// Gossip
//===----------------------------------------------------------------------===//

TEST(Gossip, EventuallyCompleteOnStaticExpander) {
  Rng R(31);
  Graph G = makeRandomRegular(16, 4, R);
  auto Cfg = std::make_shared<GossipConfig>();
  Cfg->RoundEvery = 1;
  Cfg->Rounds = 200;
  Cfg->ReportAfter = 250;
  QueryVerdict V = runStaticQuery(std::move(G),
                                  makeGossipFactory(Cfg, onesValue()), 600,
                                  31);
  EXPECT_TRUE(V.Terminated);
  EXPECT_TRUE(V.Complete) << V.str();
  EXPECT_EQ(V.Aggregate, 16);
}

TEST(Gossip, ShortDeadlineYieldsPartialCoverage) {
  auto Cfg = std::make_shared<GossipConfig>();
  Cfg->RoundEvery = 2;
  Cfg->Rounds = 3;
  Cfg->ReportAfter = 8; // Far too early for a 32-ring.
  QueryVerdict V =
      runStaticQuery(makeRing(32), makeGossipFactory(Cfg, onesValue()), 600);
  EXPECT_TRUE(V.Terminated);
  EXPECT_FALSE(V.Complete);
  EXPECT_GT(V.Coverage, 0.0);
  EXPECT_LT(V.Coverage, 1.0);
  EXPECT_TRUE(V.AggregateConsistent);
}

TEST(Gossip, CoverageGrowsWithDeadline) {
  double Last = -1.0;
  for (SimTime Deadline : {6, 40, 300}) {
    auto Cfg = std::make_shared<GossipConfig>();
    Cfg->RoundEvery = 1;
    Cfg->Rounds = 400;
    Cfg->ReportAfter = Deadline;
    QueryVerdict V = runStaticQuery(makeRing(24),
                                    makeGossipFactory(Cfg, onesValue()), 800);
    EXPECT_TRUE(V.Terminated);
    EXPECT_GE(V.Coverage, Last);
    Last = V.Coverage;
  }
  EXPECT_DOUBLE_EQ(Last, 1.0);
}

//===----------------------------------------------------------------------===//
// Token
//===----------------------------------------------------------------------===//

TEST(Token, ValidOnStaticGraphs) {
  auto Cfg = std::make_shared<TokenConfig>();
  EXPECT_TRUE(
      runStaticQuery(makeRing(12), makeTokenFactory(Cfg, onesValue()), 2000)
          .valid());
  EXPECT_TRUE(
      runStaticQuery(makeLine(12), makeTokenFactory(Cfg, onesValue()), 2000)
          .valid());
  Rng R(41);
  EXPECT_TRUE(runStaticQuery(makeErdosRenyi(15, 0.3, R),
                             makeTokenFactory(Cfg, onesValue()), 2000)
                  .valid());
}

// On the line the token reaches node k at t = 2 + k; node 7 forwards it to
// node 8 at t=9, delivery at t=10. Crashing node 8 at exactly t=10 (the
// crash action was scheduled earlier, so it sorts before the delivery)
// drops the in-flight token — the walk's single point of state is gone.
// (Crashing earlier would not lose it: the patch rule reroutes the walk.)
TEST(Token, CrashLosesTheToken) {
  auto Cfg = std::make_shared<TokenConfig>();
  QueryVerdict V = runStaticQuery(
      makeLine(10), makeTokenFactory(Cfg, onesValue()), 2000, 1,
      [](Simulator &S) {
        S.scheduleAt(10, [](Simulator &Sim) { Sim.crash(8); });
      });
  EXPECT_FALSE(V.Terminated); // No timeout configured: hangs forever.
}

TEST(Token, TimeoutReportsDegradedResult) {
  auto Cfg = std::make_shared<TokenConfig>();
  Cfg->TimeoutAfter = 100;
  QueryVerdict V = runStaticQuery(
      makeLine(10), makeTokenFactory(Cfg, onesValue()), 2000, 1,
      [](Simulator &S) {
        S.scheduleAt(10, [](Simulator &Sim) { Sim.crash(8); });
      });
  EXPECT_TRUE(V.Terminated);
  EXPECT_FALSE(V.Complete);
  EXPECT_EQ(V.IncludedCount, 1u); // Only the issuer's own value survives.
}

//===----------------------------------------------------------------------===//
// Dynamic-system integration (the paper's solvable cells, end to end)
//===----------------------------------------------------------------------===//

namespace {

/// Flood query inside a churning bounded-concurrency system with a
/// disclosed diameter bound. Returns (class-admissible, verdict).
std::pair<bool, QueryVerdict> runDynamicFlood(uint64_t Seed) {
  DynamicSystemConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = {ArrivalModel::boundedConcurrency(28),
               KnowledgeModel::knownDiameter(10)};
  Cfg.InitialMembers = 20;
  Cfg.OverlayDegree = 3;
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 400;
  Cfg.Churn.Horizon = 600;
  Cfg.MonitorUntil = 600;

  auto FloodCfg = std::make_shared<FloodConfig>();
  FloodCfg->Ttl = *derivableTtl(Cfg.Class);
  auto Factory = makeFloodFactory(FloodCfg, onesValue());

  DynamicSystem Sys(Cfg, Factory);
  // The issuer is spawned outside the churn driver so it never departs.
  ProcessId Issuer = Sys.sim().spawn(Factory());
  scheduleQueryStart(Sys.sim(), 200, Issuer);

  RunLimits L;
  L.MaxTime = 700;
  Sys.run(L);

  bool Admissible = Sys.checkClassAdmissible().ok();
  auto Issue = Sys.sim().trace().firstObservation(Issuer, OtqIssueKey);
  QueryVerdict V;
  if (Issue)
    V = checkOneTimeQuery(Sys.sim().trace(), Issuer, Issue->Time, 700);
  return {Admissible, V};
}

} // namespace

TEST(DynamicIntegration, FloodSolvesKnownDiameterCellUnderChurn) {
  int ValidRuns = 0, AdmissibleRuns = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    auto [Admissible, V] = runDynamicFlood(Seed);
    if (!Admissible)
      continue; // Run fell outside the class: not evidence either way.
    ++AdmissibleRuns;
    if (V.valid())
      ++ValidRuns;
  }
  ASSERT_GT(AdmissibleRuns, 0);
  EXPECT_EQ(ValidRuns, AdmissibleRuns); // C1: solvable cell, always valid.
}

TEST(DynamicIntegration, EchoAfterQuiescenceSolvesFiniteArrivalCell) {
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    DynamicSystemConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.Class = {ArrivalModel::finiteArrival(60),
                 KnowledgeModel::boundedUnknownDiameter()};
    Cfg.InitialMembers = 16;
    Cfg.Churn.JoinRate = 0.1;
    Cfg.Churn.MeanSession = 150;
    Cfg.Churn.QuiesceAt = 300;
    Cfg.MonitorUntil = 300;

    auto Factory = makeEchoFactory(onesValue());
    DynamicSystem Sys(Cfg, Factory);
    ProcessId Issuer = Sys.sim().spawn(Factory());
    scheduleQueryStart(Sys.sim(), 400, Issuer); // After quiescence.

    RunLimits L;
    L.MaxTime = 900;
    Sys.run(L);
    ASSERT_TRUE(Sys.checkClassAdmissible().ok()) << "seed " << Seed;
    auto Issue = Sys.sim().trace().firstObservation(Issuer, OtqIssueKey);
    ASSERT_TRUE(Issue.has_value()) << "seed " << Seed;
    QueryVerdict V =
        checkOneTimeQuery(Sys.sim().trace(), Issuer, Issue->Time, 900);
    EXPECT_TRUE(V.valid()) << "seed " << Seed << ": " << V.str();
  }
}

TEST(Flooding, NonSumAggregatesValid) {
  struct KindCase {
    AggregateKind Kind;
    int64_t Expected; // Over inputs 1..8 on a ring of 8 with TTL 4.
  } Cases[] = {
      {AggregateKind::Count, 8},
      {AggregateKind::Min, 1},
      {AggregateKind::Max, 8},
  };
  for (const KindCase &C : Cases) {
    auto Cfg = std::make_shared<FloodConfig>();
    Cfg->Ttl = 4;
    Cfg->Aggregate = C.Kind;
    size_t N = 8;
    Simulator S(3);
    DynamicOverlay O(2, Rng(4));
    O.attachTo(S);
    auto Factory = makeFloodFactory(Cfg, countingValue());
    for (size_t I = 0; I != N; ++I)
      S.spawn(Factory());
    O.seed(makeRing(N));
    scheduleQueryStart(S, 1, 0);
    RunLimits L;
    L.MaxTime = 300;
    S.run(L);
    auto Issue = S.trace().firstObservation(0, OtqIssueKey);
    ASSERT_TRUE(Issue.has_value());
    QueryVerdict V =
        checkOneTimeQuery(S.trace(), 0, Issue->Time, 300, C.Kind);
    EXPECT_TRUE(V.valid()) << aggregateName(C.Kind) << ": " << V.str();
    EXPECT_EQ(V.Aggregate, C.Expected) << aggregateName(C.Kind);
  }
}

TEST(Echo, NonSumAggregateValid) {
  auto Counter = std::make_shared<int64_t>(0);
  QueryVerdict V = runStaticQuery(
      makeRing(10),
      makeEchoFactory([Counter] { return ++*Counter; }, AggregateKind::Max));
  // runStaticQuery's checker grades under Sum; grade by hand instead.
  // (The report was made under Max, so the sum grading must reject it and
  // the max grading accept it — asserted via a dedicated run below.)
  EXPECT_TRUE(V.Terminated);
  EXPECT_FALSE(V.AggregateConsistent); // Sum grading of a max report.

  Simulator S(8);
  DynamicOverlay O(2, Rng(9));
  O.attachTo(S);
  auto Counter2 = std::make_shared<int64_t>(0);
  auto Factory =
      makeEchoFactory([Counter2] { return ++*Counter2; }, AggregateKind::Max);
  for (size_t I = 0; I != 10; ++I)
    S.spawn(Factory());
  O.seed(makeRing(10));
  scheduleQueryStart(S, 1, 0);
  RunLimits L;
  L.MaxTime = 400;
  S.run(L);
  auto Issue = S.trace().firstObservation(0, OtqIssueKey);
  ASSERT_TRUE(Issue.has_value());
  QueryVerdict V2 =
      checkOneTimeQuery(S.trace(), 0, Issue->Time, 400, AggregateKind::Max);
  EXPECT_TRUE(V2.valid()) << V2.str();
  EXPECT_EQ(V2.Aggregate, 10);
}

//===----------------------------------------------------------------------===//
// Lossy channels: redundancy in time vs one-shot waves
//===----------------------------------------------------------------------===//

namespace {

/// Like runStaticQuery but with a per-message loss probability.
QueryVerdict runLossyQuery(Graph Topology,
                           const ChurnDriver::ActorFactory &Factory,
                           double LossRate, uint64_t Seed,
                           SimTime Horizon = 800) {
  size_t N = Topology.nodeCount();
  Simulator S(Seed);
  S.setLossRate(LossRate);
  DynamicOverlay O(2, Rng(Seed + 1));
  O.attachTo(S);
  for (size_t I = 0; I != N; ++I)
    S.spawn(Factory());
  O.seed(std::move(Topology));
  scheduleQueryStart(S, 1, 0);
  RunLimits L;
  L.MaxTime = Horizon;
  S.run(L);
  auto Issue = S.trace().firstObservation(0, OtqIssueKey);
  if (!Issue)
    return QueryVerdict();
  return checkOneTimeQuery(S.trace(), 0, Issue->Time, Horizon);
}

} // namespace

TEST(LossyChannels, EchoWaveCannotAbsorbLoss) {
  // One lost echo anywhere blocks termination; across seeds at 10% loss
  // on a 20-node overlay the wave must hang at least once (it sends ~60+
  // messages, each a single point of failure).
  Rng R(61);
  int Hangs = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Graph G = makeErdosRenyi(20, 0.2, R);
    QueryVerdict V = runLossyQuery(std::move(G), makeEchoFactory(onesValue()),
                                   0.10, Seed);
    Hangs += !V.Terminated;
  }
  EXPECT_GT(Hangs, 0);
}

TEST(LossyChannels, GossipRetransmissionAbsorbsLoss) {
  // Push-pull rounds retransmit the growing set every round: 20% loss
  // costs time, not completeness.
  Rng R(67);
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Graph G = makeRandomRegular(16, 4, R);
    auto Cfg = std::make_shared<GossipConfig>();
    Cfg->RoundEvery = 1;
    Cfg->Rounds = 300;
    Cfg->ReportAfter = 400;
    QueryVerdict V = runLossyQuery(std::move(G),
                                   makeGossipFactory(Cfg, onesValue()), 0.2,
                                   Seed, 1000);
    EXPECT_TRUE(V.Terminated) << "seed " << Seed;
    EXPECT_TRUE(V.Complete) << "seed " << Seed << ": " << V.str();
  }
}

TEST(LossyChannels, FloodCoverageErodesWithLoss) {
  // The flood sends each request/reply once; loss directly eats coverage.
  auto Cfg = std::make_shared<FloodConfig>();
  Cfg->Ttl = 8;
  double CovNoLoss = 0, CovLoss = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    CovNoLoss +=
        runLossyQuery(makeRing(16), makeFloodFactory(Cfg, onesValue()), 0.0,
                      Seed)
            .Coverage;
    CovLoss +=
        runLossyQuery(makeRing(16), makeFloodFactory(Cfg, onesValue()), 0.25,
                      Seed)
            .Coverage;
  }
  EXPECT_DOUBLE_EQ(CovNoLoss / 6, 1.0);
  EXPECT_LT(CovLoss / 6, 0.95);
}

//===----------------------------------------------------------------------===//
// Digest-mode gossip: same convergence, smaller payloads
//===----------------------------------------------------------------------===//

TEST(GossipDigest, ConvergesLikeFullStateGossip) {
  Rng R(71);
  Graph G = makeRandomRegular(16, 4, R);
  auto Cfg = std::make_shared<GossipConfig>();
  Cfg->RoundEvery = 1;
  Cfg->Rounds = 200;
  Cfg->ReportAfter = 250;
  Cfg->DigestMode = true;
  QueryVerdict V = runStaticQuery(std::move(G),
                                  makeGossipFactory(Cfg, onesValue()), 600,
                                  31);
  EXPECT_TRUE(V.Terminated);
  EXPECT_TRUE(V.Complete) << V.str();
  EXPECT_EQ(V.Aggregate, 16);
}

TEST(GossipDigest, ShipsFewerPayloadUnitsOnceConverged) {
  auto RunMode = [](bool Digest) {
    Rng R(73);
    Graph G = makeRandomRegular(20, 4, R);
    Simulator S(9);
    DynamicOverlay O(2, Rng(10));
    O.attachTo(S);
    auto Cfg = std::make_shared<GossipConfig>();
    Cfg->RoundEvery = 1;
    Cfg->Rounds = 200;
    Cfg->ReportAfter = 250;
    Cfg->DigestMode = Digest;
    auto Factory = makeGossipFactory(Cfg, [] { return 1; });
    for (size_t I = 0; I != 20; ++I)
      S.spawn(Factory());
    O.seed(std::move(G));
    scheduleQueryStart(S, 1, 0);
    RunLimits L;
    L.MaxTime = 600;
    S.run(L);
    auto Issue = S.trace().firstObservation(0, OtqIssueKey);
    QueryVerdict V = checkOneTimeQuery(S.trace(), 0, Issue->Time, 600);
    return std::make_pair(V, S.stats().PayloadUnits);
  };
  auto [FullV, FullUnits] = RunMode(false);
  auto [DigestV, DigestUnits] = RunMode(true);
  ASSERT_TRUE(FullV.Complete);
  ASSERT_TRUE(DigestV.Complete);
  // Once the epidemic converges, full-state rounds keep pushing the whole
  // map while digest rounds ship ids only and empty deltas stop flowing:
  // the digest variant must be substantially cheaper in payload units.
  EXPECT_LT(DigestUnits, FullUnits / 2)
      << "digest=" << DigestUnits << " full=" << FullUnits;
}

TEST(GossipDigest, PayloadAccountingIsPopulated) {
  auto Cfg = std::make_shared<GossipConfig>();
  Cfg->RoundEvery = 2;
  Cfg->Rounds = 10;
  Cfg->ReportAfter = 30;
  Simulator S(5);
  DynamicOverlay O(2, Rng(6));
  O.attachTo(S);
  auto Factory = makeGossipFactory(Cfg, onesValue());
  for (size_t I = 0; I != 8; ++I)
    S.spawn(Factory());
  O.seed(makeRing(8));
  scheduleQueryStart(S, 1, 0);
  RunLimits L;
  L.MaxTime = 200;
  S.run(L);
  // Gossip payloads carry the contribution map: units exceed messages.
  EXPECT_GT(S.stats().PayloadUnits, S.stats().MessagesSent);
}

//===----------------------------------------------------------------------===//
// Gossip reports and payload pins
//===----------------------------------------------------------------------===//

namespace {

/// The issuer's report as the checker reads it: the included pids in
/// report order, folded with FNV-1a, and the aggregate.
struct GossipReport {
  size_t Included = 0;
  uint64_t IncludeFnv = 1469598103934665603ULL;
  int64_t Aggregate = 0;
  uint64_t PayloadUnits = 0;
};

ChurnDriver::ActorFactory gossipFactory(std::function<int64_t()> Values,
                                        AggregateKind Kind, bool Digest) {
  auto Cfg = std::make_shared<GossipConfig>();
  Cfg->ReportAfter = 60;
  Cfg->Rounds = 30;
  Cfg->RoundEvery = 2;
  Cfg->Aggregate = Kind;
  Cfg->DigestMode = Digest;
  return makeGossipFactory(Cfg, std::move(Values));
}

/// A churny gossip run (joins and crashes throughout) over \p Factory's
/// actors.
GossipReport runChurnyGossip(const ChurnDriver::ActorFactory &Factory,
                             uint64_t Seed, size_t Members = 24) {
  DynamicSystemConfig SysCfg;
  SysCfg.Seed = Seed;
  SysCfg.InitialMembers = Members;
  SysCfg.Churn.JoinRate = 0.3;
  SysCfg.Churn.MeanSession = 90;
  SysCfg.Churn.CrashFraction = 0.3;
  SysCfg.Churn.Horizon = 400;
  SysCfg.DiameterSampleEvery = 0;
  DynamicSystem Sys(SysCfg, Factory);
  ProcessId Issuer = Sys.sim().spawn(Sys.churn().makeActor());
  scheduleQueryStart(Sys.sim(), 150, Issuer);
  RunLimits L;
  L.MaxTime = 600;
  Sys.run(L);

  GossipReport Out;
  const Trace &T = Sys.sim().trace();
  uint32_t Include = T.keys().find(OtqIncludeKey);
  uint32_t Result = T.keys().find(OtqResultKey);
  for (const TraceRecord &R : T.records()) {
    if (R.kind() != TraceKind::Observe || R.subject() != Issuer)
      continue;
    if (R.keyId() == Include) {
      ++Out.Included;
      Out.IncludeFnv =
          (Out.IncludeFnv ^ static_cast<uint64_t>(R.Value)) * 1099511628211ULL;
    } else if (R.keyId() == Result) {
      Out.Aggregate = R.Value;
    }
  }
  Out.PayloadUnits = Sys.sim().stats().PayloadUnits;
  return Out;
}

/// Inputs that neither ascend with the pid nor stay distinct: any mix-up
/// of which input belongs to which pid moves Sum, Min or Max.
std::function<int64_t()> scrambledValue() {
  auto K = std::make_shared<int64_t>(0);
  return [K] { return (++*K * 7919) % 97 - 48; };
}

} // namespace

TEST(Gossip, ReportsPinnedContributionsUnderChurn) {
  struct Case {
    const char *Name;
    bool Scrambled;
    AggregateKind Kind;
    bool Digest;
    GossipReport Want;
  };
  // Recorded from the sorted-map implementation the bitset replaced.
  const Case Cases[] = {
      {"scrambled-sum", true, AggregateKind::Sum, false,
       {34, 0xf43ad8fb14cdbea3ULL, 3, 319508}},
      {"scrambled-min", true, AggregateKind::Min, false,
       {34, 0xf43ad8fb14cdbea3ULL, -46, 319508}},
      {"scrambled-max", true, AggregateKind::Max, true,
       {34, 0xf43ad8fb14cdbea3ULL, 47, 99657}},
      {"scrambled-sum-digest", true, AggregateKind::Sum, true,
       {34, 0xf43ad8fb14cdbea3ULL, 3, 99657}},
      {"ones-sum", false, AggregateKind::Sum, false,
       {34, 0xf43ad8fb14cdbea3ULL, 34, 319508}},
      {"ones-count-digest", false, AggregateKind::Count, true,
       {34, 0xf43ad8fb14cdbea3ULL, 34, 99657}},
  };
  for (const Case &C : Cases) {
    GossipReport Got = runChurnyGossip(
        gossipFactory(C.Scrambled ? scrambledValue() : onesValue(), C.Kind,
                      C.Digest),
        /*Seed=*/0x60551);
    EXPECT_EQ(Got.Included, C.Want.Included) << C.Name;
    EXPECT_EQ(Got.IncludeFnv, C.Want.IncludeFnv) << C.Name;
    EXPECT_EQ(Got.Aggregate, C.Want.Aggregate) << C.Name;
    EXPECT_EQ(Got.PayloadUnits, C.Want.PayloadUnits) << C.Name;
  }
}

TEST(Gossip, ReusedFactoryReadsOnlyThisRunsValues) {
  // One factory serves a larger run, then a smaller one. Its value source
  // keeps counting, so every pid's input differs between the runs: a
  // report that read a value left over from the first run would differ
  // from a fresh factory whose source starts where the shared one stood.
  auto Counter = std::make_shared<int64_t>(0);
  auto Shared = gossipFactory([Counter] { return ++*Counter; },
                              AggregateKind::Sum, /*Digest=*/false);
  runChurnyGossip(Shared, /*Seed=*/5, /*Members=*/60);
  auto Resumed = std::make_shared<int64_t>(*Counter);
  GossipReport Reused = runChurnyGossip(Shared, /*Seed=*/6, /*Members=*/12);
  GossipReport Fresh =
      runChurnyGossip(gossipFactory([Resumed] { return ++*Resumed; },
                                    AggregateKind::Sum, /*Digest=*/false),
                      /*Seed=*/6, /*Members=*/12);
  EXPECT_GT(Fresh.Included, 1u);
  EXPECT_EQ(Reused.Included, Fresh.Included);
  EXPECT_EQ(Reused.IncludeFnv, Fresh.IncludeFnv);
  EXPECT_EQ(Reused.Aggregate, Fresh.Aggregate);
  EXPECT_EQ(Reused.PayloadUnits, Fresh.PayloadUnits);
}

TEST(GossipDigest, E4PayloadUnitsPinned) {
  // E4's gossip rows at three of its seeds (same master seed, config and
  // join rates as bench_churn_gossip): totals over the seeds of payload
  // units and messages sent, full-state and digest mode.
  auto Totals = [](bool Digest, double JoinRate) {
    SweepConfig Sweep;
    Sweep.MasterSeed = 0xE4;
    Sweep.SeedCount = 3;
    Sweep.Threads = 1;
    auto Runs = runSeedSweepWith<ExperimentResult, NoSweepContext>(
        Sweep, [&](SweepSeed Seed, NoSweepContext &) {
          ExperimentConfig Cfg;
          Cfg.Seed = Seed.Value;
          Cfg.Class = {ArrivalModel::boundedConcurrency(40),
                       KnowledgeModel::knownDiameter(10)};
          Cfg.UseRecommended = false;
          Cfg.Algorithm = RecommendedAlgorithm::GossipBestEffort;
          Cfg.InitialMembers = 24;
          Cfg.Churn.JoinRate = JoinRate;
          Cfg.Churn.MeanSession = JoinRate > 0 ? 24.0 / JoinRate : 1e9;
          Cfg.Churn.Horizon = 600;
          Cfg.QueryAt = 200;
          Cfg.Horizon = 1200;
          Cfg.Gossip.ReportAfter = 60;
          Cfg.Gossip.Rounds = 30;
          Cfg.Gossip.RoundEvery = 2;
          Cfg.Gossip.DigestMode = Digest;
          return runQueryExperiment(Cfg);
        });
    std::pair<uint64_t, uint64_t> Sum{0, 0};
    for (const ExperimentResult &R : Runs) {
      Sum.first += R.Stats.PayloadUnits;
      Sum.second += R.Stats.MessagesSent;
    }
    return Sum;
  };
  struct Row {
    bool Digest;
    double JoinRate;
    uint64_t Units, Messages;
  };
  // Recorded from the sorted-map implementation the bitset replaced.
  const Row Rows[] = {
      {false, 0.0, 203233, 4500},
      {false, 0.4, 2588289, 16534},
      {true, 0.0, 58955, 3537},
      {true, 0.4, 819628, 18401},
  };
  for (const Row &R : Rows) {
    auto [Units, Messages] = Totals(R.Digest, R.JoinRate);
    EXPECT_EQ(Units, R.Units)
        << "digest=" << R.Digest << " rate=" << R.JoinRate;
    EXPECT_EQ(Messages, R.Messages)
        << "digest=" << R.Digest << " rate=" << R.JoinRate;
  }
}

//===----------------------------------------------------------------------===//
// Gossip bodies: built once per change of Known, shared while in flight
//===----------------------------------------------------------------------===//

namespace {

/// One gossip body as its receiver saw it.
struct SeenBody {
  SimTime At;
  int Kind;
  const MessageBody *Addr;
  std::vector<uint64_t> Members;
  size_t Weight;
};

/// Records every push, pull and digest body it receives. With \p SendAt
/// set it also pushes {self} to \p Target at that instant.
class BodyRecorder : public Actor {
public:
  BodyRecorder(std::vector<SeenBody> &Seen, ProcessId Target = 0,
               SimTime SendAt = 0)
      : Seen(Seen), Target(Target), SendAt(SendAt) {}

  void onStart(Context &Ctx) override {
    if (SendAt)
      Ctx.setTimer(SendAt);
  }
  void onTimer(Context &Ctx, TimerId) override {
    DenseBitSet Self;
    Self.insert(Ctx.self());
    Ctx.send(Target, makeBody<GossipPushMsg>(/*QueryId=*/1, Self));
  }
  void onMessage(Context &Ctx, ProcessId, const MessageBody &Body) override {
    SeenBody S{Ctx.now(), Body.kind(), &Body, {}, Body.weight()};
    auto Collect = [&](uint64_t P) { S.Members.push_back(P); };
    if (Body.kind() == MsgGossipPush)
      bodyAs<GossipPushMsg>(Body).Known.forEach(Collect);
    else if (Body.kind() == MsgGossipPull)
      bodyAs<GossipPullMsg>(Body).Known.forEach(Collect);
    else
      bodyAs<GossipDigestMsg>(Body).Known.forEach(Collect);
    Seen.push_back(std::move(S));
  }

private:
  std::vector<SeenBody> &Seen;
  ProcessId Target;
  SimTime SendAt;
};

} // namespace

TEST(Gossip, InFlightBodyKeepsItsSendTimeSet) {
  // Latency 3. The query stimulus reaches gossiper 0 at t=2, so it pushes
  // at t=4, 6, 8, ... to one of recorders 1 and 2 (a full mesh). Recorder
  // 2 pushes {2} to it at t=4, which lands at t=7: the gossiper learns 2
  // while its push of t=6 is still in flight. The pushes sent at t=4 and
  // t=6 must both carry the send-time set {0}, in one shared body (Known
  // did not change between them); the pull answering recorder 2 and the
  // push sent at t=8 carry {0, 2}.
  for (bool Digest : {false, true}) {
    auto Cfg = std::make_shared<GossipConfig>();
    Cfg->RoundEvery = 2;
    Cfg->ReportAfter = 100;
    Cfg->DigestMode = Digest;
    std::vector<SeenBody> Seen;
    Simulator S(3);
    S.setLatencyModel(std::make_unique<FixedLatency>(3));
    S.spawn(makeGossipFactory(Cfg, onesValue())());
    S.spawn(std::make_unique<BodyRecorder>(Seen));
    S.spawn(std::make_unique<BodyRecorder>(Seen, /*Target=*/0,
                                           /*SendAt=*/4));
    scheduleQueryStart(S, 1, /*Issuer=*/0);
    RunLimits L;
    L.MaxTime = 11;
    S.run(L);

    const int RoundKind = Digest ? MsgGossipDigest : MsgGossipPush;
    // An identity weighs one unit, a full-state entry two.
    auto RoundWeight = [&](size_t N) { return 1 + (Digest ? 1 : 2) * N; };
    ASSERT_EQ(Seen.size(), 4u) << "digest=" << Digest;
    EXPECT_EQ(Seen[0].At, 7u);
    EXPECT_EQ(Seen[0].Kind, RoundKind);
    EXPECT_EQ(Seen[0].Members, std::vector<uint64_t>({0}));
    EXPECT_EQ(Seen[0].Weight, RoundWeight(1));
    EXPECT_EQ(Seen[1].At, 9u);
    EXPECT_EQ(Seen[1].Kind, RoundKind);
    EXPECT_EQ(Seen[1].Members, std::vector<uint64_t>({0}));
    EXPECT_EQ(Seen[1].Addr, Seen[0].Addr) << "one body per version";
    EXPECT_EQ(Seen[2].At, 10u);
    EXPECT_EQ(Seen[2].Kind, MsgGossipPull);
    EXPECT_EQ(Seen[2].Members, std::vector<uint64_t>({0, 2}));
    EXPECT_EQ(Seen[2].Weight, 5u);
    EXPECT_EQ(Seen[3].At, 11u);
    EXPECT_EQ(Seen[3].Kind, RoundKind);
    EXPECT_EQ(Seen[3].Members, std::vector<uint64_t>({0, 2}));
    EXPECT_EQ(Seen[3].Weight, RoundWeight(2));
    EXPECT_NE(Seen[3].Addr, Seen[0].Addr);
  }
}

TEST(Gossip, SoleHeldBodyIsRefilledInPlace) {
  // Latency 1: the gossiper's push of t=4 is delivered at t=5 and released,
  // so at the round of t=6 its cache holds the body alone. Recorder 2's
  // push, sent at t=4, teaches it {2} at t=5; the t=6 round refills the
  // same body with {0, 2} instead of building a new one, and the receiver
  // of each send reads the set as it was sent.
  auto Cfg = std::make_shared<GossipConfig>();
  Cfg->RoundEvery = 2;
  Cfg->ReportAfter = 100;
  std::vector<SeenBody> Seen;
  Simulator S(3);
  S.spawn(makeGossipFactory(Cfg, onesValue())());
  S.spawn(std::make_unique<BodyRecorder>(Seen));
  S.spawn(std::make_unique<BodyRecorder>(Seen, /*Target=*/0, /*SendAt=*/4));
  scheduleQueryStart(S, 1, /*Issuer=*/0);
  RunLimits L;
  L.MaxTime = 7;
  S.run(L);

  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_EQ(Seen[0].At, 5u);
  EXPECT_EQ(Seen[0].Kind, MsgGossipPush);
  EXPECT_EQ(Seen[0].Members, std::vector<uint64_t>({0}));
  EXPECT_EQ(Seen[0].Weight, 3u);
  EXPECT_EQ(Seen[1].At, 6u);
  EXPECT_EQ(Seen[1].Kind, MsgGossipPull);
  EXPECT_EQ(Seen[1].Members, std::vector<uint64_t>({0, 2}));
  EXPECT_EQ(Seen[2].At, 7u);
  EXPECT_EQ(Seen[2].Kind, MsgGossipPush);
  EXPECT_EQ(Seen[2].Members, std::vector<uint64_t>({0, 2}));
  EXPECT_EQ(Seen[2].Weight, 5u);
  EXPECT_EQ(Seen[2].Addr, Seen[0].Addr) << "refilled in place";
}

namespace {

/// E1's cell 7 (M^inf x D-bounded), configured as bench_solvability runs
/// it: the densest gossip cell of the matrix.
ExperimentConfig e1CellSeven(uint64_t Seed, unsigned Shards = 0) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = {ArrivalModel::infiniteArrival(),
               KnowledgeModel::boundedUnknownDiameter()};
  Cfg.Churn.JoinRate = 2.0;
  Cfg.Churn.MeanSession = 150;
  Cfg.Churn.Horizon = 600;
  Cfg.QueryAt = 200;
  Cfg.Horizon = 900;
  Cfg.Gossip.ReportAfter = 60;
  Cfg.Gossip.Rounds = 30;
  Cfg.Gossip.RoundEvery = 2;
  Cfg.Shards = Shards;
  return Cfg;
}

} // namespace

TEST(Gossip, E1CellSevenSharesBodiesAtPinnedTraffic) {
  // Three E1 cell-7 seeds, each in a fresh simulator. Messages and payload
  // units are pinned to the figures of the copy-per-send actor, which
  // built one body per push round and per pull reply. Pool allocations
  // (hits plus misses: every body and actor block a run takes) must come
  // in under a fifth of that actor's figures: a body is now built once per
  // change of Known, and refilled in place when nothing else holds it
  // (3259, 3054 and 3180 allocations when this was written).
  struct Pin {
    uint64_t Sent, Units, CopyPerSendAllocs;
  };
  const Pin Pins[] = {
      {21531, 9945850, 22131},
      {19934, 8828767, 20519},
      {20794, 9814491, 21383},
  };
  ASSERT_EQ(recommendedAlgorithm(e1CellSeven(0).Class),
            RecommendedAlgorithm::GossipBestEffort);
  for (uint64_t I = 0; I != 3; ++I) {
    ExperimentResult R =
        runQueryExperiment(e1CellSeven(deriveSweepSeed(0xE1, I)));
    const uint64_t Allocs = R.Stats.BodyPoolHits + R.Stats.BodyPoolMisses;
    EXPECT_EQ(R.Stats.MessagesSent, Pins[I].Sent) << "seed index " << I;
    EXPECT_EQ(R.Stats.PayloadUnits, Pins[I].Units) << "seed index " << I;
    EXPECT_LT(Allocs * 5, Pins[I].CopyPerSendAllocs)
        << Allocs << " pool allocations, seed index " << I;
  }
}

TEST(Gossip, E1CellSevenShardInvariant) {
  // The cached bodies live on their owner's lane: at shards 1, 2 and 4,
  // threaded and inline, a cell-7 run records the same trace bytes, the
  // same schedule counters and the same verdict.
  for (uint64_t I = 0; I != 2; ++I) {
    const uint64_t Seed = deriveSweepSeed(0xE1, I);
    auto Run = [&](unsigned Shards) {
      ExperimentConfig Cfg = e1CellSeven(Seed, Shards);
      Cfg.KeepTrace = true;
      Cfg.Tracing = TraceLevel::Full;
      ExperimentResult R = runQueryExperiment(Cfg);
      EXPECT_TRUE(R.RecordedTrace.has_value());
      std::ostringstream OS;
      OS << traceToJsonLines(*R.RecordedTrace) << R.Stats.MessagesSent << ' '
         << R.Stats.MessagesDelivered << ' ' << R.Stats.MessagesDropped << ' '
         << R.Stats.PayloadUnits << ' ' << R.Stats.TimersFired << ' '
         << R.Stats.EventsExecuted << ' ' << R.Verdict.str() << ' '
         << R.Arrivals;
      return OS.str();
    };
    const std::string One = Run(1);
    EXPECT_EQ(One, Run(2)) << "seed index " << I;
    EXPECT_EQ(One, Run(4)) << "seed index " << I;
    ASSERT_EQ(setenv("DYNDIST_SHARD_THREADS", "1", 1), 0);
    const std::string Inline = Run(4);
    unsetenv("DYNDIST_SHARD_THREADS");
    EXPECT_EQ(One, Inline) << "seed index " << I;
  }
}
