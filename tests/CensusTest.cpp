//===- CensusTest.cpp - repeated census service tests --------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Census.h"

#include "TraceTestUtil.h"
#include "dyndist/core/DynamicSystem.h"

#include <gtest/gtest.h>

using namespace dyndist;

namespace {

/// Builds a churning bounded-concurrency system of flooding members with a
/// census issuer; returns (system, issuer id).
struct CensusRun {
  std::shared_ptr<CensusConfig> Cfg;
  std::unique_ptr<DynamicSystem> Sys;
  ProcessId Issuer = InvalidProcess;

  CensusRun(uint64_t Seed, double JoinRate, uint64_t Rounds) {
    Cfg = std::make_shared<CensusConfig>();
    Cfg->Flood.Ttl = 9;
    Cfg->Flood.Aggregate = AggregateKind::Count;
    Cfg->Period = 60;
    Cfg->Rounds = Rounds;

    DynamicSystemConfig SysCfg;
    SysCfg.Seed = Seed;
    SysCfg.Class = {ArrivalModel::boundedConcurrency(30),
                    KnowledgeModel::knownDiameter(9)};
    SysCfg.InitialMembers = 16;
    SysCfg.Churn.JoinRate = JoinRate;
    SysCfg.Churn.MeanSession = JoinRate > 0 ? 16.0 / JoinRate : 1e9;
    SysCfg.Churn.Horizon = 800;
    SysCfg.MonitorUntil = 800;

    auto FloodCfg = std::make_shared<FloodConfig>();
    FloodCfg->Ttl = Cfg->Flood.Ttl;
    auto Factory = makeFloodFactory(FloodCfg, [] { return 1; });
    Sys = std::make_unique<DynamicSystem>(SysCfg, Factory);
    Issuer = Sys->sim().spawn(
        std::make_unique<CensusIssuerActor>(Cfg, /*Value=*/1));
    scheduleQueryStart(Sys->sim(), 100, Issuer);
  }
};

} // namespace

TEST(Census, ProducesOnePointPerRound) {
  CensusRun Run(21, /*JoinRate=*/0.0, /*Rounds=*/5);
  RunLimits L;
  L.MaxTime = 800;
  Run.Sys->run(L);
  auto Series = collectCensusSeries(Run.Sys->sim().trace(), Run.Issuer, 800,
                                    AggregateKind::Count);
  ASSERT_EQ(Series.size(), 5u);
  // Round starts are Period apart.
  for (size_t I = 1; I != Series.size(); ++I)
    EXPECT_EQ(Series[I].IssueAt - Series[I - 1].IssueAt, 60u);
}

TEST(Census, StaticPopulationMeasuredExactly) {
  CensusRun Run(22, 0.0, 4);
  RunLimits L;
  L.MaxTime = 800;
  Run.Sys->run(L);
  auto Series = collectCensusSeries(Run.Sys->sim().trace(), Run.Issuer, 800,
                                    AggregateKind::Count);
  ASSERT_EQ(Series.size(), 4u);
  for (const CensusPoint &P : Series) {
    EXPECT_TRUE(P.Valid) << "round at t=" << P.IssueAt;
    // Count aggregate == census == 16 members + issuer.
    EXPECT_EQ(P.Aggregate, 17);
    EXPECT_EQ(P.Included, 17u);
    EXPECT_EQ(P.LivePopulation, 17u);
  }
}

TEST(Census, TracksChurningPopulation) {
  CensusRun Run(23, 0.15, 8);
  RunLimits L;
  L.MaxTime = 900;
  Run.Sys->run(L);
  ASSERT_TRUE(Run.Sys->checkClassAdmissible().ok());
  auto Series = collectCensusSeries(Run.Sys->sim().trace(), Run.Issuer, 900,
                                    AggregateKind::Count);
  ASSERT_EQ(Series.size(), 8u);
  // Every round terminates and stays spec-valid (the class is solvable),
  // and the census tracks the live population within the round's slack.
  for (const CensusPoint &P : Series) {
    EXPECT_GT(P.ReportAt, P.IssueAt);
    EXPECT_TRUE(P.Valid) << "round at t=" << P.IssueAt;
    EXPECT_GT(P.Included, 0u);
    double Err = std::abs(double(P.Included) - double(P.LivePopulation));
    EXPECT_LE(Err / double(P.LivePopulation), 0.5)
        << "round at t=" << P.IssueAt;
  }
}

TEST(Census, RoundsZeroMeansUntilHorizon) {
  CensusRun Run(24, 0.0, /*Rounds=*/0);
  RunLimits L;
  L.MaxTime = 500;
  Run.Sys->run(L);
  auto Series =
      collectCensusSeries(Run.Sys->sim().trace(), Run.Issuer, 500,
                          AggregateKind::Count);
  // Query starts at ~101; rounds every 60 ticks until the horizon.
  EXPECT_GE(Series.size(), 6u);
}

TEST(Census, SeriesSurvivesTraceRoundTrip) {
  CensusRun Run(25, 0.1, 4);
  RunLimits L;
  L.MaxTime = 700;
  Run.Sys->run(L);
  const Trace &Original = Run.Sys->sim().trace();

  // Archive, read back, and re-grade: the verdicts must be identical.
  auto Parsed = columnarRoundTrip(Original);
  ASSERT_TRUE(Parsed.ok()) << Parsed.error().str();
  auto A = collectCensusSeries(Original, Run.Issuer, 700,
                               AggregateKind::Count);
  auto B = collectCensusSeries(*Parsed, Run.Issuer, 700,
                               AggregateKind::Count);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].IssueAt, B[I].IssueAt);
    EXPECT_EQ(A[I].Included, B[I].Included);
    EXPECT_EQ(A[I].Valid, B[I].Valid);
    EXPECT_EQ(A[I].Aggregate, B[I].Aggregate);
  }
}

TEST(Census, IssuerContributesToForeignWaves) {
  // Another member issues an ordinary flood query; the census issuer must
  // answer it (as a leaf) so foreign queries stay complete.
  auto Census = std::make_shared<CensusConfig>();
  Census->Flood.Ttl = 6;
  Census->Rounds = 1;

  Simulator S(41);
  DynamicOverlay O(2, Rng(42));
  O.attachTo(S);
  auto FloodCfg = std::make_shared<FloodConfig>();
  FloodCfg->Ttl = 6;
  auto Factory = makeFloodFactory(FloodCfg, [] { return 1; });
  for (int I = 0; I != 8; ++I)
    S.spawn(Factory());
  ProcessId CensusIssuer =
      S.spawn(std::make_unique<CensusIssuerActor>(Census, 1));
  // Foreign issuer: process 0 floods; the census issuer is among the
  // required members and must be included.
  scheduleQueryStart(S, 5, 0);
  RunLimits L;
  L.MaxTime = 300;
  S.run(L);
  auto Issue = S.trace().firstObservation(0, OtqIssueKey);
  ASSERT_TRUE(Issue.has_value());
  QueryVerdict V = checkOneTimeQuery(S.trace(), 0, Issue->Time, 300);
  EXPECT_TRUE(V.valid()) << V.str();
  EXPECT_EQ(V.IncludedCount, 9u);
  (void)CensusIssuer;
}
