//===- ReplayTest.cpp - membership replay tests --------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/arrival/Replay.h"

#include "TraceTestUtil.h"
#include "dyndist/aggregation/Echo.h"
#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/Flooding.h"
#include "dyndist/graph/Overlay.h"

#include <gtest/gtest.h>

using namespace dyndist;

namespace {

class Noop : public Actor {};

/// Records a churn-only run and returns its trace.
Trace recordChurn(uint64_t Seed) {
  Simulator S(Seed);
  ChurnParams P;
  P.JoinRate = 0.2;
  P.MeanSession = 60;
  P.CrashFraction = 0.3;
  P.Horizon = 300;
  ChurnDriver D(ArrivalModel::infiniteArrival(), P,
                [] { return std::make_unique<Noop>(); }, Rng(Seed * 3));
  D.populateInitial(S, 8);
  D.start(S);
  RunLimits L;
  L.MaxTime = 400;
  S.run(L);
  return S.trace();
}

/// Membership signature: the (kind, time) sequence of membership events.
std::vector<std::tuple<int, SimTime>> membershipSignature(const Trace &T) {
  std::vector<std::tuple<int, SimTime>> Out;
  for (const TraceRecord &E : T.records())
    if (E.kind() == TraceKind::Join || E.kind() == TraceKind::Leave ||
        E.kind() == TraceKind::Crash)
      Out.emplace_back(static_cast<int>(E.kind()), E.Time);
  return Out;
}

} // namespace

TEST(Replay, ScheduleExtractionMatchesTrace) {
  Trace T = recordChurn(5);
  auto Schedule = extractMembershipSchedule(T);
  EXPECT_EQ(Schedule.size(), membershipSignature(T).size());
  // Time-ordered.
  for (size_t I = 1; I < Schedule.size(); ++I)
    EXPECT_LE(Schedule[I - 1].At, Schedule[I].At);
}

TEST(Replay, ReproducesTheMembershipSignatureExactly) {
  Trace Original = recordChurn(7);
  auto Schedule = extractMembershipSchedule(Original);

  Simulator S(99); // Different seed: membership must still match.
  replayMembership(S, Schedule, [] { return std::make_unique<Noop>(); });
  RunLimits L;
  L.MaxTime = 400;
  S.run(L);

  EXPECT_EQ(membershipSignature(S.trace()), membershipSignature(Original));
  EXPECT_EQ(S.trace().totalArrivals(), Original.totalArrivals());
  EXPECT_EQ(S.trace().maxConcurrency(), Original.maxConcurrency());
}

TEST(Replay, SurvivesTraceSerializationRoundTrip) {
  Trace Original = recordChurn(9);
  auto Parsed = columnarRoundTrip(Original);
  ASSERT_TRUE(Parsed.ok()) << Parsed.error().str();
  auto A = extractMembershipSchedule(Original);
  auto B = extractMembershipSchedule(*Parsed);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(static_cast<int>(A[I].What), static_cast<int>(B[I].What));
    EXPECT_EQ(A[I].At, B[I].At);
    EXPECT_EQ(A[I].Original, B[I].Original);
  }
}

TEST(Replay, PairedAlgorithmComparisonOnIdenticalChurn) {
  // The design the feature exists for: run flood and echo against the
  // *same* membership schedule and compare verdicts without churn noise.
  ExperimentConfig Cfg;
  Cfg.Seed = 31;
  Cfg.Class = {ArrivalModel::boundedConcurrency(24),
               KnowledgeModel::knownDiameter(8)};
  Cfg.InitialMembers = 14;
  Cfg.Churn.JoinRate = 0.2;
  Cfg.Churn.MeanSession = 70;
  Cfg.Churn.Horizon = 400;
  Cfg.QueryAt = 150;
  Cfg.Horizon = 800;
  Cfg.KeepTrace = true;
  ExperimentResult Source = runQueryExperiment(Cfg);
  ASSERT_TRUE(Source.RecordedTrace.has_value());
  auto Schedule = extractMembershipSchedule(*Source.RecordedTrace);

  auto RunAlgo = [&](const ChurnDriver::ActorFactory &Factory,
                     ProcessId &IssuerOut) {
    auto Sim = std::make_unique<Simulator>(123);
    auto Overlay = std::make_unique<DynamicOverlay>(3, Rng(124));
    Overlay->attachTo(*Sim);
    replayMembership(*Sim, Schedule, Factory);
    // The source harness spawned its issuer right after the initial
    // population, so its id is InitialMembers (= 14); it joined at t=0
    // and never departs. Replayed ids are assigned in join order, which
    // reproduces the same id.
    IssuerOut = 14;
    scheduleQueryStart(*Sim, 150, IssuerOut);
    RunLimits L;
    L.MaxTime = 800;
    Sim->run(L);
    return std::make_pair(std::move(Sim), std::move(Overlay));
  };

  auto FloodCfg = std::make_shared<FloodConfig>();
  FloodCfg->Ttl = 8;
  ProcessId I1 = 0, I2 = 0;
  auto [FloodSim, O1] = RunAlgo(makeFloodFactory(FloodCfg, [] { return 1; }), I1);
  auto [EchoSim, O2] = RunAlgo(makeEchoFactory([] { return 1; }), I2);

  // Identical membership in both replays.
  EXPECT_EQ(membershipSignature(FloodSim->trace()),
            membershipSignature(EchoSim->trace()));

  // Both queries were issued against the same world; verdicts are now
  // directly comparable (flood must terminate; echo may or may not).
  auto FloodIssue = FloodSim->trace().firstObservation(I1, OtqIssueKey);
  ASSERT_TRUE(FloodIssue.has_value());
  QueryVerdict FloodV =
      checkOneTimeQuery(FloodSim->trace(), I1, FloodIssue->Time, 800);
  EXPECT_TRUE(FloodV.Terminated);
  (void)I2;
}
