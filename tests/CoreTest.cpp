//===- CoreTest.cpp - dyndist_core unit tests ----------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/core/DynamicSystem.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/core/Solvability.h"

#include "GraphTestUtil.h"
#include "TraceTestUtil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace dyndist;

namespace {

/// Builds a hand-crafted trace: joins/leaves plus issuer reports.
struct TraceBuilder {
  Trace T;
  TraceBuilder &join(SimTime At, ProcessId P) {
    T.append({TraceKind::Join, At, P, InvalidProcess, 0, "", 0});
    return *this;
  }
  TraceBuilder &leave(SimTime At, ProcessId P) {
    T.append({TraceKind::Leave, At, P, InvalidProcess, 0, "", 0});
    return *this;
  }
  TraceBuilder &value(SimTime At, ProcessId P, int64_t V) {
    T.append({TraceKind::Observe, At, P, InvalidProcess, 0, OtqValueKey, V});
    return *this;
  }
  TraceBuilder &include(SimTime At, ProcessId Issuer, ProcessId P) {
    T.append({TraceKind::Observe, At, Issuer, InvalidProcess, 0,
              OtqIncludeKey, static_cast<int64_t>(P)});
    return *this;
  }
  TraceBuilder &result(SimTime At, ProcessId Issuer, int64_t Agg) {
    T.append(
        {TraceKind::Observe, At, Issuer, InvalidProcess, 0, OtqResultKey, Agg});
    return *this;
  }
};

} // namespace

TEST(OneTimeQueryChecker, ValidCompleteQuery) {
  TraceBuilder B;
  B.join(0, 1).join(0, 2).join(0, 3);
  B.value(0, 1, 10).value(0, 2, 20).value(0, 3, 30);
  B.include(50, 1, 1).include(50, 1, 2).include(50, 1, 3);
  B.result(50, 1, 60);
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  EXPECT_TRUE(V.Terminated);
  EXPECT_EQ(V.ResponseTime, 50u);
  EXPECT_TRUE(V.Complete);
  EXPECT_TRUE(V.NoInvention);
  EXPECT_TRUE(V.AggregateConsistent);
  EXPECT_TRUE(V.valid());
  EXPECT_DOUBLE_EQ(V.Coverage, 1.0);
  EXPECT_EQ(V.Aggregate, 60);
}

TEST(OneTimeQueryChecker, NonTermination) {
  TraceBuilder B;
  B.join(0, 1).value(0, 1, 5);
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  EXPECT_FALSE(V.Terminated);
  EXPECT_FALSE(V.valid());
  EXPECT_EQ(V.str(), "no-termination");
}

TEST(OneTimeQueryChecker, ResultOutsideWindowIgnored) {
  TraceBuilder B;
  B.join(0, 1).value(0, 1, 5);
  B.result(5, 1, 5);   // Before issue: a different, earlier query.
  B.result(200, 1, 5); // After horizon.
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  EXPECT_FALSE(V.Terminated);
}

TEST(OneTimeQueryChecker, MissedPersistentMember) {
  TraceBuilder B;
  B.join(0, 1).join(0, 2).join(0, 3);
  B.value(0, 1, 1).value(0, 2, 2).value(0, 3, 4);
  B.include(50, 1, 1).include(50, 1, 2);
  B.result(50, 1, 3);
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  EXPECT_TRUE(V.Terminated);
  EXPECT_FALSE(V.Complete);
  EXPECT_EQ(V.Missed, (std::vector<ProcessId>{3}));
  EXPECT_NEAR(V.Coverage, 2.0 / 3.0, 1e-12);
  EXPECT_TRUE(V.NoInvention);
  EXPECT_TRUE(V.AggregateConsistent);
  EXPECT_FALSE(V.valid());
}

TEST(OneTimeQueryChecker, DepartedMemberIsNotRequired) {
  TraceBuilder B;
  B.join(0, 1).join(0, 2).join(0, 3);
  B.value(0, 1, 1).value(0, 2, 2).value(0, 3, 4);
  B.leave(30, 3); // Departs mid-query: not required.
  B.include(50, 1, 1).include(50, 1, 2);
  B.result(50, 1, 3);
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  EXPECT_TRUE(V.Complete);
  EXPECT_TRUE(V.valid());
  EXPECT_EQ(V.RequiredCount, 2u);
}

TEST(OneTimeQueryChecker, DepartedMemberMayStillContribute) {
  TraceBuilder B;
  B.join(0, 1).join(0, 2).join(0, 3);
  B.value(0, 1, 1).value(0, 2, 2).value(0, 3, 4);
  B.leave(30, 3);
  B.include(50, 1, 1).include(50, 1, 2).include(50, 1, 3);
  B.result(50, 1, 7);
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  // 3 was present during part of the window: contribution is legal.
  EXPECT_TRUE(V.NoInvention);
  EXPECT_TRUE(V.valid());
}

TEST(OneTimeQueryChecker, InventedContributorDetected) {
  TraceBuilder B;
  B.join(0, 1).value(0, 1, 1);
  B.include(50, 1, 1).include(50, 1, 77); // 77 never existed.
  B.result(50, 1, 1);
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  EXPECT_FALSE(V.NoInvention);
  EXPECT_EQ(V.Invented, (std::vector<ProcessId>{77}));
  EXPECT_FALSE(V.valid());
}

TEST(OneTimeQueryChecker, ContributorGoneBeforeIssueIsInvention) {
  TraceBuilder B;
  B.join(0, 1).join(0, 2);
  B.value(0, 1, 1).value(0, 2, 2);
  B.leave(5, 2); // Gone before the query was issued at t=10.
  B.include(50, 1, 1).include(50, 1, 2);
  B.result(50, 1, 3);
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  EXPECT_FALSE(V.NoInvention);
  EXPECT_EQ(V.Invented, (std::vector<ProcessId>{2}));
}

TEST(OneTimeQueryChecker, AggregateMismatchDetected) {
  TraceBuilder B;
  B.join(0, 1).join(0, 2);
  B.value(0, 1, 1).value(0, 2, 2);
  B.include(50, 1, 1).include(50, 1, 2);
  B.result(50, 1, 99);
  QueryVerdict V = checkOneTimeQuery(B.T, 1, 10, 100);
  EXPECT_FALSE(V.AggregateConsistent);
  EXPECT_FALSE(V.valid());
}

TEST(SolvabilityOracle, ClaimMatrix) {
  auto FiniteUnknown = ArrivalModel::finiteArrival(64, /*Known=*/false);
  auto BKnown = ArrivalModel::boundedConcurrency(16, /*Known=*/true);
  auto BUnknown = ArrivalModel::boundedConcurrency(16, /*Known=*/false);
  auto Inf = ArrivalModel::infiniteArrival();
  auto DKnown = KnowledgeModel::knownDiameter(8);
  auto DBounded = KnowledgeModel::boundedUnknownDiameter();
  auto DUnbounded = KnowledgeModel::unboundedDiameter();

  // Column "D known": solvable for every arrival model (claim C1).
  for (const auto &A : {FiniteUnknown, BKnown, BUnknown, Inf})
    EXPECT_EQ(oneTimeQuerySolvability({A, DKnown}), Solvability::Solvable);

  // Known b converts into a diameter bound b-1 (the C4 subtlety).
  EXPECT_EQ(oneTimeQuerySolvability({BKnown, DBounded}),
            Solvability::Solvable);
  EXPECT_EQ(oneTimeQuerySolvability({BKnown, DUnbounded}),
            Solvability::Solvable);
  EXPECT_EQ(derivableTtl({BKnown, DUnbounded}).value(), 15u);

  // Unknown b does not.
  EXPECT_EQ(oneTimeQuerySolvability({BUnknown, DBounded}),
            Solvability::Unsolvable);

  // Finite arrival without diameter knowledge: quiescent-solvable (C2).
  EXPECT_EQ(oneTimeQuerySolvability({FiniteUnknown, DBounded}),
            Solvability::SolvableIfQuiescent);
  EXPECT_EQ(oneTimeQuerySolvability({FiniteUnknown, DUnbounded}),
            Solvability::SolvableIfQuiescent);

  // Infinite arrival without knowledge: unsolvable (C3).
  EXPECT_EQ(oneTimeQuerySolvability({Inf, DBounded}),
            Solvability::Unsolvable);
  EXPECT_EQ(oneTimeQuerySolvability({Inf, DUnbounded}),
            Solvability::Unsolvable);
}

TEST(SolvabilityOracle, DerivableTtlTakesTheMinimum) {
  SystemClass C{ArrivalModel::boundedConcurrency(4, true),
                KnowledgeModel::knownDiameter(8)};
  EXPECT_EQ(derivableTtl(C).value(), 3u); // min(8, 4-1).
  SystemClass C2{ArrivalModel::finiteArrival(5, true),
                 KnowledgeModel::boundedUnknownDiameter()};
  EXPECT_EQ(derivableTtl(C2).value(), 4u); // Known n caps snapshots too.
  SystemClass C3{ArrivalModel::infiniteArrival(),
                 KnowledgeModel::boundedUnknownDiameter()};
  EXPECT_FALSE(derivableTtl(C3).has_value());
}

TEST(SolvabilityOracle, RecommendedAlgorithms) {
  auto DKnown = KnowledgeModel::knownDiameter(8);
  auto DUnknown = KnowledgeModel::unboundedDiameter();
  EXPECT_EQ(recommendedAlgorithm({ArrivalModel::infiniteArrival(), DKnown}),
            RecommendedAlgorithm::FloodingKnownDiameter);
  EXPECT_EQ(recommendedAlgorithm(
                {ArrivalModel::boundedConcurrency(8, true), DUnknown}),
            RecommendedAlgorithm::FloodingDerivedBound);
  EXPECT_EQ(
      recommendedAlgorithm({ArrivalModel::finiteArrival(9, false), DUnknown}),
      RecommendedAlgorithm::EchoTermination);
  EXPECT_EQ(recommendedAlgorithm({ArrivalModel::infiniteArrival(), DUnknown}),
            RecommendedAlgorithm::GossipBestEffort);
  EXPECT_EQ(algorithmName(RecommendedAlgorithm::EchoTermination), "echo");
  EXPECT_EQ(solvabilityName(Solvability::Unsolvable), "unsolvable");
}

namespace {
class Noop : public Actor {};
} // namespace

TEST(DynamicSystem, BuildsAndRunsAdmissibly) {
  DynamicSystemConfig Cfg;
  Cfg.Seed = 11;
  Cfg.Class = {ArrivalModel::boundedConcurrency(20),
               KnowledgeModel::boundedUnknownDiameter()};
  Cfg.InitialMembers = 12;
  Cfg.Churn.JoinRate = 0.2;
  Cfg.Churn.MeanSession = 100;
  Cfg.Churn.Horizon = 800;
  Cfg.MonitorUntil = 800;
  DynamicSystem Sys(Cfg, [] { return std::make_unique<Noop>(); });

  EXPECT_EQ(Sys.sim().upCount(), 12u);
  RunLimits L;
  L.MaxTime = 1000;
  Sys.run(L);
  EXPECT_FALSE(Sys.diameterSamples().empty());
  EXPECT_TRUE(Sys.checkClassAdmissible().ok());
  EXPECT_GT(Sys.churn().arrivals(), 12u);
}

TEST(DynamicSystem, KnownDiameterPromiseChecked) {
  DynamicSystemConfig Cfg;
  Cfg.Seed = 13;
  // Chain overlay grows the diameter linearly: a disclosed bound of 5 will
  // be violated and the certification must catch it.
  Cfg.Class = {ArrivalModel::infiniteArrival(),
               KnowledgeModel::knownDiameter(5)};
  Cfg.Attach = AttachMode::Chain;
  Cfg.InitialMembers = 4;
  Cfg.Churn.JoinRate = 0.5;
  Cfg.Churn.MeanSession = 1e9; // Nobody leaves: pure growth.
  Cfg.Churn.Horizon = 400;
  Cfg.MonitorUntil = 400;
  DynamicSystem Sys(Cfg, [] { return std::make_unique<Noop>(); });
  RunLimits L;
  L.MaxTime = 500;
  Sys.run(L);
  EXPECT_GT(Sys.maxObservedDiameter(), 5u);
  EXPECT_FALSE(Sys.checkClassAdmissible().ok());
}

TEST(DynamicSystem, GrantedTtlFollowsClassKnowledge) {
  DynamicSystemConfig Cfg;
  Cfg.Class = {ArrivalModel::boundedConcurrency(10, true),
               KnowledgeModel::unboundedDiameter()};
  Cfg.InitialMembers = 4;
  Cfg.Churn.JoinRate = 0;
  DynamicSystem Sys(Cfg, [] { return std::make_unique<Noop>(); });
  EXPECT_EQ(Sys.grantedTtl().value(), 9u);
}

TEST(DynamicSystem, RandomOverlayKeepsSmallDiameterUnderChurn) {
  DynamicSystemConfig Cfg;
  Cfg.Seed = 17;
  Cfg.Class = {ArrivalModel::boundedConcurrency(24),
               KnowledgeModel::knownDiameter(8)};
  Cfg.InitialMembers = 20;
  Cfg.OverlayDegree = 3;
  Cfg.Churn.JoinRate = 0.1;
  Cfg.Churn.MeanSession = 200;
  Cfg.Churn.Horizon = 600;
  Cfg.MonitorUntil = 600;
  DynamicSystem Sys(Cfg, [] { return std::make_unique<Noop>(); });
  RunLimits L;
  L.MaxTime = 700;
  Sys.run(L);
  EXPECT_TRUE(Sys.checkClassAdmissible().ok())
      << Sys.checkClassAdmissible().error().str();
  EXPECT_EQ(Sys.disconnectedSamples(), 0u);
}

namespace {

/// Everything the diameter monitor's readers see of a run.
struct MonitorReaders {
  size_t Samples = 0; ///< SIZE_MAX where the run does not expose it.
  uint64_t Max = 0;
  size_t Disconnected = 0;
  std::string Admissibility; ///< Empty when admissible.

  friend bool operator==(const MonitorReaders &,
                         const MonitorReaders &) = default;
};

std::string str(const MonitorReaders &R) {
  // Streamed, not an operator+ chain: GCC 12 at -O3 reports a false
  // -Wrestrict inside the chain's inlined string copies.
  std::ostringstream OS;
  OS << "{" << R.Samples << ", " << R.Max << ", " << R.Disconnected << ", \""
     << R.Admissibility << "\"}";
  return OS.str();
}

MonitorReaders readersOf(const DynamicSystem &Sys) {
  Status S = Sys.checkClassAdmissible();
  return {Sys.diameterSamples().size(), Sys.maxObservedDiameter(),
          Sys.disconnectedSamples(), S.ok() ? "" : S.error().str()};
}

MonitorReaders readersOf(const ExperimentResult &R) {
  return {SIZE_MAX, R.MaxDiameter, R.DisconnectedSamples,
          R.AdmissibilityError};
}

/// An E1 cell's run, configured as bench_solvability configures it.
ExperimentConfig e1Run(const SystemClass &Class, uint64_t Seed) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = Class;
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 400;
  Cfg.Churn.Horizon = 600;
  Cfg.QueryAt = 200;
  Cfg.Horizon = 900;
  if (Class.Arrival.Kind == ArrivalKind::FiniteArrival)
    Cfg.Churn.QuiesceAt = 150;
  if (Class.Arrival.Kind == ArrivalKind::InfiniteArrival &&
      Class.Knowledge.Diameter != DiameterKnowledge::KnownBound) {
    Cfg.Churn.JoinRate = 2.0;
    Cfg.Churn.MeanSession = 150;
    if (Class.Knowledge.Diameter == DiameterKnowledge::Unbounded)
      Cfg.Attach = AttachMode::Chain;
  }
  Cfg.Gossip.ReportAfter = 60;
  Cfg.Gossip.Rounds = 30;
  Cfg.Gossip.RoundEvery = 2;
  return Cfg;
}

/// A chain overlay that outgrows its disclosed bound of 8 a few samples in
/// (pure growth). The max often rises by exactly 1 between samples.
DynamicSystemConfig exceedsBoundRun() {
  DynamicSystemConfig Cfg;
  Cfg.Seed = 13;
  Cfg.Class = {ArrivalModel::infiniteArrival(),
               KnowledgeModel::knownDiameter(8)};
  Cfg.Attach = AttachMode::Chain;
  Cfg.InitialMembers = 4;
  Cfg.Churn.JoinRate = 0.06;
  Cfg.Churn.MeanSession = 1e9;
  Cfg.Churn.Horizon = 400;
  Cfg.MonitorUntil = 400;
  return Cfg;
}

/// A churning system with a disclosed bound of 8, whose overlay is rebuilt
/// as a degree-1 RandomRewire overlay before it runs. Two samples in, a
/// repair splits it, and joins (one link each) never merge the parts.
DynamicSystemConfig rewireRun() {
  DynamicSystemConfig Cfg;
  Cfg.Seed = 29;
  Cfg.Class = {ArrivalModel::infiniteArrival(),
               KnowledgeModel::knownDiameter(8)};
  Cfg.InitialMembers = 24;
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 2000;
  Cfg.Churn.Horizon = 800;
  Cfg.MonitorUntil = 800;
  return Cfg;
}

MonitorReaders runDirect(DynamicSystem &Sys, bool Rewire) {
  if (Rewire) {
    DynamicOverlay &O = Sys.overlay();
    O.reset(1, Rng(7), AttachMode::Random, RepairMode::RandomRewire);
    for (ProcessId P : Sys.sim().upSet())
      O.join(P);
  }
  RunLimits L;
  L.MaxTime = 900;
  Sys.run(L);
  return readersOf(Sys);
}

} // namespace

// The monitor's readers (sample count, max diameter, disconnected count and
// the admissibility message with its first violation), pinned to reference
// values. Cells 0, 3 and 6 disclose a bound and are sampled every 16 ticks:
// their rows come from a monitor that computed every sample's exact
// diameter, so skipping unchanged overlays and samples that cannot raise
// the max must not move them. The other six cells are sampled once, at
// MonitorUntil: their rows are the all-sources diameter of the overlay at
// that instant.
TEST(DynamicSystem, MonitorReadersPinned) {
  // Per cell of canonicalClassGrid(60, 28, 10), seeds 1..3. A query run
  // does not expose its sample count (NA).
  constexpr size_t NA = SIZE_MAX;
  const MonitorReaders E1[9][3] = {
      {{NA, 4, 0, ""}, {NA, 4, 0, ""}, {NA, 4, 0, ""}},
      {{NA, 3, 0, ""}, {NA, 3, 0, ""}, {NA, 3, 0, ""}},
      {{NA, 3, 0, ""}, {NA, 3, 0, ""}, {NA, 3, 0, ""}},
      {{NA, 4, 0, ""}, {NA, 4, 0, ""}, {NA, 4, 0, ""}},
      {{NA, 2, 0, ""}, {NA, 2, 0, ""}, {NA, 3, 0, ""}},
      {{NA, 2, 0, ""}, {NA, 2, 0, ""}, {NA, 3, 0, ""}},
      {{NA, 4, 0, ""}, {NA, 4, 0, ""}, {NA, 4, 0, ""}},
      {{NA, 4, 0, ""}, {NA, 5, 0, ""}, {NA, 4, 0, ""}},
      {{NA, 25, 0, ""}, {NA, 21, 0, ""}, {NA, 20, 0, ""}},
  };
  std::vector<SystemClass> Grid = canonicalClassGrid(60, 28, 10);
  ASSERT_EQ(Grid.size(), 9u);
  SimArena Arena;
  for (size_t Cell = 0; Cell != Grid.size(); ++Cell)
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      ExperimentConfig Cfg = e1Run(Grid[Cell], Seed);
      MonitorReaders Fresh = readersOf(runQueryExperiment(Cfg));
      MonitorReaders Reused = readersOf(runQueryExperiment(Cfg, &Arena));
      EXPECT_EQ(Fresh, E1[Cell][Seed - 1])
          << Grid[Cell].name() << " seed " << Seed << ": " << str(Fresh);
      EXPECT_EQ(Reused, Fresh) << Grid[Cell].name() << " seed " << Seed;
    }

  auto Noops = [] { return std::make_unique<Noop>(); };
  DynamicSystem Exceeds(exceedsBoundRun(), Noops);
  MonitorReaders Got = runDirect(Exceeds, false);
  EXPECT_EQ(Got, (MonitorReaders{25, 34, 0,
                                  "protocol-violation: disclosed diameter "
                                  "bound 8 exceeded: 9 at t=112"}))
      << str(Got);
  // The same shell reset for the same run sees the same samples.
  Exceeds.reset(exceedsBoundRun());
  EXPECT_EQ(runDirect(Exceeds, false), Got);

  DynamicSystem Rewired(rewireRun(), Noops);
  Got = runDirect(Rewired, true);
  EXPECT_EQ(Got, (MonitorReaders{50, 8, 48,
                                  "protocol-violation: disclosed diameter "
                                  "bound 8 but overlay was disconnected at "
                                  "t=48"}))
      << str(Got);
  EXPECT_GT(Got.Disconnected, 0u);
  EXPECT_LT(Got.Disconnected, Got.Samples);
}

namespace {

/// A churning system whose membership stops changing at t=600, so the
/// overlay at MonitorUntil (900) is the overlay the run ends with.
DynamicSystemConfig quiescedRun(const SystemClass &Class, uint64_t Seed) {
  DynamicSystemConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = Class;
  Cfg.InitialMembers = 20;
  if (Class.Knowledge.Diameter == DiameterKnowledge::Unbounded)
    Cfg.Attach = AttachMode::Chain;
  Cfg.Churn.JoinRate = 0.5;
  Cfg.Churn.MeanSession = 300;
  Cfg.Churn.Horizon = 600;
  Cfg.Churn.QuiesceAt = 600;
  Cfg.MonitorUntil = 900;
  return Cfg;
}

} // namespace

// No verdict of a class without a disclosed bound reads the diameter, so
// its monitor takes one sample, at MonitorUntil, and that sample is exact.
// A shell reset for each run agrees with a fresh construction.
TEST(DynamicSystem, UndisclosedBoundSampledOnceAtMonitorUntil) {
  auto Noops = [] { return std::make_unique<Noop>(); };
  RunLimits L;
  L.MaxTime = 900;
  std::optional<DynamicSystem> Shell;
  size_t Runs = 0;
  for (const SystemClass &Class : canonicalClassGrid(60, 28, 10)) {
    if (Class.Knowledge.Diameter == DiameterKnowledge::KnownBound)
      continue;
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      const DynamicSystemConfig Cfg = quiescedRun(Class, Seed);
      DynamicSystem Fresh(Cfg, Noops);
      Fresh.run(L);
      ASSERT_EQ(Fresh.diameterSamples().size(), 1u) << Class.name();
      EXPECT_EQ(Fresh.diameterSamples()[0].Time, Cfg.MonitorUntil);
      std::optional<uint64_t> Ref = allSourcesDiameter(Fresh.overlay().graph());
      EXPECT_EQ(Fresh.diameterSamples()[0].Connected, Ref.has_value());
      EXPECT_EQ(Fresh.maxObservedDiameter(), Ref.value_or(0))
          << Class.name() << " seed " << Seed;
      EXPECT_EQ(Fresh.disconnectedSamples(), Ref ? 0u : 1u);

      if (Shell)
        Shell->reset(Cfg);
      else
        Shell.emplace(Cfg, Noops);
      Shell->run(L);
      EXPECT_EQ(readersOf(*Shell), readersOf(Fresh))
          << Class.name() << " seed " << Seed;
      ++Runs;
    }
  }
  EXPECT_EQ(Runs, 18u);
}

// The monitor is an observer: a query run with it on takes the same steps,
// records the same trace and reaches the same verdict as with it off. Only
// the kernel's event count moves, by one per sample: every 16 ticks up to
// the horizon for a disclosed bound, once at the horizon otherwise. E1's
// fixed one-tick latency never draws from the kernel's stream; the
// partially synchronous runs do, so a monitor that drew from it would show.
TEST(DynamicSystem, MonitorNeverMovesTheSchedule) {
  for (const SystemClass &Class : canonicalClassGrid(60, 28, 10))
    for (uint64_t Seed = 1; Seed <= 3; ++Seed)
      for (LatencyKind Latency :
           {LatencyKind::Synchronous, LatencyKind::PartialSync}) {
        ExperimentConfig Cfg = e1Run(Class, Seed);
        Cfg.Latency.Kind = Latency;
        Cfg.KeepTrace = true;
        Cfg.DiameterSampleEvery = 16;
        ExperimentResult On = runQueryExperiment(Cfg);
        Cfg.DiameterSampleEvery = 0;
        ExperimentResult Off = runQueryExperiment(Cfg);
        SCOPED_TRACE(Class.name() + " seed " + std::to_string(Seed) +
                     (Latency == LatencyKind::Synchronous ? " sync"
                                                          : " psync"));

        ASSERT_TRUE(On.RecordedTrace && Off.RecordedTrace);
        expectSameRecords(*On.RecordedTrace, *Off.RecordedTrace);
        EXPECT_EQ(On.QueryIssued, Off.QueryIssued);
        EXPECT_EQ(On.Verdict.str(), Off.Verdict.str());
        EXPECT_EQ(On.Verdict.Missed, Off.Verdict.Missed);
        EXPECT_EQ(On.Verdict.Invented, Off.Verdict.Invented);
        EXPECT_EQ(On.Stats.MessagesSent, Off.Stats.MessagesSent);
        EXPECT_EQ(On.Stats.MessagesDelivered, Off.Stats.MessagesDelivered);
        EXPECT_EQ(On.Stats.MessagesDropped, Off.Stats.MessagesDropped);
        EXPECT_EQ(On.Stats.PayloadUnits, Off.Stats.PayloadUnits);
        const uint64_t Samples =
            Class.Knowledge.Diameter == DiameterKnowledge::KnownBound
                ? Cfg.Horizon / 16
                : 1;
        EXPECT_EQ(On.Stats.EventsExecuted, Off.Stats.EventsExecuted + Samples);
      }
}

TEST(Aggregates, FoldAllKinds) {
  Contributions C;
  C.emplace(1, 5);
  C.emplace(2, -3);
  C.emplace(3, 9);
  EXPECT_EQ(foldAggregate(AggregateKind::Sum, C), 11);
  EXPECT_EQ(foldAggregate(AggregateKind::Count, C), 3);
  EXPECT_EQ(foldAggregate(AggregateKind::Min, C), -3);
  EXPECT_EQ(foldAggregate(AggregateKind::Max, C), 9);
}

TEST(Aggregates, EmptyFoldsToIdentity) {
  Contributions C;
  EXPECT_EQ(foldAggregate(AggregateKind::Sum, C), 0);
  EXPECT_EQ(foldAggregate(AggregateKind::Count, C), 0);
  EXPECT_EQ(foldAggregate(AggregateKind::Min, C),
            std::numeric_limits<int64_t>::max());
  EXPECT_EQ(foldAggregate(AggregateKind::Max, C),
            std::numeric_limits<int64_t>::min());
}

TEST(Aggregates, Names) {
  EXPECT_EQ(aggregateName(AggregateKind::Sum), "sum");
  EXPECT_EQ(aggregateName(AggregateKind::Count), "count");
  EXPECT_EQ(aggregateName(AggregateKind::Min), "min");
  EXPECT_EQ(aggregateName(AggregateKind::Max), "max");
}

TEST(OneTimeQueryChecker, ChecksDeclaredMonoid) {
  TraceBuilder B;
  B.join(0, 1).join(0, 2);
  B.value(0, 1, 7).value(0, 2, 3);
  B.include(50, 1, 1).include(50, 1, 2);
  B.result(50, 1, 3); // min(7, 3).
  EXPECT_TRUE(
      checkOneTimeQuery(B.T, 1, 10, 100, AggregateKind::Min).valid());
  // The same report graded as a sum is inconsistent.
  EXPECT_FALSE(
      checkOneTimeQuery(B.T, 1, 10, 100, AggregateKind::Sum).valid());
  // And as a count it is inconsistent too (2 contributors, reported 3).
  EXPECT_FALSE(
      checkOneTimeQuery(B.T, 1, 10, 100, AggregateKind::Count).valid());
}

namespace {

/// The checker as it read before its one-pass form: three scans over the
/// records (result, includes, inputs) with a std::set and a std::map. It is
/// the reference the one-pass checkOneTimeQuery must equal field by field.
QueryVerdict referenceCheckOneTimeQuery(const Trace &T, ProcessId Issuer,
                                        SimTime IssueTime, SimTime Horizon,
                                        AggregateKind Kind) {
  QueryVerdict V;
  const uint32_t ResultId = T.keys().find(OtqResultKey);
  const uint32_t IncludeId = T.keys().find(OtqIncludeKey);
  const uint32_t ValueId = T.keys().find(OtqValueKey);

  for (const TraceRecord &R : T.records()) {
    if (R.kind() != TraceKind::Observe ||
        R.subject() != Issuer || ResultId == 0 || R.keyId() != ResultId)
      continue;
    if (R.Time < IssueTime || R.Time > Horizon)
      continue;
    V.Terminated = true;
    V.ResponseTime = R.Time;
    V.Aggregate = R.Value;
    break;
  }
  if (!V.Terminated)
    return V;

  std::set<ProcessId> Included;
  for (const TraceRecord &R : T.records()) {
    if (R.kind() != TraceKind::Observe ||
        R.subject() != Issuer || IncludeId == 0 || R.keyId() != IncludeId)
      continue;
    if (R.Time < IssueTime || R.Time > V.ResponseTime)
      continue;
    Included.insert(static_cast<ProcessId>(R.Value));
  }
  V.IncludedCount = Included.size();

  std::map<ProcessId, int64_t> Inputs;
  for (const TraceRecord &R : T.records()) {
    if (R.kind() != TraceKind::Observe || ValueId == 0 ||
        R.keyId() != ValueId)
      continue;
    Inputs.try_emplace(R.subject(), R.Value);
  }

  std::vector<ProcessId> Required =
      T.membersThroughout(IssueTime, V.ResponseTime);
  V.RequiredCount = Required.size();
  size_t Covered = 0;
  for (ProcessId P : Required) {
    if (Included.count(P))
      ++Covered;
    else
      V.Missed.push_back(P);
  }
  V.Complete = V.Missed.empty();
  V.Coverage = Required.empty()
                   ? 1.0
                   : static_cast<double>(Covered) /
                         static_cast<double>(Required.size());

  const auto &Presence = T.presence();
  for (ProcessId P : Included) {
    auto It = Presence.find(P);
    bool Present = It != Presence.end() &&
                   It->second.JoinTime <= V.ResponseTime &&
                   (!It->second.EndTime || *It->second.EndTime > IssueTime);
    if (!Present)
      V.Invented.push_back(P);
  }
  V.NoInvention = V.Invented.empty();

  if (Included.empty()) {
    V.AggregateConsistent = true;
  } else {
    Contributions Declared;
    bool AllDeclared = true;
    for (ProcessId P : Included) {
      auto It = Inputs.find(P);
      if (It == Inputs.end()) {
        AllDeclared = false;
        break;
      }
      Declared.emplace(P, It->second);
    }
    V.AggregateConsistent =
        AllDeclared && foldAggregate(Kind, Declared) == V.Aggregate;
  }
  return V;
}

/// Every field of \p Got equals \p Want, vectors in order.
void expectSameVerdict(const QueryVerdict &Got, const QueryVerdict &Want,
                       const std::string &Where) {
  EXPECT_EQ(Got.Terminated, Want.Terminated) << Where;
  EXPECT_EQ(Got.ResponseTime, Want.ResponseTime) << Where;
  EXPECT_EQ(Got.Complete, Want.Complete) << Where;
  EXPECT_EQ(Got.NoInvention, Want.NoInvention) << Where;
  EXPECT_EQ(Got.AggregateConsistent, Want.AggregateConsistent) << Where;
  EXPECT_EQ(Got.Missed, Want.Missed) << Where;
  EXPECT_EQ(Got.Invented, Want.Invented) << Where;
  EXPECT_EQ(Got.Coverage, Want.Coverage) << Where;
  EXPECT_EQ(Got.IncludedCount, Want.IncludedCount) << Where;
  EXPECT_EQ(Got.RequiredCount, Want.RequiredCount) << Where;
  EXPECT_EQ(Got.Aggregate, Want.Aggregate) << Where;
}

/// Checks \p T both ways at one window and returns the one-pass verdict.
QueryVerdict checkBothWays(const Trace &T, ProcessId Issuer, SimTime Issue,
                           SimTime Horizon, const std::string &Where,
                           AggregateKind Kind = AggregateKind::Sum) {
  QueryVerdict Got = checkOneTimeQuery(T, Issuer, Issue, Horizon, Kind);
  expectSameVerdict(Got,
                    referenceCheckOneTimeQuery(T, Issuer, Issue, Horizon,
                                               Kind),
                    Where);
  return Got;
}

} // namespace

// 504 runs over the nine E1 cells, each checked at its real window and at
// random windows, issuers and aggregate kinds: the one-pass checker agrees
// with the three-scan reference on every field.
TEST(OneTimeQueryChecker, OnePassMatchesThreeScanReferenceOnE1Runs) {
  const std::vector<SystemClass> Grid = canonicalClassGrid(60, 28, 10);
  ASSERT_EQ(Grid.size(), 9u);
  constexpr AggregateKind Kinds[] = {AggregateKind::Sum, AggregateKind::Count,
                                     AggregateKind::Min, AggregateKind::Max};
  Rng R(0x0E1C);
  SimArena Arena;
  size_t Terminated = 0, Invalid = 0;
  for (size_t Cell = 0; Cell != Grid.size(); ++Cell)
    for (uint64_t Seed = 1; Seed <= 56; ++Seed) {
      ExperimentConfig Cfg = e1Run(Grid[Cell], Seed);
      Cfg.KeepTrace = true;
      ExperimentResult Res = runQueryExperiment(Cfg, &Arena);
      ASSERT_TRUE(Res.RecordedTrace);
      const Trace &T = *Res.RecordedTrace;
      const std::string Where =
          Grid[Cell].name() + " seed " + std::to_string(Seed);
      ProcessId Issuer = 0;
      SimTime Issue = Cfg.QueryAt;
      for (const TraceRecord &Rec : T.records())
        if (Rec.observes(TraceKey::OtqIssue)) {
          Issuer = Rec.subject();
          Issue = Rec.Time;
          break;
        }
      QueryVerdict V = checkBothWays(T, Issuer, Issue, Cfg.Horizon, Where);
      Terminated += V.Terminated;
      Invalid += !V.valid();
      const ProcessId Other = R.nextBelow(T.presence().size() + 2);
      const SimTime From = R.nextBelow(Cfg.Horizon);
      const SimTime To = From + R.nextBelow(Cfg.Horizon - From + 1);
      const AggregateKind Kind = Kinds[R.nextBelow(4)];
      checkBothWays(T, Issuer, From, To, Where + " random window", Kind);
      checkBothWays(T, Other, From, To, Where + " random issuer", Kind);
    }
  // The sample covers both outcomes of the checker.
  EXPECT_GT(Terminated, 400u);
  EXPECT_GT(Invalid, 0u);
}

// Hand-built traces at the edges of the scan order: the one-pass checker
// must agree with the reference where record order and time order meet.
TEST(OneTimeQueryChecker, OnePassMatchesReferenceOnEdgeTraces) {
  {
    // An include recorded after the result, at the same instant, counts.
    TraceBuilder B;
    B.join(0, 1).join(0, 2).value(0, 1, 1).value(0, 2, 2);
    B.include(50, 1, 1).result(50, 1, 3).include(50, 1, 2);
    QueryVerdict V = checkBothWays(B.T, 1, 10, 100, "include after result");
    EXPECT_EQ(V.IncludedCount, 2u);
    EXPECT_TRUE(V.valid());
  }
  {
    // An include before the issue, and one after the response, do not.
    TraceBuilder B;
    B.join(0, 1).join(0, 2).value(0, 1, 1).value(0, 2, 2);
    B.include(5, 1, 2).include(50, 1, 1).result(50, 1, 1).include(60, 1, 2);
    QueryVerdict V = checkBothWays(B.T, 1, 10, 100, "include before issue");
    EXPECT_EQ(V.IncludedCount, 1u);
    EXPECT_EQ(V.Missed, (std::vector<ProcessId>{2}));
  }
  {
    // A result before the issue is another query's: the later one counts.
    TraceBuilder B;
    B.join(0, 1).value(0, 1, 4);
    B.include(5, 1, 1).result(5, 1, 99).include(40, 1, 1).result(40, 1, 4);
    QueryVerdict V = checkBothWays(B.T, 1, 10, 100, "result before issue");
    EXPECT_EQ(V.ResponseTime, 40u);
    EXPECT_EQ(V.Aggregate, 4);
    EXPECT_TRUE(V.valid());
  }
  {
    // Duplicate includes count once.
    TraceBuilder B;
    B.join(0, 1).join(0, 2).value(0, 1, 1).value(0, 2, 2);
    B.include(20, 1, 2).include(30, 1, 1).include(30, 1, 2).include(50, 1, 2);
    B.result(50, 1, 3);
    QueryVerdict V = checkBothWays(B.T, 1, 10, 100, "duplicate includes");
    EXPECT_EQ(V.IncludedCount, 2u);
    EXPECT_TRUE(V.valid());
  }
  {
    // A value declared after the response still declares the input, and a
    // second declaration does not replace the first.
    TraceBuilder B;
    B.join(0, 1).join(0, 3).join(0, 2).value(0, 1, 1);
    B.include(50, 1, 1).include(50, 1, 2).include(50, 1, 3);
    B.result(50, 1, 11).value(70, 3, 2).value(80, 2, 8).value(90, 3, 100);
    QueryVerdict V = checkBothWays(B.T, 1, 10, 100, "late value");
    EXPECT_TRUE(V.AggregateConsistent);
  }
  {
    // An undeclared contributor breaks consistency.
    TraceBuilder B;
    B.join(0, 1).join(0, 2).value(0, 1, 1);
    B.include(50, 1, 1).include(50, 1, 2).result(50, 1, 1);
    QueryVerdict V = checkBothWays(B.T, 1, 10, 100, "undeclared");
    EXPECT_FALSE(V.AggregateConsistent);
    EXPECT_TRUE(V.NoInvention);
  }
  {
    // Invented ids (never joined, and gone before the issue) are listed in
    // ascending order, whatever order they were included in.
    TraceBuilder B;
    B.join(0, 1).join(0, 2).value(0, 1, 1).value(0, 2, 2).leave(5, 2);
    B.include(50, 1, 7).include(50, 1, 2).include(50, 1, 1);
    B.result(50, 1, 3);
    QueryVerdict V = checkBothWays(B.T, 1, 10, 100, "invented");
    EXPECT_EQ(V.Invented, (std::vector<ProcessId>{2, 7}));
    EXPECT_FALSE(V.AggregateConsistent);
  }
}
