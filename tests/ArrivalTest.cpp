//===- ArrivalTest.cpp - dyndist_arrival unit tests ----------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/arrival/Churn.h"
#include "dyndist/arrival/SystemClass.h"

#include <gtest/gtest.h>

using namespace dyndist;

namespace {
class Noop : public Actor {};

ChurnDriver::ActorFactory noopFactory() {
  return [] { return std::make_unique<Noop>(); };
}
} // namespace

TEST(ArrivalModel, Names) {
  EXPECT_EQ(ArrivalModel::finiteArrival(64).name(), "M^n(64,unknown)");
  EXPECT_EQ(ArrivalModel::finiteArrival(8, true).name(), "M^n(8,known)");
  EXPECT_EQ(ArrivalModel::boundedConcurrency(16).name(), "M^b(16,known)");
  EXPECT_EQ(ArrivalModel::boundedConcurrency(16, false).name(),
            "M^b(16,unknown)");
  EXPECT_EQ(ArrivalModel::infiniteArrival().name(), "M^inf");
}

TEST(ArrivalModel, FiniteArrivalAdmissibility) {
  Trace T;
  T.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Join, 1, 2, InvalidProcess, 0, "", 0});
  EXPECT_TRUE(ArrivalModel::finiteArrival(2).checkAdmissible(T).ok());
  EXPECT_FALSE(ArrivalModel::finiteArrival(1).checkAdmissible(T).ok());
}

TEST(ArrivalModel, BoundedConcurrencyAdmissibility) {
  Trace T;
  T.append({TraceKind::Join, 0, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Join, 1, 2, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Leave, 2, 1, InvalidProcess, 0, "", 0});
  T.append({TraceKind::Join, 3, 3, InvalidProcess, 0, "", 0});
  // Peak concurrency is 2; arrivals total 3.
  EXPECT_TRUE(ArrivalModel::boundedConcurrency(2).checkAdmissible(T).ok());
  EXPECT_FALSE(ArrivalModel::boundedConcurrency(1).checkAdmissible(T).ok());
  EXPECT_TRUE(ArrivalModel::infiniteArrival().checkAdmissible(T).ok());
}

TEST(SystemClass, RanksAndHostilityOrder) {
  SystemClass Benign{ArrivalModel::finiteArrival(8, true),
                     KnowledgeModel::knownDiameter(4)};
  SystemClass Hostile{ArrivalModel::infiniteArrival(),
                      KnowledgeModel::unboundedDiameter()};
  SystemClass MixedA{ArrivalModel::infiniteArrival(),
                     KnowledgeModel::knownDiameter(4)};
  SystemClass MixedB{ArrivalModel::finiteArrival(8, true),
                     KnowledgeModel::unboundedDiameter()};

  EXPECT_TRUE(Hostile.atLeastAsHostileAs(Benign));
  EXPECT_FALSE(Benign.atLeastAsHostileAs(Hostile));
  // The two mixed corners are incomparable: orthogonal axes (claim C4).
  EXPECT_FALSE(MixedA.atLeastAsHostileAs(MixedB));
  EXPECT_FALSE(MixedB.atLeastAsHostileAs(MixedA));
  EXPECT_TRUE(Hostile.atLeastAsHostileAs(MixedA));
  EXPECT_TRUE(Hostile.atLeastAsHostileAs(MixedB));
}

TEST(SystemClass, CanonicalGridShape) {
  auto Grid = canonicalClassGrid(32, 16, 6);
  ASSERT_EQ(Grid.size(), 9u);
  // Row-major: first three share the arrival model.
  EXPECT_EQ(Grid[0].Arrival.Kind, ArrivalKind::FiniteArrival);
  EXPECT_EQ(Grid[3].Arrival.Kind, ArrivalKind::BoundedConcurrency);
  EXPECT_EQ(Grid[8].Arrival.Kind, ArrivalKind::InfiniteArrival);
  EXPECT_EQ(Grid[0].Knowledge.Diameter, DiameterKnowledge::KnownBound);
  EXPECT_EQ(Grid[2].Knowledge.Diameter, DiameterKnowledge::Unbounded);
  EXPECT_EQ(Grid[0].Knowledge.DiameterBound, 6u);
  EXPECT_EQ(Grid[3].Arrival.ConcurrencyBound, 16u);
}

TEST(ChurnDriver, PopulateInitialSpawns) {
  Simulator S(1);
  ChurnParams P;
  P.JoinRate = 0.0;
  ChurnDriver D(ArrivalModel::infiniteArrival(), P, noopFactory(), Rng(2));
  D.populateInitial(S, 10);
  EXPECT_EQ(S.upCount(), 10u);
  EXPECT_EQ(D.arrivals(), 10u);
}

TEST(ChurnDriver, PopulateInitialRespectsConcurrencyBound) {
  Simulator S(1);
  ChurnParams P;
  ChurnDriver D(ArrivalModel::boundedConcurrency(4), P, noopFactory(),
                Rng(2));
  D.populateInitial(S, 10);
  EXPECT_EQ(S.upCount(), 4u);
}

TEST(ChurnDriver, GeneratedRunIsAdmissible) {
  for (uint64_t Seed : {1, 2, 3, 4, 5}) {
    Simulator S(Seed);
    ArrivalModel M = ArrivalModel::boundedConcurrency(12);
    ChurnParams P;
    P.JoinRate = 0.5;
    P.MeanSession = 50;
    P.Horizon = 2000;
    ChurnDriver D(M, P, noopFactory(), Rng(Seed * 7));
    D.populateInitial(S, 12);
    D.start(S);
    RunLimits L;
    L.MaxTime = 3000;
    S.run(L);
    EXPECT_TRUE(M.checkAdmissible(S.trace()).ok()) << "seed " << Seed;
    EXPECT_GT(D.suppressedJoins(), 0u) << "bound should have been binding";
  }
}

TEST(ChurnDriver, FiniteArrivalStopsJoining) {
  Simulator S(3);
  ArrivalModel M = ArrivalModel::finiteArrival(20);
  ChurnParams P;
  P.JoinRate = 1.0;
  P.MeanSession = 30;
  P.Horizon = 5000;
  ChurnDriver D(M, P, noopFactory(), Rng(4));
  D.populateInitial(S, 5);
  D.start(S);
  RunLimits L;
  L.MaxTime = 6000;
  S.run(L);
  EXPECT_LE(D.arrivals(), 20u);
  EXPECT_TRUE(M.checkAdmissible(S.trace()).ok());
}

TEST(ChurnDriver, QuiescenceFreezesMembership) {
  Simulator S(5);
  ChurnParams P;
  P.JoinRate = 0.3;
  P.MeanSession = 40;
  P.QuiesceAt = 500;
  ChurnDriver D(ArrivalModel::finiteArrival(1000), P, noopFactory(), Rng(6));
  D.populateInitial(S, 8);
  D.start(S);
  RunLimits L;
  L.MaxTime = 2000;
  S.run(L);
  // After the quiescence point no join/leave/crash events may appear.
  for (const TraceRecord &E : S.trace().records()) {
    if (E.kind() == TraceKind::Join || E.kind() == TraceKind::Leave ||
        E.kind() == TraceKind::Crash) {
      EXPECT_LE(E.Time, 500u);
    }
  }
  EXPECT_GT(S.upCount(), 0u);
}

TEST(ChurnDriver, CrashFractionProducesCrashes) {
  Simulator S(7);
  ChurnParams P;
  P.JoinRate = 0.5;
  P.MeanSession = 20;
  P.Horizon = 1500;
  P.CrashFraction = 0.5;
  ChurnDriver D(ArrivalModel::infiniteArrival(), P, noopFactory(), Rng(8));
  D.populateInitial(S, 10);
  D.start(S);
  RunLimits L;
  L.MaxTime = 2000;
  S.run(L);
  size_t Crashes = S.trace().countKind(TraceKind::Crash);
  size_t Leaves = S.trace().countKind(TraceKind::Leave);
  EXPECT_GT(Crashes, 0u);
  EXPECT_GT(Leaves, 0u);
}

TEST(ChurnDriver, SessionDistributionsProduceDepartures) {
  for (SessionDist Dist : {SessionDist::Exponential, SessionDist::Pareto}) {
    Simulator S(9);
    ChurnParams P;
    P.JoinRate = 0.4;
    P.MeanSession = 25;
    P.Dist = Dist;
    P.Horizon = 1000;
    ChurnDriver D(ArrivalModel::infiniteArrival(), P, noopFactory(), Rng(10));
    D.populateInitial(S, 10);
    D.start(S);
    RunLimits L;
    L.MaxTime = 1500;
    S.run(L);
    EXPECT_GT(S.trace().countKind(TraceKind::Leave), 0u);
    EXPECT_GT(D.arrivals(), 10u);
  }
}

// Regression: configs differing only in QuiesceAt must consume identical
// RNG streams. spawnOne() used to skip the crash-flag draw on the quiesce
// path, desynchronizing every later session/join draw and breaking
// paired-seed comparisons across quiescence boundaries (E3/E4).
TEST(ChurnDriver, QuiesceAtDoesNotShiftRngStream) {
  const SimTime Quiesce = 300;
  auto runUpTo = [](std::optional<SimTime> QuiesceAt, Simulator &S,
                    uint64_t &ArrivalsOut) {
    ChurnParams P;
    P.JoinRate = 0.3;
    P.MeanSession = 500; // Most departures land past the quiesce point.
    P.CrashFraction = 0.5;
    P.Horizon = 1500;
    P.QuiesceAt = QuiesceAt;
    ChurnDriver D(ArrivalModel::infiniteArrival(), P, noopFactory(),
                  Rng(1234));
    D.populateInitial(S, 8);
    D.start(S);
    RunLimits L;
    L.MaxTime = Quiesce; // Compare only the window where behavior overlaps.
    S.run(L);
    ArrivalsOut = D.arrivals();
  };

  Simulator WithQuiesce(5), WithoutQuiesce(5);
  uint64_t ArrivalsA = 0, ArrivalsB = 0;
  runUpTo(Quiesce, WithQuiesce, ArrivalsA);
  runUpTo(std::nullopt, WithoutQuiesce, ArrivalsB);

  // Up to the quiesce point both configs must generate the exact same
  // join/departure schedule: same arrivals, same survivors.
  EXPECT_EQ(ArrivalsA, ArrivalsB);
  EXPECT_EQ(WithQuiesce.upCount(), WithoutQuiesce.upCount());
  EXPECT_EQ(WithQuiesce.trace().countKind(TraceKind::Join),
            WithoutQuiesce.trace().countKind(TraceKind::Join));
  EXPECT_EQ(WithQuiesce.trace().countKind(TraceKind::Crash),
            WithoutQuiesce.trace().countKind(TraceKind::Crash));
  EXPECT_EQ(WithQuiesce.trace().countKind(TraceKind::Leave),
            WithoutQuiesce.trace().countKind(TraceKind::Leave));
}

// Regression: a driver destroyed while its next join is still queued in the
// event loop must cancel that callback rather than fire through a dangling
// pointer (caught under ASan before the weak-token fix).
TEST(ChurnDriver, DestroyedDriverCancelsScheduledJoins) {
  Simulator S(11);
  int Spawned = 0;
  auto CountingFactory = [&Spawned]() -> std::unique_ptr<Actor> {
    ++Spawned;
    return std::make_unique<Noop>();
  };
  ChurnParams P;
  P.JoinRate = 0.5;
  P.MeanSession = 50;
  P.Horizon = 10000;
  auto D = std::make_unique<ChurnDriver>(ArrivalModel::infiniteArrival(), P,
                                         CountingFactory, Rng(12));
  D->populateInitial(S, 5);
  D->start(S);

  int SpawnedAtDestroy = -1;
  S.scheduleAt(200, [&](Simulator &) {
    D.reset(); // Mid-run: join callbacks are still queued.
    SpawnedAtDestroy = Spawned;
  });
  RunLimits L;
  L.MaxTime = 2000;
  S.run(L);

  ASSERT_GE(SpawnedAtDestroy, 5);
  // No join may fire after the driver died.
  EXPECT_EQ(Spawned, SpawnedAtDestroy);
}
