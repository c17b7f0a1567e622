//===- PropertyTest.cpp - parameterized property sweeps ------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Property-style invariants swept over parameter grids with TEST_P. Each
// suite states one law of the library and checks it across topology
// families, sizes, failure budgets, and seeds.
//
//===----------------------------------------------------------------------===//

#include "GraphTestUtil.h"
#include "dyndist/aggregation/Echo.h"
#include "dyndist/aggregation/Flooding.h"
#include "dyndist/arrival/Churn.h"
#include "dyndist/consensus/ConsensusChain.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/graph/Algorithms.h"
#include "dyndist/graph/Generators.h"
#include "dyndist/graph/Overlay.h"
#include "dyndist/aggregation/Experiment.h"
#include "dyndist/registers/MajorityRegister.h"
#include "dyndist/registers/StackRegister.h"
#include "dyndist/runtime/StressHarness.h"
#include "dyndist/support/Random.h"
#include "dyndist/support/Stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace dyndist;

//===----------------------------------------------------------------------===//
// Topology families used across suites
//===----------------------------------------------------------------------===//

namespace {

/// A gtest parameter name from its parts, streamed in order. Streaming
/// rather than an operator+ chain: GCC 12 at -O3 reports a false
/// -Wrestrict inside the chain's inlined string copies.
template <typename... Parts> std::string paramName(const Parts &...Ps) {
  std::ostringstream OS;
  (OS << ... << Ps);
  return OS.str();
}

enum class Topo { Ring, Line, Torus, Complete, ErdosRenyi, Regular, BA };

const char *topoName(Topo T) {
  switch (T) {
  case Topo::Ring:
    return "Ring";
  case Topo::Line:
    return "Line";
  case Topo::Torus:
    return "Torus";
  case Topo::Complete:
    return "Complete";
  case Topo::ErdosRenyi:
    return "ErdosRenyi";
  case Topo::Regular:
    return "Regular";
  case Topo::BA:
    return "BarabasiAlbert";
  }
  return "?";
}

/// Builds a connected instance of family \p T with ~\p N nodes.
Graph makeTopo(Topo T, size_t N, uint64_t Seed) {
  Rng R(Seed);
  switch (T) {
  case Topo::Ring:
    return makeRing(N);
  case Topo::Line:
    return makeLine(N);
  case Topo::Torus: {
    size_t Side = 2;
    while ((Side + 1) * (Side + 1) <= N)
      ++Side;
    return makeTorus(Side, Side);
  }
  case Topo::Complete:
    return makeComplete(N);
  case Topo::ErdosRenyi:
    return makeErdosRenyi(N, 0.25, R);
  case Topo::Regular:
    return makeRandomRegular(N - (N * 3) % 2, 3, R); // Make N*K even.
  case Topo::BA:
    return makeBarabasiAlbert(N, 2, R);
  }
  return Graph();
}

} // namespace

//===----------------------------------------------------------------------===//
// Graph generator invariants
//===----------------------------------------------------------------------===//

class GraphGeneratorProperty
    : public ::testing::TestWithParam<std::tuple<Topo, size_t, uint64_t>> {};

TEST_P(GraphGeneratorProperty, ConnectedConsistentAndBounded) {
  auto [T, N, Seed] = GetParam();
  Graph G = makeTopo(T, N, Seed);
  EXPECT_TRUE(G.checkConsistency());
  EXPECT_TRUE(isConnected(G));
  EXPECT_GE(G.nodeCount(), N / 2);
  EXPECT_EQ(connectedComponents(G).size(), 1u);

  // A connected simple graph's diameter is defined and below node count.
  auto D = diameter(G);
  ASSERT_TRUE(D.has_value());
  EXPECT_LT(*D, G.nodeCount());

  // Eccentricity from any node is between D/2 (rounded up) and D.
  ProcessId First = G.nodesView().front();
  auto Ecc = eccentricity(G, First);
  ASSERT_TRUE(Ecc.has_value());
  EXPECT_LE(*Ecc, *D);
  EXPECT_GE(2 * *Ecc, *D);
}

TEST_P(GraphGeneratorProperty, BallGrowsMonotonicallyToWholeGraph) {
  auto [T, N, Seed] = GetParam();
  Graph G = makeTopo(T, N, Seed);
  ProcessId Source = G.nodesView().front();
  size_t Prev = 0;
  auto D = diameter(G);
  ASSERT_TRUE(D.has_value());
  for (uint64_t Hops = 0; Hops <= *D; ++Hops) {
    size_t Size = ballAround(G, Source, Hops).size();
    EXPECT_GE(Size, Prev);
    EXPECT_GE(Size, std::min<size_t>(Hops + 1, G.nodeCount()));
    Prev = Size;
  }
  EXPECT_EQ(Prev, G.nodeCount()); // Ball of radius D covers everything.
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GraphGeneratorProperty,
    ::testing::Combine(::testing::Values(Topo::Ring, Topo::Line, Topo::Torus,
                                         Topo::Complete, Topo::ErdosRenyi,
                                         Topo::Regular, Topo::BA),
                       ::testing::Values<size_t>(8, 16, 30),
                       ::testing::Values<uint64_t>(1, 2)),
    [](const auto &Info) {
      return paramName(topoName(std::get<0>(Info.param)), "_n",
                       std::get<1>(Info.param), "_s", std::get<2>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Flooding coverage == BFS ball (the geometric heart of claim C1)
//===----------------------------------------------------------------------===//

class FloodBallProperty
    : public ::testing::TestWithParam<std::tuple<Topo, uint64_t>> {};

TEST_P(FloodBallProperty, ContributorSetEqualsBall) {
  auto [T, Ttl] = GetParam();
  Graph G = makeTopo(T, 18, 7);
  Graph Copy = G;

  Simulator S(11);
  DynamicOverlay O(2, Rng(12));
  O.attachTo(S);
  auto Cfg = std::make_shared<FloodConfig>();
  Cfg->Ttl = Ttl;
  auto Factory = makeFloodFactory(Cfg, [] { return 1; });
  for (size_t I = 0; I != G.nodeCount(); ++I)
    S.spawn(Factory());
  O.seed(std::move(Copy));
  scheduleQueryStart(S, 1, 0);
  RunLimits L;
  L.MaxTime = 500;
  S.run(L);

  auto Issue = S.trace().firstObservation(0, OtqIssueKey);
  ASSERT_TRUE(Issue.has_value());
  QueryVerdict V = checkOneTimeQuery(S.trace(), 0, Issue->Time, 500);
  ASSERT_TRUE(V.Terminated);
  EXPECT_EQ(V.IncludedCount, ballAround(G, 0, Ttl).size());
  EXPECT_TRUE(V.AggregateConsistent);
  EXPECT_TRUE(V.NoInvention);
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesTimesTtl, FloodBallProperty,
    ::testing::Combine(::testing::Values(Topo::Ring, Topo::Line, Topo::Torus,
                                         Topo::ErdosRenyi),
                       ::testing::Values<uint64_t>(0, 1, 2, 4, 9, 20)),
    [](const auto &Info) {
      return paramName(topoName(std::get<0>(Info.param)), "_ttl",
                       std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Echo validity on every static topology (claim C2's mechanism)
//===----------------------------------------------------------------------===//

class EchoTopologyProperty
    : public ::testing::TestWithParam<std::tuple<Topo, size_t, uint64_t>> {};

TEST_P(EchoTopologyProperty, ValidWithoutKnowledge) {
  auto [T, N, Seed] = GetParam();
  Graph G = makeTopo(T, N, Seed);
  size_t Nodes = G.nodeCount();

  Simulator S(Seed * 31 + 1);
  DynamicOverlay O(2, Rng(Seed * 31 + 2));
  O.attachTo(S);
  auto Counter = std::make_shared<int64_t>(0);
  auto Factory = makeEchoFactory([Counter] { return ++*Counter; });
  for (size_t I = 0; I != Nodes; ++I)
    S.spawn(Factory());
  O.seed(std::move(G));
  scheduleQueryStart(S, 1, 0);
  RunLimits L;
  L.MaxTime = 1000;
  S.run(L);

  auto Issue = S.trace().firstObservation(0, OtqIssueKey);
  ASSERT_TRUE(Issue.has_value());
  QueryVerdict V = checkOneTimeQuery(S.trace(), 0, Issue->Time, 1000);
  EXPECT_TRUE(V.valid()) << V.str();
  EXPECT_EQ(V.IncludedCount, Nodes);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, EchoTopologyProperty,
    ::testing::Combine(::testing::Values(Topo::Ring, Topo::Line, Topo::Torus,
                                         Topo::Complete, Topo::ErdosRenyi,
                                         Topo::Regular, Topo::BA),
                       ::testing::Values<size_t>(9, 20),
                       ::testing::Values<uint64_t>(3, 4)),
    [](const auto &Info) {
      return paramName(topoName(std::get<0>(Info.param)), "_n",
                       std::get<1>(Info.param), "_s", std::get<2>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Overlay connectivity under arbitrary churn workloads
//===----------------------------------------------------------------------===//

class OverlayChurnProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

namespace {

/// 12 joins, then 300 steps that each join (always while at most three
/// members are left) or remove a random member, with equal odds. Calls
/// \p Check(Step) after every step and stops at its first fatal failure.
template <typename CheckFn>
void churnOverlay(DynamicOverlay &O, uint64_t Seed, CheckFn Check) {
  Rng R(Seed ^ 0xfeedULL);
  ProcessId Next = 0;
  for (size_t I = 0; I != 12; ++I)
    O.join(Next++);
  for (int Step = 0; Step != 300; ++Step) {
    if (O.graph().nodeCount() <= 3 || R.nextBernoulli(0.5)) {
      O.join(Next++);
    } else {
      auto Nodes = nodeList(O.graph());
      O.leave(R.pick(Nodes));
    }
    Check(Step);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

} // namespace

TEST_P(OverlayChurnProperty, AlwaysConnectedAlwaysConsistent) {
  auto [Degree, Seed] = GetParam();
  DynamicOverlay O(Degree, Rng(Seed));
  churnOverlay(O, Seed, [&O](int Step) {
    ASSERT_TRUE(O.graph().checkConsistency()) << "step " << Step;
    ASSERT_TRUE(isConnected(O.graph())) << "step " << Step;
  });
}

// The RandomRewire repair (E8's ablation) under the same churn: the graph
// stays structurally sound after every step. Its connectivity is only
// probabilistic, so it is not asserted.
TEST_P(OverlayChurnProperty, RandomRewireAlwaysConsistent) {
  auto [Degree, Seed] = GetParam();
  DynamicOverlay O(Degree, Rng(Seed), AttachMode::Random,
                   RepairMode::RandomRewire);
  churnOverlay(O, Seed, [&O](int Step) {
    ASSERT_TRUE(O.graph().checkConsistency()) << "step " << Step;
  });
}

INSTANTIATE_TEST_SUITE_P(
    DegreesTimesSeeds, OverlayChurnProperty,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 5),
                       ::testing::Values<uint64_t>(1, 2, 3)),
    [](const auto &Info) {
      return paramName("deg", std::get<0>(Info.param), "_s",
                       std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Register constructions stay atomic across failure budgets and schedules
//===----------------------------------------------------------------------===//

class StackAtomicityProperty
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(StackAtomicityProperty, AtomicUnderFullCrashBudget) {
  auto [Tol, Seed] = GetParam();
  StackRegister R(Tol);
  RegisterStressOptions Opt;
  Opt.Readers = 1;
  Opt.Writes = 80;
  Opt.ReadsPerReader = 80;
  Opt.Seed = Seed;
  // Spread the full crash budget across the run.
  for (size_t K = 0; K != Tol; ++K)
    Opt.InjectBeforeWrite[15 * (K + 1)] = [&R, K] { R.base(K).crash(); };
  History H = stressRegister(R, Opt);
  Status S = checkSwmrAtomicity(H);
  EXPECT_TRUE(S.ok()) << S.error().str();
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsTimesSeeds, StackAtomicityProperty,
    ::testing::Combine(::testing::Values<size_t>(0, 1, 2, 4),
                       ::testing::Values<uint64_t>(1, 2, 3)),
    [](const auto &Info) {
      return paramName("t", std::get<0>(Info.param), "_s",
                       std::get<1>(Info.param));
    });

class MajorityAtomicityProperty
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(MajorityAtomicityProperty, AtomicUnderFullCrashBudget) {
  auto [Tol, Readers, Seed] = GetParam();
  MajorityRegister R(2 * Tol + 1, Tol);
  RegisterStressOptions Opt;
  Opt.Readers = Readers;
  Opt.Writes = 60;
  Opt.ReadsPerReader = 50;
  Opt.Seed = Seed;
  for (size_t K = 0; K != Tol; ++K)
    Opt.InjectBeforeWrite[12 * (K + 1)] = [&R, K] { R.base(K).crash(); };
  History H = stressRegister(R, Opt);
  Status S = checkSwmrAtomicity(H);
  EXPECT_TRUE(S.ok()) << S.error().str();
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsTimesReaders, MajorityAtomicityProperty,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3),
                       ::testing::Values<size_t>(1, 2, 4),
                       ::testing::Values<uint64_t>(1, 2)),
    [](const auto &Info) {
      return paramName("t", std::get<0>(Info.param), "_r",
                       std::get<1>(Info.param), "_s", std::get<2>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Consensus chain: agreement for every (t, crashes <= t) combination
//===----------------------------------------------------------------------===//

class ChainAgreementProperty
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(ChainAgreementProperty, ConcurrentProposersAgree) {
  auto [Tol, Crashes, Seed] = GetParam();
  if (Crashes > Tol)
    GTEST_SKIP() << "crash budget exceeds tolerance";
  ConsensusChain Chain(Tol);
  ConsensusStressOptions Opt;
  Opt.Proposers = 5;
  Opt.Seed = Seed;
  for (size_t K = 0; K != Crashes; ++K)
    Opt.InjectBeforePropose[K % Opt.Proposers] = [&Chain, K] {
      Chain.object(K).crash();
    };
  auto Records = stressConsensus(Chain, Opt);
  Status S = checkConsensusRun(Records);
  EXPECT_TRUE(S.ok()) << S.error().str();
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsTimesCrashes, ChainAgreementProperty,
    ::testing::Combine(::testing::Values<size_t>(0, 1, 2, 3),
                       ::testing::Values<size_t>(0, 1, 2, 3),
                       ::testing::Values<uint64_t>(1, 2)),
    [](const auto &Info) {
      return paramName("t", std::get<0>(Info.param), "_c",
                       std::get<1>(Info.param), "_s", std::get<2>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Churn generation stays admissible in its declared model
//===----------------------------------------------------------------------===//

namespace {

enum class ModelKind { Finite, BoundedB, Infinite };

std::string churnParamName(
    const ::testing::TestParamInfo<std::tuple<ModelKind, double, uint64_t>>
        &Info) {
  const char *Names[] = {"Finite", "BoundedB", "Infinite"};
  return paramName(Names[static_cast<int>(std::get<0>(Info.param))], "_r",
                   static_cast<int>(std::get<1>(Info.param) * 100), "_s",
                   std::get<2>(Info.param));
}

} // namespace

class ChurnAdmissibilityProperty
    : public ::testing::TestWithParam<
          std::tuple<ModelKind, double, uint64_t>> {};

TEST_P(ChurnAdmissibilityProperty, TraceSatisfiesDeclaredModel) {
  auto [Kind, Rate, Seed] = GetParam();
  ArrivalModel M = ArrivalModel::infiniteArrival();
  switch (Kind) {
  case ModelKind::Finite:
    M = ArrivalModel::finiteArrival(40);
    break;
  case ModelKind::BoundedB:
    M = ArrivalModel::boundedConcurrency(15);
    break;
  case ModelKind::Infinite:
    break;
  }
  Simulator S(Seed);
  ChurnParams P;
  P.JoinRate = Rate;
  P.MeanSession = 60;
  P.Horizon = 800;
  class Noop : public Actor {};
  ChurnDriver D(M, P, [] { return std::make_unique<Noop>(); }, Rng(Seed * 3));
  D.populateInitial(S, 10);
  D.start(S);
  RunLimits L;
  L.MaxTime = 1000;
  S.run(L);
  EXPECT_TRUE(M.checkAdmissible(S.trace()).ok());
  // The generator must also actually generate: some departures occurred.
  EXPECT_GT(S.trace().countKind(TraceKind::Leave), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsTimesRates, ChurnAdmissibilityProperty,
    ::testing::Combine(::testing::Values(ModelKind::Finite,
                                         ModelKind::BoundedB,
                                         ModelKind::Infinite),
                       ::testing::Values(0.05, 0.2, 0.6),
                       ::testing::Values<uint64_t>(1, 2)),
    churnParamName);

//===----------------------------------------------------------------------===//
// Trace peak-concurrency sweep equals brute force
//===----------------------------------------------------------------------===//

class ConcurrencySweepProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConcurrencySweepProperty, MatchesBruteForce) {
  uint64_t Seed = GetParam();
  Rng R(Seed);
  Trace T;
  // Random joins with random end times, appended in time order.
  struct Ev {
    SimTime Time;
    bool Join;
    ProcessId P;
  };
  std::vector<Ev> Events;
  ProcessId Next = 0;
  SimTime Clock = 0;
  std::vector<std::pair<SimTime, ProcessId>> PendingEnds;
  for (int I = 0; I != 60; ++I) {
    Clock += R.nextBelow(5);
    ProcessId P = Next++;
    Events.push_back({Clock, true, P});
    PendingEnds.push_back({Clock + 1 + R.nextBelow(30), P});
  }
  for (auto &[End, P] : PendingEnds)
    Events.push_back({End, false, P});
  std::sort(Events.begin(), Events.end(), [](const Ev &A, const Ev &B) {
    if (A.Time != B.Time)
      return A.Time < B.Time;
    return A.Join < B.Join; // Ends before joins, like the checker.
  });
  SimTime MaxTime = 0;
  for (const Ev &E : Events) {
    T.append({E.Join ? TraceKind::Join : TraceKind::Leave, E.Time, E.P,
              InvalidProcess, 0, "", 0});
    MaxTime = E.Time;
  }
  // Brute force: evaluate membersAt() at every instant.
  size_t Brute = 0;
  for (SimTime At = 0; At <= MaxTime; ++At)
    Brute = std::max(Brute, T.membersAt(At).size());
  EXPECT_EQ(T.maxConcurrency(), Brute);

  // The same intervals in the kernel's record order, where an action can
  // spawn a process before another one leaves at the same instant. The
  // leaver is gone at that instant, so the overlap must not count.
  std::stable_sort(Events.begin(), Events.end(), [](const Ev &A, const Ev &B) {
    if (A.Time != B.Time)
      return A.Time < B.Time;
    return A.Join > B.Join;
  });
  bool JoinBeforeLeave = false;
  Trace Kernel;
  for (size_t I = 0; I != Events.size(); ++I) {
    const Ev &E = Events[I];
    JoinBeforeLeave |= I != 0 && !E.Join && Events[I - 1].Join &&
                       Events[I - 1].Time == E.Time;
    Kernel.append({E.Join ? TraceKind::Join : TraceKind::Leave, E.Time, E.P,
                   InvalidProcess, 0, "", 0});
  }
  EXPECT_TRUE(JoinBeforeLeave) << "no instant has a join before a leave";
  EXPECT_EQ(Kernel.maxConcurrency(), Brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrencySweepProperty,
                         ::testing::Values<uint64_t>(1, 2, 3, 4, 5, 6, 7, 8));

//===----------------------------------------------------------------------===//
// Rotating consensus: safety and liveness across crash patterns
//===----------------------------------------------------------------------===//

#include "dyndist/consensus/RotatingConsensus.h"

class RotatingCrashProperty
    : public ::testing::TestWithParam<
          std::tuple<size_t, size_t, uint64_t>> {};

TEST_P(RotatingCrashProperty, MinorityCrashesNeverBreakAgreement) {
  auto [N, Crashes, Seed] = GetParam();
  if (2 * Crashes >= N)
    GTEST_SKIP() << "not a minority";
  Simulator S(Seed);
  auto Cfg = std::make_shared<RotatingConfig>();
  std::vector<ProcessId> Pids;
  std::vector<RotatingConsensusActor *> Actors;
  for (size_t I = 0; I != N; ++I) {
    auto Owned = std::make_unique<RotatingConsensusActor>(
        Cfg, static_cast<int64_t>(100 + I));
    Actors.push_back(Owned.get());
    Pids.push_back(S.spawn(std::move(Owned)));
  }
  Cfg->Participants = Pids;
  for (ProcessId P : Pids)
    S.scheduleAt(1, [P](Simulator &Sim) {
      Sim.injectStimulus(P, makeBody<RcStartMsg>());
    });
  Rng R(Seed * 29 + 5);
  std::vector<ProcessId> Victims = Pids;
  R.shuffle(Victims);
  for (size_t K = 0; K != Crashes; ++K) {
    ProcessId V = Victims[K];
    S.scheduleAt(1 + R.nextBelow(60), [V](Simulator &Sim) { Sim.crash(V); });
  }
  RunLimits L;
  L.MaxTime = 5000;
  S.run(L);

  auto Records = collectRotatingOutcome(S.trace());
  Status Safety = checkConsensusRun(Records, /*RequireAllDecide=*/false);
  EXPECT_TRUE(Safety.ok()) << Safety.error().str();
  for (size_t I = 0; I != N; ++I) {
    if (!S.isUp(Pids[I]))
      continue;
    EXPECT_TRUE(Actors[I]->decision().has_value()) << "participant " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesTimesCrashes, RotatingCrashProperty,
    ::testing::Combine(::testing::Values<size_t>(3, 5, 7),
                       ::testing::Values<size_t>(0, 1, 2, 3),
                       ::testing::Values<uint64_t>(1, 2)),
    [](const auto &Info) {
      return paramName("n", std::get<0>(Info.param), "_c",
                       std::get<1>(Info.param), "_s", std::get<2>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Trace archive: arbitrary simulated runs round-trip bit-exactly
//===----------------------------------------------------------------------===//

#include "TraceTestUtil.h"
#include "dyndist/sim/TraceIO.h"

class TraceRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceRoundTripProperty, SerializedRunReparsesIdentically) {
  uint64_t Seed = GetParam();
  // A busy little system: flooding members under churn produce every
  // TraceKind (joins, leaves, crashes, sends, delivers, drops, observes).
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = {ArrivalModel::boundedConcurrency(20),
               KnowledgeModel::knownDiameter(8)};
  Cfg.InitialMembers = 10;
  Cfg.Churn.JoinRate = 0.2;
  Cfg.Churn.MeanSession = 60;
  Cfg.Churn.CrashFraction = 0.4;
  Cfg.Churn.Horizon = 300;
  Cfg.QueryAt = 100;
  Cfg.Horizon = 400;
  Cfg.KeepTrace = true;
  ExperimentResult R = runQueryExperiment(Cfg);
  ASSERT_TRUE(R.RecordedTrace.has_value());

  auto Back = columnarRoundTrip(*R.RecordedTrace);
  ASSERT_TRUE(Back.ok()) << Back.error().str();
  expectSameRecords(*R.RecordedTrace, *Back);
  // The export of the read-back trace is the export of the run.
  EXPECT_EQ(traceToJsonLines(*Back), traceToJsonLines(*R.RecordedTrace));
  EXPECT_EQ(Back->maxConcurrency(), R.RecordedTrace->maxConcurrency());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceRoundTripProperty,
                         ::testing::Values<uint64_t>(1, 2, 3, 4));

//===----------------------------------------------------------------------===//
// Census: every round of a solvable-class series is valid, for any churn
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Census.h"

class CensusValidityProperty
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(CensusValidityProperty, AllRoundsValidInSolvableClass) {
  auto [RatePercent, Seed] = GetParam();
  double Rate = RatePercent / 100.0;

  auto Cfg = std::make_shared<CensusConfig>();
  Cfg->Flood.Ttl = 9;
  Cfg->Flood.Aggregate = AggregateKind::Count;
  Cfg->Period = 60;
  Cfg->Rounds = 5;

  DynamicSystemConfig SysCfg;
  SysCfg.Seed = Seed * 401 + 3;
  SysCfg.Class = {ArrivalModel::boundedConcurrency(30),
                  KnowledgeModel::knownDiameter(9)};
  SysCfg.InitialMembers = 16;
  SysCfg.Churn.JoinRate = Rate;
  SysCfg.Churn.MeanSession = Rate > 0 ? 16.0 / Rate : 1e9;
  SysCfg.Churn.Horizon = 600;
  SysCfg.MonitorUntil = 600;

  auto FloodCfg = std::make_shared<FloodConfig>();
  FloodCfg->Ttl = Cfg->Flood.Ttl;
  auto Factory = makeFloodFactory(FloodCfg, [] { return 1; });
  DynamicSystem Sys(SysCfg, Factory);
  ProcessId Issuer =
      Sys.sim().spawn(std::make_unique<CensusIssuerActor>(Cfg, 1));
  scheduleQueryStart(Sys.sim(), 100, Issuer);
  RunLimits L;
  L.MaxTime = 600;
  Sys.run(L);
  if (!Sys.checkClassAdmissible().ok())
    GTEST_SKIP() << "run left its class";
  auto Series = collectCensusSeries(Sys.sim().trace(), Issuer, 600,
                                    AggregateKind::Count);
  ASSERT_EQ(Series.size(), 5u);
  for (const CensusPoint &P : Series)
    EXPECT_TRUE(P.Valid) << "round at t=" << P.IssueAt;
}

INSTANTIATE_TEST_SUITE_P(
    RatesTimesSeeds, CensusValidityProperty,
    ::testing::Combine(::testing::Values(0, 5, 15, 30),
                       ::testing::Values<uint64_t>(1, 2)),
    [](const auto &Info) {
      return paramName("r", std::get<0>(Info.param), "_s",
                       std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// OnlineStats::merge == sequential add (the reduction SweepRunner's
// parallel-sweep determinism contract rests on)
//===----------------------------------------------------------------------===//

class OnlineStatsMergeProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, uint64_t>> {
};

TEST_P(OnlineStatsMergeProperty, MergeOfPartitionsEqualsSequentialAdd) {
  auto [Partitions, N, Seed] = GetParam();

  // Draw one sample stream; assign each sample to an arbitrary partition
  // (a second stream decides which). Partition-local order preserves the
  // global order, as in a sharded sweep reduced in seed-index order.
  Rng Samples(Seed);
  Rng Assign(Seed ^ 0x5eedu);
  OnlineStats Sequential;
  std::vector<OnlineStats> Parts(Partitions);
  for (size_t I = 0; I != N; ++I) {
    double V = (Samples.nextDouble() - 0.5) * 1e3;
    Sequential.add(V);
    Parts[Assign.nextBelow(Partitions)].add(V);
  }
  OnlineStats Merged;
  for (const OnlineStats &P : Parts)
    Merged.merge(P);

  // Count, min, and max take no rounding: bitwise equality.
  EXPECT_EQ(Merged.count(), Sequential.count());
  EXPECT_EQ(Merged.min(), Sequential.min());
  EXPECT_EQ(Merged.max(), Sequential.max());
  // Mean and M2 combine along a different association order: equal up to
  // floating-point tolerance.
  EXPECT_NEAR(Merged.mean(), Sequential.mean(),
              1e-9 * std::max(1.0, std::abs(Sequential.mean())));
  EXPECT_NEAR(Merged.variance(), Sequential.variance(),
              1e-9 * std::max(1.0, Sequential.variance()));
}

INSTANTIATE_TEST_SUITE_P(
    PartitionGrid, OnlineStatsMergeProperty,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 7, 16),
                       ::testing::Values<size_t>(1, 10, 1000),
                       ::testing::Values<uint64_t>(1, 2, 3)),
    [](const auto &Info) {
      return paramName("p", std::get<0>(Info.param), "_n",
                       std::get<1>(Info.param), "_s", std::get<2>(Info.param));
    });
