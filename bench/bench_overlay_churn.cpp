//===- bench_overlay_churn.cpp - E8: the overlay substrate ----------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E8: behavior of the churn-maintained overlay — the substrate
// the knowledge axis is parameterized over. For each attachment policy and
// target degree, drive a long random join/leave workload and report the
// diameter's trajectory, degree statistics, and connectivity. This is what
// justifies using the random-attach overlay for "diameter bounded" classes
// (its diameter stays small and stable under churn) and the chain overlay
// as the witness for "diameter unbounded".
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Gossip.h"
#include "dyndist/graph/Algorithms.h"
#include "dyndist/graph/Overlay.h"
#include "dyndist/support/Stats.h"
#include "dyndist/support/StringUtils.h"

#include "BenchArgs.h"
#include "BenchBuildInfo.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>

using namespace dyndist;

namespace {

struct OverlayReport {
  Summary Diameter;
  double MeanDegree = 0;
  uint64_t MaxDegree = 0;
  size_t DisconnectedSamples = 0;
  size_t FinalSize = 0;
  size_t CutVertices = 0; ///< Articulation points of the final overlay.
};

/// Random workload: start with Initial joins, then Steps events, each a
/// join with probability JoinProb else a leave of a random member;
/// samples diameter every SampleEvery events.
OverlayReport drive(AttachMode Mode, size_t Degree, size_t Initial,
                    size_t Steps, double JoinProb, uint64_t Seed,
                    size_t SampleEvery = 16,
                    RepairMode Repair = RepairMode::PatchPath) {
  DynamicOverlay O(Degree, Rng(Seed), Mode, Repair);
  Rng R(Seed ^ 0xabcdefULL);
  ProcessId Next = 0;
  for (size_t I = 0; I != Initial; ++I)
    O.join(Next++);

  OverlayReport Rep;
  std::vector<double> Diameters;
  for (size_t Step = 0; Step != Steps; ++Step) {
    bool Join = O.graph().nodeCount() <= 3 || R.nextBernoulli(JoinProb);
    if (Join) {
      O.join(Next++);
    } else {
      NeighborView Nodes = O.graph().nodesView();
      O.leave(Nodes[R.nextBelow(Nodes.size())]);
    }
    if (Step % SampleEvery == 0) {
      auto D = diameter(O.graph());
      if (D)
        Diameters.push_back(static_cast<double>(*D));
      else
        ++Rep.DisconnectedSamples;
    }
  }
  Rep.Diameter = Summary::of(Diameters);
  const Graph &G = O.graph();
  Rep.FinalSize = G.nodeCount();
  uint64_t DegreeSum = 0;
  for (ProcessId P : G.nodesView()) {
    uint64_t Deg = G.degree(P);
    DegreeSum += Deg;
    Rep.MaxDegree = std::max(Rep.MaxDegree, Deg);
  }
  Rep.MeanDegree =
      G.nodeCount() ? double(DegreeSum) / double(G.nodeCount()) : 0;
  Rep.CutVertices = articulationPoints(G).size();
  return Rep;
}

// --- Graph/overlay micro-bench section (google-benchmark) -----------------
//
// Measures the overlay substrate itself: churn absorption (join/leave with
// the patch repair rule), neighbor-list iteration (the inner loop of every
// broadcast), BFS connectivity, the exact diameter the admissibility
// monitor samples, and a full-stack digest-gossip run over a
// churn-maintained overlay. Run with any --benchmark_* flag to execute
// only this section; `tools/dyndist-bench-report graph` reports it.

constexpr size_t ChurnInitial = 64;
constexpr size_t ChurnSteps = 4096;

/// One deterministic E8-style churn workload (no analysis sampling):
/// returns the number of churn events executed.
uint64_t runGraphChurn(DynamicOverlay &O) {
  Rng R(42 ^ 0xabcdefULL);
  ProcessId Next = 0;
  for (size_t I = 0; I != ChurnInitial; ++I)
    O.join(Next++);
  for (size_t Step = 0; Step != ChurnSteps; ++Step) {
    if (O.graph().nodeCount() <= 3 || R.nextBernoulli(0.5)) {
      O.join(Next++);
    } else {
      // Zero-copy victim pick; the view is consumed before leave() mutates.
      NeighborView Nodes = O.graph().nodesView();
      O.leave(Nodes[static_cast<size_t>(R.nextBelow(Nodes.size()))]);
    }
  }
  return ChurnInitial + ChurnSteps;
}

void BM_GraphChurn(benchmark::State &State) {
  uint64_t Events = 0;
  for (auto _ : State) {
    DynamicOverlay O(3, Rng(42));
    Events += runGraphChurn(O);
    benchmark::DoNotOptimize(O.graph().nodeCount());
  }
  // items_per_second in the report is churn events (joins + leaves)/sec.
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_GraphChurn)->Unit(benchmark::kMillisecond);

/// The churned overlay every iteration benchmark walks (built once).
const Graph &churnedGraph() {
  static const Graph G = [] {
    DynamicOverlay O(3, Rng(42));
    runGraphChurn(O);
    return O.graph();
  }();
  return G;
}

void BM_NeighborIteration(benchmark::State &State) {
  const Graph &G = churnedGraph();
  uint64_t Visits = 0;
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (ProcessId P : G.nodesView())
      for (ProcessId N : G.neighborView(P))
        Sum += N;
    benchmark::DoNotOptimize(Sum);
    Visits += 2 * G.edgeCount();
  }
  // items_per_second is neighbor-list entries visited/sec.
  State.SetItemsProcessed(static_cast<int64_t>(Visits));
}
BENCHMARK(BM_NeighborIteration)->Unit(benchmark::kMillisecond);

void BM_GraphBfs(benchmark::State &State) {
  const Graph &G = churnedGraph();
  uint64_t Nodes = 0;
  for (auto _ : State) {
    bool Connected = isConnected(G);
    benchmark::DoNotOptimize(Connected);
    Nodes += G.nodeCount();
  }
  // items_per_second is nodes visited by the connectivity BFS/sec.
  State.SetItemsProcessed(static_cast<int64_t>(Nodes));
}
BENCHMARK(BM_GraphBfs)->Unit(benchmark::kMillisecond);

/// A churned overlay of exactly \p Members nodes: \p Members joins, then
/// 4 * Members steps that each remove a random member and join a fresh one.
Graph steadyChurnedGraph(AttachMode Mode, size_t Members) {
  DynamicOverlay O(3, Rng(42), Mode);
  Rng R(42 ^ 0xabcdefULL);
  ProcessId Next = 0;
  for (size_t I = 0; I != Members; ++I)
    O.join(Next++);
  for (size_t Step = 0; Step != 4 * Members; ++Step) {
    NeighborView Nodes = O.graph().nodesView();
    O.leave(Nodes[static_cast<size_t>(R.nextBelow(Nodes.size()))]);
    O.join(Next++);
  }
  return O.graph();
}

/// The admissibility monitor's sample: exact diameter of a churned overlay.
/// Random attach at n = 28 and n = 60 are E1's M^b(28) and M^n(60)
/// overlays, which fit the 64-node one-word adjacency rows; random attach
/// at n = 150 is the expander-like CSR case (D ~ 5); chain attach at
/// n = 160 is the long-path case.
void BM_GraphDiameter(benchmark::State &State, AttachMode Mode,
                      size_t Members) {
  const Graph G = steadyChurnedGraph(Mode, Members);
  for (auto _ : State) {
    auto D = diameter(G);
    benchmark::DoNotOptimize(D);
  }
  // items_per_second is diameter() calls/sec.
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()));
}
BENCHMARK_CAPTURE(BM_GraphDiameter, random_n28, AttachMode::Random, 28)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GraphDiameter, random_n60, AttachMode::Random, 60)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GraphDiameter, random_n150, AttachMode::Random, 150)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_GraphDiameter, chain_n160, AttachMode::Chain, 160)
    ->Unit(benchmark::kMicrosecond);

/// Full stack: digest-mode gossip over a churn-maintained overlay — the
/// protocol hot path the flat adjacency representation exists for (digest
/// construction + neighbor queries dominate per-event work).
void BM_OverlayGossipDigest(benchmark::State &State) {
  uint64_t Events = 0;
  for (auto _ : State) {
    Simulator S(7);
    S.setTraceLevel(TraceLevel::Off);
    DynamicOverlay O(3, Rng(8));
    O.attachTo(S);

    auto Cfg = std::make_shared<GossipConfig>();
    Cfg->DigestMode = true;
    Cfg->Rounds = 40;
    Cfg->RoundEvery = 2;
    Cfg->FanOut = 2;
    Cfg->ReportAfter = 150;
    auto Counter = std::make_shared<int64_t>(0);
    auto Factory = makeGossipFactory(Cfg, [Counter] { return ++*Counter; });
    for (int I = 0; I != 256; ++I)
      S.spawn(Factory());
    scheduleQueryStart(S, 1, /*Issuer=*/0);

    // Background churn: one crash + one replacement spawn every 8 ticks.
    std::function<void(Simulator &)> ChurnTick =
        [&ChurnTick, &Factory](Simulator &Sim) {
          const auto &Up = Sim.upSet();
          if (!Up.empty())
            Sim.crash(Up[Sim.rng().nextBelow(Up.size())]);
          Sim.spawn(Factory());
          Sim.scheduleAfter(8, ChurnTick);
        };
    S.scheduleAfter(8, ChurnTick);

    RunLimits L;
    L.MaxTime = 160;
    S.run(L);
    Events += S.stats().EventsExecuted;
    benchmark::DoNotOptimize(S.stats().MessagesSent);
  }
  // items_per_second is kernel events/sec on the gossip-digest workload.
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_OverlayGossipDigest)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]).rfind("--benchmark", 0) == 0) {
      dyndist_bench::addBuildTypeContext();
      ::benchmark::Initialize(&argc, argv);
      ::benchmark::RunSpecifiedBenchmarks();
      ::benchmark::Shutdown();
      return 0;
    }
  }

  size_t Steps = static_cast<size_t>(
      dyndist_bench::benchCountArg(argc, argv, 2000));

  std::printf("E8: overlay diameter/degree under churn (%zu events, "
              "join probability 0.5, initial population 32)\n\n",
              Steps);

  Table T;
  T.setHeader({"attach", "degree", "final-n", "diam-mean", "diam-p90",
               "diam-max", "deg-mean", "deg-max", "disconnected"});
  struct Cfg {
    AttachMode Mode;
    size_t Degree;
    const char *Name;
  } Cfgs[] = {
      {AttachMode::Random, 1, "random"}, {AttachMode::Random, 2, "random"},
      {AttachMode::Random, 3, "random"}, {AttachMode::Random, 5, "random"},
      {AttachMode::Chain, 1, "chain"},
  };
  for (const Cfg &C : Cfgs) {
    OverlayReport Rep =
        drive(C.Mode, C.Degree, /*Initial=*/32, Steps, 0.5, 42);
    T.addRow({C.Name, format("%zu", C.Degree), format("%zu", Rep.FinalSize),
              format("%.1f", Rep.Diameter.Mean),
              format("%.1f", Rep.Diameter.P90),
              format("%.0f", Rep.Diameter.Max),
              format("%.1f", Rep.MeanDegree),
              format("%llu", (unsigned long long)Rep.MaxDegree),
              format("%zu", Rep.DisconnectedSamples)});
  }
  std::printf("%s\n", T.render().c_str());

  // Growth regime: join-heavy workload, where the chain's diameter runs
  // away linearly while random attachment stays logarithmic.
  std::printf("growth regime (join probability 0.9):\n");
  Table T2;
  T2.setHeader({"attach", "degree", "final-n", "diam-max"});
  for (const Cfg &C : Cfgs) {
    OverlayReport Rep = drive(C.Mode, C.Degree, /*Initial=*/8, Steps / 4,
                              0.9, 7, /*SampleEvery=*/128);
    T2.addRow({C.Name, format("%zu", C.Degree), format("%zu", Rep.FinalSize),
               format("%.0f", Rep.Diameter.Max)});
  }
  std::printf("%s\n", T2.render().c_str());
  // Repair-rule ablation: the deterministic patch rule vs one-random-link
  // rewiring, under a departure-heavy workload where repair quality shows.
  std::printf("repair-rule ablation (join probability 0.45, departures "
              "dominate):\n");
  Table T3;
  T3.setHeader({"repair", "degree", "diam-mean", "deg-mean", "deg-max",
                "disconnected-samples", "cut-vertices"});
  for (RepairMode Repair : {RepairMode::PatchPath, RepairMode::RandomRewire}) {
    for (size_t Degree : {1, 2, 3}) {
      OverlayReport Rep = drive(AttachMode::Random, Degree, /*Initial=*/48,
                                Steps, 0.45, 99, 16, Repair);
      T3.addRow({Repair == RepairMode::PatchPath ? "patch-path"
                                                 : "random-rewire",
                 format("%zu", Degree), format("%.1f", Rep.Diameter.Mean),
                 format("%.1f", Rep.MeanDegree),
                 format("%llu", (unsigned long long)Rep.MaxDegree),
                 format("%zu", Rep.DisconnectedSamples),
                 format("%zu", Rep.CutVertices)});
    }
  }
  std::printf("%s\n", T3.render().c_str());

  std::printf(
      "Expected shape: zero disconnected samples under the patch rule at\n"
      "any degree (its guarantee is deterministic) at the cost of degree\n"
      "inflation; random rewiring keeps degrees near the target but buys\n"
      "only probabilistic connectivity — occasional disconnected samples\n"
      "are the price. Random attachment keeps the diameter small and flat\n"
      "while the chain's diameter grows with the population.\n");
  return 0;
}
