//===- bench_solvability.cpp - E1: the solvability matrix -----------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E1 (claims C1-C4): for every cell of the arrival x knowledge
// grid, run the oracle-recommended algorithm over many seeds and report the
// fraction of class-admissible runs in which the one-time query met its
// spec. Expected shape: ~1.0 in every cell the oracle calls solvable (and
// in quiescent-solvable cells run in their quiescent regime), well below
// 1.0 in the unsolvable cells, where the recommended entry is best-effort
// gossip and the spec cannot be met in every run. Exits 1 when any row's
// oracle-agrees column reads NO.
//
// The seed axis is sharded across threads by SweepRunner (--threads N /
// DYNDIST_THREADS); the aggregate is byte-identical at any thread count.
// Run with any --benchmark_* flag to execute only the wall-clock section:
// BM_SweepSolvability (a flooding cell's seed sweep at 1/2/4/hw threads)
// and BM_SweepGossipCell (a gossip cell's sweep, one thread), which
// `tools/dyndist-bench-report sweep` reports.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/support/StringUtils.h"

#include "BenchArgs.h"
#include "BenchBuildInfo.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string_view>
#include <vector>

using namespace dyndist;

namespace {

constexpr uint64_t E1MasterSeed = 0xE1;
constexpr uint64_t FiniteN = 60, B = 28, D = 10;

/// Per-seed verdict for one grid cell.
struct CellOutcome {
  bool Admissible = false;
  bool Terminated = false;
  bool Valid = false;
  double Coverage = 0.0;
};

CellOutcome runCell(const SystemClass &Class, uint64_t Seed,
                    SimArena *Arena) {
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
    // The adversarial regime of the unsolvable cells: arrivals fierce
    // enough that members join in the final gossip rounds and survive to
    // the response (completeness then needs their contribution, which
    // cannot reach the issuer in time), and, where the class allows it, an
    // unboundedly stretching overlay. At JoinRate 0.5 the D-bounded cell
    // fails only on ~1-in-100 seeds, under-sampling the impossibility.
    Cfg.Churn.JoinRate = 2.0;
    Cfg.Churn.MeanSession = 150;
    if (Class.Knowledge.Diameter == DiameterKnowledge::Unbounded)
      Cfg.Attach = AttachMode::Chain;
  }
  Cfg.Gossip.ReportAfter = 60;
  Cfg.Gossip.Rounds = 30;
  Cfg.Gossip.RoundEvery = 2;

  ExperimentResult R = runQueryExperiment(Cfg, Arena);
  CellOutcome Out;
  if (!R.ClassAdmissible || !R.QueryIssued)
    return Out;
  Out.Admissible = true;
  Out.Terminated = R.Verdict.Terminated;
  Out.Valid = R.Verdict.valid();
  Out.Coverage = R.Verdict.Coverage;
  return Out;
}

std::vector<CellOutcome> sweepCell(const SystemClass &Class, int Seeds,
                                   unsigned Threads) {
  SweepConfig Sweep;
  Sweep.MasterSeed = E1MasterSeed;
  Sweep.SeedCount = static_cast<size_t>(Seeds);
  Sweep.Threads = Threads;
  // One arena per worker: all of a worker's assigned seeds recycle one
  // simulator shell (byte-identical results; see SimArena.h).
  return runSeedSweepWith<CellOutcome, SimArena>(
      Sweep, [&Class](SweepSeed Seed, SimArena &Arena) {
        return runCell(Class, Seed.Value, &Arena);
      });
}

// --- Sweep wall-clock section (google-benchmark) --------------------------
//
// Measures the whole-sweep wall clock of one representative solvable cell
// at a ladder of thread counts; items/sec is seeds (independent runs) per
// second. Registered dynamically so the ladder can include the host's
// hardware concurrency.

void sweepCellBench(benchmark::State &State, const SystemClass &Class) {
  unsigned Threads = static_cast<unsigned>(State.range(0));
  const int Seeds = 32;
  uint64_t Ran = 0;
  for (auto _ : State) {
    auto Outcomes = sweepCell(Class, Seeds, Threads);
    Ran += Outcomes.size();
    benchmark::DoNotOptimize(Outcomes);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Ran));
}

void BM_SweepSolvability(benchmark::State &State) {
  sweepCellBench(State, SystemClass{ArrivalModel::boundedConcurrency(B),
                                    KnowledgeModel::knownDiameter(D)});
}

// The flooding cell above runs no gossip handler. This one is the E1 cell
// whose recommended algorithm is best-effort gossip (M^inf x D-bounded),
// in its adversarial regime, so its rate moves with the gossip actors'
// merge and send costs.
void BM_SweepGossipCell(benchmark::State &State) {
  SystemClass Class{ArrivalModel::infiniteArrival(),
                    KnowledgeModel::boundedUnknownDiameter()};
  assert(recommendedAlgorithm(Class) ==
             RecommendedAlgorithm::GossipBestEffort &&
         "the gossip sweep row must sweep a gossip cell");
  sweepCellBench(State, Class);
}

// --- Short-run sweep throughput (fresh vs arena reuse) --------------------
//
// The setup-dominated regime the SimArena targets: populate n=100 members,
// absorb a short churn window, certify admissibility — the lifecycle shape
// of screening sweeps that tabulate membership/overlay columns rather than
// query verdicts (the query is scheduled past the horizon, so it never
// issues; sessions outlive the window). Single-threaded so runs/s isolates
// per-run cost. reuse=0 pays full DynamicSystem construction and teardown
// per seed — on the sharded rungs that includes spawning and joining the
// shard worker pool every run — while reuse=1 recycles one arena shell
// (parked workers included) across the whole sweep. items/sec is runs per
// second; the sweep_reuse section of bench/gates.json gates the shards:8
// reuse/fresh ratio.

ExperimentConfig shortRunConfig(uint64_t Seed, unsigned Shards) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = SystemClass{ArrivalModel::boundedConcurrency(140),
                          KnowledgeModel::knownDiameter(D)};
  Cfg.InitialMembers = 100;
  Cfg.Shards = Shards;
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 4000;
  Cfg.Churn.Horizon = 30;
  Cfg.Horizon = 30;
  Cfg.QueryAt = Cfg.Horizon + 1;
  // Throughput regime: nothing reads the diameter column here, so skip the
  // diameter monitor, a CSR copy and at least one BFS per changed overlay,
  // in both the fresh and reused paths.
  Cfg.DiameterSampleEvery = 0;
  return Cfg;
}

void BM_SweepShortRuns(benchmark::State &State) {
  const bool Reuse = State.range(0) != 0;
  const unsigned Shards = static_cast<unsigned>(State.range(1));
  SweepConfig Sweep;
  Sweep.MasterSeed = E1MasterSeed;
  Sweep.SeedCount = 64;
  Sweep.Threads = 1;
  uint64_t Ran = 0;
  for (auto _ : State) {
    if (Reuse) {
      auto Out = runSeedSweepWith<ExperimentResult, SimArena>(
          Sweep, [Shards](SweepSeed Seed, SimArena &Arena) {
            return runQueryExperiment(shortRunConfig(Seed.Value, Shards),
                                      &Arena);
          });
      Ran += Out.size();
      benchmark::DoNotOptimize(Out);
    } else {
      auto Out = runSeedSweepWith<ExperimentResult, NoSweepContext>(
          Sweep, [Shards](SweepSeed Seed, NoSweepContext &) {
            return runQueryExperiment(shortRunConfig(Seed.Value, Shards));
          });
      Ran += Out.size();
      benchmark::DoNotOptimize(Out);
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Ran));
}

void registerSweepBenchmarks() {
  auto *Bench = benchmark::RegisterBenchmark("BM_SweepSolvability",
                                             BM_SweepSolvability);
  Bench->ArgName("threads")->Unit(benchmark::kMillisecond)->UseRealTime();
  std::vector<unsigned> Ladder = {1, 2, 4};
  unsigned HW = resolveSweepThreads(0);
  if (std::find(Ladder.begin(), Ladder.end(), HW) == Ladder.end())
    Ladder.push_back(HW);
  for (unsigned T : Ladder)
    Bench->Arg(static_cast<int64_t>(T));

  benchmark::RegisterBenchmark("BM_SweepGossipCell", BM_SweepGossipCell)
      ->ArgName("threads")
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime()
      ->Arg(1);

  auto *Short = benchmark::RegisterBenchmark("BM_SweepShortRuns",
                                             BM_SweepShortRuns);
  Short->ArgNames({"reuse", "shards"})
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  // Serial kernel plus two shard-engine rungs. The construction/teardown
  // tax the arena amortizes grows with engine weight — the serial rung
  // recycles allocator capacity and faulted pages only, the sharded rungs
  // additionally park the worker pool that a fresh run spawns and joins
  // every seed — so the reuse/fresh ratio climbs across the ladder; the
  // shards:8 rung carries the gated ratio.
  for (int64_t Shards : {0, 4, 8})
    for (int64_t Reuse : {0, 1})
      Short->Args({Reuse, Shards});
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]).rfind("--benchmark", 0) == 0) {
      registerSweepBenchmarks();
      dyndist_bench::addBuildTypeContext();
      ::benchmark::Initialize(&argc, argv);
      ::benchmark::RunSpecifiedBenchmarks();
      ::benchmark::Shutdown();
      return 0;
    }
  }

  unsigned Threads = dyndist_bench::benchThreadsArg(argc, argv);
  // 100 seeds per cell: the unsolvable cells fail at ~1% per run, so small
  // sweeps under-sample them to a fake 1.00 valid-rate. Sharded across
  // threads this costs what 20 seeds used to serially.
  int Seeds = dyndist_bench::benchCountArg(argc, argv, 100);

  std::printf("E1: one-time-query solvability matrix "
              "(%d seeds per cell; n=%llu, b=%llu, D=%llu; %u threads)\n\n",
              Seeds, (unsigned long long)FiniteN, (unsigned long long)B,
              (unsigned long long)D, resolveSweepThreads(Threads));

  Table T;
  T.setHeader({"class", "oracle", "algorithm", "runs", "terminated",
               "valid-rate", "mean-coverage", "oracle-agrees"});
  bool AllAgree = true;

  for (const SystemClass &Class : canonicalClassGrid(FiniteN, B, D)) {
    int Admissible = 0, Terminated = 0, Valid = 0;
    double CoverageSum = 0;
    int CoverageRuns = 0;
    for (const CellOutcome &O : sweepCell(Class, Seeds, Threads)) {
      if (!O.Admissible)
        continue;
      ++Admissible;
      if (O.Terminated) {
        ++Terminated;
        CoverageSum += O.Coverage;
        ++CoverageRuns;
      }
      if (O.Valid)
        ++Valid;
    }

    Solvability Oracle = oneTimeQuerySolvability(Class);
    double ValidRate = Admissible ? double(Valid) / Admissible : 0.0;
    bool Agrees = Oracle == Solvability::Unsolvable ? ValidRate < 1.0
                                                    : ValidRate == 1.0;
    AllAgree = AllAgree && Agrees;
    T.addRow({Class.name(), solvabilityName(Oracle),
              algorithmName(recommendedAlgorithm(Class)),
              format("%d", Admissible),
              format("%.2f", Admissible ? double(Terminated) / Admissible : 0),
              format("%.2f", ValidRate),
              format("%.2f", CoverageRuns ? CoverageSum / CoverageRuns : 0),
              Agrees ? "yes" : "NO"});
  }
  std::printf("%s\n", T.render().c_str());
  // E1's claim as a gate: a row the oracle disagrees with fails the run.
  return AllAgree ? 0 : 1;
}
