//===- bench_quiescence.cpp - E3: echo and quiescence ---------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E3 (claim C2): in a finite-arrival system whose churn
// quiesces at a known instant, sweep the query issue time across the
// quiescence boundary. The echo wave needs no diameter knowledge, but its
// termination detection only converges once membership stops moving:
// queries issued well before quiescence frequently hang (a departed child
// owes an echo forever), queries issued after it always terminate and meet
// the spec.
//
// Seeds are sharded across threads by SweepRunner (--threads N /
// DYNDIST_THREADS); every row pairs the same derived seeds against every
// query time, and the aggregate is byte-identical at any thread count.
// Run with any --benchmark_* flag to execute only the BM_SweepQuiescence
// wall-clock section, which `tools/dyndist-bench-report sweep` reports.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/support/Stats.h"
#include "dyndist/support/StringUtils.h"

#include "BenchArgs.h"
#include "BenchBuildInfo.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <vector>

using namespace dyndist;

namespace {

constexpr uint64_t E3MasterSeed = 0xE3;
constexpr SimTime QuiesceAt = 400;

/// Per-seed verdict for one query-time row.
struct RowOutcome {
  bool Counted = false;
  bool Terminated = false;
  bool Valid = false;
  double Latency = 0.0;
};

RowOutcome runRow(SimTime QueryAt, uint64_t Seed, SimArena *Arena) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = {ArrivalModel::finiteArrival(150),
               KnowledgeModel::boundedUnknownDiameter()};
  Cfg.InitialMembers = 20;
  Cfg.Churn.JoinRate = 0.15;
  Cfg.Churn.MeanSession = 120;
  Cfg.Churn.QuiesceAt = QuiesceAt;
  Cfg.QueryAt = QueryAt;
  Cfg.Horizon = 1600;

  ExperimentResult R = runQueryExperiment(Cfg, Arena);
  RowOutcome Out;
  if (!R.ClassAdmissible || !R.QueryIssued)
    return Out;
  Out.Counted = true;
  Out.Terminated = R.Verdict.Terminated;
  Out.Valid = R.Verdict.valid();
  if (R.Verdict.Terminated)
    Out.Latency = static_cast<double>(R.Verdict.ResponseTime - QueryAt);
  return Out;
}

std::vector<RowOutcome> sweepRow(SimTime QueryAt, int Seeds,
                                 unsigned Threads) {
  SweepConfig Sweep;
  Sweep.MasterSeed = E3MasterSeed;
  Sweep.SeedCount = static_cast<size_t>(Seeds);
  Sweep.Threads = Threads;
  // One arena per worker: all of a worker's assigned seeds recycle one
  // simulator shell (byte-identical results; see SimArena.h).
  return runSeedSweepWith<RowOutcome, SimArena>(
      Sweep, [QueryAt](SweepSeed Seed, SimArena &Arena) {
        return runRow(QueryAt, Seed.Value, &Arena);
      });
}

// --- Sweep wall-clock section (google-benchmark) --------------------------

void BM_SweepQuiescence(benchmark::State &State) {
  unsigned Threads = static_cast<unsigned>(State.range(0));
  const int Seeds = 24;
  uint64_t Ran = 0;
  for (auto _ : State) {
    auto Outcomes = sweepRow(500, Seeds, Threads);
    Ran += Outcomes.size();
    benchmark::DoNotOptimize(Outcomes);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Ran));
}

void registerSweepBenchmarks() {
  auto *Bench =
      benchmark::RegisterBenchmark("BM_SweepQuiescence", BM_SweepQuiescence);
  Bench->ArgName("threads")->Unit(benchmark::kMillisecond)->UseRealTime();
  std::vector<unsigned> Ladder = {1, 2, 4};
  unsigned HW = resolveSweepThreads(0);
  if (std::find(Ladder.begin(), Ladder.end(), HW) == Ladder.end())
    Ladder.push_back(HW);
  for (unsigned T : Ladder)
    Bench->Arg(static_cast<int64_t>(T));
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
  int Seeds = dyndist_bench::benchCountArg(argc, argv, 15);

  std::printf("E3: echo-wave query vs quiescence (claim C2); churn "
              "quiesces at t=%llu, %d seeds per row, %u threads\n\n",
              (unsigned long long)QuiesceAt, Seeds,
              resolveSweepThreads(Threads));

  Table T;
  T.setHeader({"query-at", "regime", "runs", "terminated", "valid",
               "mean-latency", "p90-latency"});

  for (SimTime QueryAt : {100, 200, 300, 380, 420, 500, 700}) {
    int Counted = 0, Terminated = 0, Valid = 0;
    std::vector<double> Latencies;
    for (const RowOutcome &O : sweepRow(QueryAt, Seeds, Threads)) {
      if (!O.Counted)
        continue;
      ++Counted;
      if (O.Terminated) {
        ++Terminated;
        Latencies.push_back(O.Latency);
      }
      if (O.Valid)
        ++Valid;
    }
    Summary Lat = Summary::of(Latencies);
    T.addRow({format("%llu", (unsigned long long)QueryAt),
              QueryAt < QuiesceAt ? "churning" : "quiescent",
              format("%d", Counted),
              format("%.2f", Counted ? double(Terminated) / Counted : 0),
              format("%.2f", Counted ? double(Valid) / Counted : 0),
              format("%.1f", Lat.Mean), format("%.1f", Lat.P90)});
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("Expected shape: the valid rate is 1.00 for every row issued\n"
              "after quiescence and below 1.00 for every row issued into\n"
              "the churning phase.\n");
  return 0;
}
