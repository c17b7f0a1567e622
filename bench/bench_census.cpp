//===- bench_census.cpp - E9: the monitoring application ------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E9: the paper motivates data aggregation as the canonical way
// to *observe* a dynamic system. This bench runs the repeated census
// service in a churning bounded-concurrency system and prints the measured
// time series next to ground truth: per round, the census count vs the
// actual live population, round validity, and the tracking error across
// churn intensities.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Census.h"
#include "dyndist/core/DynamicSystem.h"
#include "dyndist/support/Stats.h"
#include "dyndist/support/StringUtils.h"

#include "BenchArgs.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace dyndist;

namespace {

std::vector<CensusPoint> runSeries(uint64_t Seed, double JoinRate,
                                   uint64_t Rounds) {
  auto Cfg = std::make_shared<CensusConfig>();
  Cfg->Flood.Ttl = 9;
  Cfg->Flood.Aggregate = AggregateKind::Count;
  Cfg->Period = 60;
  Cfg->Rounds = Rounds;

  DynamicSystemConfig SysCfg;
  SysCfg.Seed = Seed;
  SysCfg.Class = {ArrivalModel::boundedConcurrency(36),
                  KnowledgeModel::knownDiameter(9)};
  SysCfg.InitialMembers = 20;
  SysCfg.Churn.JoinRate = JoinRate;
  SysCfg.Churn.MeanSession = JoinRate > 0 ? 20.0 / JoinRate : 1e9;
  SysCfg.Churn.Horizon = 100 + Rounds * 60 + 100;
  SysCfg.MonitorUntil = SysCfg.Churn.Horizon;
  // The census series is built from Observe records and presence intervals
  // only, so skip the per-message trace records.
  SysCfg.Tracing = TraceLevel::Lifecycle;

  auto FloodCfg = std::make_shared<FloodConfig>();
  FloodCfg->Ttl = Cfg->Flood.Ttl;
  auto Factory = makeFloodFactory(FloodCfg, [] { return 1; });
  DynamicSystem Sys(SysCfg, Factory);
  ProcessId Issuer =
      Sys.sim().spawn(std::make_unique<CensusIssuerActor>(Cfg, 1));
  scheduleQueryStart(Sys.sim(), 100, Issuer);

  RunLimits L;
  L.MaxTime = SysCfg.Churn.Horizon;
  Sys.run(L);
  if (!Sys.checkClassAdmissible().ok())
    return {};
  return collectCensusSeries(Sys.sim().trace(), Issuer, L.MaxTime,
                             AggregateKind::Count);
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Rounds = static_cast<uint64_t>(
      dyndist_bench::benchCountArg(argc, argv, 10));

  std::printf("E9: repeated census over a churning system "
              "(%llu rounds, period 60)\n\n",
              (unsigned long long)Rounds);

  // One detailed series at moderate churn.
  std::printf("series at join-rate 0.15 (seed 5):\n");
  Table T;
  T.setHeader({"round", "issued-at", "census", "live", "error", "valid"});
  auto Series = runSeries(5, 0.15, Rounds);
  size_t RoundNo = 0;
  for (const CensusPoint &P : Series) {
    ++RoundNo;
    long Err = static_cast<long>(P.Included) -
               static_cast<long>(P.LivePopulation);
    T.addRow({format("%zu", RoundNo),
              format("%llu", (unsigned long long)P.IssueAt),
              format("%zu", P.Included), format("%zu", P.LivePopulation),
              format("%+ld", Err), P.Valid ? "yes" : "no"});
  }
  std::printf("%s\n", T.render().c_str());

  // Tracking error vs churn intensity, averaged over seeds.
  std::printf("tracking error vs churn (5 seeds each):\n");
  Table T2;
  T2.setHeader({"join-rate", "rounds", "valid-rate", "mean-|error|",
                "max-|error|"});
  for (double Rate : {0.0, 0.05, 0.15, 0.3}) {
    OnlineStats Err;
    int Valid = 0, Total = 0;
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      for (const CensusPoint &P : runSeries(Seed * 7, Rate, Rounds)) {
        ++Total;
        Valid += P.Valid;
        Err.add(std::abs(static_cast<double>(P.Included) -
                         static_cast<double>(P.LivePopulation)));
      }
    }
    T2.addRow({format("%.2f", Rate), format("%d", Total),
               format("%.2f", Total ? double(Valid) / Total : 0),
               format("%.2f", Err.mean()), format("%.0f", Err.max())});
  }
  std::printf("%s\n", T2.render().c_str());
  std::printf("Expected shape: every round of every series is spec-valid\n"
              "(the class is solvable), and the census-vs-live error stays\n"
              "small — bounded by the churn that fits inside one round's\n"
              "reply window — growing mildly with the join rate.\n");
  return 0;
}
