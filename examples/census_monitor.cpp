//===- census_monitor.cpp - watching a dynamic system live ----------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// The application the paper's aggregation problem abstracts: a monitoring
// service that repeatedly measures the population of a churning system.
// Runs the census service over a bounded-concurrency system, prints the
// measured series against ground truth, and archives the execution as a
// columnar trace that dyndist-replay can re-run under other algorithms.
//
//   $ ./census_monitor [join-rate] [trace-out.dytr]
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Census.h"
#include "dyndist/core/DynamicSystem.h"
#include "dyndist/sim/TraceColumnar.h"
#include "dyndist/support/StringUtils.h"

#include <cstdio>
#include <cstdlib>

using namespace dyndist;

int main(int argc, char **argv) {
  double JoinRate = argc > 1 ? std::atof(argv[1]) : 0.15;
  std::string TraceOut = argc > 2 ? argv[2] : "";

  auto Census = std::make_shared<CensusConfig>();
  Census->Flood.Ttl = 9;
  Census->Flood.Aggregate = AggregateKind::Count;
  Census->Period = 60;
  Census->Rounds = 10;

  DynamicSystemConfig Cfg;
  Cfg.Seed = 5;
  Cfg.Class = {ArrivalModel::boundedConcurrency(36),
               KnowledgeModel::knownDiameter(9)};
  Cfg.InitialMembers = 20;
  Cfg.Churn.JoinRate = JoinRate;
  Cfg.Churn.MeanSession = JoinRate > 0 ? 20.0 / JoinRate : 1e9;
  Cfg.Churn.Horizon = 800;
  Cfg.MonitorUntil = 800;

  std::printf("system class : %s, join-rate %.2f\n", Cfg.Class.name().c_str(),
              JoinRate);

  auto FloodCfg = std::make_shared<FloodConfig>();
  FloodCfg->Ttl = Census->Flood.Ttl;
  auto Factory = makeFloodFactory(FloodCfg, [] { return 1; });
  DynamicSystem Sys(Cfg, Factory);
  ProcessId Issuer =
      Sys.sim().spawn(std::make_unique<CensusIssuerActor>(Census, 1));
  scheduleQueryStart(Sys.sim(), 100, Issuer);

  RunLimits L;
  L.MaxTime = 800;
  Sys.run(L);

  Status Admissible = Sys.checkClassAdmissible();
  std::printf("class check  : %s\n",
              Admissible.ok() ? "admissible" : Admissible.error().str().c_str());

  auto Series = collectCensusSeries(Sys.sim().trace(), Issuer, 800,
                                    AggregateKind::Count);
  Table T;
  T.setHeader({"round", "t", "census", "live", "error", "valid"});
  size_t Round = 0;
  for (const CensusPoint &P : Series) {
    ++Round;
    long Err =
        static_cast<long>(P.Included) - static_cast<long>(P.LivePopulation);
    T.addRow({format("%zu", Round), format("%llu", (unsigned long long)P.IssueAt),
              format("%zu", P.Included), format("%zu", P.LivePopulation),
              format("%+ld", Err), P.Valid ? "yes" : "no"});
  }
  std::printf("%s", T.render().c_str());
  std::printf("\nmessages: %llu sent, %llu payload units, %llu arrivals\n",
              (unsigned long long)Sys.sim().stats().MessagesSent,
              (unsigned long long)Sys.sim().stats().PayloadUnits,
              (unsigned long long)Sys.churn().arrivals());

  if (!TraceOut.empty()) {
    if (Status S = writeColumnarTraceFile(Sys.sim().trace(), TraceOut); !S) {
      std::fprintf(stderr, "census_monitor: %s\n", S.error().str().c_str());
      return 2;
    }
    std::printf("trace archived to %s — try:\n"
                "  dyndist-replay --trace %s --algorithm echo\n",
                TraceOut.c_str(), TraceOut.c_str());
  }
  return 0;
}
