//===- quickstart.cpp - dyndist in one page -------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Builds a dynamic distributed system of a given class — bounded
// concurrency, disclosed diameter bound — lets churn run, issues the
// paper's canonical one-time query with the TTL-flooding algorithm, and
// has the checker grade the execution.
//
//   $ ./quickstart [seed]
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Flooding.h"
#include "dyndist/core/DynamicSystem.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/core/Solvability.h"

#include <cstdio>
#include <cstdlib>

using namespace dyndist;

int main(int argc, char **argv) {
  uint64_t Seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // 1. Declare the class of dynamic systems we are in: at most 28 entities
  //    up at any time (bound known), and the overlay's diameter promised
  //    to stay within 10 (bound disclosed to algorithms).
  DynamicSystemConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = {ArrivalModel::boundedConcurrency(28),
               KnowledgeModel::knownDiameter(10)};
  Cfg.InitialMembers = 20;
  Cfg.OverlayDegree = 3;
  Cfg.Churn.JoinRate = 0.05;    // Expected joins per tick.
  Cfg.Churn.MeanSession = 400;  // Mean membership duration in ticks.
  Cfg.Churn.Horizon = 600;
  Cfg.MonitorUntil = 600;

  std::printf("system class : %s\n", Cfg.Class.name().c_str());
  std::printf("solvability  : %s via %s\n",
              solvabilityName(oneTimeQuerySolvability(Cfg.Class)).c_str(),
              algorithmName(recommendedAlgorithm(Cfg.Class)).c_str());

  // 2. Every member runs the flooding actor; the class's knowledge grant
  //    fixes the legal TTL.
  auto FloodCfg = std::make_shared<FloodConfig>();
  FloodCfg->Ttl = *derivableTtl(Cfg.Class);
  auto Values = std::make_shared<int64_t>(0);
  auto Factory = makeFloodFactory(FloodCfg, [Values] { return ++*Values; });

  DynamicSystem Sys(Cfg, Factory);

  // 3. Spawn the issuer (outside the churn driver so it stays), let the
  //    system churn for a while, then issue the query.
  ProcessId Issuer = Sys.sim().spawn(Factory());
  scheduleQueryStart(Sys.sim(), /*When=*/200, Issuer);

  RunLimits Limits;
  Limits.MaxTime = 700;
  Sys.run(Limits);

  // 4. Certify the run was really a behavior of the declared class, then
  //    grade the query against the one-time-query specification.
  Status ClassOk = Sys.checkClassAdmissible();
  std::printf("class check  : %s\n",
              ClassOk.ok() ? "admissible" : ClassOk.error().str().c_str());
  std::printf("churn        : %llu arrivals, peak concurrency %zu, "
              "max overlay diameter %llu\n",
              (unsigned long long)Sys.churn().arrivals(),
              Sys.sim().trace().maxConcurrency(),
              (unsigned long long)Sys.maxObservedDiameter());

  auto Issue = Sys.sim().trace().firstObservationRecord(
      Issuer, keyIdOf(TraceKey::OtqIssue));
  if (!Issue) {
    std::printf("query was never issued\n");
    return 1;
  }
  QueryVerdict V =
      checkOneTimeQuery(Sys.sim().trace(), Issuer, Issue->Time, 700);
  std::printf("query        : %s\n", V.str().c_str());
  std::printf("verdict      : %s\n", V.valid() ? "VALID" : "INVALID");
  return V.valid() ? 0 : 1;
}
