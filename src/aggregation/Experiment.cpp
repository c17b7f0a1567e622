//===- Experiment.cpp - Query experiments --------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"

#include "dyndist/aggregation/Echo.h"
#include "dyndist/aggregation/Flooding.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/aggregation/Token.h"

#include <cassert>

using namespace dyndist;

namespace {

/// The TTL a flooding run uses: the explicit override, else the class's
/// derivable grant, else 16 (an illegal but measurable choice used by
/// sensitivity sweeps).
uint64_t floodTtlFor(const ExperimentConfig &Config) {
  if (Config.TtlOverride > 0)
    return Config.TtlOverride;
  if (auto Ttl = derivableTtl(Config.Class))
    return *Ttl;
  return 16;
}

DynamicSystemConfig sysConfigFor(const ExperimentConfig &Config) {
  DynamicSystemConfig SysCfg;
  SysCfg.Seed = Config.Seed;
  SysCfg.Class = Config.Class;
  SysCfg.InitialMembers = Config.InitialMembers;
  SysCfg.OverlayDegree = Config.OverlayDegree;
  SysCfg.Attach = Config.Attach;
  SysCfg.Churn = Config.Churn;
  SysCfg.Latency = Config.Latency;
  SysCfg.Shards = Config.Shards;
  SysCfg.DiameterSampleEvery = Config.DiameterSampleEvery;
  SysCfg.MonitorUntil = Config.DiameterSampleEvery > 0 ? Config.Horizon : 0;
  // Archiving a trace only makes sense when the per-message records are in
  // it, so KeepTrace forces Full regardless of the configured level.
  SysCfg.Tracing = Config.KeepTrace ? TraceLevel::Full : Config.Tracing;
  return SysCfg;
}

} // namespace

SimArena::SimArena()
    : Counter(std::make_shared<int64_t>(0)),
      Flood(std::make_shared<FloodConfig>()),
      Gossip(std::make_shared<GossipConfig>()) {}

SimArena::~SimArena() = default;

DynamicSystem &SimArena::acquire(const DynamicSystemConfig &SysCfg,
                                 RecommendedAlgorithm Algo,
                                 const ExperimentConfig &Config) {
  ++Epoch;
  // Rewind the hoisted per-run state *before* the shell resets: the initial
  // population spawns during reset and its actors read these blocks.
  *Counter = 0;
  Family F = Family::Echo;
  switch (Algo) {
  case RecommendedAlgorithm::FloodingKnownDiameter:
  case RecommendedAlgorithm::FloodingDerivedBound: {
    F = Family::Flood;
    FloodConfig FC;
    FC.Ttl = floodTtlFor(Config);
    FC.MaxLatency = Config.MaxLatencyForDeadline;
    *Flood = FC;
    if (!FloodFactory)
      FloodFactory = makeFloodFactory(Flood, [C = Counter] { return ++*C; });
    break;
  }
  case RecommendedAlgorithm::EchoTermination:
    F = Family::Echo;
    if (!EchoFactory)
      EchoFactory = makeEchoFactory([C = Counter] { return ++*C; });
    break;
  case RecommendedAlgorithm::GossipBestEffort:
    F = Family::Gossip;
    *Gossip = Config.Gossip;
    if (!GossipFactory)
      GossipFactory = makeGossipFactory(Gossip, [C = Counter] { return ++*C; });
    break;
  }
  ChurnDriver::ActorFactory &Fac = F == Family::Flood    ? FloodFactory
                                   : F == Family::Echo   ? EchoFactory
                                                         : GossipFactory;
  if (!Shell || ShellShards != SysCfg.Shards) {
    // First run, or a shard-count change: the count is baked into the
    // kernel at construction, so reuse is structurally impossible here.
    Shell = std::make_unique<DynamicSystem>(SysCfg, Fac);
    ShellShards = SysCfg.Shards;
  } else if (F == ShellFamily) {
    Shell->reset(SysCfg);
  } else {
    Shell->reset(SysCfg, Fac);
  }
  ShellFamily = F;
  return *Shell;
}

ExperimentResult dyndist::runQueryExperiment(const ExperimentConfig &Config) {
  return runQueryExperiment(Config, nullptr);
}

ExperimentResult dyndist::runQueryExperiment(const ExperimentConfig &Config,
                                             SimArena *Arena) {
  if (!Arena) {
    // A fresh run is the first run of a local arena: that run constructs
    // its DynamicSystem, so both paths share one setup.
    SimArena Local;
    return runQueryExperiment(Config, &Local);
  }
  RecommendedAlgorithm Algo = Config.UseRecommended
                                  ? recommendedAlgorithm(Config.Class)
                                  : Config.Algorithm;
  DynamicSystem *Sys = &Arena->acquire(sysConfigFor(Config), Algo, Config);

  ProcessId Issuer;
  {
    // Like the churn's arrivals, the issuer takes a block of the kernel's
    // pool (the previous run's, in an arena).
    BodyPool::Scope Pool = Sys->sim().poolScope();
    Issuer = Sys->sim().spawn(Sys->churn().makeActor());
  }
  scheduleQueryStart(Sys->sim(), Config.QueryAt, Issuer);

  RunLimits Limits;
  Limits.MaxTime = Config.Horizon;
  Sys->run(Limits);

  ExperimentResult R;
  Status Admissible = Sys->checkClassAdmissible();
  R.ClassAdmissible = Admissible.ok();
  if (!Admissible.ok())
    R.AdmissibilityError = Admissible.error().str();
  R.Stats = Sys->sim().stats();
  R.MaxDiameter = Sys->maxObservedDiameter();
  R.DisconnectedSamples = Sys->disconnectedSamples();
  R.Arrivals = Sys->churn().arrivals();
  R.MembersAtQuery = Sys->sim().trace().membersCountAt(Config.QueryAt);

  auto Issue = Sys->sim().trace().firstObservationRecord(
      Issuer, keyIdOf(TraceKey::OtqIssue));
  if (Issue) {
    R.QueryIssued = true;
    R.Verdict = checkOneTimeQuery(Sys->sim().trace(), Issuer, Issue->Time,
                                  Config.Horizon);
    if (R.Verdict.Terminated)
      R.MembersAtResponse =
          Sys->sim().trace().membersCountAt(R.Verdict.ResponseTime);
  }
  // Last, after every trace read above: the trace moves out of the kernel
  // instead of deep-copying O(events) of POD records.
  if (Config.KeepTrace)
    R.RecordedTrace = Sys->sim().takeTrace();
  return R;
}
