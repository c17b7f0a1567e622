//===- DynamicSystem.cpp - Assembled dynamic system ---------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/core/DynamicSystem.h"

#include "dyndist/core/Solvability.h"
#include "dyndist/graph/Algorithms.h"
#include "dyndist/support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace dyndist;

static std::unique_ptr<LatencyModel> makeLatency(const LatencyConfig &L) {
  switch (L.Kind) {
  case LatencyKind::Synchronous:
    return std::make_unique<FixedLatency>(1);
  case LatencyKind::PartialSync:
    return std::make_unique<UniformLatency>(L.Lo, L.Hi);
  case LatencyKind::HeavyTail:
    return std::make_unique<HeavyTailLatency>(L.Lo, L.Alpha, L.Cap);
  }
  assert(false && "unknown latency kind");
  return nullptr;
}

DynamicSystem::DynamicSystem(const DynamicSystemConfig &Config,
                             ChurnDriver::ActorFactory Factory)
    : Config(Config), Sim(Config.Seed),
      Overlay(Config.OverlayDegree, Sim.rng().split(), Config.Attach) {
  if (Config.Shards > 0)
    Sim.setShards(Config.Shards); // Before the first spawn, per the contract.
  Sim.setLatencyModel(makeLatency(Config.Latency));
  Sim.setTraceLevel(Config.Tracing);
  Overlay.attachTo(Sim);
  Driver = std::make_unique<ChurnDriver>(Config.Class.Arrival, Config.Churn,
                                         std::move(Factory),
                                         Sim.rng().split());
  Driver->populateInitial(Sim, Config.InitialMembers);
  Driver->start(Sim);
  startMonitor();
}

void DynamicSystem::reset(const DynamicSystemConfig &NewConfig) {
  assert(NewConfig.Shards == Config.Shards &&
         "shard count is baked into the kernel; rebuild for a new K");
  // A reused latency model is schedule-equivalent to a rebuilt one (all
  // models are stateless config holders; sampling draws from the caller's
  // stream), so skip the rebuild when the config matches.
  const bool SameLatency = NewConfig.Latency == Config.Latency;
  Config = NewConfig;
  Sim.reset(Config.Seed);
  if (!SameLatency)
    Sim.setLatencyModel(makeLatency(Config.Latency));
  Sim.setTraceLevel(Config.Tracing);
  // Constructor draw order, exactly: the overlay takes the kernel stream's
  // first split, the churn driver its second.
  Overlay.reset(Config.OverlayDegree, Sim.rng().split(), Config.Attach);
  Overlay.attachTo(Sim);
  Driver->reset(Config.Class.Arrival, Config.Churn, Sim.rng().split());
  Samples.clear();
  Disconnected = 0;
  FirstViolation.reset();
  SampledCentre = InvalidProcess;
  Driver->populateInitial(Sim, Config.InitialMembers);
  Driver->start(Sim);
  startMonitor();
}

void DynamicSystem::reset(const DynamicSystemConfig &NewConfig,
                          ChurnDriver::ActorFactory Factory) {
  Driver->setFactory(std::move(Factory));
  reset(NewConfig);
}

void DynamicSystem::startMonitor() {
  if (Config.DiameterSampleEvery == 0 || Config.MonitorUntil == 0)
    return;
  // Only a disclosed bound is a promise the run must keep at every instant;
  // any other class reads the diameter once, at the end of the window (a
  // first sample at MonitorUntil never re-arms).
  armMonitor(Config.Class.Knowledge.Diameter == DiameterKnowledge::KnownBound
                 ? Config.DiameterSampleEvery
                 : Config.MonitorUntil);
}

void DynamicSystem::armMonitor(SimTime At) {
  if (At > Config.MonitorUntil)
    return;
  Sim.scheduleAt(At, [this](Simulator &S) {
    const Graph &G = Overlay.graph();
    // An unchanged overlay repeats the last sample; a changed one matters
    // to readers only through a diameter above the running max.
    DiameterSample Sample = Samples.empty() ? DiameterSample() : Samples.back();
    if (Samples.empty() || G.epoch() != SampledEpoch) {
      auto Diam = diameterAbove(G, Sample.RunningMax, SampledCentre);
      Sample.Connected = Diam.has_value();
      Sample.RunningMax = std::max(Sample.RunningMax, Diam.value_or(0));
      SampledEpoch = G.epoch();
    }
    Sample.Time = S.now();
    Samples.push_back(Sample);
    if (!Sample.Connected)
      ++Disconnected;
    // Until the first violation the running max is within the bound, so the
    // first sample past it carries its own exact diameter.
    if (Config.Class.Knowledge.Diameter == DiameterKnowledge::KnownBound &&
        !FirstViolation &&
        (!Sample.Connected ||
         Sample.RunningMax > Config.Class.Knowledge.DiameterBound))
      FirstViolation = Sample;
    armMonitor(S.now() + Config.DiameterSampleEvery);
  });
}

std::optional<uint64_t> DynamicSystem::grantedTtl() const {
  return derivableTtl(Config.Class);
}

StopReason DynamicSystem::run(RunLimits Limits) { return Sim.run(Limits); }

Status DynamicSystem::checkClassAdmissible() const {
  if (Status S = Config.Class.Arrival.checkAdmissible(Sim.trace()); !S)
    return S;
  if (!FirstViolation)
    return Status::success();
  const auto Bound =
      static_cast<unsigned long long>(Config.Class.Knowledge.DiameterBound);
  const auto At = static_cast<unsigned long long>(FirstViolation->Time);
  if (!FirstViolation->Connected)
    return Error(Error::Code::ProtocolViolation,
                 format("disclosed diameter bound %llu but overlay was "
                        "disconnected at t=%llu",
                        Bound, At));
  return Error(Error::Code::ProtocolViolation,
               format("disclosed diameter bound %llu exceeded: %llu at t=%llu",
                      Bound,
                      static_cast<unsigned long long>(
                          FirstViolation->RunningMax),
                      At));
}
