//===- dyndist/aggregation/Experiment.h - Query experiments -----*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-stop harness behind the examples and the E1-E5 benchmarks: given
/// a system class, an algorithm choice, and churn/latency parameters, it
/// assembles a DynamicSystem, populates it with the right actors, issues
/// one query, and returns both the checker's verdict and the run's
/// class-admissibility certificate. Experiment tables are built by sweeping
/// this function over seeds and parameters.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_AGGREGATION_EXPERIMENT_H
#define DYNDIST_AGGREGATION_EXPERIMENT_H

#include "dyndist/aggregation/Gossip.h"
#include "dyndist/core/DynamicSystem.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/core/Solvability.h"

#include <optional>
#include <string>

namespace dyndist {

/// Full description of one experiment run.
struct ExperimentConfig {
  uint64_t Seed = 1;
  SystemClass Class;

  /// Which algorithm family the members run; defaults to the oracle's
  /// recommendation for the class when UseRecommended is true.
  RecommendedAlgorithm Algorithm =
      RecommendedAlgorithm::FloodingKnownDiameter;
  bool UseRecommended = true;

  /// System shape.
  size_t InitialMembers = 20;
  size_t OverlayDegree = 3;
  AttachMode Attach = AttachMode::Random;
  ChurnParams Churn;
  LatencyConfig Latency;

  /// Kernel shard count, forwarded to DynamicSystemConfig::Shards
  /// (0 = legacy single-stream kernel).
  unsigned Shards = 0;

  /// Query schedule: issue at QueryAt, grade against Horizon.
  SimTime QueryAt = 200;
  SimTime Horizon = 900;

  /// Overlay diameter sampling period for the admissibility monitor, which
  /// watches [0, Horizon] (a copy of the overlay and at least one BFS per
  /// sample of a changed overlay, a cost that dominates short runs; see
  /// DynamicSystem::DiameterSample). Only a class with a disclosed bound is
  /// sampled at this period; any other class is sampled once, at Horizon,
  /// so its MaxDiameter is the diameter then. 0 disables sampling:
  /// MaxDiameter reads 0 and a disclosed diameter bound is accepted
  /// unaudited — throughput sweeps that don't consume the diameter column
  /// opt out of paying for it.
  SimTime DiameterSampleEvery = 16;

  /// Flooding tuning: 0 means "use the class's derivable TTL" (falling
  /// back to 16 when the class grants nothing — an illegal but measurable
  /// choice used by sensitivity sweeps).
  uint64_t TtlOverride = 0;
  SimTime MaxLatencyForDeadline = 1;

  /// Gossip tuning (used when the algorithm is GossipBestEffort).
  GossipConfig Gossip;

  /// Retain the full execution trace in the result (off by default: traces
  /// of long runs are large).
  bool KeepTrace = false;

  /// Kernel trace level for the run. Lifecycle (the default) records only
  /// membership and Observe events — all this harness's verdicts need —
  /// and skips the per-message records that dominate trace volume. Use
  /// Full when KeepTrace'd runs must be archived or replayed message by
  /// message.
  TraceLevel Tracing = TraceLevel::Lifecycle;
};

/// Everything a sweep wants to tabulate about one run.
struct ExperimentResult {
  bool ClassAdmissible = false;
  std::string AdmissibilityError;
  bool QueryIssued = false;
  QueryVerdict Verdict;
  SimStats Stats;
  /// Over the diameter samples taken (see DiameterSampleEvery): the
  /// largest connected diameter, and how many found the overlay split.
  uint64_t MaxDiameter = 0;
  size_t DisconnectedSamples = 0;
  uint64_t Arrivals = 0;
  size_t MembersAtQuery = 0;

  /// Population size at the instant the result was reported (0 when the
  /// query never terminated). |IncludedCount - MembersAtResponse| measures
  /// how far the reported census drifted from the live population — the
  /// accuracy axis of experiment E4.
  size_t MembersAtResponse = 0;

  /// The recorded execution, when ExperimentConfig::KeepTrace was set.
  std::optional<Trace> RecordedTrace;
};

/// Runs one experiment; deterministic in (config, seed).
ExperimentResult runQueryExperiment(const ExperimentConfig &Config);

class SimArena;

/// As above, optionally recycling \p Arena's simulator shell instead of
/// constructing and tearing down a full DynamicSystem per run (see
/// SimArena.h). Passing null is exactly the single-argument overload: the
/// config runs as the first run of a private arena. With an arena the
/// result is byte-identical to a fresh run of the same config — the
/// BodyPoolHits/Misses stat counters excepted (cumulative pool economy;
/// see Simulator::reset).
ExperimentResult runQueryExperiment(const ExperimentConfig &Config,
                                    SimArena *Arena);

} // namespace dyndist

#endif // DYNDIST_AGGREGATION_EXPERIMENT_H
