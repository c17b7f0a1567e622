//===- dyndist/core/DynamicSystem.h - Assembled dynamic system --*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable form of the paper's model: a DynamicSystem bundles the
/// event kernel, a churn-maintained overlay, a churn driver constrained by
/// an arrival model, and the knowledge grants of a SystemClass — i.e. "a
/// system of class C" that algorithms can be dropped into.
///
/// Class membership is *certified, not assumed*: checkClassAdmissible()
/// verifies after the fact that the recorded execution really was a
/// behavior of the declared class (arrival bounds respected, diameter
/// promise kept). A disclosed diameter bound is audited by sampling the
/// overlay's diameter during the run; a class that discloses none gets one
/// sample, at the end of the monitored window, for reporting only.
/// Experiment harnesses discard runs that fall outside their class instead
/// of crediting or blaming algorithms for them.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_CORE_DYNAMICSYSTEM_H
#define DYNDIST_CORE_DYNAMICSYSTEM_H

#include "dyndist/arrival/Churn.h"
#include "dyndist/arrival/SystemClass.h"
#include "dyndist/graph/Overlay.h"
#include "dyndist/sim/Simulator.h"
#include "dyndist/support/Result.h"

#include <optional>
#include <vector>

namespace dyndist {

/// Synchrony regime of the message substrate.
enum class LatencyKind {
  Synchronous, ///< Every message takes exactly one tick.
  PartialSync, ///< Uniform in [Lo, Hi]: a known delay bound exists.
  HeavyTail,   ///< Pareto tail: no useful bound in practice.
};

/// Latency configuration; fields beyond the selected kind are ignored.
struct LatencyConfig {
  LatencyKind Kind = LatencyKind::Synchronous;
  SimTime Lo = 1;
  SimTime Hi = 4;
  double Alpha = 1.5;
  SimTime Cap = 64;

  /// Field-wise equality — the arena-reset path uses it to skip rebuilding
  /// the latency model when consecutive runs share a configuration.
  friend bool operator==(const LatencyConfig &, const LatencyConfig &) =
      default;
};

/// Everything needed to instantiate a system of a class.
struct DynamicSystemConfig {
  uint64_t Seed = 1;
  SystemClass Class;
  size_t InitialMembers = 16;
  size_t OverlayDegree = 3;
  AttachMode Attach = AttachMode::Random;
  ChurnParams Churn;
  LatencyConfig Latency;

  /// 0 = the legacy single-stream kernel. K >= 1 selects the space-sharded
  /// engine (Simulator::setShards) before the initial population spawns: a
  /// different deterministic schedule that is byte-identical at any K >= 1
  /// for the same seed. See docs/MODEL.md §7.
  unsigned Shards = 0;

  /// Kernel trace level. Lifecycle is sufficient for every checker this
  /// layer ships (arrival admissibility and the one-time-query verdict
  /// read only Join/Leave/Crash/Observe records); Full additionally keeps
  /// per-message Send/Deliver/Drop records for archiving and replay.
  TraceLevel Tracing = TraceLevel::Full;

  /// The diameter monitor: off when either field is 0. A class with a
  /// disclosed bound (DiameterKnowledge::KnownBound) has the overlay's
  /// diameter sampled every DiameterSampleEvery ticks up to MonitorUntil,
  /// and checkClassAdmissible() audits every sample. No verdict of another
  /// class reads the diameter, so it gets one exact sample at MonitorUntil.
  SimTime DiameterSampleEvery = 16;
  SimTime MonitorUntil = 0;
};

/// An assembled, runnable dynamic system.
class DynamicSystem {
public:
  /// One diameter sample of the overlay. A sample records what its readers
  /// use, not the diameter itself: the largest diameter of any connected
  /// sample so far, this one included. A sample above every earlier one
  /// (the first past a disclosed bound, say) therefore holds its exact
  /// diameter, and the others need only prove they cannot raise the max.
  struct DiameterSample {
    SimTime Time = 0;
    bool Connected = false;
    uint64_t RunningMax = 0; ///< Max diameter over connected samples so far.
  };

  /// Builds the system: spawns the initial population (actors from
  /// \p Factory), wires the overlay, starts churn, and arms the monitor.
  DynamicSystem(const DynamicSystemConfig &Config,
                ChurnDriver::ActorFactory Factory);

  DynamicSystem(const DynamicSystem &) = delete;
  DynamicSystem &operator=(const DynamicSystem &) = delete;

  /// Arena-reset path: rewinds the whole assembled system for a new run
  /// under \p NewConfig, reproducing the constructor's effects — same
  /// random-stream draw order, same spawn/start/monitor sequence — while
  /// the kernel, overlay graph, and churn driver keep every capacity they
  /// have faulted. A reset-reused run is byte-identical to a fresh
  /// construction of the same config (BodyPoolHits/Misses carve-out; see
  /// Simulator::reset). The shard count is baked into the kernel and must
  /// not change across resets — arenas rebuild the shell instead. This
  /// overload keeps the installed actor factory (same protocol family).
  // DYNDIST_SERIAL_ONLY: rewinds shared kernel state between runs.
  void reset(const DynamicSystemConfig &NewConfig);

  /// As above, additionally swapping the actor factory (protocol-family
  /// change between runs).
  // DYNDIST_SERIAL_ONLY: rewinds shared kernel state between runs.
  void reset(const DynamicSystemConfig &NewConfig,
             ChurnDriver::ActorFactory Factory);

  /// The event kernel.
  Simulator &sim() { return Sim; }
  const Simulator &sim() const { return Sim; }

  /// The overlay.
  DynamicOverlay &overlay() { return Overlay; }
  const DynamicOverlay &overlay() const { return Overlay; }

  /// The churn driver.
  ChurnDriver &churn() { return *Driver; }

  /// The TTL the class's knowledge grants allow a wave to use (see
  /// derivableTtl() in Solvability.h); nullopt when none.
  std::optional<uint64_t> grantedTtl() const;

  /// Runs the kernel.
  StopReason run(RunLimits Limits = RunLimits());

  /// Diameter samples recorded so far (see DynamicSystemConfig for when
  /// they are taken).
  const std::vector<DiameterSample> &diameterSamples() const {
    return Samples;
  }

  /// Largest diameter among connected samples (0 when none).
  uint64_t maxObservedDiameter() const {
    return Samples.empty() ? 0 : Samples.back().RunningMax;
  }

  /// Number of samples that found the overlay disconnected.
  size_t disconnectedSamples() const { return Disconnected; }

  /// Certifies the recorded execution against the declared class: arrival
  /// admissibility plus, for a disclosed diameter bound, that every sample
  /// was connected with diameter within the bound.
  Status checkClassAdmissible() const;

private:
  void startMonitor();
  void armMonitor(SimTime At);

  DynamicSystemConfig Config;
  Simulator Sim;
  DynamicOverlay Overlay;
  std::unique_ptr<ChurnDriver> Driver;
  std::vector<DiameterSample> Samples;
  size_t Disconnected = 0; ///< Samples with Connected false.
  /// The first sample that broke a disclosed bound (disconnected, or its
  /// running max above the bound), kept as it is taken.
  std::optional<DiameterSample> FirstViolation;
  uint64_t SampledEpoch = 0;  ///< Overlay epoch at the last sample.
  ProcessId SampledCentre = InvalidProcess; ///< diameterAbove() hint.
};

} // namespace dyndist

#endif // DYNDIST_CORE_DYNAMICSYSTEM_H
