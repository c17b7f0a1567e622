//===- dyndist/runtime/KernelLoad.h - Kernel stress workloads ---*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic workloads that stress the event kernel itself rather than any
/// protocol: a timer-driven gossip load with optional crash/respawn churn,
/// and a TTL-bounded flood cascade. Both are deterministic functions of the
/// seed, so the same configuration always executes the same event schedule
/// — which makes them usable both as throughput benchmarks (bench/) and as
/// determinism regression fixtures (tests/).
///
/// The workloads deliberately bypass the topology layer: peers are drawn
/// uniformly from the fixed initial universe, so the measured cost is the
/// kernel hot loop (queue, dispatch, trace) and not neighbor-list
/// construction.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_RUNTIME_KERNELLOAD_H
#define DYNDIST_RUNTIME_KERNELLOAD_H

#include "dyndist/sim/Simulator.h"

namespace dyndist {

/// Configuration of one kernel-load run. The gossip section runs when
/// GossipEvery > 0; the flood section when FloodSeeds > 0; they compose.
struct KernelLoadConfig {
  uint64_t Seed = 42;
  size_t Processes = 1000; ///< Initial population; also the peer universe.
  SimTime Horizon = 1500;  ///< RunLimits::MaxTime for the run.

  /// 0 = legacy single-stream kernel. K >= 1 selects the space-sharded
  /// engine (Simulator::setShards): a different deterministic schedule
  /// that is byte-identical at any K for the same seed.
  unsigned Shards = 0;

  // Gossip: every actor fires a periodic timer and sends GossipFanout
  // messages to uniformly random universe members per fire; every 8th fire
  // also arms and immediately cancels a decoy timer, exercising the
  // cancellation path at a realistic rate.
  SimTime GossipEvery = 0;
  unsigned GossipFanout = 0;

  // Churn: every ChurnEvery ticks one uniformly random up process crashes
  // and a fresh replacement joins (0 = no churn). Replacements receive no
  // messages (peers are drawn from the initial universe), so deliveries to
  // crashed members exercise the kernel's dead-destination drop path.
  SimTime ChurnEvery = 0;

  // Flood: FloodSeeds stimuli with TTL FloodTtl are injected at start;
  // each delivery with a positive TTL forwards FloodFanout copies with
  // TTL - 1 to random universe members.
  unsigned FloodSeeds = 0;
  unsigned FloodFanout = 0;
  uint64_t FloodTtl = 0;

  /// Optional streaming trace sink (not owned; must outlive the run).
  /// When set, records the TraceLevel admits stream to the sink instead of
  /// the in-memory trace (Simulator::setTraceSink), and TraceRecords
  /// reports 0 — the events live in the sink's output.
  TraceSink *Sink = nullptr;
};

/// Outcome of a kernel-load run.
struct KernelLoadResult {
  SimStats Stats;
  StopReason Stop = StopReason::QueueExhausted;
  size_t TraceRecords = 0; ///< trace().records().size() at the end.
  size_t PendingTimers = 0; ///< Simulator::pendingTimers() at the end.
};

/// Runs the workload described by \p Cfg at trace level \p Level and
/// returns its counters. Per the kernel contract, Level changes only
/// TraceRecords — the executed schedule and SimStats are level-invariant.
KernelLoadResult runKernelLoad(const KernelLoadConfig &Cfg,
                               TraceLevel Level = TraceLevel::Full);

} // namespace dyndist

#endif // DYNDIST_RUNTIME_KERNELLOAD_H
