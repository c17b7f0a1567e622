//===- dyndist/aggregation/SimArena.h - Run-reuse arena ---------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The run-reuse arena behind fleet-at-a-time sweeps. A sweep worker holds
/// one SimArena and passes it to runQueryExperiment(): the first run
/// constructs a DynamicSystem shell as usual, and every later run *resets*
/// that shell — epoch-based reset paths through the kernel, overlay, and
/// churn driver clear logical state while retaining every capacity/page
/// already faulted (calendar buckets, body-pool slabs, graph slot tables,
/// trace buffers). The per-run shared_ptr config/counter churn is hoisted
/// into the arena too, and the run's actors recycle the previous run's
/// blocks of the kernel's BodyPool: a steady-state short run makes at most
/// about one heap call
/// (ActorPool.WarmShortRunsAverageAtMostOneAndAQuarterHeapCalls).
///
/// Determinism contract: an arena-reused run is byte-identical to a
/// fresh-construction run of the same ExperimentConfig — same schedule,
/// same trace bytes, same experiment output — at every shard count. The
/// single carve-out is SimStats::BodyPoolHits/Misses (payload and actor
/// blocks), cumulative allocation-economy counters that legitimately
/// differ between a cold and a warm pool (the same carve-out the sharded
/// kernel's shard-count invariance makes). Pinned by ArenaResetTest golden digests
/// (ArenaReset.ByteIdenticalToFreshAcrossFamiliesAndShards covers shard
/// counts 0, 1, 2, 4 and 8).
///
/// One constraint is structural: the kernel's shard count is fixed at
/// construction (Simulator::setShards is once-only), so an arena asked for
/// a different Shards value rebuilds its shell — mixing shard counts in
/// one sweep forfeits reuse, nothing else.
///
/// Not thread-safe: one arena per sweep worker (SweepRunner's
/// runSeedSweepWith builds exactly that).
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_AGGREGATION_SIMARENA_H
#define DYNDIST_AGGREGATION_SIMARENA_H

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/Flooding.h"
#include "dyndist/aggregation/Gossip.h"

#include <memory>

namespace dyndist {

/// Recyclable simulator shell plus the hoisted per-run allocations (value
/// counter, protocol config blocks, actor factories).
class SimArena {
public:
  SimArena();
  ~SimArena();

  SimArena(const SimArena &) = delete;
  SimArena &operator=(const SimArena &) = delete;

  /// Number of runs this arena has served. Run N+1 reuses run N's shell
  /// whenever the shard count matches.
  uint64_t epoch() const { return Epoch; }

private:
  friend ExperimentResult runQueryExperiment(const ExperimentConfig &Config,
                                             SimArena *Arena);

  /// Protocol family of the cached factory; flooding variants share one
  /// factory (they differ only in the FloodConfig the arena rewrites).
  enum class Family { None, Flood, Echo, Gossip };

  /// Returns the shell reset (or built) for \p Config's next run.
  DynamicSystem &acquire(const DynamicSystemConfig &SysCfg,
                         RecommendedAlgorithm Algo,
                         const ExperimentConfig &Config);

  /// Shared input-value counter: rewound to 0 every run so members declare
  /// the same distinct values a fresh run's counter would hand out.
  std::shared_ptr<int64_t> Counter;
  /// Config blocks the cached factories' actors read; rewritten in place
  /// before each reset (actors spawn *during* reset and read them).
  std::shared_ptr<FloodConfig> Flood;
  std::shared_ptr<GossipConfig> Gossip;
  /// Factories built lazily on first use per family, then reused: the
  /// std::function (and its captured shared_ptrs) allocate once per arena.
  ChurnDriver::ActorFactory FloodFactory;
  ChurnDriver::ActorFactory EchoFactory;
  ChurnDriver::ActorFactory GossipFactory;

  std::unique_ptr<DynamicSystem> Shell;
  Family ShellFamily = Family::None;
  unsigned ShellShards = 0;
  uint64_t Epoch = 0;
};

} // namespace dyndist

#endif // DYNDIST_AGGREGATION_SIMARENA_H
