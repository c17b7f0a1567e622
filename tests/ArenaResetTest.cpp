//===- ArenaResetTest.cpp - SimArena run-reuse byte-identity --------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Pins the SimArena contract (SimArena.h): an arena-reused run of
// runQueryExperiment is byte-identical to a fresh-construction run of the
// same config — same verdict, same schedule counters, same trace record
// bytes and interned key table — for every algorithm family, shard count,
// and trace level, with the single BodyPoolHits/Misses carve-out (pool
// economy is cumulative across the arena's life). Plus the capacity side
// of the contract: once warm, repeated same-shape runs through one arena
// allocate nothing new (per-run pool misses hit zero and peak RSS stops
// growing).
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/runtime/SweepRunner.h"

#include "SanitizerTestUtil.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define DYNDIST_HAVE_GETRUSAGE 1
#endif

using namespace dyndist;

namespace {

/// FNV-1a over everything the reset contract pins down. Excludes only the
/// BodyPoolHits/Misses allocation-economy counters (cumulative cold-vs-warm
/// pool state, the contract's single carve-out).
struct Fnv1a {
  uint64_t H = 1469598103934665603ULL;

  void bytes(const void *Data, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != Size; ++I) {
      H ^= P[I];
      H *= 1099511628211ULL;
    }
  }
  void u64(uint64_t V) { bytes(&V, sizeof(V)); }
};

uint64_t digestOf(const ExperimentResult &R) {
  Fnv1a F;
  F.u64(R.ClassAdmissible);
  F.u64(R.QueryIssued);
  F.u64(R.Verdict.Terminated);
  F.u64(R.Verdict.ResponseTime);
  F.u64(R.Verdict.Complete);
  F.u64(R.Verdict.NoInvention);
  F.u64(R.Verdict.AggregateConsistent);
  F.u64(R.Verdict.Missed.size());
  for (ProcessId P : R.Verdict.Missed)
    F.u64(P);
  F.u64(R.Verdict.Invented.size());
  for (ProcessId P : R.Verdict.Invented)
    F.u64(P);
  F.bytes(&R.Verdict.Coverage, sizeof(R.Verdict.Coverage));
  F.u64(R.Verdict.IncludedCount);
  F.u64(R.Verdict.RequiredCount);
  F.u64(static_cast<uint64_t>(R.Verdict.Aggregate));
  F.u64(R.Stats.MessagesSent);
  F.u64(R.Stats.MessagesDelivered);
  F.u64(R.Stats.MessagesDropped);
  F.u64(R.Stats.PayloadUnits);
  F.u64(R.Stats.TimersFired);
  F.u64(R.Stats.EventsExecuted);
  F.u64(R.Stats.InlineFnHeapFallbacks);
  F.u64(R.MaxDiameter);
  F.u64(R.DisconnectedSamples);
  F.u64(R.Arrivals);
  F.u64(R.MembersAtQuery);
  F.u64(R.MembersAtResponse);
  if (R.RecordedTrace) {
    const Trace &T = *R.RecordedTrace;
    F.u64(T.records().size());
    if (!T.records().empty())
      F.bytes(T.records().data(), T.records().size() * sizeof(TraceRecord));
    F.u64(T.keys().size());
    for (uint32_t Id = 1; Id <= T.keys().size(); ++Id) {
      std::string_view Name = T.keys().name(Id);
      F.u64(Name.size());
      F.bytes(Name.data(), Name.size());
    }
  }
  return F.H;
}

/// A modest churny run every family terminates within: big enough to
/// exercise joins, leaves, and the overlay repair paths, small enough that
/// the full grid stays ctest-friendly.
ExperimentConfig baseConfig(RecommendedAlgorithm Algo, unsigned Shards,
                            TraceLevel Level, uint64_t Seed) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = {ArrivalModel::boundedConcurrency(50),
               KnowledgeModel::knownDiameter(8)};
  Cfg.Algorithm = Algo;
  Cfg.UseRecommended = false;
  Cfg.InitialMembers = 24;
  Cfg.Churn.JoinRate = 0.1;
  Cfg.Churn.MeanSession = 180;
  Cfg.Churn.Horizon = 220;
  Cfg.Shards = Shards;
  Cfg.QueryAt = 100;
  Cfg.Horizon = 280;
  Cfg.Gossip.ReportAfter = 40;
  Cfg.Gossip.Rounds = 16;
  Cfg.Gossip.RoundEvery = 2;
  Cfg.KeepTrace = true;
  Cfg.Tracing = Level;
  return Cfg;
}

constexpr RecommendedAlgorithm Families[] = {
    RecommendedAlgorithm::FloodingKnownDiameter,
    RecommendedAlgorithm::EchoTermination,
    RecommendedAlgorithm::GossipBestEffort,
};

// --- Fresh-vs-reset golden equivalence ------------------------------------

// The core pin: one arena serves every (family, seed) cell in sequence —
// so all but the very first run go through the reset path, and family
// transitions exercise the factory swap — and every cell must digest
// identically to its fresh-constructed twin. Shards 8 is the rung the
// sweep_reuse bench gate measures.
TEST(ArenaReset, ByteIdenticalToFreshAcrossFamiliesAndShards) {
  for (unsigned Shards : {0u, 1u, 2u, 4u, 8u}) {
    SimArena Arena;
    for (RecommendedAlgorithm Algo : Families) {
      for (uint64_t Seed : {11ull, 12ull}) {
        ExperimentConfig Cfg =
            baseConfig(Algo, Shards, TraceLevel::Full, Seed);
        uint64_t Fresh = digestOf(runQueryExperiment(Cfg));
        uint64_t Reused = digestOf(runQueryExperiment(Cfg, &Arena));
        EXPECT_EQ(Fresh, Reused)
            << "shards=" << Shards << " algo=" << algorithmName(Algo)
            << " seed=" << Seed;
      }
    }
    // Gossip's pid -> value table outlives a run inside the arena's
    // factory: a larger run, then a smaller one, must still match fresh.
    for (size_t Members : {48u, 12u}) {
      ExperimentConfig Cfg =
          baseConfig(RecommendedAlgorithm::GossipBestEffort, Shards,
                     TraceLevel::Full, 13);
      Cfg.InitialMembers = Members;
      EXPECT_EQ(digestOf(runQueryExperiment(Cfg)),
                digestOf(runQueryExperiment(Cfg, &Arena)))
          << "shards=" << Shards << " gossip members=" << Members;
    }
    EXPECT_EQ(Arena.epoch(), 8u) << "shards=" << Shards;
  }
}

// TraceLevel is part of the recycled shell's per-run config: a Lifecycle
// run after a Full run (and vice versa) must record exactly what a fresh
// run at that level records.
TEST(ArenaReset, ByteIdenticalAcrossTraceLevelSwitches) {
  SimArena Arena;
  for (TraceLevel Level : {TraceLevel::Full, TraceLevel::Lifecycle,
                           TraceLevel::Full, TraceLevel::Lifecycle}) {
    ExperimentConfig Cfg = baseConfig(
        RecommendedAlgorithm::EchoTermination, 2, Level, 21);
    uint64_t Fresh = digestOf(runQueryExperiment(Cfg));
    uint64_t Reused = digestOf(runQueryExperiment(Cfg, &Arena));
    EXPECT_EQ(Fresh, Reused)
        << "level=" << static_cast<int>(Level)
        << " epoch=" << Arena.epoch();
  }
}

// Passing a null arena must be exactly the single-argument overload.
TEST(ArenaReset, NullArenaIsFreshPath) {
  ExperimentConfig Cfg = baseConfig(
      RecommendedAlgorithm::FloodingKnownDiameter, 1, TraceLevel::Full, 31);
  EXPECT_EQ(digestOf(runQueryExperiment(Cfg)),
            digestOf(runQueryExperiment(Cfg, nullptr)));
}

// The sweep harness end-to-end: a per-worker-arena sweep must reproduce
// the fresh sweep result-for-result, at one worker and at several.
TEST(ArenaReset, SweepWithArenaMatchesFreshSweep) {
  auto runOne = [](SweepSeed Seed, SimArena *Arena) {
    ExperimentConfig Cfg =
        baseConfig(RecommendedAlgorithm::GossipBestEffort, 2,
                   TraceLevel::Lifecycle, Seed.Value);
    return runQueryExperiment(Cfg, Arena);
  };
  SweepConfig Sweep;
  Sweep.MasterSeed = 0xA7;
  Sweep.SeedCount = 8;
  Sweep.Threads = 1;
  auto FreshRuns = runSeedSweepWith<ExperimentResult, NoSweepContext>(
      Sweep,
      [&](SweepSeed Seed, NoSweepContext &) { return runOne(Seed, nullptr); });
  for (unsigned Threads : {1u, 3u}) {
    Sweep.Threads = Threads;
    auto ArenaRuns = runSeedSweepWith<ExperimentResult, SimArena>(
        Sweep,
        [&](SweepSeed Seed, SimArena &Arena) { return runOne(Seed, &Arena); });
    ASSERT_EQ(ArenaRuns.size(), FreshRuns.size());
    for (size_t I = 0; I != FreshRuns.size(); ++I)
      EXPECT_EQ(digestOf(FreshRuns[I]), digestOf(ArenaRuns[I]))
          << "threads=" << Threads << " seed-index=" << I;
  }
}

// --- Capacity plateau (the zero-teardown half of the contract) ------------

TEST(ArenaReset, ManyResetsOneArenaCapacityPlateaus) {
  SimArena Arena;
  ExperimentConfig Cfg = baseConfig(
      RecommendedAlgorithm::FloodingKnownDiameter, 2, TraceLevel::Full, 41);

  // Warm-up: the first run faults all capacity, the second catches any
  // stragglers (e.g. size classes first touched late in run one).
  constexpr int WarmUp = 2;
  constexpr int Soak = 10;
  uint64_t WarmMisses = 0;
  for (int I = 0; I != WarmUp; ++I)
    WarmMisses = runQueryExperiment(Cfg, &Arena).Stats.BodyPoolMisses;

#ifdef DYNDIST_HAVE_GETRUSAGE
  struct rusage Before {};
  getrusage(RUSAGE_SELF, &Before);
#endif

  for (int I = 0; I != Soak; ++I) {
    ExperimentResult R = runQueryExperiment(Cfg, &Arena);
    // The pool counters are cumulative across the arena's life (they live
    // on the pool objects reset retains): with every free list warm, the
    // miss counter must freeze at its warm-up watermark — zero fresh slab
    // allocations per run, for payloads and the churn's actors alike (the
    // pool serves both; ActorPoolAllocTest counts the heap calls that
    // remain).
    EXPECT_EQ(R.Stats.BodyPoolMisses, WarmMisses) << "soak run " << I;
  }

#if defined(DYNDIST_HAVE_GETRUSAGE) && !defined(DYNDIST_UNDER_SANITIZER)
  // Peak RSS must plateau: ten more identical runs through a warm arena
  // may not grow the high-water mark beyond noise (the slack absorbs
  // unrelated allocator/test-framework jitter; real per-run leaks of
  // retained capacity are megabytes each at this config). Sanitizer
  // builds skip the check — shadow memory and quarantines make ru_maxrss
  // meaningless there.
  struct rusage After {};
  getrusage(RUSAGE_SELF, &After);
  long GrowthKb = After.ru_maxrss - Before.ru_maxrss;
  EXPECT_LE(GrowthKb, 4096) << "peak RSS grew " << GrowthKb
                            << "KB across " << Soak << " warm runs";
#endif
}

} // namespace
