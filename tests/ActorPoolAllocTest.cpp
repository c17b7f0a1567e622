//===- ActorPoolAllocTest.cpp - Heap calls of warm short runs -------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Counts heap allocations with a replaced global operator new, which is why
// this file is its own test executable: the replacement must not reach the
// other test binaries. Pins these things about actor storage (Actor.h,
// BodyPool.h) and trace keys (TraceKeys.h):
//   - a warm SimArena run of the short-sweep regime (n = 100, bounded
//     concurrency 140, horizon 30, monitor off) makes at most a handful of
//     heap calls, though it spawns ~100 actors;
//   - an actor built outside any pool scope lives on the heap and is freed
//     there;
//   - a Simulator destroyed while it still owns pooled actors frees them
//     through its retired pool;
//   - an over-aligned actor bypasses the pool's 16-byte-aligned blocks;
//   - a trace key table interns and forgets vocabulary keys, and is reset
//     on the arena path, without a heap call.
// Sanitizer runtimes own operator new, so the counting cases skip there;
// the lifetime cases still run and LSan/ASan judge them.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/sim/Simulator.h"

#include "SanitizerTestUtil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

using namespace dyndist;

#ifndef DYNDIST_UNDER_SANITIZER
namespace {
uint64_t HeapAllocs = 0; // Calls of the replaced operator new.
uint64_t HeapFrees = 0;  // Non-null operator delete calls.
} // namespace

// Replacing the two plain forms is enough: the libstdc++ nothrow and array
// forms forward to them.
void *operator new(size_t Bytes) {
  ++HeapAllocs;
  if (void *P = std::malloc(Bytes ? Bytes : 1))
    return P;
  throw std::bad_alloc();
}

// Out of line so that GCC never sees this free() inlined next to a pointer
// it knows came from operator new: it reads that pairing as a mismatched
// new/free (-Wmismatched-new-delete), though the replaced new mallocs.
[[gnu::noinline]] static void countedFree(void *P) {
  if (P)
    ++HeapFrees;
  std::free(P);
}

void operator delete(void *P) noexcept { countedFree(P); }
void operator delete(void *P, size_t) noexcept { countedFree(P); }

constexpr bool Counting = true;
#else
constexpr bool Counting = false;
constexpr uint64_t HeapAllocs = 0, HeapFrees = 0;
#endif

namespace {

/// perfbench's and BM_SweepShortRuns' short regime.
ExperimentConfig shortConfig(uint64_t Seed) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = SystemClass{ArrivalModel::boundedConcurrency(140),
                          KnowledgeModel::knownDiameter(10)};
  Cfg.InitialMembers = 100;
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 4000;
  Cfg.Churn.Horizon = 30;
  Cfg.Horizon = 30;
  Cfg.QueryAt = Cfg.Horizon + 1;
  Cfg.DiameterSampleEvery = 0;
  return Cfg;
}

TEST(ActorPool, WarmShortRunsAverageAtMostOneAndAQuarterHeapCalls) {
  if (!Counting)
    GTEST_SKIP() << "the sanitizer runtime owns operator new";
  constexpr uint64_t Master = 0xE1;
  constexpr int WarmUp = 16, Runs = 64;
  SimArena Arena;
  uint64_t Arrivals = 0;
  for (int I = 0; I != WarmUp; ++I)
    runQueryExperiment(shortConfig(deriveSweepSeed(Master, I)), &Arena);
  const uint64_t Before = HeapAllocs;
  for (int I = WarmUp; I != WarmUp + Runs; ++I)
    Arrivals +=
        runQueryExperiment(shortConfig(deriveSweepSeed(Master, I)), &Arena)
            .Arrivals;
  const double PerRun = double(HeapAllocs - Before) / Runs;
  // Each run spawns ~100 churn actors and the query issuer; they recycle
  // the previous run's blocks of the simulator's pool, where each used to
  // be one heap call. Their spawn-time TraceKey::OtqValue observes record
  // a fixed vocabulary id, so the key table allocates nothing, and
  // Trace::maxConcurrency() (admissibility read back from the trace)
  // reads a peak the trace folds as it records, with no buffer. The ~100
  // departures past the horizon append to the calendar's far list, which
  // keeps its capacity across resets. What remains (30 calls over the 64
  // runs, 0.47 a run) is mostly the odd calendar bucket or far list that
  // grows when a seed outgrows the ones before it.
  EXPECT_GT(Arrivals, uint64_t(Runs) * 90);
  EXPECT_LE(PerRun, 1.25) << (HeapAllocs - Before) << " heap calls over "
                          << Runs << " warm runs";
}

TEST(TraceKeyTable, VocabularyInternAndResetMakeNoHeapCall) {
  if (!Counting)
    GTEST_SKIP() << "the sanitizer runtime owns operator new";
  // Built outside the count: the trace may adopt a record buffer, and two
  // names outgrow the small-string buffer.
  Trace T;
  const std::vector<std::string> Names(TraceKeyNames,
                                       TraceKeyNames + TraceKeyCount + 1);
  const uint64_t Before = HeapAllocs;
  for (int Run = 0; Run != 3; ++Run) {
    T.resetForReuse();
    for (uint32_t Id = 1; Id <= TraceKeyCount; ++Id) {
      EXPECT_EQ(T.keys().intern(Names[Id]), Id);
      EXPECT_EQ(T.keys().find(Names[Id]), Id);
    }
    TraceKeyTable Fresh;
    EXPECT_EQ(Fresh.size(), TraceKeyCount);
  }
  EXPECT_EQ(HeapAllocs, Before);
}

/// Counts its destructions, so a test can see every actor go.
class CountedActor : public Actor {
public:
  explicit CountedActor(int &Destroyed) : Destroyed(Destroyed) {}
  ~CountedActor() override { ++Destroyed; }

private:
  int &Destroyed;
};

TEST(ActorPool, ActorOutsideAnyScopeUsesTheHeap) {
  ASSERT_EQ(BodyPool::active(), nullptr);
  int Destroyed = 0;
  const uint64_t Allocs = HeapAllocs, Frees = HeapFrees;
  {
    auto A = std::make_unique<CountedActor>(Destroyed);
    if (Counting) {
      EXPECT_EQ(HeapAllocs - Allocs, 1u);
    }
  }
  EXPECT_EQ(Destroyed, 1);
  if (Counting) {
    EXPECT_EQ(HeapFrees - Frees, 1u);
  }

  // Inside a scope the same actor takes a pool block, and the next one
  // recycles it without calling the heap.
  BodyPool Pool;
  BodyPool::Scope Scope(&Pool);
  const void *First;
  {
    auto A = std::make_unique<CountedActor>(Destroyed);
    First = A.get();
    EXPECT_EQ(Pool.outstanding(), 1u);
  }
  EXPECT_EQ(Pool.outstanding(), 0u);
  const uint64_t Warm = HeapAllocs;
  auto B = std::make_unique<CountedActor>(Destroyed);
  EXPECT_EQ(static_cast<const void *>(B.get()), First);
  EXPECT_EQ(Pool.hits(), 1u);
  EXPECT_EQ(Pool.misses(), 1u);
  if (Counting) {
    EXPECT_EQ(HeapAllocs, Warm);
  }
  B.reset();
  EXPECT_EQ(Destroyed, 3);
}

TEST(ActorPool, OverAlignedActorBypassesThePool) {
  struct alignas(64) WideActor : Actor {
    char Line[64];
  };
  BodyPool Pool;
  BodyPool::Scope Scope(&Pool);
  auto A = std::make_unique<WideActor>();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(A.get()) % 64, 0u);
  EXPECT_EQ(Pool.outstanding(), 0u);
  A.reset();
  EXPECT_EQ(Pool.hits() + Pool.misses(), 0u);
}

TEST(ActorPool, DestroyedSimulatorFreesPooledActorsThroughRetiredPool) {
  int Destroyed = 0;
  const uint64_t Allocs = HeapAllocs, Frees = HeapFrees;
  {
    Simulator Sim(7);
    {
      BodyPool::Scope Scope = Sim.poolScope();
      for (int I = 0; I != 5; ++I)
        Sim.spawn(std::make_unique<CountedActor>(Destroyed));
    }
    Sim.spawn(std::make_unique<CountedActor>(Destroyed)); // Heap actor.
    const SimStats &St = Sim.stats();
    EXPECT_EQ(St.BodyPoolHits + St.BodyPoolMisses, 5u);
    // The destructor retires the pool before the process table (and so
    // every actor) goes; the last actor home deletes the pool.
  }
  EXPECT_EQ(Destroyed, 6);
  if (Counting) {
    EXPECT_EQ(HeapAllocs - Allocs, HeapFrees - Frees)
        << "blocks left behind by a destroyed simulator";
  }
}

} // namespace
