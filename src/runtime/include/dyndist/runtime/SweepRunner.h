//===- dyndist/runtime/SweepRunner.h - Seed-sharded sweeps ------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel Monte-Carlo sweep harness. Every experiment in EXPERIMENTS.md is
/// "run the same system class over many independent seeds and aggregate the
/// verdicts"; SweepRunner shards the seed axis across a thread pool while
/// keeping the aggregate bit-for-bit identical to the serial run.
///
/// The determinism contract:
///
///  - Each seed index gets its experiment seed from
///    deriveSweepSeed(MasterSeed, Index) — a pure function of the master
///    seed and the seed's position in the sweep, never of which thread or
///    in which order the shard ran.
///  - runSeedSweepWith() returns per-seed results in seed-index order, and the
///    caller reduces them serially (OnlineStats::merge / Summary::of in
///    ascending index order). The reduction therefore performs the exact
///    same floating-point operations at --threads 1, 4, or N.
///
/// Thread count resolution: an explicit request wins, then the
/// DYNDIST_THREADS environment variable, then hardware concurrency.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_RUNTIME_SWEEPRUNNER_H
#define DYNDIST_RUNTIME_SWEEPRUNNER_H

#include "dyndist/runtime/ThreadRunner.h"
#include "dyndist/support/Result.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

namespace dyndist {

/// Identity of one shard of a sweep.
struct SweepSeed {
  size_t Index;   ///< Position in [0, SeedCount).
  uint64_t Value; ///< Derived experiment seed for this position.
};

/// Shape of a seed sweep.
struct SweepConfig {
  /// Root of every per-seed stream; two sweeps with the same master seed
  /// and seed count execute identical per-seed experiments.
  uint64_t MasterSeed = 1;

  /// Number of independent seeds (shards) to run.
  size_t SeedCount = 0;

  /// Worker threads; 0 resolves via resolveSweepThreads(0).
  unsigned Threads = 0;
};

/// Derives the experiment seed for sweep position \p SeedIndex under
/// \p MasterSeed. Pure function of its arguments (SplitMix64 mixing), so a
/// shard's stream never depends on thread identity or execution order.
uint64_t deriveSweepSeed(uint64_t MasterSeed, uint64_t SeedIndex);

/// Thread-count inputs (DYNDIST_THREADS, --threads) must be below this.
constexpr unsigned SweepThreadLimit = 1024;

/// Resolves the worker count: \p Requested when > 0, else the
/// DYNDIST_THREADS environment variable when set to a positive integer
/// below SweepThreadLimit, else std::thread::hardware_concurrency()
/// (minimum 1). A malformed DYNDIST_THREADS falls through to the hardware
/// count here; mains reject it up front with sweepThreadsFromArgs() or
/// sweepThreadsFromEnv().
unsigned resolveSweepThreads(unsigned Requested);

/// The DYNDIST_THREADS environment variable as a thread count: 0 when
/// unset, an InvalidArgument error when set to anything but an integer in
/// [1, SweepThreadLimit). The check sweepThreadsFromArgs() applies when
/// its flag is absent; a tool whose count resolves automatically by other
/// means calls it directly.
Result<unsigned> sweepThreadsFromEnv();

/// Strips a leading-anywhere "--threads N" / "--threads=N" flag from
/// (\p Argc, \p Argv) and returns the requested count, 0 when the flag is
/// absent (i.e. "resolve automatically"). A value that is not an integer in
/// [1, SweepThreadLimit), or a trailing "--threads" with none, is an
/// InvalidArgument error; (Argc, Argv) are then left partly stripped. When
/// the flag is absent, a set DYNDIST_THREADS that is not such an integer is
/// the same error.
Result<unsigned> sweepThreadsFromArgs(int &Argc, char **Argv);

/// Context type for sweeps that carry no per-worker state: the Body then
/// takes a NoSweepContext & it ignores.
struct NoSweepContext {};

/// Runs \p Body once per seed, sharded over resolveSweepThreads(Threads)
/// workers, and returns the per-seed results in seed-index order. Each
/// worker default-constructs one \p Ctx that lives for the worker's whole
/// slice of the sweep and is handed to every \p Body call on that worker —
/// the hook the arena-reuse layer rides: `Ctx = SimArena` gives each worker
/// one recycled simulator shell across all its assigned seeds.
///
/// Per-worker context does not weaken the determinism contract: a result
/// must stay a pure function of its SweepSeed, so \p Ctx may only carry
/// state whose reuse is output-invariant (SimArena's byte-identity
/// contract). \p Body must be callable as Result(SweepSeed, Ctx &) and must
/// not touch shared mutable state. The first exception thrown by any shard
/// stops the sweep and is rethrown on the calling thread.
template <typename Result, typename Ctx, typename Fn>
std::vector<Result> runSeedSweepWith(const SweepConfig &Cfg, Fn &&Body) {
  std::vector<Result> Out(Cfg.SeedCount);
  if (Cfg.SeedCount == 0)
    return Out;
  unsigned Threads = resolveSweepThreads(Cfg.Threads);
  Threads = std::min<unsigned>(
      std::max(1u, Threads),
      static_cast<unsigned>(std::min<size_t>(Cfg.SeedCount, ~0u)));

  std::atomic<size_t> NextIndex{0};
  std::atomic<bool> Failed{false};
  std::exception_ptr FirstError;
  std::mutex ErrorLock;

  auto Work = [&] {
    Ctx C{};
    for (;;) {
      size_t I = NextIndex.fetch_add(1, std::memory_order_relaxed);
      if (I >= Cfg.SeedCount || Failed.load(std::memory_order_relaxed))
        return;
      try {
        Out[I] = Body(SweepSeed{I, deriveSweepSeed(Cfg.MasterSeed, I)}, C);
      } catch (...) {
        std::lock_guard<std::mutex> Guard(ErrorLock);
        if (!FirstError)
          FirstError = std::current_exception();
        Failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  if (Threads == 1) {
    Work();
  } else {
    ThreadRunner Pool;
    for (unsigned T = 0; T != Threads; ++T)
      Pool.spawn(Work);
    Pool.joinAll();
  }
  if (FirstError)
    std::rethrow_exception(FirstError);
  return Out;
}

} // namespace dyndist

#endif // DYNDIST_RUNTIME_SWEEPRUNNER_H
