//===- SweepRunnerTest.cpp - parallel sweep harness tests ----------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// The SweepRunner determinism contract: per-seed results depend only on
// (master seed, seed index) — never on thread count, thread identity, or
// shard execution order — and the index-ordered reduction is therefore
// byte-identical at --threads 1, 4, or N.
//
//===----------------------------------------------------------------------===//

#include "dyndist/arrival/Churn.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/support/Random.h"
#include "dyndist/support/Stats.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

using namespace dyndist;

namespace {

/// A real (if small) per-seed experiment: run a churning simulator and
/// report a few schedule-sensitive numbers. Any RNG-stream or ordering slip
/// in the harness changes these.
struct MiniResult {
  uint64_t Arrivals = 0;
  size_t FinalUp = 0;
  double MeanUpTime = 0.0;
};

MiniResult runMiniChurn(uint64_t Seed) {
  Simulator S(Seed);
  ChurnParams P;
  P.JoinRate = 0.3;
  P.MeanSession = 40;
  P.CrashFraction = 0.3;
  P.Horizon = 400;
  ChurnDriver D(ArrivalModel::infiniteArrival(), P,
                [] { return std::make_unique<Actor>(); }, Rng(Seed ^ 1));
  D.populateInitial(S, 6);
  D.start(S);
  RunLimits L;
  L.MaxTime = 500;
  S.run(L);
  MiniResult R;
  R.Arrivals = D.arrivals();
  R.FinalUp = S.upCount();
  R.MeanUpTime = static_cast<double>(S.now()) / (1.0 + double(R.Arrivals));
  return R;
}

std::vector<MiniResult> sweepAt(unsigned Threads, size_t SeedCount = 24,
                                uint64_t Master = 77) {
  SweepConfig Cfg;
  Cfg.MasterSeed = Master;
  Cfg.SeedCount = SeedCount;
  Cfg.Threads = Threads;
  return runSeedSweepWith<MiniResult, NoSweepContext>(
      Cfg, [](SweepSeed Seed, NoSweepContext &) {
        return runMiniChurn(Seed.Value);
      });
}

} // namespace

TEST(SweepSeedDerivation, PureFunctionOfMasterAndIndex) {
  EXPECT_EQ(deriveSweepSeed(1, 0), deriveSweepSeed(1, 0));
  EXPECT_NE(deriveSweepSeed(1, 0), deriveSweepSeed(1, 1));
  EXPECT_NE(deriveSweepSeed(1, 0), deriveSweepSeed(2, 0));
}

TEST(SweepSeedDerivation, AdjacentIndicesDecorrelated) {
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I != 1000; ++I)
    Seen.insert(deriveSweepSeed(42, I));
  EXPECT_EQ(Seen.size(), 1000u);
  // Streams rooted at adjacent derived seeds must not collide either.
  Rng A(deriveSweepSeed(42, 0)), B(deriveSweepSeed(42, 1));
  int Same = 0;
  for (int I = 0; I != 100; ++I)
    Same += A.next() == B.next();
  EXPECT_EQ(Same, 0);
}

TEST(SweepRunner, ThreadCountInvariance) {
  std::vector<MiniResult> Serial = sweepAt(1);
  for (unsigned Threads : {2u, 4u, 7u}) {
    std::vector<MiniResult> Parallel = sweepAt(Threads);
    ASSERT_EQ(Parallel.size(), Serial.size());
    for (size_t I = 0; I != Serial.size(); ++I) {
      EXPECT_EQ(Parallel[I].Arrivals, Serial[I].Arrivals) << "seed " << I;
      EXPECT_EQ(Parallel[I].FinalUp, Serial[I].FinalUp) << "seed " << I;
      // Bitwise: the same double computed from the same inputs.
      EXPECT_EQ(std::memcmp(&Parallel[I].MeanUpTime, &Serial[I].MeanUpTime,
                            sizeof(double)),
                0)
          << "seed " << I;
    }
  }
}

TEST(SweepRunner, MergedAggregateByteIdenticalAcrossThreadCounts) {
  auto aggregate = [](const std::vector<MiniResult> &Results) {
    OnlineStats Up;
    for (const MiniResult &R : Results)
      Up.add(static_cast<double>(R.FinalUp) + R.MeanUpTime);
    std::vector<double> Samples;
    for (const MiniResult &R : Results)
      Samples.push_back(static_cast<double>(R.Arrivals));
    return Summary::of(Samples).str() + " mean=" + std::to_string(Up.mean()) +
           " var=" + std::to_string(Up.variance());
  };
  std::string Serial = aggregate(sweepAt(1));
  EXPECT_EQ(aggregate(sweepAt(4)), Serial);
  EXPECT_EQ(aggregate(sweepAt(16)), Serial);
}

TEST(SweepRunner, EmptySweep) {
  SweepConfig Cfg;
  Cfg.SeedCount = 0;
  auto Out = runSeedSweepWith<int, NoSweepContext>(
      Cfg, [](SweepSeed, NoSweepContext &) { return 1; });
  EXPECT_TRUE(Out.empty());
}

TEST(SweepRunner, MoreThreadsThanSeeds) {
  auto Out = sweepAt(64, 3);
  auto Ref = sweepAt(1, 3);
  ASSERT_EQ(Out.size(), 3u);
  for (size_t I = 0; I != 3; ++I)
    EXPECT_EQ(Out[I].Arrivals, Ref[I].Arrivals);
}

TEST(SweepRunner, ShardExceptionPropagates) {
  SweepConfig Cfg;
  Cfg.SeedCount = 16;
  Cfg.Threads = 4;
  auto Body = [](SweepSeed Seed, NoSweepContext &) {
    if (Seed.Index == 5)
      throw std::runtime_error("shard 5");
    return int(Seed.Index);
  };
  EXPECT_THROW((runSeedSweepWith<int, NoSweepContext>(Cfg, Body)),
               std::runtime_error);
}

TEST(SweepThreads, FlagParsingStripsAndParses) {
  const char *Raw[] = {"prog", "30", "--threads", "8", "tail", nullptr};
  char *Argv[6];
  std::memcpy(Argv, Raw, sizeof(Raw));
  int Argc = 5;
  EXPECT_EQ(*sweepThreadsFromArgs(Argc, Argv), 8u);
  ASSERT_EQ(Argc, 3);
  EXPECT_STREQ(Argv[1], "30");
  EXPECT_STREQ(Argv[2], "tail");
  EXPECT_EQ(Argv[3], nullptr);
}

TEST(SweepThreads, EqualsFormAndMalformed) {
  {
    const char *Raw[] = {"prog", "--threads=6", nullptr};
    char *Argv[3];
    std::memcpy(Argv, Raw, sizeof(Raw));
    int Argc = 2;
    EXPECT_EQ(*sweepThreadsFromArgs(Argc, Argv), 6u);
    EXPECT_EQ(Argc, 1);
  }
  {
    const char *Raw[] = {"prog", "--threads=banana", nullptr};
    char *Argv[3];
    std::memcpy(Argv, Raw, sizeof(Raw));
    int Argc = 2;
    Result<unsigned> Threads = sweepThreadsFromArgs(Argc, Argv);
    ASSERT_FALSE(Threads);
    EXPECT_EQ(Threads.error().Kind, Error::Code::InvalidArgument);
    EXPECT_NE(Threads.error().Message.find("banana"), std::string::npos);
  }
}

TEST(SweepThreads, RejectsOutOfRangeAndMissingValues) {
  for (const char *Value : {"abc", "0", "-1", "+2", "1024", "", "3x"}) {
    const char *Raw[] = {"prog", "5", "--threads", Value, nullptr};
    char *Argv[5];
    std::memcpy(Argv, Raw, sizeof(Raw));
    int Argc = 4;
    EXPECT_FALSE(sweepThreadsFromArgs(Argc, Argv)) << "'" << Value << "'";
  }
  {
    const char *Raw[] = {"prog", "--threads=1023", nullptr};
    char *Argv[3];
    std::memcpy(Argv, Raw, sizeof(Raw));
    int Argc = 2;
    EXPECT_EQ(*sweepThreadsFromArgs(Argc, Argv), 1023u);
  }
  {
    const char *Raw[] = {"prog", "5", "--threads", nullptr};
    char *Argv[4];
    std::memcpy(Argv, Raw, sizeof(Raw));
    int Argc = 3;
    EXPECT_FALSE(sweepThreadsFromArgs(Argc, Argv));
  }
  {
    const char *Raw[] = {"prog", "5", nullptr};
    char *Argv[3];
    std::memcpy(Argv, Raw, sizeof(Raw));
    int Argc = 2;
    EXPECT_EQ(*sweepThreadsFromArgs(Argc, Argv), 0u);
    EXPECT_EQ(Argc, 2);
  }
}

// DYNDIST_THREADS is the flag's other input and gets the same check when
// the flag is absent; a flag that is present is the count used.
TEST(SweepThreads, ChecksEnvironmentWhenFlagAbsent) {
  const char *Saved = std::getenv("DYNDIST_THREADS");
  const std::string Restore = Saved ? Saved : "";
  auto Parse = [](const char *Flag) {
    const char *Raw[] = {"prog", "5", Flag, nullptr};
    char *Argv[4];
    std::memcpy(Argv, Raw, sizeof(Raw));
    int Argc = Flag ? 3 : 2;
    return sweepThreadsFromArgs(Argc, Argv);
  };
  for (const char *Value : {"abc", "0", "1024", "", "-2"}) {
    ::setenv("DYNDIST_THREADS", Value, 1);
    Result<unsigned> Threads = Parse(nullptr);
    ASSERT_FALSE(Threads) << "'" << Value << "'";
    EXPECT_NE(Threads.error().Message.find("DYNDIST_THREADS"),
              std::string::npos);
    EXPECT_EQ(*Parse("--threads=3"), 3u) << "'" << Value << "'";
  }
  ::setenv("DYNDIST_THREADS", "7", 1);
  EXPECT_EQ(*Parse(nullptr), 0u);
  EXPECT_EQ(resolveSweepThreads(0), 7u);
  ::unsetenv("DYNDIST_THREADS");
  EXPECT_EQ(*Parse(nullptr), 0u);
  if (Saved)
    ::setenv("DYNDIST_THREADS", Restore.c_str(), 1);
}

TEST(SweepThreads, ResolveExplicitWinsAndFloorsAtOne) {
  EXPECT_EQ(resolveSweepThreads(3), 3u);
  EXPECT_GE(resolveSweepThreads(0), 1u);
}
