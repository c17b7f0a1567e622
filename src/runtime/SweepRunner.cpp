//===- SweepRunner.cpp - Seed-sharded sweeps ------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/runtime/SweepRunner.h"

#include "dyndist/support/Random.h"
#include "dyndist/support/StringUtils.h"

#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>

using namespace dyndist;

uint64_t dyndist::deriveSweepSeed(uint64_t MasterSeed, uint64_t SeedIndex) {
  // Two SplitMix64 rounds: one to decorrelate master seeds that differ in
  // few bits, one to decorrelate adjacent indices. The constant offsets the
  // index so (master, 0) never degenerates to splitMix64(master) alone.
  uint64_t State = MasterSeed;
  uint64_t Master = splitMix64(State);
  State = Master ^ (SeedIndex + 0x2545f4914f6cdd1dULL);
  return splitMix64(State);
}

namespace {

/// \p Value as a thread count in [1, SweepThreadLimit); the error names the
/// input it came from (\p What).
Result<unsigned> parseSweepThreads(const char *What, const char *Value) {
  uint64_t Parsed = 0;
  if (!parseU64Checked(Value, Parsed) || Parsed == 0 ||
      Parsed >= SweepThreadLimit)
    return Error(Error::Code::InvalidArgument,
                 std::string(What) + " must be an integer in [1, " +
                     std::to_string(SweepThreadLimit - 1) + "], got '" +
                     Value + "'");
  return static_cast<unsigned>(Parsed);
}

} // namespace

Result<unsigned> dyndist::sweepThreadsFromEnv() {
  // dyndist-lint: allow(D2) config entry point; thread count never alters
  // schedule bytes (seed sharding is positional), only execution speed
  const char *Env = std::getenv("DYNDIST_THREADS");
  if (!Env)
    return 0u;
  return parseSweepThreads("DYNDIST_THREADS", Env);
}

unsigned dyndist::resolveSweepThreads(unsigned Requested) {
  if (Requested > 0)
    return Requested;
  if (Result<unsigned> Env = sweepThreadsFromEnv(); Env && *Env > 0)
    return *Env;
  unsigned HW = std::thread::hardware_concurrency();
  return HW > 0 ? HW : 1;
}

Result<unsigned> dyndist::sweepThreadsFromArgs(int &Argc, char **Argv) {
  unsigned Threads = 0;
  int Out = 1;
  for (int In = 1; In < Argc; ++In) {
    std::string_view Arg = Argv[In];
    const char *Value = nullptr;
    if (Arg == "--threads") {
      if (In + 1 == Argc)
        return Error(Error::Code::InvalidArgument, "--threads needs a value");
      Value = Argv[++In];
    } else if (Arg.rfind("--threads=", 0) == 0) {
      Value = Argv[In] + 10;
    } else {
      Argv[Out++] = Argv[In];
      continue;
    }
    Result<unsigned> Parsed = parseSweepThreads("--threads", Value);
    if (!Parsed)
      return Parsed.error();
    Threads = *Parsed;
  }
  Argc = Out;
  Argv[Argc] = nullptr;
  // Without the flag the count resolves through DYNDIST_THREADS, so that
  // input gets the same check here instead of a silent fallback later.
  if (Threads == 0)
    if (Result<unsigned> Env = sweepThreadsFromEnv(); !Env)
      return Env.error();
  return Threads;
}
