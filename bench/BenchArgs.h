//===- BenchArgs.h - The count argument of the bench mains ------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every bench main takes one optional positional argument, a count (seeds
/// per cell, churn steps or census rounds) that scales its tables down or
/// up. benchCountArg() is the one parser for it. The sweeping mains also
/// take --threads N, parsed by benchThreadsArg().
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_BENCH_ARGS_H
#define DYNDIST_BENCH_ARGS_H

#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/support/StringUtils.h"

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace dyndist_bench {

/// argv[1] as a count in [1, INT_MAX], or \p Default when absent. Anything
/// else (garbage, a sign, 0, overflow) is a usage error: prints why and
/// exits 2, instead of tabulating zero runs or sweeping a wrapped count.
inline int benchCountArg(int Argc, char **Argv, int Default) {
  if (Argc < 2)
    return Default;
  uint64_t Count = 0;
  if (!dyndist::parseU64Checked(Argv[1], Count) || Count == 0 ||
      Count > INT_MAX) {
    std::fprintf(stderr,
                 "%s: the count argument must be an integer in [1, %d], "
                 "got '%s'\n",
                 Argv[0], INT_MAX, Argv[1]);
    std::exit(2);
  }
  return static_cast<int>(Count);
}

/// Strips the --threads flag from the arguments and returns its count, 0
/// when absent. A malformed flag is a usage error: prints why and exits 2
/// before any sweep starts, instead of running on every hardware thread.
inline unsigned benchThreadsArg(int &Argc, char **Argv) {
  dyndist::Result<unsigned> Threads = dyndist::sweepThreadsFromArgs(Argc, Argv);
  if (!Threads) {
    std::fprintf(stderr, "%s: %s\n", Argv[0],
                 Threads.error().Message.c_str());
    std::exit(2);
  }
  return *Threads;
}

} // namespace dyndist_bench

#endif // DYNDIST_BENCH_ARGS_H
