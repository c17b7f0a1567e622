//===- bench_registers.cpp - E6: register construction costs --------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E6 (claim C5, registers): throughput and base-object cost of
// the register self-implementations as the failure budget t grows.
//
//  - google-benchmark section (only with a --benchmark* flag): ns/op
//    for writes and reads of the t+1 stack construction, the 2t+1
//    majority construction, and the multi-reader composition.
//  - table section: base invocations per operation (the model-level cost
//    the constructions are compared by) and a failure-survival check —
//    after crashing a full budget of t bases mid-run, the stress history
//    must still be atomic.
//
// Expected shape: per-op base cost is (t+1) for the stack construction vs
// 2*(2t+1) for a majority read (two quorum phases) — the price of
// tolerating nonresponsiveness — and the multi-reader composition scales
// with the reader count, not with contention.
//
//===----------------------------------------------------------------------===//

#include "dyndist/registers/MajorityRegister.h"
#include "dyndist/registers/MultiReaderRegister.h"
#include "dyndist/registers/StackRegister.h"
#include "dyndist/runtime/StressHarness.h"
#include "dyndist/support/StringUtils.h"

#include "BenchBuildInfo.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>

using namespace dyndist;

static void BM_StackWrite(benchmark::State &State) {
  StackRegister R(static_cast<size_t>(State.range(0)));
  int64_t V = 0;
  for (auto _ : State) {
    R.write(++V);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_StackWrite)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

static void BM_StackRead(benchmark::State &State) {
  StackRegister R(static_cast<size_t>(State.range(0)));
  R.write(42);
  for (auto _ : State)
    benchmark::DoNotOptimize(R.read(0));
}
BENCHMARK(BM_StackRead)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

static void BM_MajorityWrite(benchmark::State &State) {
  size_t T = static_cast<size_t>(State.range(0));
  MajorityRegister R(2 * T + 1, T);
  int64_t V = 0;
  for (auto _ : State) {
    R.write(++V);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MajorityWrite)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

static void BM_MajorityRead(benchmark::State &State) {
  size_t T = static_cast<size_t>(State.range(0));
  MajorityRegister R(2 * T + 1, T);
  R.write(42);
  for (auto _ : State)
    benchmark::DoNotOptimize(R.read(0));
}
BENCHMARK(BM_MajorityRead)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

static void BM_MultiReaderRead(benchmark::State &State) {
  MultiReaderRegister R(static_cast<size_t>(State.range(0)),
                        /*Tolerated=*/1);
  R.write(42);
  for (auto _ : State)
    benchmark::DoNotOptimize(R.read(0));
}
BENCHMARK(BM_MultiReaderRead)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void BM_MultiReaderWrite(benchmark::State &State) {
  MultiReaderRegister R(static_cast<size_t>(State.range(0)),
                        /*Tolerated=*/1);
  int64_t V = 0;
  for (auto _ : State) {
    R.write(++V);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MultiReaderWrite)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

namespace {

void printCostTable() {
  std::printf("\nE6 model-level cost: base invocations per operation\n");
  Table T;
  T.setHeader({"construction", "t", "bases", "write-cost", "read-cost"});
  for (size_t Tol : {0, 1, 2, 4}) {
    {
      StackRegister R(Tol);
      uint64_t Before = R.baseInvocations();
      R.write(1);
      uint64_t W = R.baseInvocations() - Before;
      Before = R.baseInvocations();
      R.read(0);
      uint64_t Rd = R.baseInvocations() - Before;
      T.addRow({"stack (responsive)", format("%zu", Tol),
                format("%zu", R.baseCount()),
                format("%llu", (unsigned long long)W),
                format("%llu", (unsigned long long)Rd)});
    }
    {
      MajorityRegister R(2 * Tol + 1, Tol);
      uint64_t Before = R.baseInvocations();
      R.write(1);
      uint64_t W = R.baseInvocations() - Before;
      Before = R.baseInvocations();
      R.read(0);
      uint64_t Rd = R.baseInvocations() - Before;
      T.addRow({"majority (nonresponsive)", format("%zu", Tol),
                format("%zu", R.baseCount()),
                format("%llu", (unsigned long long)W),
                format("%llu", (unsigned long long)Rd)});
    }
  }
  std::printf("%s", T.render().c_str());
}

void printSurvivalTable() {
  std::printf("\nE6 failure survival: full crash budget injected mid-run\n");
  Table T;
  T.setHeader({"construction", "t", "crashes", "history-ops", "atomic"});
  for (size_t Tol : {1, 2, 4}) {
    {
      StackRegister R(Tol);
      RegisterStressOptions Opt;
      Opt.Readers = 1;
      Opt.Writes = 150;
      Opt.ReadsPerReader = 150;
      for (size_t K = 0; K != Tol; ++K)
        Opt.InjectBeforeWrite[30 * (K + 1)] = [&R, K] { R.base(K).crash(); };
      History H = stressRegister(R, Opt);
      Status S = checkSwmrAtomicity(H);
      T.addRow({"stack (responsive)", format("%zu", Tol),
                format("%zu", Tol), format("%zu", H.Ops.size()),
                S.ok() ? "yes" : S.error().str()});
    }
    {
      MajorityRegister R(2 * Tol + 1, Tol);
      RegisterStressOptions Opt;
      Opt.Readers = 2;
      Opt.Writes = 150;
      Opt.ReadsPerReader = 100;
      for (size_t K = 0; K != Tol; ++K)
        Opt.InjectBeforeWrite[30 * (K + 1)] = [&R, K] { R.base(K).crash(); };
      History H = stressRegister(R, Opt);
      Status S = checkSwmrAtomicity(H);
      T.addRow({"majority (nonresponsive)", format("%zu", Tol),
                format("%zu", Tol), format("%zu", H.Ops.size()),
                S.ok() ? "yes" : S.error().str()});
    }
  }
  std::printf("%s", T.render().c_str());
}

void printAblationTable() {
  std::printf("\nE6 ablation: the majority read's write-back phase\n");
  // Cost side: the write-back doubles the read's base-invocation bill.
  Table T;
  T.setHeader({"variant", "t", "read-cost", "guarantee"});
  for (size_t Tol : {1, 2, 4}) {
    for (bool WriteBack : {true, false}) {
      MajorityRegister R(2 * Tol + 1, Tol);
      R.setWriteBackEnabled(WriteBack);
      R.write(1);
      uint64_t Before = R.baseInvocations();
      R.read(0);
      uint64_t Cost = R.baseInvocations() - Before;
      T.addRow({WriteBack ? "with write-back" : "without (ablated)",
                format("%zu", Tol), format("%llu", (unsigned long long)Cost),
                WriteBack ? "atomic" : "regular only"});
    }
  }
  std::printf("%s", T.render().c_str());
  std::printf("The ablated variant halves the read cost but forfeits\n"
              "atomicity: the RegistersTest ablation pair exhibits the\n"
              "new/old inversion an adversary extracts from it.\n");
}

} // namespace

int main(int argc, char **argv) {
  // Like every bench binary: the google-benchmark rows run only when a
  // --benchmark* flag asks for them, and then alone.
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]).rfind("--benchmark", 0) == 0) {
      dyndist_bench::addBuildTypeContext();
      ::benchmark::Initialize(&argc, argv);
      ::benchmark::RunSpecifiedBenchmarks();
      ::benchmark::Shutdown();
      return 0;
    }
  }
  printCostTable();
  printSurvivalTable();
  printAblationTable();
  return 0;
}
