//===- bench_consensus.cpp - E7: consensus construction costs -------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E7 (claim C5, consensus): cost and robustness of the t+1
// responsive-crash consensus chain, plus the nonresponsive dilemma table.
//
//  - google-benchmark section (only with a --benchmark* flag): ns per
//    propose() for chain lengths t+1.
//  - table 1: base invocations per decision vs t and the number of
//    actually-crashed objects (cost is exactly t+1 regardless of failures:
//    responsive ⊥ answers are answers).
//  - table 2: the nonresponsive family's dilemma — for every WaitFor
//    parameter the outcome under a 1-fault adversary: blocked or split.
//
//===----------------------------------------------------------------------===//

#include "dyndist/arrival/Churn.h"
#include "dyndist/consensus/ConsensusChain.h"
#include "dyndist/consensus/FloodSet.h"
#include "dyndist/consensus/QuorumConsensusAttempt.h"
#include "dyndist/consensus/RotatingConsensus.h"
#include "dyndist/runtime/StressHarness.h"
#include "dyndist/runtime/ThreadRunner.h"
#include "dyndist/support/StringUtils.h"

#include "BenchBuildInfo.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string_view>
#include <thread>

using namespace dyndist;

static void BM_ChainPropose(benchmark::State &State) {
  // A fresh chain per iteration batch would distort timing; reuse one
  // chain — later proposals exercise the same code path (adopt sticky).
  ConsensusChain Chain(static_cast<size_t>(State.range(0)));
  int64_t V = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(Chain.propose(++V));
}
BENCHMARK(BM_ChainPropose)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

static void BM_ChainProposeWithCrashedObjects(benchmark::State &State) {
  size_t Tol = 4;
  ConsensusChain Chain(Tol);
  for (long K = 0; K != State.range(0); ++K)
    Chain.object(static_cast<size_t>(K)).crash();
  int64_t V = 0;
  for (auto _ : State)
    benchmark::DoNotOptimize(Chain.propose(++V));
}
BENCHMARK(BM_ChainProposeWithCrashedObjects)->Arg(0)->Arg(2)->Arg(4);

namespace {

void printAgreementTable() {
  std::printf("\nE7 chain robustness: 6 concurrent proposers, crashes "
              "injected mid-run\n");
  Table T;
  T.setHeader({"t", "objects", "crashes", "agreement",
               "base-invocations/decision"});
  for (size_t Tol : {0, 1, 2, 4}) {
    for (size_t Crashes = 0; Crashes <= Tol; Crashes += (Tol > 2 ? 2 : 1)) {
      ConsensusChain Chain(Tol);
      ConsensusStressOptions Opt;
      Opt.Proposers = 6;
      Opt.Seed = 1000 + Tol * 10 + Crashes;
      for (size_t K = 0; K != Crashes; ++K)
        Opt.InjectBeforePropose[K] = [&Chain, K] {
          Chain.object(K).crash();
        };
      auto Records = stressConsensus(Chain, Opt);
      Status S = checkConsensusRun(Records);
      T.addRow({format("%zu", Tol), format("%zu", Chain.baseCount()),
                format("%zu", Crashes), S.ok() ? "yes" : S.error().str(),
                format("%.1f", double(Chain.baseInvocations()) /
                                   double(Opt.Proposers))});
      if (Tol == 0)
        break;
    }
  }
  std::printf("%s", T.render().c_str());
}

void printDilemmaTable() {
  std::printf("\nE7 nonresponsive dilemma: n = 3 base objects, 1-fault "
              "adversary, every WaitFor choice\n");
  Table T;
  T.setHeader({"wait-for", "adversary", "outcome"});
  for (size_t WaitFor = 1; WaitFor <= 3; ++WaitFor) {
    std::vector<std::shared_ptr<BaseConsensus>> Objects;
    for (int I = 0; I != 3; ++I)
      Objects.push_back(
          std::make_shared<BaseConsensus>(FailureMode::Nonresponsive));

    if (WaitFor > 2) {
      // Silence one object: the proposer waits for all three forever.
      Objects[0]->crash();
      QuorumConsensusAttempt P(Objects, WaitFor);
      auto D = P.propose(5, std::chrono::milliseconds(100));
      T.addRow({format("%zu", WaitFor), "crash 1 object",
                D ? "decided (unexpected!)" : "BLOCKED (termination lost)"});
      continue;
    }
    // Split two proposers across quorums; linearize the second proposal
    // first on the swing object.
    for (size_t I = WaitFor; I != 3; ++I)
      Objects[I]->suspend();
    QuorumConsensusAttempt P1(Objects, WaitFor);
    auto D1 = P1.propose(5, std::chrono::milliseconds(200));
    for (size_t I = 0; I != WaitFor; ++I)
      Objects[I]->suspend();
    QuorumConsensusAttempt P2(Objects, WaitFor);
    std::optional<int64_t> D2;
    ThreadRunner Runner;
    Runner.spawn(
        [&] { D2 = P2.propose(9, std::chrono::milliseconds(5000)); });
    while (Objects[WaitFor]->deferredCount() < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Objects[WaitFor]->resumeOne(1);
    for (size_t I = 0; I + 1 < WaitFor; ++I)
      Objects[I]->resumeOne(0);
    Runner.joinAll();
    bool Split = D1 && D2 && *D1 != *D2;
    T.addRow({format("%zu", WaitFor), "delay + reorder in-flight proposals",
              Split ? format("SPLIT (%lld vs %lld: agreement lost)",
                             (long long)*D1, (long long)*D2)
                    : "agreed (unexpected!)"});
    for (auto &O : Objects)
      O->resume();
  }
  std::printf("%s", T.render().c_str());
  std::printf("Every WaitFor choice fails one horn of the dilemma: the\n"
              "impossibility of consensus self-implementation under\n"
              "nonresponsive crashes, exhibited parameter by parameter.\n");
}

void printStaticVsDynamicTable() {
  std::printf("\nE7 addendum — a static-system algorithm (FloodSet) meets "
              "the dynamic model:\n");
  Table T;
  T.setHeader({"regime", "join-rate", "participants", "decided",
               "distinct-decisions"});
  for (double Rate : {0.0, 0.05, 0.15, 0.3}) {
    Simulator S(77 + static_cast<uint64_t>(Rate * 100));
    // FloodSet outcomes are collected from Observe records + presence.
    S.setTraceLevel(TraceLevel::Lifecycle);
    auto Cfg = std::make_shared<FloodSetConfig>();
    Cfg->Faults = 1;
    auto Value = std::make_shared<int64_t>(0);
    ChurnParams P;
    P.JoinRate = Rate;
    P.MeanSession = 120;
    P.Horizon = 300;
    ChurnDriver Driver(
        ArrivalModel::infiniteArrival(), P,
        makeFloodSetFactory(Cfg, [Value] { return ++*Value; }), Rng(5));
    Driver.populateInitial(S, 10);
    Driver.start(S);
    RunLimits L;
    L.MaxTime = 600;
    S.run(L);
    FloodSetOutcome Out = collectFloodSetOutcome(S.trace());
    T.addRow({Rate == 0.0 ? "static" : "dynamic", format("%.2f", Rate),
              format("%zu", Out.Participants), format("%zu", Out.Decided),
              format("%zu", Out.DistinctDecisions.size())});
  }
  std::printf("%s", T.render().c_str());
  std::printf("In the static row everyone decides one value; as soon as\n"
              "entities keep arriving, distinct decisions accumulate — the\n"
              "divide the paper's definition effort is about.\n");
}

void printRotatingTable() {
  std::printf("\nE7 static-system reference: rotating-coordinator consensus "
              "(n = 7, f < n/2)\n");
  Table T;
  T.setHeader({"crashed-coordinators", "latency-model", "decided",
               "agreement", "max-rounds", "messages"});
  struct Case {
    size_t Crashes;
    bool HeavyTail;
  } Cases[] = {{0, false}, {1, false}, {3, false}, {0, true}, {2, true}};
  for (const Case &C : Cases) {
    Simulator S(101 + C.Crashes + (C.HeavyTail ? 10 : 0));
    // Rotating-consensus outcomes are collected from Observe records.
    S.setTraceLevel(TraceLevel::Lifecycle);
    if (C.HeavyTail)
      S.setLatencyModel(std::make_unique<HeavyTailLatency>(1, 1.2, 40));
    auto Cfg = std::make_shared<RotatingConfig>();
    std::vector<ProcessId> Pids;
    std::vector<RotatingConsensusActor *> Actors;
    for (size_t I = 0; I != 7; ++I) {
      auto Owned = std::make_unique<RotatingConsensusActor>(
          Cfg, static_cast<int64_t>(100 + I));
      Actors.push_back(Owned.get());
      Pids.push_back(S.spawn(std::move(Owned)));
    }
    Cfg->Participants = Pids;
    for (ProcessId P : Pids)
      S.scheduleAt(1, [P](Simulator &Sim) {
        Sim.sendMessage(P, P, makeBody<RcStartMsg>());
      });
    for (size_t K = 0; K != C.Crashes; ++K) {
      ProcessId Victim = Pids[K];
      S.scheduleAt(2 + K, [Victim](Simulator &Sim) { Sim.crash(Victim); });
    }
    RunLimits L;
    L.MaxTime = 20000;
    S.run(L);
    auto Records = collectRotatingOutcome(S.trace());
    Status Safety = checkConsensusRun(Records, /*RequireAllDecide=*/false);
    size_t Decided = 0;
    uint64_t MaxRounds = 0;
    for (RotatingConsensusActor *A : Actors) {
      Decided += A->decision().has_value();
      if (A->decision())
        MaxRounds = std::max(MaxRounds, A->roundsUsed());
    }
    T.addRow({format("%zu", C.Crashes),
              C.HeavyTail ? "heavy-tail" : "synchronous",
              format("%zu/7", Decided),
              Safety.ok() ? "yes" : Safety.error().str(),
              format("%llu", (unsigned long long)MaxRounds),
              format("%llu", (unsigned long long)S.stats().MessagesSent)});
  }
  std::printf("%s", T.render().c_str());
  std::printf("The production-grade static protocol: crashes cost rounds\n"
              "and messages but never agreement — *given* the fixed, known\n"
              "participant set the dynamic models take away.\n");
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
  printAgreementTable();
  printDilemmaTable();
  printRotatingTable();
  printStaticVsDynamicTable();
  return 0;
}
