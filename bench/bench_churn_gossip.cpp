//===- bench_churn_gossip.cpp - E4: graceful degradation ------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E4 (claim C3's flip side): sweep churn intensity and compare
// how the four query algorithms fail. Wave algorithms are all-or-nothing —
// flooding with a legal TTL keeps meeting the spec, echo stops terminating,
// the DFS token collapses to its issuer-only answer — while gossip always
// answers and its census error (reported population vs live population)
// grows smoothly with churn.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/aggregation/Token.h"
#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/runtime/TraceQuery.h"
#include "dyndist/sim/TraceColumnar.h"
#include "dyndist/support/Stats.h"
#include "dyndist/support/StringUtils.h"

#include "BenchArgs.h"
#include "BenchBuildInfo.h"

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include <sys/resource.h>

using namespace dyndist;

namespace {

constexpr uint64_t E4MasterSeed = 0xE4;

unsigned SweepThreads = 0; // Set once in main from --threads/env.

struct Cell {
  int Runs = 0;
  double Terminated = 0, Valid = 0, Coverage = 0, CensusError = 0;
  double MsgPerMember = 0;
  double UnitsPerMember = 0;
};

/// Per-seed partial aggregates: each OnlineStats holds 0 or 1 samples and
/// is merged into the cell totals in seed-index order, so the reduction is
/// byte-identical at any thread count.
struct SeedPartial {
  bool Counted = false;
  bool Terminated = false;
  bool Valid = false;
  OnlineStats Cov, Err, Msg, Units;
};

Cell sweep(RecommendedAlgorithm Algo, double JoinRate, int Seeds,
           bool GossipDigest = false) {
  SweepConfig Sweep;
  Sweep.MasterSeed = E4MasterSeed;
  Sweep.SeedCount = static_cast<size_t>(Seeds);
  Sweep.Threads = SweepThreads;
  // One arena per worker: all of a worker's assigned seeds recycle one
  // simulator shell (byte-identical results; see SimArena.h).
  auto Partials = runSeedSweepWith<SeedPartial, SimArena>(
      Sweep, [&](SweepSeed Seed, SimArena &Arena) {
    ExperimentConfig Cfg;
    Cfg.Seed = Seed.Value;
    Cfg.Class = {ArrivalModel::boundedConcurrency(40),
                 KnowledgeModel::knownDiameter(10)};
    Cfg.UseRecommended = false;
    Cfg.Algorithm = Algo;
    Cfg.InitialMembers = 24;
    Cfg.Churn.JoinRate = JoinRate;
    Cfg.Churn.MeanSession = JoinRate > 0 ? 24.0 / JoinRate : 1e9;
    Cfg.Churn.Horizon = 600;
    Cfg.QueryAt = 200;
    Cfg.Horizon = 1200;
    Cfg.Gossip.ReportAfter = 60;
    Cfg.Gossip.Rounds = 30;
    Cfg.Gossip.RoundEvery = 2;
    Cfg.Gossip.DigestMode = GossipDigest;

    ExperimentResult R = runQueryExperiment(Cfg, &Arena);
    SeedPartial P;
    if (!R.ClassAdmissible || !R.QueryIssued)
      return P;
    P.Counted = true;
    P.Terminated = R.Verdict.Terminated;
    P.Valid = R.Verdict.valid();
    if (R.Verdict.Terminated) {
      P.Cov.add(R.Verdict.Coverage);
      if (R.MembersAtResponse > 0)
        P.Err.add(std::abs(double(R.Verdict.IncludedCount) -
                           double(R.MembersAtResponse)) /
                  double(R.MembersAtResponse));
    }
    if (R.MembersAtQuery > 0) {
      P.Msg.add(double(R.Stats.MessagesSent) / double(R.MembersAtQuery));
      P.Units.add(double(R.Stats.PayloadUnits) / double(R.MembersAtQuery));
    }
    return P;
  });

  Cell Out;
  OnlineStats Cov, Err, Msg, Units;
  int Term = 0, Val = 0, Counted = 0;
  for (const SeedPartial &P : Partials) {
    if (!P.Counted)
      continue;
    ++Counted;
    Term += P.Terminated;
    Val += P.Valid;
    Cov.merge(P.Cov);
    Err.merge(P.Err);
    Msg.merge(P.Msg);
    Units.merge(P.Units);
  }
  Out.Runs = Counted;
  if (Counted > 0) {
    Out.Terminated = double(Term) / Counted;
    Out.Valid = double(Val) / Counted;
  }
  Out.Coverage = Cov.mean();
  Out.CensusError = Err.mean();
  Out.MsgPerMember = Msg.mean();
  Out.UnitsPerMember = Units.mean();
  return Out;
}

// --- Kernel throughput section (google-benchmark) -------------------------
//
// Measures raw kernel events/sec under a gossip + crash/respawn churn load
// at N = 1000 — the hot loop every experiment above funnels through. Run
// with any --benchmark_* flag to execute only this section, e.g.:
//   bench_churn_gossip --benchmark_filter=BM_Kernel
//     --benchmark_out=churn_gossip.json --benchmark_out_format=json
// `tools/dyndist-bench-report kernel` drives exactly that (the section is
// declared in bench/gates.json).

KernelLoadConfig churnGossipLoad() {
  KernelLoadConfig Cfg;
  Cfg.Seed = 42;
  Cfg.Processes = 1000;
  Cfg.Horizon = 1500;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;
  return Cfg;
}

void BM_KernelChurnGossip(benchmark::State &State, TraceLevel Level) {
  KernelLoadConfig Cfg = churnGossipLoad();
  uint64_t Events = 0;
  for (auto _ : State) {
    KernelLoadResult R = runKernelLoad(Cfg, Level);
    Events += R.Stats.EventsExecuted;
    benchmark::DoNotOptimize(R);
  }
  // items_per_second in the report is kernel events/sec.
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK_CAPTURE(BM_KernelChurnGossip, n1000_trace_off, TraceLevel::Off)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_KernelChurnGossip, n1000_trace_lifecycle,
                  TraceLevel::Lifecycle)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_KernelChurnGossip, n1000_trace_full, TraceLevel::Full)
    ->Unit(benchmark::kMillisecond);

// --- Space-sharded kernel section (google-benchmark) -----------------------
//
// The same gossip + churn load at n = 10^5 and n = 10^6, run through the
// space-sharded engine (KernelLoadConfig::Shards). The shards argument is
// the ladder: 0 is the legacy single-stream kernel (a different schedule,
// kept as the reference point), 1/2/4 select the sharded engine, whose
// schedule — and therefore whose event count — is byte-identical at every
// rung. `tools/dyndist-bench-report shard` runs exactly these; the floors
// and the n = 10^6 peak-RSS budget are gates in bench/gates.json.

KernelLoadConfig largeLoad(size_t Processes, SimTime Horizon,
                           unsigned Shards) {
  KernelLoadConfig Cfg;
  Cfg.Seed = 42;
  Cfg.Processes = Processes;
  Cfg.Horizon = Horizon;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;
  Cfg.Shards = Shards;
  return Cfg;
}

void BM_KernelSharded(benchmark::State &State) {
  KernelLoadConfig Cfg = largeLoad(
      100000, 60, static_cast<unsigned>(State.range(0)));
  uint64_t Events = 0;
  auto Begin = std::chrono::steady_clock::now();
  for (auto _ : State) {
    KernelLoadResult R = runKernelLoad(Cfg, TraceLevel::Off);
    Events += R.Stats.EventsExecuted;
    benchmark::DoNotOptimize(R);
  }
  double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Begin)
          .count();
  State.SetItemsProcessed(static_cast<int64_t>(Events));
  // items_per_second divides by the main thread's CPU clock, which never
  // bills worker-thread cycles — the K > 1 rungs would report inflated
  // rates. This counter is the honest wall-clock rate; the report tool
  // prefers it over items_per_second when present.
  State.counters["events_per_second_wall"] =
      Wall > 0.0 ? static_cast<double>(Events) / Wall : 0.0;
}
// Real (wall-clock) time: the K > 1 rungs run worker threads whose cycles
// the default main-thread CPU clock would not bill, overstating the rate.
BENCHMARK(BM_KernelSharded)
    ->ArgName("shards")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The acceptance run: one million processes to completion under gossip +
/// churn, with the process-wide peak RSS recorded alongside the rate. One
/// iteration — the run is seconds long and the counter is a memory budget,
/// not a timing sample.
void BM_KernelShardedMillion(benchmark::State &State) {
  KernelLoadConfig Cfg = largeLoad(
      1000000, 30, static_cast<unsigned>(State.range(0)));
  uint64_t Events = 0;
  auto Begin = std::chrono::steady_clock::now();
  for (auto _ : State) {
    KernelLoadResult R = runKernelLoad(Cfg, TraceLevel::Off);
    Events += R.Stats.EventsExecuted;
    benchmark::DoNotOptimize(R);
  }
  double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Begin)
          .count();
  State.SetItemsProcessed(static_cast<int64_t>(Events));
  State.counters["events_per_second_wall"] =
      Wall > 0.0 ? static_cast<double>(Events) / Wall : 0.0;
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  State.counters["peak_rss_mb"] =
      static_cast<double>(RU.ru_maxrss) / 1024.0;
}
BENCHMARK(BM_KernelShardedMillion)
    ->ArgName("shards")
    ->Arg(1)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Trace sink section (google-benchmark) --------------------------------
//
// The trace-archival hot path: stream the exact trace_full record sequence
// of BM_KernelChurnGossip through the columnar archive writer, and
// aggregate the archived file back through the sharded query engine. The
// record stream is captured once (in memory) so items/sec is purely the
// writer's encode + write cost, not kernel time. `tools/dyndist-bench-report
// trace` runs these; bench/gates.json gates the sink on an absolute
// records/s floor.

/// TraceSink that keeps every record as an owned TraceEvent (capture
/// fixture).
struct CollectSink final : TraceSink {
  std::vector<TraceEvent> Events;
  void append(const TraceEvent &E) override { Events.push_back(E); }
};

/// The trace_full record stream of BM_KernelChurnGossip, captured once per
/// process.
const std::vector<TraceEvent> &churnGossipFullEvents() {
  static const std::vector<TraceEvent> Events = [] {
    CollectSink Sink;
    KernelLoadConfig Cfg = churnGossipLoad();
    Cfg.Sink = &Sink;
    runKernelLoad(Cfg, TraceLevel::Full);
    return std::move(Sink.Events);
  }();
  return Events;
}

constexpr const char *TraceSinkBenchPath = "bench_trace_sink.tmp";
constexpr const char *TraceQueryBenchPath = "bench_trace_query.dytr";

uint64_t fileSize(const char *Path) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return 0;
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  return Size > 0 ? static_cast<uint64_t>(Size) : 0;
}

/// Archives \p Events at \p Path through a fresh writer: open, one append
/// per record, close.
Status archiveEvents(const std::vector<TraceEvent> &Events, const char *Path) {
  ColumnarTraceWriter W;
  if (Status S = W.open(Path); !S)
    return S;
  for (const TraceEvent &E : Events)
    W.append(E);
  return W.close();
}

/// items/sec is trace records archived per second.
void BM_TraceSinkColumnar(benchmark::State &State) {
  const std::vector<TraceEvent> &Events = churnGossipFullEvents();
  uint64_t Records = 0;
  for (auto _ : State) {
    if (!archiveEvents(Events, TraceSinkBenchPath).ok()) {
      State.SkipWithError("columnar sink failed");
      return;
    }
    Records += Events.size();
  }
  State.SetItemsProcessed(static_cast<int64_t>(Records));
  State.counters["bytes_per_event"] =
      Events.empty() ? 0.0
                     : static_cast<double>(fileSize(TraceSinkBenchPath)) /
                           static_cast<double>(Events.size());
  std::remove(TraceSinkBenchPath);
}
BENCHMARK(BM_TraceSinkColumnar)->Unit(benchmark::kMillisecond);

/// group-by kind over the archived columnar trace at K scan threads;
/// events_per_second_wall is the honest cross-thread rate (items_per_second
/// only bills the main thread's CPU clock).
void BM_QueryAggregate(benchmark::State &State) {
  static const bool Written =
      archiveEvents(churnGossipFullEvents(), TraceQueryBenchPath).ok();
  auto Src = TraceQuerySource::open(TraceQueryBenchPath);
  if (!Written || !Src.ok()) {
    State.SkipWithError("cannot open columnar query fixture");
    return;
  }
  TraceFilter Filter;
  QueryOptions Opts;
  Opts.Threads = static_cast<unsigned>(State.range(0));
  uint64_t Events = 0;
  auto Begin = std::chrono::steady_clock::now();
  for (auto _ : State) {
    auto R = queryGroupBy(**Src, Filter, GroupField::Kind, Opts);
    if (!R.ok()) {
      State.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(*R);
    Events += (*Src)->totalEvents();
  }
  double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Begin)
          .count();
  State.SetItemsProcessed(static_cast<int64_t>(Events));
  State.counters["events_per_second_wall"] =
      Wall > 0.0 ? static_cast<double>(Events) / Wall : 0.0;
}
BENCHMARK(BM_QueryAggregate)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// --- Messaging allocation section (google-benchmark) ----------------------
//
// Micro-benchmarks for the per-message and per-timer allocation cost of the
// kernel hot path, written against the public API only so the identical
// code measures the shared_ptr/std::function implementation (recorded as
// message_baseline in BENCH_kernel.json) and the pooled intrusive-refcount
// / SBO-callable implementation alike. `tools/dyndist-bench-report message`
// runs exactly these; their floors are gates in bench/gates.json.

// Three payload shapes spanning the body pool's size buckets, mirroring the
// protocol mix: a bare scalar (heartbeat-like), a mid-size fixed slice
// (peer-sampling shuffle), and a large digest. Fixed arrays, not vectors:
// the measured allocation is the body itself.
struct PoolSmallMsg : MessageBody {
  static constexpr int KindId = 7101;
  explicit PoolSmallMsg(uint64_t V) : MessageBody(KindId), V(V) {}
  uint64_t V;
};

struct PoolMediumMsg : MessageBody {
  static constexpr int KindId = 7102;
  explicit PoolMediumMsg(uint64_t Seed) : MessageBody(KindId) {
    for (size_t I = 0; I != Slice.size(); ++I)
      Slice[I] = Seed + I;
  }
  size_t weight() const override { return 1 + Slice.size(); }
  std::array<uint64_t, 6> Slice;
};

struct PoolLargeMsg : MessageBody {
  static constexpr int KindId = 7103;
  explicit PoolLargeMsg(uint64_t Seed) : MessageBody(KindId) {
    for (size_t I = 0; I != Digest.size(); ++I)
      Digest[I] = Seed ^ I;
  }
  size_t weight() const override { return 1 + Digest.size(); }
  std::array<uint64_t, 30> Digest;
};

/// Every tick each actor sends Fanout messages to uniform universe members,
/// cycling through the three payload shapes; receivers only read the body.
/// All message bodies are created and retired inside the run, so items/sec
/// is body allocations (+ frees) per second through the kernel.
class PoolChurnActor : public Actor {
public:
  PoolChurnActor(size_t Universe, unsigned Fanout)
      : Universe(Universe), Fanout(Fanout) {}

  void onStart(Context &Ctx) override { Ctx.setTimer(1); }

  void onTimer(Context &Ctx, TimerId) override {
    for (unsigned I = 0; I != Fanout; ++I) {
      ProcessId To = Ctx.rng().nextBelow(Universe);
      switch (++Sends % 3) {
      case 0:
        Ctx.send(To, makeBody<PoolSmallMsg>(Sends));
        break;
      case 1:
        Ctx.send(To, makeBody<PoolMediumMsg>(Sends));
        break;
      default:
        Ctx.send(To, makeBody<PoolLargeMsg>(Sends));
        break;
      }
    }
    Ctx.setTimer(1);
  }

  void onMessage(Context &, ProcessId, const MessageBody &Body) override {
    switch (Body.kind()) {
    case PoolSmallMsg::KindId:
      Sink += bodyAs<PoolSmallMsg>(Body).V;
      break;
    case PoolMediumMsg::KindId:
      Sink += bodyAs<PoolMediumMsg>(Body).Slice[0];
      break;
    default:
      Sink += bodyAs<PoolLargeMsg>(Body).Digest[0];
      break;
    }
  }

private:
  size_t Universe;
  unsigned Fanout;
  uint64_t Sends = 0;
  uint64_t Sink = 0;
};

void BM_MessagePoolChurn(benchmark::State &State) {
  constexpr size_t N = 32;
  constexpr unsigned Fanout = 4;
  constexpr SimTime Horizon = 1000;
  uint64_t Msgs = 0;
  for (auto _ : State) {
    Simulator S(42);
    S.setTraceLevel(TraceLevel::Off);
    for (size_t I = 0; I != N; ++I)
      S.spawn(std::make_unique<PoolChurnActor>(N, Fanout));
    RunLimits L;
    L.MaxTime = Horizon;
    S.run(L);
    Msgs += S.stats().MessagesSent;
    benchmark::DoNotOptimize(S.stats());
  }
  // items_per_second is message bodies allocated (and retired) per second.
  State.SetItemsProcessed(static_cast<int64_t>(Msgs));
}
BENCHMARK(BM_MessagePoolChurn)->Unit(benchmark::kMillisecond);

/// Self-rescheduling driver: every tick schedules a burst of one-shot
/// actions whose captures (32 bytes) exceed libstdc++'s std::function SSO
/// but fit the kernel's SBO callable — exactly the ChurnDriver /
/// Membership-round capture shape.
void scheduleBurstTick(Simulator &S, uint64_t *Sink, SimTime Horizon,
                       unsigned Burst) {
  SimTime Next = S.now() + 1;
  if (Next > Horizon)
    return;
  S.scheduleAt(Next, [Sink, Horizon, Burst](Simulator &Sim) {
    for (unsigned I = 0; I != Burst; ++I) {
      uint64_t A = Sim.rng().next();
      uint64_t B = I;
      ProcessId P = I;
      Sim.scheduleAfter(1 + (I & 3), [Sink, A, B, P](Simulator &) {
        *Sink += A + B + P;
      });
    }
    scheduleBurstTick(Sim, Sink, Horizon, Burst);
  });
}

void BM_TimerScheduleBurst(benchmark::State &State) {
  constexpr SimTime Horizon = 2000;
  constexpr unsigned Burst = 16;
  uint64_t Events = 0;
  for (auto _ : State) {
    Simulator S(7);
    S.setTraceLevel(TraceLevel::Off);
    uint64_t Sink = 0;
    scheduleBurstTick(S, &Sink, Horizon, Burst);
    RunLimits L;
    L.MaxTime = Horizon + Burst;
    S.run(L);
    Events += S.stats().EventsExecuted;
    benchmark::DoNotOptimize(Sink);
  }
  // items_per_second is scheduled actions executed per second.
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_TimerScheduleBurst)->Unit(benchmark::kMillisecond);

/// Sparse schedule: 10^5 one-shot actions scattered over 2^40 ticks, so
/// nearly every push opens its own instant. Every eighth action nests two
/// more when it runs: one into its own instant and one a few ticks ahead.
void BM_TimerScheduleSparse(benchmark::State &State) {
  constexpr size_t Actions = 100000;
  uint64_t Events = 0;
  for (auto _ : State) {
    Simulator S(7);
    S.setTraceLevel(TraceLevel::Off);
    uint64_t Sink = 0;
    Rng R(11);
    for (size_t I = 0; I != Actions; ++I) {
      const SimTime T = 1 + R.nextBelow(SimTime(1) << 40);
      if (I % 8)
        S.scheduleAt(T, [&Sink, I](Simulator &) { Sink += I; });
      else
        S.scheduleAt(T, [&Sink, I](Simulator &Sim) {
          Sim.scheduleAt(Sim.now(), [&Sink, I](Simulator &) { Sink += I; });
          Sim.scheduleAfter(1 + (I & 7), [&Sink](Simulator &) { ++Sink; });
        });
    }
    S.run();
    Events += S.stats().EventsExecuted;
    benchmark::DoNotOptimize(Sink);
  }
  // items_per_second is scheduled actions executed per second.
  State.SetItemsProcessed(static_cast<int64_t>(Events));
}
BENCHMARK(BM_TimerScheduleSparse)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string_view(argv[I]).rfind("--benchmark", 0) == 0) {
      dyndist_bench::addBuildTypeContext();
      ::benchmark::Initialize(&argc, argv);
      ::benchmark::RunSpecifiedBenchmarks();
      ::benchmark::Shutdown();
      std::remove(TraceSinkBenchPath);
      std::remove(TraceQueryBenchPath);
      return 0;
    }
  }

  SweepThreads = dyndist_bench::benchThreadsArg(argc, argv);
  int Seeds = dyndist_bench::benchCountArg(argc, argv, 12);

  std::printf("E4: algorithm behavior vs churn rate (%d seeds/point, "
              "%u threads)\n\n",
              Seeds, resolveSweepThreads(SweepThreads));

  struct AlgoCase {
    RecommendedAlgorithm Algo;
    bool Digest;
    const char *Name;
  } Algos[] = {
      {RecommendedAlgorithm::FloodingKnownDiameter, false, "flood(D)"},
      {RecommendedAlgorithm::EchoTermination, false, "echo"},
      {RecommendedAlgorithm::GossipBestEffort, false, "gossip"},
      {RecommendedAlgorithm::GossipBestEffort, true, "gossip-digest"},
  };

  Table T;
  T.setHeader({"algorithm", "join-rate", "runs", "terminated", "valid",
               "coverage", "census-err", "msgs/member", "units/member"});
  for (const auto &A : Algos) {
    for (double Rate : {0.0, 0.05, 0.1, 0.2, 0.4}) {
      Cell C = sweep(A.Algo, Rate, Seeds, A.Digest);
      T.addRow({A.Name, format("%.2f", Rate), format("%d", C.Runs),
                format("%.2f", C.Terminated), format("%.2f", C.Valid),
                format("%.2f", C.Coverage), format("%.2f", C.CensusError),
                format("%.1f", C.MsgPerMember),
                format("%.0f", C.UnitsPerMember)});
    }
  }
  std::printf("%s\n", T.render().c_str());

  // The DFS token baseline, run separately (it is not an Experiment.h
  // algorithm family): single-point-of-state fragility.
  std::printf("token baseline (DFS walk, timeout report):\n");
  Table T2;
  T2.setHeader({"join-rate", "runs", "terminated", "valid", "coverage"});
  for (double Rate : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    SweepConfig Sweep;
    Sweep.MasterSeed = E4MasterSeed + 1; // Distinct stream from the E4 grid.
    Sweep.SeedCount = static_cast<size_t>(Seeds);
    Sweep.Threads = SweepThreads;
    auto Partials = runSeedSweepWith<SeedPartial, NoSweepContext>(
        Sweep, [Rate](SweepSeed Seed, NoSweepContext &) {
          DynamicSystemConfig SysCfg;
          SysCfg.Seed = Seed.Value;
          SysCfg.Class = {ArrivalModel::boundedConcurrency(40),
                          KnowledgeModel::knownDiameter(10)};
          SysCfg.InitialMembers = 24;
          SysCfg.Churn.JoinRate = Rate;
          SysCfg.Churn.MeanSession = Rate > 0 ? 24.0 / Rate : 1e9;
          SysCfg.Churn.Horizon = 600;
          SysCfg.MonitorUntil = 1200;
          // The token verdict reads Observe records and presence intervals.
          SysCfg.Tracing = TraceLevel::Lifecycle;

          auto TokenCfg = std::make_shared<TokenConfig>();
          TokenCfg->TimeoutAfter = 400;
          auto Counter = std::make_shared<int64_t>(0);
          auto Factory =
              makeTokenFactory(TokenCfg, [Counter] { return ++*Counter; });
          DynamicSystem Sys(SysCfg, Factory);
          ProcessId Issuer = Sys.sim().spawn(Factory());
          scheduleQueryStart(Sys.sim(), 200, Issuer);
          RunLimits L;
          L.MaxTime = 1200;
          Sys.run(L);
          SeedPartial P;
          if (!Sys.checkClassAdmissible().ok())
            return P;
          auto Issue = Sys.sim().trace().firstObservation(Issuer, OtqIssueKey);
          if (!Issue)
            return P;
          QueryVerdict V =
              checkOneTimeQuery(Sys.sim().trace(), Issuer, Issue->Time, 1200);
          P.Counted = true;
          P.Terminated = V.Terminated;
          P.Valid = V.valid();
          if (V.Terminated)
            P.Cov.add(V.Coverage);
          return P;
        });
    int Counted = 0, Term = 0, Val = 0;
    OnlineStats Cov;
    for (const SeedPartial &P : Partials) {
      if (!P.Counted)
        continue;
      ++Counted;
      Term += P.Terminated;
      Val += P.Valid;
      Cov.merge(P.Cov);
    }
    T2.addRow({format("%.2f", Rate), format("%d", Counted),
               format("%.2f", Counted ? double(Term) / Counted : 0),
               format("%.2f", Counted ? double(Val) / Counted : 0),
               format("%.2f", Cov.mean())});
  }
  std::printf("%s\n", T2.render().c_str());
  std::printf(
      "Expected shape: flood degrades last; echo's termination rate falls\n"
      "monotonically with churn; gossip's census error grows smoothly\n"
      "while it keeps terminating; the token's validity is erratic — one\n"
      "unlucky in-flight departure loses its entire state, so outcomes\n"
      "swing run to run rather than degrading gradually.\n");
  return 0;
}
