//===- driver.cpp - dyndist end-to-end benchmark driver -------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// One workload per process, closed loop on one driving thread:
//
//   dyndist-perfbench --workload W --seed N --seconds S --trace 0|1
//                     --workdir DIR
//
// Workloads (see BENCHMARK.json for why each exists):
//   e1_matrix      the E1 solvability matrix exactly as bench_solvability
//                  configures it: 9 cells x E1SeedsPerCell seeds through
//                  runQueryExperiment + SimArena + runSeedSweepWith.
//   kernel_1e6     runKernelLoad gossip+churn at n = 10^6, TraceLevel::Off.
//   trace_archive  runKernelLoad at n = 10^4, TraceLevel::Full, streamed into
//                  a ColumnarTraceWriter, then a fixed query mix through
//                  TraceQuerySource.
//   short_sweep    BM_SweepShortRuns' lifecycle regime for many seeds, one
//                  SimArena per sweep.
//
// --trace 0 repeats untraced passes for --seconds and prints the end-to-end
// metrics, host times taken as per-operation best-of-N (see BestOf).
// --trace 1 alternates untraced and traced passes of the same work and
// prints the per-layer metrics of the fastest traced pass. Spans are taken
// from here, around calls into each layer's public entry points; nothing
// inside src/ is instrumented. The traced E1 and short-sweep passes replay
// runQueryExperiment decomposed into its public steps and must reproduce
// the untraced outcomes exactly.
//
// Output: `context`, `fingerprint` and `detail` lines, then one JSON result
// line {"correct","attempted","failed","metrics"} as the last line.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "dyndist/aggregation/Echo.h"
#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/Flooding.h"
#include "dyndist/aggregation/Gossip.h"
#include "dyndist/aggregation/Protocol.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/core/DynamicSystem.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/core/Solvability.h"
#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/runtime/TraceQuery.h"
#include "dyndist/sim/TraceColumnar.h"
#include "dyndist/sim/TraceIO.h"

#include "BenchBuildInfo.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <thread>

using namespace dyndist;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Workload constants
//===----------------------------------------------------------------------===//

/// The driver's --seed when none is given. Seed 0 reproduces each source
/// regime's own master seed (E1's 0xE1, KernelLoadConfig's 42).
constexpr uint64_t DefaultSeed = 0;

/// Mixes the benchmark seed into a workload's base seed; seed 0 is the base.
uint64_t seeded(uint64_t Base, uint64_t Seed) {
  return Base + Seed * 0x9E3779B97F4A7C15ULL;
}

// E1 (bench_solvability): grid bounds, master seed and seeds per cell. A
// timed pass sweeps the first 20 seeds of every cell, so a run repeats each
// operation many times. The oracle check afterwards sweeps the published
// table's 100 seeds per cell once: the weakest unsolvable cell (M^inf x
// D-bounded, ~84% valid runs) shows a failure there with probability
// 1 - 0.84^100 > 0.99999, where 20 seeds would miss it 3% of the time.
constexpr uint64_t E1FiniteN = 60, E1B = 28, E1D = 10;
constexpr uint64_t E1MasterSeed = 0xE1;
constexpr size_t E1SeedsPerCell = 20;
constexpr size_t E1TableSeedsPerCell = 100;

// short_sweep: seeds per sweep (one SimArena each) and the sampled seeds
// re-run fresh to check arena reuse.
constexpr size_t ShortSeeds = 2000;
constexpr size_t ShortFreshSamples = 32;

// Kernel loads: gossip fanout 2 every 4 ticks, one crash+respawn every 25.
constexpr size_t KernelN = 1000000;
constexpr SimTime KernelHorizon = 30;
constexpr size_t ArchiveN = 10000;
constexpr SimTime ArchiveHorizon = 1000;
constexpr uint64_t KernelBaseSeed = 42;

//===----------------------------------------------------------------------===//
// Layer spans of the traced pass
//===----------------------------------------------------------------------===//

enum HandlerFamily { Gossip = 0, Flood = 1, Echo = 2 };

/// Everything the traced pass attributes, in seconds or counts.
struct LayerSpans {
  double CoreSetup = 0, RunOther = 0, Admissibility = 0, Verdict = 0;
  double PopulationCount = 0, SweepSelf = 0;
  double Handler[3] = {0, 0, 0};
  double SinkAppend = 0, SinkClose = 0, EmitRun = 0;
  double QueryOpen = 0, QueryGroupBy = 0, QueryStats = 0, QueryTopK = 0,
         QueryFilter = 0;
  uint64_t MonitorSamples = 0, Arrivals = 0, PayloadUnits = 0;
  uint64_t Events = 0, Dropped = 0, TimersFired = 0, PoolHits = 0,
           PoolMisses = 0;
  uint64_t ArchiveBytes = 0, ArchiveRecords = 0;
  uint64_t ChunksTotal = 0, ChunksPruned = 0, QueryScanned = 0;
  std::vector<double> QueryMs;
  double Wall = 0;
  /// Nesting guard: only the outermost handler on the stack is timed.
  int HandlerDepth = 0;

  double handlers() const { return Handler[0] + Handler[1] + Handler[2]; }
  double queries() const {
    return QueryGroupBy + QueryStats + QueryTopK + QueryFilter;
  }
  /// Sum of every disjoint span.
  double attributed() const {
    return CoreSetup + RunOther + Admissibility + Verdict + PopulationCount +
           SweepSelf + handlers() + SinkAppend + SinkClose + EmitRun +
           QueryOpen + queries();
  }
};

/// Forwarding actor that bills each hook to its protocol family. Installed
/// through the ActorFactory; the kernel only ever calls the virtual hooks.
class TimedActor final : public Actor {
public:
  TimedActor(std::unique_ptr<Actor> Inner, LayerSpans &Spans, int Family)
      : Inner(std::move(Inner)), Spans(Spans), Family(Family) {}

  void onStart(Context &Ctx) override {
    timed([&] { Inner->onStart(Ctx); });
  }
  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override {
    timed([&] { Inner->onMessage(Ctx, From, Body); });
  }
  void onTimer(Context &Ctx, TimerId Id) override {
    timed([&] { Inner->onTimer(Ctx, Id); });
  }
  void onStop(Context &Ctx) override {
    timed([&] { Inner->onStop(Ctx); });
  }

private:
  template <typename Fn> void timed(Fn &&Hook) {
    if (Spans.HandlerDepth++ > 0) {
      Hook();
    } else {
      const auto T = Clock::now();
      Hook();
      Spans.Handler[Family] += since(T);
    }
    --Spans.HandlerDepth;
  }

  std::unique_ptr<Actor> Inner;
  LayerSpans &Spans;
  int Family;
};

ChurnDriver::ActorFactory timedFactory(ChurnDriver::ActorFactory Inner,
                                       LayerSpans &Spans, int Family) {
  return [Inner = std::move(Inner), &Spans, Family] {
    return std::unique_ptr<Actor>(
        std::make_unique<TimedActor>(Inner(), Spans, Family));
  };
}

/// Forwarding sink around the columnar writer: counts every record the
/// kernel emits and times the writer's batch appends.
class MeteredSink final : public TraceSink {
public:
  explicit MeteredSink(ColumnarTraceWriter &W) : W(W) {}

  void append(const TraceEvent &E) override {
    const auto T = Clock::now();
    W.append(E);
    AppendS += since(T);
    ++Records;
  }
  void appendBatch(const TraceRecord *R, size_t N,
                   const TraceKeyTable &Keys) override {
    const auto T = Clock::now();
    W.appendBatch(R, N, Keys);
    AppendS += since(T);
    Records += N;
  }

  uint64_t Records = 0;
  double AppendS = 0;

private:
  ColumnarTraceWriter &W;
};

//===----------------------------------------------------------------------===//
// Query experiments: configs, outcomes, untraced and decomposed runs
//===----------------------------------------------------------------------===//

/// The E1 cell configuration, exactly as bench_solvability's runCell.
ExperimentConfig e1Config(const SystemClass &Class, uint64_t Seed) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = Class;
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 400;
  Cfg.Churn.Horizon = 600;
  Cfg.QueryAt = 200;
  Cfg.Horizon = 900;
  if (Class.Arrival.Kind == ArrivalKind::FiniteArrival)
    Cfg.Churn.QuiesceAt = 150;
  if (Class.Arrival.Kind == ArrivalKind::InfiniteArrival &&
      Class.Knowledge.Diameter != DiameterKnowledge::KnownBound) {
    Cfg.Churn.JoinRate = 2.0;
    Cfg.Churn.MeanSession = 150;
    if (Class.Knowledge.Diameter == DiameterKnowledge::Unbounded)
      Cfg.Attach = AttachMode::Chain;
  }
  Cfg.Gossip.ReportAfter = 60;
  Cfg.Gossip.Rounds = 30;
  Cfg.Gossip.RoundEvery = 2;
  return Cfg;
}

/// BM_SweepShortRuns' regime at the default shard count: n = 100, a short
/// churn window, the query scheduled past the horizon, monitor off.
ExperimentConfig shortConfig(uint64_t Seed) {
  ExperimentConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Class = SystemClass{ArrivalModel::boundedConcurrency(140),
                          KnowledgeModel::knownDiameter(E1D)};
  Cfg.InitialMembers = 100;
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 4000;
  Cfg.Churn.Horizon = 30;
  Cfg.Horizon = 30;
  Cfg.QueryAt = Cfg.Horizon + 1;
  Cfg.DiameterSampleEvery = 0;
  return Cfg;
}

/// What a sweep tabulates about one run; equality is the reproduction check.
struct RunOutcome {
  bool Admissible = false, Issued = false, Terminated = false, Valid = false;
  double Coverage = 0;
  uint64_t ResponseTime = 0, Included = 0, Required = 0;
  int64_t Aggregate = 0;
  uint64_t Events = 0, Sent = 0, Delivered = 0, Dropped = 0, Payload = 0,
           Timers = 0;
  uint64_t MaxDiameter = 0, Disconnected = 0, Arrivals = 0;
  uint64_t MembersAtQuery = 0, MembersAtResponse = 0;

  friend bool operator==(const RunOutcome &, const RunOutcome &) = default;
};

void fillStats(RunOutcome &O, const SimStats &S) {
  O.Events = S.EventsExecuted;
  O.Sent = S.MessagesSent;
  O.Delivered = S.MessagesDelivered;
  O.Dropped = S.MessagesDropped;
  O.Payload = S.PayloadUnits;
  O.Timers = S.TimersFired;
}

void fillVerdict(RunOutcome &O, const QueryVerdict &V) {
  O.Terminated = V.Terminated;
  O.Valid = V.valid();
  O.Coverage = V.Coverage;
  O.ResponseTime = V.ResponseTime;
  O.Included = V.IncludedCount;
  O.Required = V.RequiredCount;
  O.Aggregate = V.Aggregate;
}

RunOutcome outcomeOf(const ExperimentResult &R) {
  RunOutcome O;
  O.Admissible = R.ClassAdmissible;
  O.Issued = R.QueryIssued;
  if (R.QueryIssued)
    fillVerdict(O, R.Verdict);
  fillStats(O, R.Stats);
  O.MaxDiameter = R.MaxDiameter;
  O.Disconnected = R.DisconnectedSamples;
  O.Arrivals = R.Arrivals;
  O.MembersAtQuery = R.MembersAtQuery;
  O.MembersAtResponse = R.MembersAtResponse;
  return O;
}

/// runQueryExperiment's flooding TTL rule.
uint64_t floodTtlFor(const ExperimentConfig &Config) {
  if (Config.TtlOverride > 0)
    return Config.TtlOverride;
  if (auto Ttl = derivableTtl(Config.Class))
    return *Ttl;
  return 16;
}

/// runQueryExperiment's ExperimentConfig -> DynamicSystemConfig mapping.
DynamicSystemConfig sysConfigFor(const ExperimentConfig &Config) {
  DynamicSystemConfig SysCfg;
  SysCfg.Seed = Config.Seed;
  SysCfg.Class = Config.Class;
  SysCfg.InitialMembers = Config.InitialMembers;
  SysCfg.OverlayDegree = Config.OverlayDegree;
  SysCfg.Attach = Config.Attach;
  SysCfg.Churn = Config.Churn;
  SysCfg.Latency = Config.Latency;
  SysCfg.Shards = Config.Shards;
  SysCfg.DiameterSampleEvery = Config.DiameterSampleEvery;
  SysCfg.MonitorUntil = Config.DiameterSampleEvery > 0 ? Config.Horizon : 0;
  SysCfg.Tracing = Config.KeepTrace ? TraceLevel::Full : Config.Tracing;
  return SysCfg;
}

/// The traced pass's stand-in for SimArena: the same recycle-or-rebuild
/// policy over public DynamicSystem construction and reset, with actor
/// factories wrapped in TimedActor. A sweep worker default-constructs one.
class TracedShell {
public:
  DynamicSystem &acquire(const DynamicSystemConfig &SysCfg,
                         RecommendedAlgorithm Algo,
                         const ExperimentConfig &Config, LayerSpans &Spans) {
    *Counter = 0;
    int F = Echo;
    switch (Algo) {
    case RecommendedAlgorithm::FloodingKnownDiameter:
    case RecommendedAlgorithm::FloodingDerivedBound: {
      F = Flood;
      FloodConfig FC;
      FC.Ttl = floodTtlFor(Config);
      FC.MaxLatency = Config.MaxLatencyForDeadline;
      *FloodCfg = FC;
      if (!Factories[Flood])
        Factories[Flood] = timedFactory(
            makeFloodFactory(FloodCfg, [C = Counter] { return ++*C; }), Spans,
            Flood);
      break;
    }
    case RecommendedAlgorithm::EchoTermination:
      if (!Factories[Echo])
        Factories[Echo] = timedFactory(
            makeEchoFactory([C = Counter] { return ++*C; }), Spans, Echo);
      break;
    case RecommendedAlgorithm::GossipBestEffort:
      F = Gossip;
      *GossipCfg = Config.Gossip;
      if (!Factories[Gossip])
        Factories[Gossip] = timedFactory(
            makeGossipFactory(GossipCfg, [C = Counter] { return ++*C; }),
            Spans, Gossip);
      break;
    }
    if (!Shell || ShellShards != SysCfg.Shards) {
      Shell = std::make_unique<DynamicSystem>(SysCfg, Factories[F]);
      ShellShards = SysCfg.Shards;
      LastHits = LastMisses = 0;
    } else if (F == ShellFamily) {
      Shell->reset(SysCfg);
    } else {
      Shell->reset(SysCfg, Factories[F]);
    }
    ShellFamily = F;
    return *Shell;
  }

  /// Folds this run's body-pool traffic (the kernel's counters are
  /// cumulative per shell) into \p Spans.
  void billPool(const SimStats &S, LayerSpans &Spans) {
    Spans.PoolHits += S.BodyPoolHits - LastHits;
    Spans.PoolMisses += S.BodyPoolMisses - LastMisses;
    LastHits = S.BodyPoolHits;
    LastMisses = S.BodyPoolMisses;
  }

private:
  std::shared_ptr<int64_t> Counter = std::make_shared<int64_t>(0);
  std::shared_ptr<FloodConfig> FloodCfg = std::make_shared<FloodConfig>();
  std::shared_ptr<GossipConfig> GossipCfg = std::make_shared<GossipConfig>();
  ChurnDriver::ActorFactory Factories[3];
  std::unique_ptr<DynamicSystem> Shell;
  int ShellFamily = -1;
  unsigned ShellShards = 0;
  uint64_t LastHits = 0, LastMisses = 0;
};

/// runQueryExperiment decomposed into its public steps, each step billed to
/// its layer: setup (construct/reset, issuer spawn), run (minus handlers),
/// admissibility, population counts, and the verdict.
RunOutcome tracedQueryRun(const ExperimentConfig &Config, TracedShell &Shell,
                          LayerSpans &Spans) {
  const RecommendedAlgorithm Algo = Config.UseRecommended
                                        ? recommendedAlgorithm(Config.Class)
                                        : Config.Algorithm;
  const DynamicSystemConfig SysCfg = sysConfigFor(Config);

  double H0 = Spans.handlers();
  auto T = Clock::now();
  DynamicSystem &Sys = Shell.acquire(SysCfg, Algo, Config, Spans);
  ProcessId Issuer = Sys.sim().spawn(Sys.churn().makeActor());
  scheduleQueryStart(Sys.sim(), Config.QueryAt, Issuer);
  Spans.CoreSetup += since(T) - (Spans.handlers() - H0);

  RunLimits Limits;
  Limits.MaxTime = Config.Horizon;
  H0 = Spans.handlers();
  T = Clock::now();
  Sys.run(Limits);
  Spans.RunOther += since(T) - (Spans.handlers() - H0);

  RunOutcome O;
  T = Clock::now();
  O.Admissible = Sys.checkClassAdmissible().ok();
  Spans.Admissibility += since(T);

  const SimStats &Stats = Sys.sim().stats();
  fillStats(O, Stats);
  Shell.billPool(Stats, Spans);
  O.MaxDiameter = Sys.maxObservedDiameter();
  O.Disconnected = Sys.disconnectedSamples();
  O.Arrivals = Sys.churn().arrivals();

  T = Clock::now();
  O.MembersAtQuery = Sys.sim().trace().membersCountAt(Config.QueryAt);
  Spans.PopulationCount += since(T);

  T = Clock::now();
  auto Issue = Sys.sim().trace().firstObservation(Issuer, OtqIssueKey);
  QueryVerdict V;
  if (Issue) {
    O.Issued = true;
    V = checkOneTimeQuery(Sys.sim().trace(), Issuer, Issue->Time,
                          Config.Horizon);
    fillVerdict(O, V);
  }
  Spans.Verdict += since(T);

  if (O.Issued && V.Terminated) {
    T = Clock::now();
    O.MembersAtResponse = Sys.sim().trace().membersCountAt(V.ResponseTime);
    Spans.PopulationCount += since(T);
  }

  Spans.MonitorSamples += Sys.diameterSamples().size();
  Spans.Arrivals += O.Arrivals;
  Spans.PayloadUnits += Stats.PayloadUnits;
  Spans.Events += Stats.EventsExecuted;
  Spans.Dropped += Stats.MessagesDropped;
  Spans.TimersFired += Stats.TimersFired;
  return O;
}

/// One pass of a seed sweep workload: every cell swept over the same
/// SeedCount seeds of MasterSeed, one SweepRunner call (one arena) each.
struct SweepPass {
  double Wall = 0;
  std::vector<RunOutcome> Outcomes; ///< Cell-major, seed-index minor.
  std::vector<double> RunS;         ///< Host time of each run, same order.
  uint64_t Events = 0;
};

using ConfigFn = std::function<ExperimentConfig(uint64_t Seed)>;

struct TimedOutcome {
  RunOutcome Out;
  double S = 0;
};

void collect(SweepPass &P, const std::vector<TimedOutcome> &Rs) {
  for (const TimedOutcome &R : Rs) {
    P.Outcomes.push_back(R.Out);
    P.RunS.push_back(R.S);
    P.Events += R.Out.Events;
  }
}

SweepConfig sweepConfig(uint64_t Master, size_t Seeds) {
  SweepConfig S;
  S.MasterSeed = Master;
  S.SeedCount = Seeds;
  S.Threads = 1;
  return S;
}

SweepPass sweepPass(const std::vector<ConfigFn> &Cells, uint64_t Master,
                    size_t Seeds) {
  SweepPass P;
  const auto T0 = Clock::now();
  for (const ConfigFn &Cell : Cells)
    collect(P, runSeedSweepWith<TimedOutcome, SimArena>(
                   sweepConfig(Master, Seeds),
                   [&Cell](SweepSeed Seed, SimArena &Arena) {
                     const ExperimentConfig Cfg = Cell(Seed.Value);
                     const auto T = Clock::now();
                     ExperimentResult R = runQueryExperiment(Cfg, &Arena);
                     const double S = since(T);
                     return TimedOutcome{outcomeOf(R), S};
                   }));
  P.Wall = since(T0);
  return P;
}

SweepPass tracedSweepPass(const std::vector<ConfigFn> &Cells, uint64_t Master,
                          size_t Seeds, LayerSpans &Spans) {
  SweepPass P;
  const auto T0 = Clock::now();
  for (const ConfigFn &Cell : Cells) {
    const auto TS = Clock::now();
    auto Rs = runSeedSweepWith<TimedOutcome, TracedShell>(
        sweepConfig(Master, Seeds),
        [&Cell, &Spans](SweepSeed Seed, TracedShell &Shell) {
          const ExperimentConfig Cfg = Cell(Seed.Value);
          const auto T = Clock::now();
          RunOutcome O = tracedQueryRun(Cfg, Shell, Spans);
          return TimedOutcome{O, since(T)};
        });
    double RunSpans = 0;
    for (const TimedOutcome &R : Rs)
      RunSpans += R.S;
    Spans.SweepSelf += since(TS) - RunSpans;
    collect(P, Rs);
  }
  P.Wall = since(T0);
  Spans.Wall = P.Wall;
  return P;
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

struct Report {
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layers;
  Fingerprint Print;
  Checks Check;
  JsonObject Detail;
};

/// End-to-end metrics every workload reports. A pass is one regeneration of
/// the workload's unit of work, a run one simulator run (sweeps) or the
/// whole pass (kernel loads). Times are per-operation best-of-N (BestOf):
/// \p BestRunS holds each run's best host time and \p BestPassS the sum of
/// the pass's best operation times. \p PassS, the raw pass walls, go to the
/// detail line with their median.
void endToEnd(Report &Rep, double SetupS, const std::vector<double> &BestRunS,
              double BestPassS, double EventsPerS,
              const std::vector<double> &PassS, double PeakRss) {
  std::vector<double> RunMs;
  for (double S : BestRunS)
    RunMs.push_back(S * 1e3);
  const Tail T = tailOf(RunMs);
  Rep.EndToEnd = {
      {"setup_s", SetupS, "s"},
      {"wall_s", BestPassS, "s"},
      {"runs_per_s", double(BestRunS.size()) / BestPassS, "1/s"},
      {"run_p50_ms", median(RunMs), "ms"},
      {"run_tail_ms", T.Value, "ms"},
      {"events_per_s", EventsPerS, "1/s"},
      {"peak_rss_mb", PeakRss, "MB"},
  };
  Rep.Detail.raw("pass_s", jsonArray(PassS))
      .num("median_pass_s", median(PassS))
      .count("runs_per_pass", BestRunS.size())
      .num("run_tail_percentile", T.Percentile);
}

/// Per-layer metrics of one traced pass, in BENCHMARK.json order. Layers a
/// workload never enters read 0.
void perLayer(Report &Rep, const LayerSpans &L, double UntracedWall) {
  const double KernelS = L.RunOther + L.EmitRun;
  const double ArchiveS = L.EmitRun + L.SinkAppend + L.SinkClose;
  const uint64_t PoolAll = L.PoolHits + L.PoolMisses;
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  Rep.Layers = {
      {"core.setup_s", L.CoreSetup, "s"},
      {"core.run_other_s", L.RunOther, "s"},
      {"core.admissibility_s", L.Admissibility, "s"},
      {"core.verdict_s", L.Verdict, "s"},
      {"sim.population_count_s", L.PopulationCount, "s"},
      {"aggregation.gossip_handler_s", L.Handler[Gossip], "s"},
      {"aggregation.flood_handler_s", L.Handler[Flood], "s"},
      {"aggregation.echo_handler_s", L.Handler[Echo], "s"},
      {"aggregation.payload_units", double(L.PayloadUnits), "count"},
      {"graph.monitor_samples", double(L.MonitorSamples), "count"},
      {"arrival.arrivals", double(L.Arrivals), "count"},
      {"runtime.sweep_self_s", L.SweepSelf, "s"},
      {"sim.ns_per_event", Ratio(KernelS * 1e9, double(L.Events)), "ns"},
      {"sim.events", double(L.Events), "count"},
      {"sim.messages_dropped", double(L.Dropped), "count"},
      {"sim.timers_fired", double(L.TimersFired), "count"},
      {"sim.body_pool_hit_ratio", Ratio(double(L.PoolHits), double(PoolAll)),
       "ratio"},
      {"sim.sink_append_s", L.SinkAppend, "s"},
      {"sim.sink_close_s", L.SinkClose, "s"},
      {"sim.emit_run_s", L.EmitRun, "s"},
      {"sim.archive_bytes", double(L.ArchiveBytes), "B"},
      {"sim.archive_records_per_s", Ratio(double(L.ArchiveRecords), ArchiveS),
       "1/s"},
      {"sim.archive_bytes_per_event",
       Ratio(double(L.ArchiveBytes), double(L.ArchiveRecords)), "B"},
      {"runtime.query_open_s", L.QueryOpen, "s"},
      {"runtime.query_groupby_s", L.QueryGroupBy, "s"},
      {"runtime.query_stats_s", L.QueryStats, "s"},
      {"runtime.query_topk_s", L.QueryTopK, "s"},
      {"runtime.query_filter_s", L.QueryFilter, "s"},
      {"runtime.query_chunk_prune_ratio",
       Ratio(double(L.ChunksPruned), double(L.ChunksTotal)), "ratio"},
      {"runtime.query_events_per_s",
       Ratio(double(L.QueryScanned), L.queries()), "1/s"},
      {"runtime.query_p50_ms", median(L.QueryMs), "ms"},
      {"traced_wall_s", L.Wall, "s"},
      {"unattributed_s", L.Wall - L.attributed(), "s"},
      {"tracing_overhead_s", L.Wall - UntracedWall, "s"},
  };
}

/// The traced pass to report: the fastest, matching the untraced best-of.
const LayerSpans &fastest(const std::vector<LayerSpans> &Traced) {
  return *std::min_element(
      Traced.begin(), Traced.end(),
      [](const LayerSpans &A, const LayerSpans &B) { return A.Wall < B.Wall; });
}

/// Median set-up time over \p Reps repetitions of \p Setup.
template <typename Fn> double timeSetup(size_t Reps, Fn &&Setup) {
  std::vector<double> S;
  for (size_t I = 0; I != Reps; ++I) {
    const auto T = Clock::now();
    Setup();
    S.push_back(since(T));
  }
  return median(S);
}

struct Options {
  std::string Workload;
  uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
};

/// Untraced repetitions run for the whole budget (at least three, so every
/// operation has a best-of-3); with --trace 1 each repetition is an
/// untraced pass followed by a traced one.
template <typename Fn> void measure(const Options &Opt, Fn &&Rep) {
  repeatFor(Opt.Seconds, Opt.Trace ? 1 : 3, Rep);
}

//===----------------------------------------------------------------------===//
// Seed-sweep workloads: e1_matrix and short_sweep
//===----------------------------------------------------------------------===//

/// Shared body of the two sweep workloads. \p CheckPass runs the
/// workload-specific output checks on the first untraced pass's outcomes.
template <typename SetupFn, typename CheckFn>
void runSweepWorkload(const Options &Opt, Report &Rep,
                      const std::vector<ConfigFn> &Cells, uint64_t Master,
                      size_t Seeds, size_t SetupReps, SetupFn &&Setup,
                      CheckFn &&CheckPass) {
  const double SetupS = timeSetup(SetupReps, Setup);

  std::vector<RunOutcome> First;
  uint64_t Events = 0;
  BestOf Best;
  std::vector<double> PassS;
  std::vector<LayerSpans> Traced;
  measure(Opt, [&] {
    SweepPass P = sweepPass(Cells, Master, Seeds);
    if (First.empty()) {
      First = std::move(P.Outcomes);
      Events = P.Events;
    } else {
      Rep.Check.expect(P.Outcomes == First,
                       "pass " + std::to_string(PassS.size()) +
                           " repeats pass 0");
    }
    Best.add(P.RunS);
    PassS.push_back(P.Wall);
    if (Opt.Trace) {
      LayerSpans L;
      SweepPass TP = tracedSweepPass(Cells, Master, Seeds, L);
      Rep.Check.expect(TP.Outcomes == First,
                       "traced pass reproduces the untraced outcomes");
      Traced.push_back(std::move(L));
    }
  });
  const double PeakRss = peakRssMb();
  CheckPass(First);

  endToEnd(Rep, SetupS, Best.best(), Best.total(), Events / Best.total(),
           PassS, PeakRss);
  if (Opt.Trace)
    perLayer(Rep, fastest(Traced), Best.total());

  uint64_t Sent = 0, Payload = 0, Admissible = 0, Issued = 0, Terminated = 0,
           Valid = 0, Arrivals = 0, MaxDiameter = 0;
  for (const RunOutcome &O : First) {
    Sent += O.Sent;
    Payload += O.Payload;
    Admissible += O.Admissible;
    Issued += O.Issued;
    Terminated += O.Terminated;
    Valid += O.Valid;
    Arrivals += O.Arrivals;
    MaxDiameter += O.MaxDiameter;
  }
  Rep.Print.add("runs", First.size());
  Rep.Print.add("events", Events);
  Rep.Print.add("messages_sent", Sent);
  Rep.Print.add("payload_units", Payload);
  Rep.Print.add("arrivals", Arrivals);
  Rep.Print.add("max_diameter_sum", MaxDiameter);
  Rep.Print.add("admissible", Admissible);
  Rep.Print.add("issued", Issued);
  Rep.Print.add("terminated", Terminated);
  Rep.Print.add("valid", Valid);
}

void runE1Matrix(const Options &Opt, Report &Rep) {
  const uint64_t Master = seeded(E1MasterSeed, Opt.Seed);
  const std::vector<SystemClass> Grid =
      canonicalClassGrid(E1FiniteN, E1B, E1D);
  std::vector<ConfigFn> Cells;
  for (const SystemClass &Class : Grid)
    Cells.push_back(
        [Class](uint64_t Seed) { return e1Config(Class, Seed); });

  // Set-up: one warm arena run per cell, the first seed of the sweep.
  auto Setup = [&] {
    SimArena Arena;
    for (const ConfigFn &Cell : Cells)
      runQueryExperiment(Cell(deriveSweepSeed(Master, 0)), &Arena);
  };

  // C1-C4: over the full table, every cell agrees with the solvability
  // oracle, and the table's leading seeds reproduce the timed pass.
  auto CheckPass = [&](const std::vector<RunOutcome> &Timed) {
    const std::vector<RunOutcome> Table =
        sweepPass(Cells, Master, E1TableSeedsPerCell).Outcomes;
    std::string Rates;
    for (size_t C = 0; C != Grid.size(); ++C) {
      Rep.Check.expect(
          std::equal(Timed.begin() + C * E1SeedsPerCell,
                     Timed.begin() + (C + 1) * E1SeedsPerCell,
                     Table.begin() + C * E1TableSeedsPerCell),
          "E1 cell " + std::to_string(C) + " table repeats the timed pass");
      uint64_t Admissible = 0, Valid = 0;
      for (size_t I = 0; I != E1TableSeedsPerCell; ++I) {
        const RunOutcome &O = Table[C * E1TableSeedsPerCell + I];
        if (!O.Admissible || !O.Issued)
          continue;
        ++Admissible;
        Valid += O.Valid;
      }
      const Solvability Oracle = oneTimeQuerySolvability(Grid[C]);
      const double Rate = Admissible ? double(Valid) / Admissible : 0.0;
      const bool Agrees = Admissible > 0 && (Oracle == Solvability::Unsolvable
                                                 ? Rate < 1.0
                                                 : Rate == 1.0);
      Rep.Check.expect(Agrees, "E1 cell " + Grid[C].name() + " (" +
                                   solvabilityName(Oracle) + ") valid-rate " +
                                   std::to_string(Rate));
      Rep.Print.add("cell" + std::to_string(C) + "_admissible", Admissible);
      Rep.Print.add("cell" + std::to_string(C) + "_valid", Valid);
      Rates += (Rates.empty() ? "" : " ") + std::to_string(Valid) + "/" +
               std::to_string(Admissible);
    }
    Rep.Detail.str("e1_valid_per_cell", Rates);
  };

  runSweepWorkload(Opt, Rep, Cells, Master, E1SeedsPerCell, 9, Setup,
                   CheckPass);
}

void runShortSweep(const Options &Opt, Report &Rep) {
  const uint64_t Master = seeded(E1MasterSeed, Opt.Seed);
  const std::vector<ConfigFn> Cells = {shortConfig};

  // Set-up: a fresh arena warmed over the sweep's first 256 seeds.
  auto Setup = [&] {
    SimArena Arena;
    for (size_t I = 0; I != 256; ++I)
      runQueryExperiment(shortConfig(deriveSweepSeed(Master, I)), &Arena);
  };

  auto CheckPass = [&](const std::vector<RunOutcome> &Outcomes) {
    uint64_t Admissible = 0;
    for (const RunOutcome &O : Outcomes)
      Admissible += O.Admissible;
    Rep.Check.expect(Admissible == Outcomes.size(),
                     "every short run is class-admissible (" +
                         std::to_string(Admissible) + "/" +
                         std::to_string(Outcomes.size()) + ")");
    // Arena reuse must be output-invariant: re-run a sample fresh.
    const size_t Step = ShortSeeds / ShortFreshSamples;
    for (size_t I = 0; I < ShortSeeds; I += Step) {
      RunOutcome Fresh = outcomeOf(
          runQueryExperiment(shortConfig(deriveSweepSeed(Master, I))));
      Rep.Check.expect(Fresh == Outcomes[I],
                       "seed index " + std::to_string(I) +
                           " reused-arena run equals a fresh run");
    }
  };

  runSweepWorkload(Opt, Rep, Cells, Master, ShortSeeds, 25, Setup, CheckPass);
}

//===----------------------------------------------------------------------===//
// Kernel loads: kernel_1e6 and trace_archive
//===----------------------------------------------------------------------===//

KernelLoadConfig kernelConfig(uint64_t Seed, size_t N, SimTime Horizon) {
  KernelLoadConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Processes = N;
  Cfg.Horizon = Horizon;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;
  return Cfg;
}

void printStats(Fingerprint &FP, const SimStats &S) {
  FP.add("events", S.EventsExecuted);
  FP.add("messages_sent", S.MessagesSent);
  FP.add("messages_delivered", S.MessagesDelivered);
  FP.add("messages_dropped", S.MessagesDropped);
  FP.add("payload_units", S.PayloadUnits);
  FP.add("timers_fired", S.TimersFired);
}

void billKernelStats(LayerSpans &L, const SimStats &S) {
  L.Events += S.EventsExecuted;
  L.Dropped += S.MessagesDropped;
  L.TimersFired += S.TimersFired;
  L.PayloadUnits += S.PayloadUnits;
  L.PoolHits += S.BodyPoolHits;
  L.PoolMisses += S.BodyPoolMisses;
}

void runKernel1e6(const Options &Opt, Report &Rep) {
  const uint64_t Seed = seeded(KernelBaseSeed, Opt.Seed);
  const KernelLoadConfig Cfg = kernelConfig(Seed, KernelN, KernelHorizon);

  // Set-up: the same load at a tenth of the scale.
  const double SetupS = timeSetup(5, [&] {
    runKernelLoad(kernelConfig(Seed, KernelN / 10, KernelHorizon),
                  TraceLevel::Off);
  });

  std::optional<KernelLoadResult> First;
  BestOf Best;
  std::vector<double> RunS;
  std::vector<LayerSpans> Traced;
  auto Check = [&](const KernelLoadResult &R) {
    if (!First) {
      First = R;
      Rep.Check.expect(R.Stats.EventsExecuted > 0, "the load executed events");
      return;
    }
    Rep.Check.expect(R.Stats == First->Stats && R.Stop == First->Stop,
                     "repetition repeats SimStats exactly");
  };
  measure(Opt, [&] {
    auto T = Clock::now();
    KernelLoadResult R = runKernelLoad(Cfg, TraceLevel::Off);
    RunS.push_back(since(T));
    Best.add({RunS.back()});
    Check(R);
    if (Opt.Trace) {
      LayerSpans L;
      T = Clock::now();
      R = runKernelLoad(Cfg, TraceLevel::Off);
      L.EmitRun = L.Wall = since(T);
      billKernelStats(L, R.Stats);
      Check(R);
      Traced.push_back(L);
    }
  });
  const double PeakRss = peakRssMb();

  endToEnd(Rep, SetupS, Best.best(), Best.total(),
           double(First->Stats.EventsExecuted) / Best.total(), RunS, PeakRss);
  if (Opt.Trace)
    perLayer(Rep, fastest(Traced), Best.total());

  printStats(Rep.Print, First->Stats);
  Rep.Print.add("body_pool_hits", First->Stats.BodyPoolHits);
  Rep.Print.add("body_pool_misses", First->Stats.BodyPoolMisses);
}

/// One query of the archive mix.
struct QuerySpec {
  enum Op { GroupBy, Stats, TopK, Filter } Kind;
  TraceFilter F;
  GroupField Field = GroupField::Kind;
};

/// The fixed query mix over a trace of \p Horizon ticks: a group-by on kind
/// over everything, a stats and a top-k of delivery subjects over
/// quarter-horizon windows, and four two-tick filters that chunk pruning
/// should mostly skip. Fixed windows keep the query work independent of the
/// seed, which only changes the load.
std::vector<QuerySpec> queryMix(SimTime Horizon) {
  auto Window = [](QuerySpec Q, SimTime From, SimTime Len) {
    Q.F.FromTime = From;
    Q.F.ToTime = From + Len - 1;
    return Q;
  };
  std::vector<QuerySpec> Mix;
  Mix.push_back({QuerySpec::GroupBy, TraceFilter(), GroupField::Kind});
  Mix.push_back(Window({QuerySpec::Stats, TraceFilter()}, Horizon / 4,
                       Horizon / 4));
  QuerySpec Top{QuerySpec::TopK, TraceFilter(), GroupField::Subject};
  Top.F.Kind = TraceKind::Deliver;
  Mix.push_back(Window(Top, Horizon / 2, Horizon / 4));
  for (SimTime Eighth : {1, 3, 5, 7})
    Mix.push_back(
        Window({QuerySpec::Filter, TraceFilter()}, Horizon * Eighth / 8, 2));
  return Mix;
}

/// One archive round: stream the load into a columnar file, then read the
/// mix back through a fresh TraceQuerySource. OpS holds the host time of
/// each operation: the kernel run (sink appends included), the writer's
/// close, the source open, then one entry per query.
struct ArchiveRound {
  KernelLoadResult Load;
  uint64_t Emitted = 0, Written = 0, SourceEvents = 0, Bytes = 0;
  std::vector<std::string> Answers;
  std::vector<double> OpS;
  LayerSpans Spans;
};

constexpr size_t FirstQueryOp = 3;

ArchiveRound archiveRound(KernelLoadConfig Cfg, const std::string &Path,
                          const std::vector<QuerySpec> &Mix, Checks &Check) {
  ArchiveRound Out;
  LayerSpans &L = Out.Spans;
  const auto T0 = Clock::now();

  ColumnarTraceWriter Writer;
  Status Opened = Writer.open(Path);
  Check.expect(Opened.ok(), "archive opens for writing");
  if (!Opened.ok())
    return Out;
  MeteredSink Sink(Writer);
  Cfg.Sink = &Sink;
  auto T = Clock::now();
  Out.Load = runKernelLoad(Cfg, TraceLevel::Full);
  Out.OpS.push_back(since(T));
  L.EmitRun = Out.OpS.back() - Sink.AppendS;
  L.SinkAppend = Sink.AppendS;
  T = Clock::now();
  Status Closed = Writer.close();
  Out.OpS.push_back(L.SinkClose = since(T));
  Check.expect(Closed.ok(), "archive closes cleanly");
  Out.Emitted = Sink.Records;
  Out.Written = Writer.eventsWritten();

  T = Clock::now();
  auto Src = TraceQuerySource::open(Path);
  Out.OpS.push_back(L.QueryOpen = since(T));
  Check.expect(Src.ok(), "archive opens as a query source");
  if (!Src.ok())
    return Out;
  const TraceQuerySource &S = **Src;
  Out.SourceEvents = S.totalEvents();

  const QueryOptions QO;
  for (const QuerySpec &Q : Mix) {
    for (size_t I = 0; I != S.chunkCount(); ++I) {
      ++L.ChunksTotal;
      if (Q.F.mayMatchChunk(S.chunk(I)))
        L.QueryScanned += S.chunk(I).EventCount;
      else
        ++L.ChunksPruned;
    }
    T = Clock::now();
    Result<std::string> A = Q.Kind == QuerySpec::GroupBy
                                ? queryGroupBy(S, Q.F, Q.Field, QO)
                            : Q.Kind == QuerySpec::Stats
                                ? queryStats(S, Q.F, QO)
                            : Q.Kind == QuerySpec::TopK
                                ? queryTopK(S, Q.F, Q.Field, QO)
                                : queryFilter(S, Q.F, QO);
    const double QS = since(T);
    (Q.Kind == QuerySpec::GroupBy ? L.QueryGroupBy
     : Q.Kind == QuerySpec::Stats ? L.QueryStats
     : Q.Kind == QuerySpec::TopK  ? L.QueryTopK
                                  : L.QueryFilter) += QS;
    Out.OpS.push_back(QS);
    L.QueryMs.push_back(QS * 1e3);
    Check.expect(A.ok(), "query succeeds");
    Out.Answers.push_back(A.ok() ? *A : std::string("error"));
  }
  L.Wall = since(T0);
  std::error_code EC;
  Out.Bytes = std::filesystem::file_size(Path, EC);
  L.ArchiveBytes = Out.Bytes;
  L.ArchiveRecords = Out.Written;
  billKernelStats(L, Out.Load.Stats);
  return Out;
}

/// The query answers recomputed by brute force over the whole file read
/// back with readColumnarTraceFile, rendered in the query engine's format.
std::vector<std::string> bruteForceAnswers(const Trace &T,
                                           const std::vector<QuerySpec> &Mix) {
  const auto &Records = T.records();
  const TraceKeyTable &Keys = T.keys();
  auto Matches = [&Keys](const TraceFilter &F, const TraceRecord &R) {
    TraceEventView V;
    V.Kind = R.kind();
    V.Time = R.Time;
    V.Subject = R.subject();
    V.Peer = R.peer();
    V.MsgKind = R.MsgKind;
    V.Key = Keys.name(R.keyId());
    V.Value = R.Value;
    return F.matches(V);
  };
  auto Fmt = [](const char *F, auto... Args) {
    char Buf[256];
    std::snprintf(Buf, sizeof Buf, F, Args...);
    return std::string(Buf);
  };
  std::vector<std::string> Out;
  for (const QuerySpec &Q : Mix) {
    std::string A;
    switch (Q.Kind) {
    case QuerySpec::GroupBy: {
      struct Agg {
        uint64_t Count = 0;
        int64_t Sum = 0;
        uint64_t Min = ~0ULL, Max = 0;
      };
      std::map<unsigned, Agg> G;
      for (const TraceRecord &R : Records)
        if (Matches(Q.F, R)) {
          Agg &X = G[static_cast<unsigned>(R.kind())];
          ++X.Count;
          X.Sum += R.Value;
          X.Min = std::min<uint64_t>(X.Min, R.Time);
          X.Max = std::max<uint64_t>(X.Max, R.Time);
        }
      A = "kind\tcount\tvalue_sum\tt_min\tt_max\n";
      for (const auto &[K, X] : G)
        A += Fmt("%s\t%llu\t%lld\t%llu\t%llu\n",
                 traceKindName(static_cast<TraceKind>(K)),
                 (unsigned long long)X.Count, (long long)X.Sum,
                 (unsigned long long)X.Min, (unsigned long long)X.Max);
      break;
    }
    case QuerySpec::Stats: {
      uint64_t Events = 0, Kinds[7] = {}, Min = ~0ULL, Max = 0;
      int64_t Sum = 0;
      std::vector<ProcessId> Subjects;
      for (const TraceRecord &R : Records)
        if (Matches(Q.F, R)) {
          ++Events;
          ++Kinds[static_cast<unsigned>(R.kind())];
          Min = std::min<uint64_t>(Min, R.Time);
          Max = std::max<uint64_t>(Max, R.Time);
          Sum += R.Value;
          Subjects.push_back(R.subject());
        }
      std::sort(Subjects.begin(), Subjects.end());
      Subjects.erase(std::unique(Subjects.begin(), Subjects.end()),
                     Subjects.end());
      A = Fmt("events\t%llu\n", (unsigned long long)Events);
      if (Events > 0) {
        A += Fmt("t_min\t%llu\n", (unsigned long long)Min);
        A += Fmt("t_max\t%llu\n", (unsigned long long)Max);
      }
      A += Fmt("subjects\t%zu\n", Subjects.size());
      A += Fmt("value_sum\t%lld\n", (long long)Sum);
      for (unsigned K = 0; K != 7; ++K)
        A += Fmt("kind_%s\t%llu\n", traceKindName(static_cast<TraceKind>(K)),
                 (unsigned long long)Kinds[K]);
      break;
    }
    case QuerySpec::TopK: {
      std::map<ProcessId, uint64_t> Counts;
      for (const TraceRecord &R : Records)
        if (Matches(Q.F, R))
          ++Counts[R.subject()];
      std::vector<std::pair<ProcessId, uint64_t>> Rows(Counts.begin(),
                                                       Counts.end());
      std::stable_sort(Rows.begin(), Rows.end(), [](const auto &X,
                                                    const auto &Y) {
        return X.second > Y.second;
      });
      if (Rows.size() > QueryOptions().TopK)
        Rows.resize(QueryOptions().TopK);
      A = "subject\tcount\n";
      for (const auto &[P, C] : Rows)
        A += Fmt("%llu\t%llu\n", (unsigned long long)P,
                 (unsigned long long)C);
      break;
    }
    case QuerySpec::Filter:
      for (const TraceRecord &R : Records)
        if (Matches(Q.F, R))
          appendTraceJsonLine(A, R, Keys);
      break;
    }
    Out.push_back(std::move(A));
  }
  return Out;
}

uint64_t fileDigest(const std::string &Path) {
  uint64_t H = 0xcbf29ce484222325ULL;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return 0;
  std::vector<char> Buf(1 << 20);
  size_t N;
  while ((N = std::fread(Buf.data(), 1, Buf.size(), F)) > 0)
    H = fnv1a(Buf.data(), N, H);
  std::fclose(F);
  return H;
}

void runTraceArchive(const Options &Opt, Report &Rep) {
  const uint64_t Seed = seeded(KernelBaseSeed, Opt.Seed);
  const KernelLoadConfig Cfg = kernelConfig(Seed, ArchiveN, ArchiveHorizon);
  const std::vector<QuerySpec> Mix = queryMix(ArchiveHorizon);
  const std::string Path = Opt.WorkDir + "/trace_archive.dytc";

  // Set-up: one round of the same shape at a tenth of the population and
  // horizon, through its own file.
  const std::string SetupPath = Opt.WorkDir + "/trace_archive_setup.dytc";
  Checks SetupChecks;
  const double SetupS = timeSetup(9, [&] {
    archiveRound(kernelConfig(Seed, ArchiveN / 10, ArchiveHorizon / 10),
                 SetupPath, queryMix(ArchiveHorizon / 10), SetupChecks);
  });
  std::filesystem::remove(SetupPath);
  Rep.Check.expect(SetupChecks.Failed == 0, "set-up rounds succeed");

  std::optional<ArchiveRound> First;
  BestOf Best;
  std::vector<double> PassS;
  std::vector<LayerSpans> Traced;
  auto Check = [&](ArchiveRound R) {
    Rep.Check.expect(R.Emitted == R.Written && R.Written == R.SourceEvents &&
                         R.Emitted > 0,
                     "archive records == records emitted");
    if (!First)
      First = std::move(R);
    else
      Rep.Check.expect(R.Answers == First->Answers && R.Bytes == First->Bytes &&
                           R.Load.Stats == First->Load.Stats,
                       "round repeats round 0");
  };
  measure(Opt, [&] {
    ArchiveRound R = archiveRound(Cfg, Path, Mix, Rep.Check);
    Best.add(R.OpS);
    PassS.push_back(R.Spans.Wall);
    Check(std::move(R));
    if (Opt.Trace) {
      R = archiveRound(Cfg, Path, Mix, Rep.Check);
      Traced.push_back(R.Spans);
      Check(std::move(R));
    }
  });
  const double PeakRss = peakRssMb();

  {
    Result<Trace> Back = readColumnarTraceFile(Path);
    Rep.Check.expect(Back.ok(), "readColumnarTraceFile reads the archive");
    if (Back.ok()) {
      Rep.Check.expect(Back->records().size() == First->Written,
                       "read-back record count equals records written");
      std::vector<std::string> Expect = bruteForceAnswers(*Back, Mix);
      for (size_t Q = 0; Q != Mix.size(); ++Q)
        Rep.Check.expect(Q < First->Answers.size() &&
                             First->Answers[Q] == Expect[Q],
                         "query " + std::to_string(Q) +
                             " equals the brute-force fold");
    }
  }

  // One run per pass: the round. The archive-side rates use the best kernel
  // run and close; the query-side ones the best time of each query.
  const std::vector<double> &Op = Best.best();
  double QueryS = 0;
  std::vector<double> QueryMs;
  for (size_t I = FirstQueryOp; I < Op.size(); ++I) {
    QueryS += Op[I];
    QueryMs.push_back(Op[I] * 1e3);
  }
  const double Scanned = double(First->Spans.QueryScanned);
  endToEnd(Rep, SetupS, {Best.total()}, Best.total(),
           double(First->Load.Stats.EventsExecuted) / Op[0], PassS, PeakRss);
  Rep.Detail.raw("best_op_s", jsonArray(Op))
      .num("archive_records_per_s", double(First->Written) / (Op[0] + Op[1]))
      .num("archive_bytes_per_event", double(First->Bytes) / First->Written)
      .num("query_events_per_s", Scanned / QueryS)
      .num("query_p50_ms", median(QueryMs));
  if (Opt.Trace)
    perLayer(Rep, fastest(Traced), Best.total());

  printStats(Rep.Print, First->Load.Stats);
  Rep.Print.add("archive_records", First->Written);
  Rep.Print.add("archive_bytes", First->Bytes);
  Rep.Print.add("archive_digest", fileDigest(Path));
  for (size_t Q = 0; Q != First->Answers.size(); ++Q)
    Rep.Print.add("answer" + std::to_string(Q) + "_digest",
                  fnv1a(First->Answers[Q].data(), First->Answers[Q].size()));
  std::filesystem::remove(Path);
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

/// The build's optimization stamp, read back from the context that
/// BenchBuildInfo.h's addBuildTypeContext() registers.
std::string contextValue(const char *Key) {
  auto *Ctx = benchmark::internal::GetGlobalContext();
  if (!Ctx)
    return "";
  auto It = Ctx->find(Key);
  return It == Ctx->end() ? "" : It->second;
}

/// Sanitizer instrumentation visible to this translation unit or named in
/// the configured compile flags; "none" when neither.
std::string sanitizerInBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "compiler";
#endif
#ifdef __has_feature
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||  \
    __has_feature(undefined_behavior_sanitizer)
  return "compiler";
#endif
#endif
  if (std::string_view(DYNDIST_PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string_view::npos)
    return DYNDIST_PERFBENCH_CXX_FLAGS;
  return "none";
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "dyndist-perfbench: %s\nusage: dyndist-perfbench --workload "
               "e1_matrix|kernel_1e6|trace_archive|short_sweep [--seed N] "
               "[--seconds S] [--trace 0|1] [--workdir DIR]\n",
               Why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options Opt;
  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (I + 1 >= argc)
      return usage("missing value for a flag");
    const char *V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      Opt.Workload = V;
    } else if (A == "--seed") {
      Opt.Seed = std::strtoull(V, &End, 10);
      if (*V == '\0' || *End != '\0')
        return usage("--seed takes an unsigned integer");
    } else if (A == "--seconds") {
      Opt.Seconds = std::strtod(V, &End);
      if (*V == '\0' || *End != '\0' || !(Opt.Seconds > 0) ||
          Opt.Seconds > 3600)
        return usage("--seconds takes a positive number");
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") != 0 && std::strcmp(V, "1") != 0)
        return usage("--trace takes 0 or 1");
      Opt.Trace = V[0] == '1';
    } else if (A == "--workdir") {
      Opt.WorkDir = V;
    } else {
      return usage("unknown flag");
    }
  }

  dyndist_bench::addBuildTypeContext();
  const std::string Optimized = contextValue("dyndist_optimized_build");
  const std::string BuildType = contextValue("dyndist_build_type");
  const std::string Sanitizer = sanitizerInBuild();
  if (Optimized != "1" || Sanitizer != "none") {
    std::fprintf(stderr,
                 "dyndist-perfbench: refusing to report numbers from an "
                 "unoptimized or sanitizer build (optimized=%s, "
                 "sanitizer=%s)\n",
                 Optimized.c_str(), Sanitizer.c_str());
    return 3;
  }

  std::map<std::string, void (*)(const Options &, Report &)> Workloads = {
      {"e1_matrix", runE1Matrix},
      {"kernel_1e6", runKernel1e6},
      {"trace_archive", runTraceArchive},
      {"short_sweep", runShortSweep},
  };
  auto It = Workloads.find(Opt.Workload);
  if (It == Workloads.end())
    return usage("unknown workload");

  Report Rep;
  It->second(Opt, Rep);

  JsonObject Context;
  Context.str("workload", Opt.Workload)
      .count("seed", Opt.Seed)
      .count("default_seed", DefaultSeed)
      .num("seconds", Opt.Seconds)
      .count("trace", Opt.Trace)
      .count("nproc", std::thread::hardware_concurrency())
      .str("cmake_build_type", BuildType)
      .str("optimized_build", Optimized)
      .str("sanitizer", Sanitizer)
      .str("compiler", __VERSION__);
  std::printf("context %s\n", Context.render().c_str());
  std::printf("fingerprint %s\n", Rep.Print.render().c_str());

  const double FailedFrac =
      Rep.Check.Attempted ? double(Rep.Check.Failed) / Rep.Check.Attempted
                          : 1.0;
  Rep.Detail.num("failed_frac", FailedFrac);
  for (const Metric &M : Opt.Trace ? Rep.EndToEnd : std::vector<Metric>{})
    Rep.Detail.num("untraced." + M.Name, M.Value);
  std::string Failures = "[";
  for (const std::string &F : Rep.Check.Failures) {
    if (Failures.size() > 1)
      Failures += ',';
    appendJsonString(Failures, F);
  }
  Rep.Detail.raw("failures", Failures + "]");
  std::printf("detail %s\n", Rep.Detail.render().c_str());

  JsonObject Metrics;
  for (const Metric &M : Opt.Trace ? Rep.Layers : Rep.EndToEnd)
    Metrics.raw(M.Name, JsonObject().num("value", M.Value).str("unit", M.Unit)
                            .render());
  JsonObject Result;
  Result.raw("correct", Rep.Check.Failed == 0 && Rep.Check.Attempted > 0
                            ? "true"
                            : "false")
      .count("attempted", std::max<uint64_t>(Rep.Check.Attempted, 1))
      .count("failed", Rep.Check.Failed)
      .raw("metrics", Metrics.render());
  std::printf("%s\n", Result.render().c_str());
  return 0;
}
