//===- bench_orthogonality.cpp - E5: the two axes are independent ---------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Experiment E5 (claim C4): fixing one dimension at its most benign point
// does not neutralize the other.
//
//  Sweep A: arrival axis pinned benign (finite arrival, quiescent churn),
//           knowledge axis swept hostile (known D -> unknown -> unbounded
//           chain overlay). The wave algorithm that relies on a TTL fails
//           as soon as the bound disappears; echo (which trades knowledge
//           for quiescence) keeps working — knowledge hostility is real
//           even with benign arrivals.
//
//  Sweep B: knowledge axis pinned benign (disclosed diameter bound),
//           arrival axis swept hostile (rising sustained churn). Flooding
//           with the legal TTL keeps working, but echo — which needs
//           nothing on the knowledge axis — fails: arrival hostility is
//           real even with perfect knowledge.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/aggregation/SimArena.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/support/StringUtils.h"

#include "BenchArgs.h"

#include <cstdio>

using namespace dyndist;

namespace {

constexpr uint64_t E5MasterSeed = 0xE5;

unsigned SweepThreads = 0; // Set once in main from --threads/env.

/// Per-seed verdict for one sweep point.
struct PointOutcome {
  bool Counted = false;
  bool Valid = false;
};

double validRate(const ExperimentConfig &Base, int Seeds) {
  SweepConfig Sweep;
  Sweep.MasterSeed = E5MasterSeed;
  Sweep.SeedCount = static_cast<size_t>(Seeds);
  Sweep.Threads = SweepThreads;
  // One arena per worker: all of a worker's assigned seeds recycle one
  // simulator shell (byte-identical results; see SimArena.h).
  auto Outcomes = runSeedSweepWith<PointOutcome, SimArena>(
      Sweep, [&Base](SweepSeed Seed, SimArena &Arena) {
    ExperimentConfig Cfg = Base;
    Cfg.Seed = Seed.Value;
    ExperimentResult R = runQueryExperiment(Cfg, &Arena);
    PointOutcome Out;
    if (!R.ClassAdmissible || !R.QueryIssued)
      return Out;
    Out.Counted = true;
    Out.Valid = R.Verdict.valid();
    return Out;
  });
  int Counted = 0, Valid = 0;
  for (const PointOutcome &O : Outcomes) {
    Counted += O.Counted;
    Valid += O.Valid;
  }
  return Counted ? double(Valid) / Counted : 0.0;
}

} // namespace

int main(int argc, char **argv) {
  SweepThreads = dyndist_bench::benchThreadsArg(argc, argv);
  int Seeds = dyndist_bench::benchCountArg(argc, argv, 12);

  std::printf("E5: axis orthogonality (%d seeds per point, %u threads)\n\n",
              Seeds, resolveSweepThreads(SweepThreads));

  // Sweep A: benign arrivals, hostile knowledge. The flooding column uses
  // a fixed TTL=4 guess once no bound is derivable — exactly what an
  // algorithm without the knowledge grant would have to do.
  {
    Table T;
    T.setHeader({"knowledge", "flood-ttl-source", "flood-valid",
                 "echo-valid"});
    struct KRow {
      KnowledgeModel K;
      AttachMode Attach;
      const char *TtlSource;
      uint64_t TtlOverride; // 0 = class grant.
    } Rows[] = {
        {KnowledgeModel::knownDiameter(10), AttachMode::Random, "granted D",
         0},
        {KnowledgeModel::boundedUnknownDiameter(), AttachMode::Random,
         "blind guess 4", 4},
        {KnowledgeModel::unboundedDiameter(), AttachMode::Chain,
         "blind guess 4", 4},
    };
    for (const KRow &Row : Rows) {
      ExperimentConfig Base;
      Base.Class = {ArrivalModel::finiteArrival(60), Row.K};
      Base.Attach = Row.Attach;
      Base.Churn.JoinRate = 0.3; // Brisk arrivals, but they quiesce.
      Base.Churn.MeanSession = 150;
      Base.Churn.QuiesceAt = 150;
      Base.QueryAt = 200;
      Base.Horizon = 1200;
      Base.UseRecommended = false;

      Base.Algorithm = RecommendedAlgorithm::FloodingKnownDiameter;
      Base.TtlOverride = Row.TtlOverride;
      double Flood = validRate(Base, Seeds);

      Base.Algorithm = RecommendedAlgorithm::EchoTermination;
      Base.TtlOverride = 0;
      double Echo = validRate(Base, Seeds);

      T.addRow({Row.K.name(), Row.TtlSource, format("%.2f", Flood),
                format("%.2f", Echo)});
    }
    std::printf("Sweep A: arrival axis benign (finite, quiescent)\n%s\n",
                T.render().c_str());
  }

  // Sweep B: benign knowledge (disclosed D), hostile arrivals.
  {
    Table T;
    T.setHeader({"join-rate", "flood-valid", "echo-valid"});
    for (double Rate : {0.0, 0.1, 0.2, 0.4}) {
      ExperimentConfig Base;
      Base.Class = {ArrivalModel::boundedConcurrency(40),
                    KnowledgeModel::knownDiameter(10)};
      Base.InitialMembers = 24;
      Base.Churn.JoinRate = Rate;
      Base.Churn.MeanSession = Rate > 0 ? 24.0 / Rate : 1e9;
      Base.Churn.Horizon = 600;
      Base.QueryAt = 200;
      Base.Horizon = 1200;
      Base.UseRecommended = false;

      Base.Algorithm = RecommendedAlgorithm::FloodingKnownDiameter;
      double Flood = validRate(Base, Seeds);
      Base.Algorithm = RecommendedAlgorithm::EchoTermination;
      double Echo = validRate(Base, Seeds);
      T.addRow({format("%.2f", Rate), format("%.2f", Flood),
                format("%.2f", Echo)});
    }
    std::printf("Sweep B: knowledge axis benign (D disclosed)\n%s\n",
                T.render().c_str());
  }

  std::printf("Expected shape: in sweep A the flooding column collapses as\n"
              "knowledge degrades while echo stays at 1.0; in sweep B echo\n"
              "collapses as churn rises while flooding stays at 1.0. Each\n"
              "axis defeats the algorithm that has no answer to it: the\n"
              "dimensions are orthogonal (claim C4).\n");
  return 0;
}
