//===- dyndist-query.cpp - command-line experiment driver -----------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Runs one one-time-query experiment from the command line: declare a
// system class, pick an algorithm (or let the solvability oracle choose),
// set the churn regime, and get the checker's verdict — optionally
// archiving the full execution trace in the columnar format.
//
//   dyndist-query [options]
//     --arrival finite:<n> | bounded:<b> | bounded-unknown:<b> | infinite
//     --diameter known:<D> | bounded | unbounded
//     --algorithm auto | flood | echo | gossip     (default auto)
//     --join-rate <r>        expected joins/tick   (default 0.05)
//     --mean-session <s>     mean membership ticks (default 400)
//     --quiesce-at <t>       churn stops at t      (default: never)
//     --members <k>          initial population    (default 20)
//     --query-at <t>         issue time            (default 200)
//     --horizon <t>          run end               (default 900)
//     --seed <s>             experiment seed       (default 1)
//     --chain                chain-attach overlay (unbounded diameter)
//     --trace-out <path>     archive the execution trace (columnar)
//
// Every numeric flag is checked: garbage, nan/inf, and out-of-range values
// are refused with exit 2.
//
// Analysis mode — sharded filter/aggregation over a columnar archive,
// deterministic at any --threads. `query filter` with no filter exports the
// whole archive as JSON lines:
//
//   dyndist-query query <filter|group-by|top-k|stats> <trace-file> [opts]
//     --kind <name>       keep only events of this kind
//     --subject <id>      keep only this subject
//     --peer <id>         keep only this peer
//     --msg <m>           keep only this message kind
//     --key <k>           keep only this observation key
//     --from <t> --to <t> inclusive time window
//     --by <field>        group-by/top-k field: kind|subject|peer|msg|
//                         key|time                        (default kind)
//     --bucket <w>        time bucket width for --by time (default 100)
//     --k <n>             top-k group count               (default 10)
//     --limit <n>         filter output cap               (default all)
//     --threads <n>       scan concurrency, < 1024 (0 = auto: a set
//                         DYNDIST_THREADS, checked like --threads, else
//                         the hardware count)             (default 1)
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/runtime/TraceQuery.h"
#include "dyndist/sim/TraceColumnar.h"
#include "dyndist/sim/TraceIO.h"
#include "dyndist/support/StringUtils.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace dyndist;

namespace {

[[noreturn]] void usageError(const std::string &Message) {
  std::fprintf(stderr, "dyndist-query: %s\n", Message.c_str());
  std::fprintf(stderr, "run with --help for usage\n");
  std::exit(2);
}

void printHelp() {
  std::printf(
      "usage: dyndist-query [options]\n"
      "  --arrival finite:<n>|bounded:<b>|bounded-unknown:<b>|infinite\n"
      "  --diameter known:<D>|bounded|unbounded\n"
      "  --algorithm auto|flood|echo|gossip   (default auto)\n"
      "  --join-rate <r>     expected joins per tick (default 0.05)\n"
      "  --mean-session <s>  mean membership duration (default 400)\n"
      "  --quiesce-at <t>    churn stops at t (default never)\n"
      "  --members <k>       initial population (default 20)\n"
      "  --query-at <t>      issue time (default 200)\n"
      "  --horizon <t>       run end (default 900)\n"
      "  --seed <s>          experiment seed (default 1)\n"
      "  --chain             chain-attach overlay (grows the diameter)\n"
      "  --trace-out <path>  archive the trace (columnar)\n"
      "\n"
      "analysis mode (see also --help output header):\n"
      "  dyndist-query query <filter|group-by|top-k|stats> <trace-file>\n"
      "    [--kind k] [--subject p] [--peer p] [--msg m] [--key k]\n"
      "    [--from t] [--to t] [--by field] [--bucket w] [--k n]\n"
      "    [--limit n] [--threads n]\n");
}

/// Splits "name:number"; returns true and fills \p Num on match.
bool splitSpec(const std::string &Arg, const char *Name, uint64_t &Num) {
  std::string Prefix = std::string(Name) + ":";
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  if (!parseU64Checked(Arg.c_str() + Prefix.size(), Num) || Num == 0)
    usageError("bad numeric suffix in '" + Arg + "'");
  return true;
}

/// Reads flag values off argv. Every numeric value goes through the checked
/// parsers: a missing, garbage or out-of-range value is a usage error.
struct FlagReader {
  int Argc;
  char **Argv;

  /// The value after the flag at \p I, advancing \p I onto it.
  const char *next(int &I) const {
    if (I + 1 >= Argc)
      usageError(std::string("missing value after ") + Argv[I]);
    return Argv[++I];
  }

  uint64_t nextU64(int &I, uint64_t Max = UINT64_MAX) const {
    int At = I;
    uint64_t V = 0;
    if (!parseU64Checked(next(I), V) || V > Max)
      badValue(At);
    return V;
  }

  /// A signed int: an optional '-' before a checked magnitude.
  int nextInt(int &I) const {
    int At = I;
    const char *Text = next(I);
    bool Negative = *Text == '-';
    uint64_t Magnitude = 0;
    if (!parseU64Checked(Text + Negative, Magnitude) ||
        Magnitude > uint64_t(INT_MAX) + Negative)
      badValue(At);
    return static_cast<int>(Negative ? -int64_t(Magnitude)
                                     : int64_t(Magnitude));
  }

  /// A finite rate or duration; positive unless \p AllowZero.
  double nextDouble(int &I, bool AllowZero) const {
    int At = I;
    double V = 0;
    if (!parseDoubleChecked(next(I), V) || (V == 0 && !AllowZero))
      badValue(At);
    return V;
  }

  [[noreturn]] void badValue(int At) const {
    usageError(std::string("bad numeric value after ") + Argv[At]);
  }
};

/// Runs the analysis mode: dyndist-query query <subcommand> <file> [opts].
int runQueryMode(int argc, char **argv) {
  if (argc < 4)
    usageError("usage: dyndist-query query "
               "<filter|group-by|top-k|stats> <trace-file> [options]");
  std::string Subcommand = argv[2];
  std::string Path = argv[3];
  TraceFilter Filter;
  QueryOptions Opts;
  GroupField Field = GroupField::Kind;
  const FlagReader Flags{argc, argv};

  for (int I = 4; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--kind") {
      TraceKind K;
      std::string Name = Flags.next(I);
      if (!traceKindFromName(Name, K))
        usageError("unknown trace kind '" + Name + "'");
      Filter.Kind = K;
    } else if (Arg == "--subject") {
      Filter.Subject = Flags.nextU64(I);
    } else if (Arg == "--peer") {
      Filter.Peer = Flags.nextU64(I);
    } else if (Arg == "--msg") {
      Filter.Msg = Flags.nextInt(I);
    } else if (Arg == "--key") {
      Filter.Key = std::string(Flags.next(I));
    } else if (Arg == "--from") {
      Filter.FromTime = Flags.nextU64(I);
    } else if (Arg == "--to") {
      Filter.ToTime = Flags.nextU64(I);
    } else if (Arg == "--by") {
      std::string Name = Flags.next(I);
      if (!groupFieldFromName(Name, Field))
        usageError("unknown group field '" + Name + "'");
    } else if (Arg == "--bucket") {
      Opts.TimeBucketWidth = Flags.nextU64(I);
    } else if (Arg == "--k") {
      Opts.TopK = static_cast<size_t>(Flags.nextU64(I));
    } else if (Arg == "--limit") {
      Opts.Limit = Flags.nextU64(I);
    } else if (Arg == "--threads") {
      Opts.Threads =
          static_cast<unsigned>(Flags.nextU64(I, SweepThreadLimit - 1));
    } else {
      usageError("unknown query option '" + Arg + "'");
    }
  }

  // An automatic count resolves through DYNDIST_THREADS; a malformed
  // value is a usage error, not a silent fall back to every hardware thread.
  if (Opts.Threads == 0)
    if (Result<unsigned> Env = sweepThreadsFromEnv(); !Env)
      usageError(Env.error().str());

  auto Src = TraceQuerySource::open(Path);
  if (!Src.ok()) {
    std::fprintf(stderr, "dyndist-query: %s\n", Src.error().str().c_str());
    return 2;
  }

  Result<std::string> Out = [&]() -> Result<std::string> {
    if (Subcommand == "filter")
      return queryFilter(**Src, Filter, Opts);
    if (Subcommand == "group-by")
      return queryGroupBy(**Src, Filter, Field, Opts);
    if (Subcommand == "top-k")
      return queryTopK(**Src, Filter, Field, Opts);
    if (Subcommand == "stats")
      return queryStats(**Src, Filter, Opts);
    usageError("unknown query subcommand '" + Subcommand + "'");
  }();
  if (!Out.ok()) {
    std::fprintf(stderr, "dyndist-query: %s\n", Out.error().str().c_str());
    return 2;
  }
  std::fwrite(Out->data(), 1, Out->size(), stdout);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc >= 2 && std::strcmp(argv[1], "query") == 0)
    return runQueryMode(argc, argv);

  ExperimentConfig Cfg;
  Cfg.Class = {ArrivalModel::boundedConcurrency(28),
               KnowledgeModel::knownDiameter(10)};
  Cfg.Churn.JoinRate = 0.05;
  Cfg.Churn.MeanSession = 400;
  Cfg.Gossip.ReportAfter = 100;
  Cfg.Gossip.Rounds = 50;
  Cfg.Gossip.RoundEvery = 2;
  std::string TraceOut;
  const FlagReader Flags{argc, argv};

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printHelp();
      return 0;
    }
    if (Arg == "--arrival") {
      std::string Spec = Flags.next(I);
      uint64_t N = 0;
      if (Spec == "infinite")
        Cfg.Class.Arrival = ArrivalModel::infiniteArrival();
      else if (splitSpec(Spec, "finite", N))
        Cfg.Class.Arrival = ArrivalModel::finiteArrival(N);
      else if (splitSpec(Spec, "bounded-unknown", N))
        Cfg.Class.Arrival = ArrivalModel::boundedConcurrency(N, false);
      else if (splitSpec(Spec, "bounded", N))
        Cfg.Class.Arrival = ArrivalModel::boundedConcurrency(N, true);
      else
        usageError("unknown arrival spec '" + Spec + "'");
    } else if (Arg == "--diameter") {
      std::string Spec = Flags.next(I);
      uint64_t D = 0;
      if (Spec == "bounded")
        Cfg.Class.Knowledge = KnowledgeModel::boundedUnknownDiameter();
      else if (Spec == "unbounded")
        Cfg.Class.Knowledge = KnowledgeModel::unboundedDiameter();
      else if (splitSpec(Spec, "known", D))
        Cfg.Class.Knowledge = KnowledgeModel::knownDiameter(D);
      else
        usageError("unknown diameter spec '" + Spec + "'");
    } else if (Arg == "--algorithm") {
      std::string Spec = Flags.next(I);
      if (Spec == "auto") {
        Cfg.UseRecommended = true;
      } else {
        Cfg.UseRecommended = false;
        if (Spec == "flood")
          Cfg.Algorithm = RecommendedAlgorithm::FloodingKnownDiameter;
        else if (Spec == "echo")
          Cfg.Algorithm = RecommendedAlgorithm::EchoTermination;
        else if (Spec == "gossip")
          Cfg.Algorithm = RecommendedAlgorithm::GossipBestEffort;
        else
          usageError("unknown algorithm '" + Spec + "'");
      }
    } else if (Arg == "--join-rate") {
      // Zero is a static system: no joins after the initial population.
      Cfg.Churn.JoinRate = Flags.nextDouble(I, /*AllowZero=*/true);
    } else if (Arg == "--mean-session") {
      Cfg.Churn.MeanSession = Flags.nextDouble(I, /*AllowZero=*/false);
    } else if (Arg == "--quiesce-at") {
      Cfg.Churn.QuiesceAt = Flags.nextU64(I);
    } else if (Arg == "--members") {
      Cfg.InitialMembers = Flags.nextU64(I);
    } else if (Arg == "--query-at") {
      Cfg.QueryAt = Flags.nextU64(I);
    } else if (Arg == "--horizon") {
      Cfg.Horizon = Flags.nextU64(I);
    } else if (Arg == "--seed") {
      Cfg.Seed = Flags.nextU64(I);
    } else if (Arg == "--chain") {
      Cfg.Attach = AttachMode::Chain;
    } else if (Arg == "--trace-out") {
      TraceOut = Flags.next(I);
    } else {
      usageError("unknown option '" + Arg + "'");
    }
  }
  Cfg.Churn.Horizon = Cfg.Horizon;

  RecommendedAlgorithm Algo = Cfg.UseRecommended
                                  ? recommendedAlgorithm(Cfg.Class)
                                  : Cfg.Algorithm;
  std::printf("class        : %s\n", Cfg.Class.name().c_str());
  std::printf("oracle       : %s\n",
              solvabilityName(oneTimeQuerySolvability(Cfg.Class)).c_str());
  std::printf("algorithm    : %s%s\n", algorithmName(Algo).c_str(),
              Cfg.UseRecommended ? " (recommended)" : "");

  Cfg.KeepTrace = !TraceOut.empty();
  ExperimentResult R = runQueryExperiment(Cfg);

  std::printf("admissible   : %s\n",
              R.ClassAdmissible ? "yes" : R.AdmissibilityError.c_str());
  // Only a disclosed bound is sampled through the run; any other class is
  // sampled once, at the horizon.
  std::printf("arrivals     : %llu (%s diameter %llu)\n",
              (unsigned long long)R.Arrivals,
              Cfg.Class.Knowledge.Diameter == DiameterKnowledge::KnownBound
                  ? "peak"
                  : "horizon",
              (unsigned long long)R.MaxDiameter);
  if (!R.QueryIssued) {
    std::printf("query        : never issued\n");
    return 1;
  }
  std::printf("query        : %s\n", R.Verdict.str().c_str());
  std::printf("verdict      : %s\n", R.Verdict.valid() ? "VALID" : "INVALID");

  if (!TraceOut.empty() && R.RecordedTrace) {
    if (Status S = writeColumnarTraceFile(*R.RecordedTrace, TraceOut); !S) {
      std::fprintf(stderr, "dyndist-query: %s\n", S.error().str().c_str());
      return 2;
    }
    std::printf("trace        : %zu events -> %s\n",
                R.RecordedTrace->records().size(), TraceOut.c_str());
  }
  return R.Verdict.valid() ? 0 : 1;
}
