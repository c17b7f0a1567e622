//===- dyndist-replay.cpp - re-run algorithms on recorded churn -----------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Loads a columnar trace archived by dyndist-query --trace-out (or
// writeColumnarTraceFile / a ColumnarTraceWriter sink), extracts its
// membership schedule — every join, leave, and crash at its original
// instant — and replays it against a chosen algorithm. Churn becomes a
// controlled variable: the same recorded world, any algorithm, paired
// comparisons across builds.
//
//   dyndist-replay --trace <file> [options]
//     --algorithm flood|echo|gossip   (default flood)
//     --ttl <n>                       flood TTL (default 8)
//     --issuer <id>                   replayed issuer id (default: the
//                                     longest-lived member)
//     --query-at <t>                  issue time (default 200)
//     --horizon <t>                   run end (default: trace end + 500)
//     --degree <k>                    overlay degree >= 1 (default 3)
//
// Every numeric flag is checked: garbage and out-of-range values are
// refused with exit 2.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Echo.h"
#include "dyndist/aggregation/Flooding.h"
#include "dyndist/aggregation/Gossip.h"
#include "dyndist/arrival/Replay.h"
#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/graph/Overlay.h"
#include "dyndist/sim/TraceColumnar.h"
#include "dyndist/support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace dyndist;

namespace {

[[noreturn]] void usageError(const std::string &Message) {
  std::fprintf(stderr, "dyndist-replay: %s\n", Message.c_str());
  std::exit(2);
}

/// The member with the longest presence in the source trace (ties broken
/// by smaller id): a sensible default issuer, most likely to span the
/// query window.
ProcessId longestLivedMember(const Trace &T, SimTime Horizon) {
  ProcessId Best = InvalidProcess;
  SimTime BestSpan = 0;
  for (const auto &[P, I] : T.presence()) {
    SimTime End = I.EndTime.value_or(Horizon);
    SimTime Span = End - I.JoinTime;
    if (Span > BestSpan) {
      BestSpan = Span;
      Best = P;
    }
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  std::string TracePath, Algorithm = "flood";
  uint64_t Ttl = 8;
  ProcessId Issuer = InvalidProcess;
  SimTime QueryAt = 200;
  SimTime Horizon = 0;
  size_t Degree = 3;

  auto NextArg = [&](int &I) -> std::string {
    if (I + 1 >= argc)
      usageError(std::string("missing value after ") + argv[I]);
    return argv[++I];
  };
  auto NextU64 = [&](int &I, uint64_t Min = 0) -> uint64_t {
    int At = I;
    uint64_t V = 0;
    if (!parseU64Checked(NextArg(I).c_str(), V) || V < Min)
      usageError(std::string("bad numeric value after ") + argv[At]);
    return V;
  };
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--trace")
      TracePath = NextArg(I);
    else if (Arg == "--algorithm")
      Algorithm = NextArg(I);
    else if (Arg == "--ttl")
      Ttl = NextU64(I);
    else if (Arg == "--issuer")
      Issuer = NextU64(I);
    else if (Arg == "--query-at")
      QueryAt = NextU64(I);
    else if (Arg == "--horizon")
      Horizon = NextU64(I);
    else if (Arg == "--degree")
      Degree = NextU64(I, /*Min=*/1);
    else
      usageError("unknown option '" + Arg + "'");
  }
  if (TracePath.empty())
    usageError("--trace <file> is required");

  Result<Trace> Loaded = readColumnarTraceFile(TracePath);
  if (!Loaded.ok())
    usageError(Loaded.error().str());
  const Trace &Source = *Loaded;
  auto Schedule = extractMembershipSchedule(Source);
  SimTime TraceEnd =
      Source.records().empty() ? 0 : Source.records().back().Time;
  if (Horizon == 0)
    Horizon = TraceEnd + 500;
  if (Issuer == InvalidProcess)
    Issuer = longestLivedMember(Source, TraceEnd);
  if (Issuer == InvalidProcess)
    usageError("trace contains no members to issue from");

  std::printf("trace        : %s (%zu events, %zu membership changes)\n",
              TracePath.c_str(), Source.records().size(), Schedule.size());
  std::printf("issuer       : %llu (longest-lived unless overridden)\n",
              (unsigned long long)Issuer);

  ChurnDriver::ActorFactory Factory;
  if (Algorithm == "flood") {
    auto Cfg = std::make_shared<FloodConfig>();
    Cfg->Ttl = Ttl;
    Factory = makeFloodFactory(Cfg, [] { return 1; });
  } else if (Algorithm == "echo") {
    Factory = makeEchoFactory([] { return 1; });
  } else if (Algorithm == "gossip") {
    auto Cfg = std::make_shared<GossipConfig>();
    Cfg->ReportAfter = 100;
    Cfg->Rounds = 50;
    Cfg->RoundEvery = 2;
    Factory = makeGossipFactory(Cfg, [] { return 1; });
  } else {
    usageError("unknown algorithm '" + Algorithm + "'");
  }

  Simulator S(1);
  DynamicOverlay Overlay(Degree, Rng(2));
  Overlay.attachTo(S);
  replayMembership(S, Schedule, Factory);
  scheduleQueryStart(S, QueryAt, Issuer);
  RunLimits L;
  L.MaxTime = Horizon;
  S.run(L);

  auto Issue =
      S.trace().firstObservationRecord(Issuer, keyIdOf(TraceKey::OtqIssue));
  if (!Issue) {
    std::printf("query        : never issued (issuer down at t=%llu?)\n",
                (unsigned long long)QueryAt);
    return 1;
  }
  QueryVerdict V = checkOneTimeQuery(S.trace(), Issuer, Issue->Time, Horizon);
  std::printf("algorithm    : %s\n", Algorithm.c_str());
  std::printf("query        : %s\n", V.str().c_str());
  std::printf("messages     : %llu sent, %llu payload units\n",
              (unsigned long long)S.stats().MessagesSent,
              (unsigned long long)S.stats().PayloadUnits);
  std::printf("verdict      : %s\n", V.valid() ? "VALID" : "INVALID");
  return V.valid() ? 0 : 1;
}
