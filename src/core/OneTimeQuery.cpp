//===- OneTimeQuery.cpp - The canonical problem checker ----------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/core/OneTimeQuery.h"

#include "dyndist/support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace dyndist;

int64_t dyndist::foldAggregate(AggregateKind Kind, const Contributions &C) {
  switch (Kind) {
  case AggregateKind::Sum: {
    int64_t Acc = 0;
    for (const auto &[P, V] : C) {
      (void)P;
      Acc += V;
    }
    return Acc;
  }
  case AggregateKind::Count:
    return static_cast<int64_t>(C.size());
  case AggregateKind::Min: {
    int64_t Acc = std::numeric_limits<int64_t>::max();
    for (const auto &[P, V] : C) {
      (void)P;
      Acc = std::min(Acc, V);
    }
    return Acc;
  }
  case AggregateKind::Max: {
    int64_t Acc = std::numeric_limits<int64_t>::min();
    for (const auto &[P, V] : C) {
      (void)P;
      Acc = std::max(Acc, V);
    }
    return Acc;
  }
  }
  assert(false && "unknown aggregate kind");
  return 0;
}

std::string dyndist::aggregateName(AggregateKind Kind) {
  switch (Kind) {
  case AggregateKind::Sum:
    return "sum";
  case AggregateKind::Count:
    return "count";
  case AggregateKind::Min:
    return "min";
  case AggregateKind::Max:
    return "max";
  }
  assert(false && "unknown aggregate kind");
  return "?";
}

std::string QueryVerdict::str() const {
  if (!Terminated)
    return "no-termination";
  return format("t=%llu agg=%lld included=%zu required=%zu coverage=%.3f "
                "%s%s%s",
                static_cast<unsigned long long>(ResponseTime),
                static_cast<long long>(Aggregate), IncludedCount,
                RequiredCount, Coverage, Complete ? "complete" : "INCOMPLETE",
                NoInvention ? "" : " INVENTED",
                AggregateConsistent ? "" : " INCONSISTENT");
}

QueryVerdict dyndist::checkOneTimeQuery(const Trace &T, ProcessId Issuer,
                                        SimTime IssueTime, SimTime Horizon,
                                        AggregateKind Kind) {
  QueryVerdict V;

  // One pass over the records, which ascend in time. It finds the issuer's
  // first result in [IssueTime, Horizon] (clause 1), its includes in
  // [IssueTime, Response] (an include at the response instant counts even
  // when recorded after the result), and every process's first declared
  // input, wherever in the run it was declared.
  std::vector<ProcessId> Included;
  std::vector<std::pair<ProcessId, int64_t>> Inputs;
  for (const TraceRecord &R : T.records()) {
    if (R.observes(TraceKey::OtqValue)) {
      Inputs.emplace_back(R.subject(), R.Value);
      continue;
    }
    if (R.kind() != TraceKind::Observe || R.subject() != Issuer ||
        R.Time < IssueTime || (V.Terminated && R.Time > V.ResponseTime))
      continue;
    if (R.observes(TraceKey::OtqInclude)) {
      Included.push_back(static_cast<ProcessId>(R.Value));
    } else if (R.observes(TraceKey::OtqResult) && !V.Terminated &&
               R.Time <= Horizon) {
      V.Terminated = true;
      V.ResponseTime = R.Time;
      V.Aggregate = R.Value;
    }
  }
  if (!V.Terminated)
    return V;

  std::sort(Included.begin(), Included.end());
  Included.erase(std::unique(Included.begin(), Included.end()),
                 Included.end());
  V.IncludedCount = Included.size();
  // First declaration per process: a stable sort keeps record order among
  // one process's declarations, and unique keeps the first of each run.
  auto ByPid = [](const auto &A, const auto &B) { return A.first < B.first; };
  if (!std::is_sorted(Inputs.begin(), Inputs.end(), ByPid))
    std::stable_sort(Inputs.begin(), Inputs.end(), ByPid);
  Inputs.erase(std::unique(Inputs.begin(), Inputs.end(),
                           [](const auto &A, const auto &B) {
                             return A.first == B.first;
                           }),
               Inputs.end());

  // Clause 2: completeness over the required set, the members up
  // throughout [IssueTime, Response], ascending like Presence.
  const auto &Presence = T.presence();
  size_t Covered = 0;
  auto Inc = Included.begin();
  for (const auto &[P, I] : Presence) {
    if (!I.upThroughout(IssueTime, V.ResponseTime))
      continue;
    ++V.RequiredCount;
    while (Inc != Included.end() && *Inc < P)
      ++Inc;
    if (Inc != Included.end() && *Inc == P)
      ++Covered;
    else
      V.Missed.push_back(P);
  }
  V.Complete = V.Missed.empty();
  V.Coverage = V.RequiredCount == 0
                   ? 1.0
                   : static_cast<double>(Covered) /
                         static_cast<double>(V.RequiredCount);

  // Clause 3: no invention — every contributor was up at some instant of
  // the query window.
  for (ProcessId P : Included) {
    auto It = Presence.find(P);
    bool Present = It != Presence.end() &&
                   It->second.JoinTime <= V.ResponseTime &&
                   (!It->second.EndTime || *It->second.EndTime > IssueTime);
    if (!Present)
      V.Invented.push_back(P);
  }
  V.NoInvention = V.Invented.empty();

  // Clause 4: aggregate consistency — re-fold the contributor set under
  // the declared monoid. Skipped when the algorithm reports no
  // contributor set at all.
  if (Included.empty()) {
    V.AggregateConsistent = true;
  } else {
    Contributions Declared;
    bool AllDeclared = true;
    auto In = Inputs.begin();
    for (ProcessId P : Included) {
      while (In != Inputs.end() && In->first < P)
        ++In;
      if (In == Inputs.end() || In->first != P) {
        AllDeclared = false;
        break;
      }
      Declared.emplace(P, In->second);
    }
    V.AggregateConsistent =
        AllDeclared && foldAggregate(Kind, Declared) == V.Aggregate;
  }
  return V;
}
