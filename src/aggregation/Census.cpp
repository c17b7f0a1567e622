//===- Census.cpp - Repeated census service ------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Census.h"

#include <cassert>

using namespace dyndist;

void CensusIssuerActor::onMessage(Context &Ctx, ProcessId From,
                                  const MessageBody &Body) {
  (void)From;
  switch (Body.kind()) {
  case MsgQueryStart:
    if (Running)
      return;
    Running = true;
    startRound(Ctx);
    return;
  case MsgFloodReply: {
    const auto &Reply = bodyAs<FloodReplyMsg>(Body);
    if (Reply.QueryId == CurrentQueryId)
      Gathered[Reply.Contributor] = Reply.Value;
    return;
  }
  case MsgFloodRequest:
    // Another process's query; the census issuer contributes like any
    // member but does not re-flood (it is a leaf for foreign waves).
    Ctx.send(bodyAs<FloodRequestMsg>(Body).Issuer,
             makeBody<FloodReplyMsg>(bodyAs<FloodRequestMsg>(Body).QueryId,
                                     Ctx.self(), Value));
    return;
  default:
    assert(false && "census issuer received foreign message kind");
  }
}

void CensusIssuerActor::startRound(Context &Ctx) {
  CurrentQueryId = (Ctx.self() << 20) ^ Ctx.now();
  Gathered.clear();
  Gathered[Ctx.self()] = Value;
  Ctx.observe(TraceKey::OtqIssue, static_cast<int64_t>(Ctx.now()));

  if (Config->Flood.Ttl > 0) {
    auto Req = makeBody<FloodRequestMsg>(CurrentQueryId, Ctx.self(),
                                         Config->Flood.Ttl);
    Ctx.forEachNeighbor([&](ProcessId N) { Ctx.send(N, Req); });
  }
  SimTime Wait = (Config->Flood.Ttl + 1) * Config->Flood.MaxLatency +
                 Config->Flood.Slack;
  assert(Wait < Config->Period && "census rounds must not overlap");
  Deadline = Ctx.setTimer(Wait);
}

void CensusIssuerActor::closeRound(Context &Ctx) {
  reportResult(Ctx, Gathered, Config->Flood.Aggregate);
  ++RoundsDone;
  if (Config->Rounds != 0 && RoundsDone >= Config->Rounds)
    return;
  // Next round starts Period after the previous round's start; the
  // deadline already consumed part of it.
  SimTime Consumed = (Config->Flood.Ttl + 1) * Config->Flood.MaxLatency +
                     Config->Flood.Slack;
  NextRound = Ctx.setTimer(Config->Period - Consumed);
}

void CensusIssuerActor::onTimer(Context &Ctx, TimerId Id) {
  if (Id == Deadline) {
    closeRound(Ctx);
    return;
  }
  if (Id == NextRound)
    startRound(Ctx);
}

std::vector<CensusPoint> dyndist::collectCensusSeries(const Trace &T,
                                                      ProcessId Issuer,
                                                      SimTime Horizon,
                                                      AggregateKind Kind) {
  // Round windows: each issue record up to the next issue (or Horizon).
  std::vector<SimTime> Issues;
  for (const TraceRecord &R : T.records())
    if (R.observes(TraceKey::OtqIssue) && R.subject() == Issuer)
      Issues.push_back(R.Time);

  std::vector<CensusPoint> Series;
  for (size_t I = 0; I != Issues.size(); ++I) {
    SimTime WindowEnd = I + 1 < Issues.size() ? Issues[I + 1] - 1 : Horizon;
    QueryVerdict V =
        checkOneTimeQuery(T, Issuer, Issues[I], WindowEnd, Kind);
    CensusPoint P;
    P.IssueAt = Issues[I];
    if (!V.Terminated) {
      Series.push_back(P);
      continue;
    }
    P.ReportAt = V.ResponseTime;
    P.Included = V.IncludedCount;
    P.Aggregate = V.Aggregate;
    P.Coverage = V.Coverage;
    P.Valid = V.valid();
    P.LivePopulation = T.membersAt(V.ResponseTime).size();
    Series.push_back(P);
  }
  return Series;
}
