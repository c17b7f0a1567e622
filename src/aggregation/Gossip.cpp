//===- Gossip.cpp - Epidemic best-effort query ---------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Gossip.h"

#include <cassert>

using namespace dyndist;

void GossipActor::onStart(Context &Ctx) {
  AggregationActor::onStart(Ctx);
  GossipValueTable &Table = *Values;
  ProcessId Self = Ctx.self();
  if (Table.size() <= Self)
    Table.resize(Self + 1);
  Table[Self] = Value;
}

void GossipActor::onMessage(Context &Ctx, ProcessId From,
                            const MessageBody &Body) {
  switch (Body.kind()) {
  case MsgQueryStart:
    startQuery(Ctx);
    return;
  case MsgGossipPush: {
    const auto &Push = bodyAs<GossipPushMsg>(Body);
    Known.unionWith(Push.Known);
    infect(Ctx, Push.QueryId);
    Ctx.send(From, makeBody<GossipPullMsg>(Push.QueryId, Known));
    return;
  }
  case MsgGossipPull: {
    const auto &Pull = bodyAs<GossipPullMsg>(Body);
    if (Infected && Pull.QueryId == QueryId)
      Known.unionWith(Pull.Known);
    return;
  }
  case MsgGossipDigest: {
    const auto &Digest = bodyAs<GossipDigestMsg>(Body);
    infect(Ctx, Digest.QueryId);
    // Entries the sender lacks; identities we lack.
    DenseBitSet Missing = DenseBitSet::difference(Known, Digest.KnownIds);
    DenseBitSet Want = DenseBitSet::difference(Digest.KnownIds, Known);
    if (!Missing.empty() || !Want.empty())
      Ctx.send(From, makeBody<GossipDeltaMsg>(Digest.QueryId,
                                              std::move(Missing),
                                              std::move(Want)));
    return;
  }
  case MsgGossipDelta: {
    const auto &Delta = bodyAs<GossipDeltaMsg>(Body);
    if (!Infected || Delta.QueryId != QueryId)
      return;
    Known.unionWith(Delta.Entries);
    // Serve the peer's wants (second half of the exchange). They are ids
    // of our own digest, and Known only grows, so we hold every one.
    if (!Delta.WantIds.empty())
      Ctx.send(From, makeBody<GossipDeltaMsg>(Delta.QueryId, Delta.WantIds,
                                              DenseBitSet()));
    return;
  }
  default:
    assert(false && "gossip actor received foreign message kind");
  }
}

void GossipActor::startQuery(Context &Ctx) {
  if (Issuing)
    return;
  Issuing = true;
  Ctx.observe(TraceKey::OtqIssue, static_cast<int64_t>(Ctx.now()));
  infect(Ctx, (Ctx.self() << 20) ^ Ctx.now());
  ReportTimer = Ctx.setTimer(Config->ReportAfter);
}

void GossipActor::infect(Context &Ctx, uint64_t Qid) {
  Known.insert(Ctx.self());
  if (Infected)
    return;
  Infected = true;
  QueryId = Qid;
  RoundsLeft = Config->Rounds;
  RoundTimer = Ctx.setTimer(Config->RoundEvery);
}

void GossipActor::gossipRound(Context &Ctx) {
  if (RoundsLeft == 0)
    return;
  --RoundsLeft;
  size_t Degree = Ctx.neighborCount();
  if (Degree != 0) {
    // One payload per round, shared by every fan-out target: the content
    // (and thus every weight/stat) is identical for all of them.
    MessageRef Payload = Config->DigestMode
                             ? makeBody<GossipDigestMsg>(QueryId, Known)
                             : makeBody<GossipPushMsg>(QueryId, Known);
    for (size_t I = 0, E = std::min(Config->FanOut, Degree); I != E; ++I)
      Ctx.send(Ctx.neighborAt(
                   static_cast<size_t>(Ctx.rng().nextBelow(Degree))),
               Payload);
  }
  if (RoundsLeft > 0)
    RoundTimer = Ctx.setTimer(Config->RoundEvery);
}

void GossipActor::onTimer(Context &Ctx, TimerId Id) {
  if (Id == RoundTimer && Infected) {
    gossipRound(Ctx);
    return;
  }
  if (Id == ReportTimer && Issuing && !Reported) {
    Reported = true;
    // Join the ids to their inputs once, for the checker-format report.
    const GossipValueTable &Table = *Values;
    Contributions Report;
    Report.reserve(Known.count());
    Known.forEach([&](uint64_t P) {
      Report.emplace_hint(Report.end(), P, Table[P]);
    });
    reportResult(Ctx, Report, Config->Aggregate);
  }
}

std::function<std::unique_ptr<Actor>()>
dyndist::makeGossipFactory(std::shared_ptr<const GossipConfig> Config,
                           std::function<int64_t()> NextValue) {
  assert(Config && NextValue && "factory needs config and value source");
  auto Values = std::make_shared<GossipValueTable>();
  return [Config, Values, NextValue]() {
    return std::make_unique<GossipActor>(Config, Values, NextValue());
  };
}
