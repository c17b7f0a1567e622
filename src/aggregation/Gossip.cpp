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
    if (Known.unionWith(Push.Known))
      ++Version;
    infect(Ctx, Push.QueryId);
    Ctx.send(From, cachedBody<GossipPullMsg>(Pull, Push.QueryId));
    return;
  }
  case MsgGossipPull: {
    const auto &Reply = bodyAs<GossipPullMsg>(Body);
    if (Infected && Reply.QueryId == QueryId && Known.unionWith(Reply.Known))
      ++Version;
    return;
  }
  case MsgGossipDigest: {
    const auto &Digest = bodyAs<GossipDigestMsg>(Body);
    infect(Ctx, Digest.QueryId);
    // Entries the sender lacks; identities we lack.
    DenseBitSet Missing = DenseBitSet::difference(Known, Digest.Known);
    DenseBitSet Want = DenseBitSet::difference(Digest.Known, Known);
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
    if (Known.unionWith(Delta.Entries))
      ++Version;
    // Serve the peer's wants (second half of the exchange). They are ids
    // of our own digest, and Known only grows, so we hold every one.
    if (Delta.WantCount != 0)
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
  // Known only grows, so once infected it already holds this process.
  if (Infected)
    return;
  if (Known.insert(Ctx.self()))
    ++Version;
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
    // One payload per version of Known, shared by every fan-out target
    // and every round until Known changes.
    const MessageRef &Payload =
        Config->DigestMode ? cachedBody<GossipDigestMsg>(Round, QueryId)
                           : cachedBody<GossipPushMsg>(Round, QueryId);
    for (size_t I = 0, E = std::min(Config->FanOut, Degree); I != E; ++I)
      Ctx.send(Ctx.neighborAt(
                   static_cast<size_t>(Ctx.rng().nextBelow(Degree))),
               Payload);
  }
  if (RoundsLeft > 0)
    RoundTimer = Ctx.setTimer(Config->RoundEvery);
  else
    Round = CachedBody(); // Gone quiet: this body is never sent again.
}

template <typename T>
const MessageRef &GossipActor::cachedBody(CachedBody &C, uint64_t Qid) {
  if (C.Body && C.Version == Version && C.QueryId == Qid)
    return C.Body;
  // Copy-on-write. While a send of the stale body is in flight (or parked
  // for its owner lane's release), the body keeps its send-time set and a
  // new one is built. When the cache holds the only reference, nobody can
  // see the body any more, so it is refilled in place.
  if (C.Body && C.Body->refCount() == 1)
    const_cast<T &>(bodyAs<T>(*C.Body)).refill(Qid, Known);
  else
    C.Body = makeBody<T>(Qid, Known);
  C.Version = Version;
  C.QueryId = Qid;
  return C.Body;
}

void GossipActor::onStop(Context &Ctx) {
  AggregationActor::onStop(Ctx);
  // A departed process sends nothing more: return the blocks to the pool.
  Round = CachedBody();
  Pull = CachedBody();
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
