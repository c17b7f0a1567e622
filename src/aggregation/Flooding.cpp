//===- Flooding.cpp - TTL-flooding query ---------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Flooding.h"

#include <cassert>

using namespace dyndist;

void FloodActor::onMessage(Context &Ctx, ProcessId From,
                           const MessageBody &Body) {
  (void)From;
  switch (Body.kind()) {
  case MsgQueryStart:
    startQuery(Ctx);
    return;
  case MsgFloodRequest:
    handleRequest(Ctx, bodyAs<FloodRequestMsg>(Body));
    return;
  case MsgFloodReply:
    handleReply(bodyAs<FloodReplyMsg>(Body));
    return;
  default:
    assert(false && "flood actor received foreign message kind");
  }
}

void FloodActor::startQuery(Context &Ctx) {
  if (Issuing)
    return; // One query per actor instance.
  Issuing = true;
  // Query ids must be globally fresh: derive from (self, now).
  MyQueryId = (Ctx.self() << 20) ^ Ctx.now();
  SeenQueries.insert(MyQueryId);
  Ctx.observe(TraceKey::OtqIssue, static_cast<int64_t>(Ctx.now()));

  Gathered[Ctx.self()] = Value; // The issuer contributes its own value.
  if (Config->Ttl > 0) {
    auto Req = makeBody<FloodRequestMsg>(MyQueryId, Ctx.self(), Config->Ttl);
    Ctx.forEachNeighbor([&](ProcessId N) { Ctx.send(N, Req); });
  }
  // Wave depth Ttl, plus one hop for the direct reply.
  SimTime Wait = (Config->Ttl + 1) * Config->MaxLatency + Config->Slack;
  Deadline = Ctx.setTimer(Wait);
}

void FloodActor::handleRequest(Context &Ctx, const FloodRequestMsg &Req) {
  if (!SeenQueries.insert(Req.QueryId).second)
    return; // Already part of this wave.
  // Contribute directly to the issuer.
  Ctx.send(Req.Issuer, makeBody<FloodReplyMsg>(Req.QueryId, Ctx.self(), Value));
  if (Req.Ttl <= 1)
    return; // Wave front stops here.
  auto Fwd = makeBody<FloodRequestMsg>(Req.QueryId, Req.Issuer, Req.Ttl - 1);
  Ctx.forEachNeighbor([&](ProcessId N) { Ctx.send(N, Fwd); });
}

void FloodActor::handleReply(const FloodReplyMsg &Reply) {
  if (!Issuing || Reported || Reply.QueryId != MyQueryId)
    return;
  Gathered[Reply.Contributor] = Reply.Value;
}

void FloodActor::onTimer(Context &Ctx, TimerId Id) {
  if (!Issuing || Reported || Id != Deadline)
    return;
  Reported = true;
  reportResult(Ctx, Gathered, Config->Aggregate);
}

std::function<std::unique_ptr<Actor>()>
dyndist::makeFloodFactory(std::shared_ptr<const FloodConfig> Config,
                          std::function<int64_t()> NextValue) {
  assert(Config && NextValue && "factory needs config and value source");
  return [Config, NextValue]() {
    return std::make_unique<FloodActor>(Config, NextValue());
  };
}
