//===- Echo.cpp - PIF echo-wave query ------------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Echo.h"

#include <cassert>

using namespace dyndist;

void EchoActor::onMessage(Context &Ctx, ProcessId From,
                          const MessageBody &Body) {
  switch (Body.kind()) {
  case MsgQueryStart:
    startQuery(Ctx);
    return;
  case MsgEchoRequest:
    handleRequest(Ctx, From, bodyAs<EchoRequestMsg>(Body));
    return;
  case MsgEchoReply:
    handleReply(Ctx, bodyAs<EchoReplyMsg>(Body));
    return;
  default:
    assert(false && "echo actor received foreign message kind");
  }
}

void EchoActor::startQuery(Context &Ctx) {
  if (Issuing)
    return;
  Issuing = true;
  MyQueryId = (Ctx.self() << 20) ^ Ctx.now();
  Ctx.observe(TraceKey::OtqIssue, static_cast<int64_t>(Ctx.now()));
  engage(Ctx, MyQueryId, /*Parent=*/InvalidProcess, /*Issuer=*/Ctx.self());
}

void EchoActor::engage(Context &Ctx, uint64_t QueryId, ProcessId Parent,
                       ProcessId Issuer) {
  WaveState &W = Waves[QueryId];
  W.Parent = Parent;
  W.Accumulated[Ctx.self()] = Value;

  auto Req = makeBody<EchoRequestMsg>(QueryId, Issuer);
  Ctx.forEachNeighbor([&](ProcessId N) {
    if (N == Parent)
      return;
    Ctx.send(N, Req);
    ++W.Pending;
  });
  completeIfDone(Ctx, QueryId);
}

void EchoActor::handleRequest(Context &Ctx, ProcessId From,
                              const EchoRequestMsg &Req) {
  if (Waves.count(Req.QueryId)) {
    // Already in the wave: immediate null echo so the sender's pending
    // count converges.
    Ctx.send(From, makeBody<EchoReplyMsg>(Req.QueryId, Contributions()));
    return;
  }
  engage(Ctx, Req.QueryId, /*Parent=*/From, Req.Issuer);
}

void EchoActor::handleReply(Context &Ctx, const EchoReplyMsg &Reply) {
  auto It = Waves.find(Reply.QueryId);
  if (It == Waves.end())
    return; // Late echo for a wave we never joined (cannot happen absent
            // churn; harmless with it).
  WaveState &W = It->second;
  assert(W.Pending > 0 && "echo without a matching forwarded request");
  for (const auto &[P, V] : Reply.Contribs)
    W.Accumulated.emplace(P, V);
  --W.Pending;
  completeIfDone(Ctx, Reply.QueryId);
}

void EchoActor::completeIfDone(Context &Ctx, uint64_t QueryId) {
  WaveState &W = Waves[QueryId];
  if (W.Pending != 0)
    return;
  if (W.Parent != InvalidProcess) {
    Ctx.send(W.Parent, makeBody<EchoReplyMsg>(QueryId, W.Accumulated));
    return;
  }
  // Issuer (parent-less) side: wave complete.
  if (Issuing && QueryId == MyQueryId && !Reported) {
    Reported = true;
    reportResult(Ctx, W.Accumulated, Aggregate);
  }
}

std::function<std::unique_ptr<Actor>()>
dyndist::makeEchoFactory(std::function<int64_t()> NextValue,
                         AggregateKind Aggregate) {
  assert(NextValue && "factory needs a value source");
  return [NextValue, Aggregate]() {
    return std::make_unique<EchoActor>(NextValue(), Aggregate);
  };
}
