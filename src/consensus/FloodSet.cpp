//===- FloodSet.cpp - Static-system consensus ----------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/consensus/FloodSet.h"

#include <cassert>

using namespace dyndist;

void FloodSetActor::onStart(Context &Ctx) {
  broadcast(Ctx);
  RoundTimer = Ctx.setTimer(Config->RoundLength);
}

void FloodSetActor::broadcast(Context &Ctx) {
  auto Msg = makeBody<FloodSetRoundMsg>(Round, Known);
  Ctx.forEachNeighbor([&](ProcessId N) { Ctx.send(N, Msg); });
}

void FloodSetActor::onMessage(Context &Ctx, ProcessId From,
                              const MessageBody &Body) {
  (void)Ctx;
  (void)From;
  assert(Body.kind() == MsgFloodSetRound &&
         "floodset actor received foreign message kind");
  const auto &Msg = bodyAs<FloodSetRoundMsg>(Body);
  Known.insert(Msg.Known.begin(), Msg.Known.end());
}

void FloodSetActor::onTimer(Context &Ctx, TimerId Id) {
  if (Id != RoundTimer || Decision)
    return;
  closeRound(Ctx);
}

void FloodSetActor::closeRound(Context &Ctx) {
  ++Round;
  if (Round <= Config->Faults + 1) {
    broadcast(Ctx);
    RoundTimer = Ctx.setTimer(Config->RoundLength);
    return;
  }
  assert(!Known.empty() && "a participant always knows its own value");
  Decision = *Known.begin(); // Decide the minimum.
  Ctx.observe(TraceKey::FloodSetDecide, *Decision);
}

std::function<std::unique_ptr<Actor>()>
dyndist::makeFloodSetFactory(std::shared_ptr<const FloodSetConfig> Config,
                             std::function<int64_t()> NextValue) {
  assert(Config && NextValue && "factory needs config and value source");
  return [Config, NextValue]() {
    return std::make_unique<FloodSetActor>(Config, NextValue());
  };
}

FloodSetOutcome dyndist::collectFloodSetOutcome(const Trace &T) {
  FloodSetOutcome Out;
  Out.Participants = T.presence().size();
  for (const TraceRecord &R : T.records()) {
    if (!R.observes(TraceKey::FloodSetDecide))
      continue;
    ++Out.Decided;
    Out.DistinctDecisions.insert(R.Value);
  }
  return Out;
}
