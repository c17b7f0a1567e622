//===- RotatingConsensus.cpp - ◇-synchronous consensus --------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/consensus/RotatingConsensus.h"

#include <algorithm>
#include <cassert>

using namespace dyndist;

void RotatingConsensusActor::onMessage(Context &Ctx, ProcessId From,
                                       const MessageBody &Body) {
  switch (Body.kind()) {
  case MsgRcStart:
    if (Started)
      return;
    Started = true;
    assert(!Config->Participants.empty() &&
           "participant set must be filled before starting");
    Ctx.observe(TraceKey::ConsensusPropose, Estimate);
    beginRound(Ctx);
    return;
  case MsgRcEstimate:
    handleEstimate(Ctx, bodyAs<RcEstimateMsg>(Body), From);
    return;
  case MsgRcPropose: {
    const auto &Msg = bodyAs<RcProposeMsg>(Body);
    if (Decided)
      return;
    if (Msg.Round < Round)
      return; // Stale proposal from a coordinator we timed out on.
    // Adopt (possibly jumping forward to the proposal's round).
    if (Msg.Round > Round) {
      Round = Msg.Round;
      Ctx.cancelTimer(RoundTimer);
      RoundTimer = Ctx.setTimer(Config->BaseTimeout +
                                Round * Config->TimeoutStep);
    }
    Estimate = Msg.Value;
    Ts = static_cast<int64_t>(Msg.Round);
    Ctx.send(coordinatorOf(Msg.Round), makeBody<RcAckMsg>(Msg.Round));
    return;
  }
  case MsgRcAck:
    handleAck(Ctx, bodyAs<RcAckMsg>(Body));
    return;
  case MsgRcDecide: {
    const auto &Msg = bodyAs<RcDecideMsg>(Body);
    decide(Ctx, Msg.Value);
    return;
  }
  default:
    assert(false && "rotating consensus actor received foreign message");
  }
}

void RotatingConsensusActor::beginRound(Context &Ctx) {
  if (Decided)
    return;
  ProcessId Coordinator = coordinatorOf(Round);
  Ctx.send(Coordinator,
           makeBody<RcEstimateMsg>(Round, Estimate, Ts));
  RoundTimer =
      Ctx.setTimer(Config->BaseTimeout + Round * Config->TimeoutStep);
}

void RotatingConsensusActor::handleEstimate(Context &Ctx,
                                            const RcEstimateMsg &Msg,
                                            ProcessId From) {
  if (Decided) {
    // Help laggards: a decided process answers estimates with the
    // decision instead of coordinating further rounds.
    Ctx.send(From, makeBody<RcDecideMsg>(*Decided));
    return;
  }
  assert(coordinatorOf(Msg.Round) == Ctx.self() &&
         "estimate routed to a non-coordinator");
  CoordinatorRound &R = Coord[Msg.Round];
  if (R.Proposed)
    return; // Majority already reached; the proposal is out.
  R.Estimates.push_back({Msg.Ts, Msg.Estimate});
  if (R.Estimates.size() < majority())
    return;
  if (Msg.Round < Round)
    return; // We already timed out past this round: proposing now could
            // regress our own (est, ts) lock. Liveness moves to the next
            // coordinator; safety stays intact.
  // Locking discipline: adopt the estimate carrying the largest ts.
  auto Best = std::max_element(R.Estimates.begin(), R.Estimates.end());
  R.Proposed = true;
  R.Proposal = Best->second;
  auto Proposal = makeBody<RcProposeMsg>(Msg.Round, R.Proposal);
  for (ProcessId P : Config->Participants)
    if (P != Ctx.self())
      Ctx.send(P, Proposal);
  // The coordinator adopts its own proposal directly (self-ACK).
  Estimate = R.Proposal;
  Ts = static_cast<int64_t>(Msg.Round);
  ++R.Acks;
  if (R.Acks >= majority() && !R.Decided) {
    R.Decided = true;
    auto Decision = makeBody<RcDecideMsg>(R.Proposal);
    for (ProcessId P : Config->Participants)
      if (P != Ctx.self())
        Ctx.send(P, Decision);
    decide(Ctx, R.Proposal);
  }
}

void RotatingConsensusActor::handleAck(Context &Ctx, const RcAckMsg &Msg) {
  if (Decided)
    return;
  auto It = Coord.find(Msg.Round);
  if (It == Coord.end() || !It->second.Proposed || It->second.Decided)
    return;
  CoordinatorRound &R = It->second;
  ++R.Acks;
  if (R.Acks < majority())
    return;
  R.Decided = true;
  auto Decision = makeBody<RcDecideMsg>(R.Proposal);
  for (ProcessId P : Config->Participants)
    if (P != Ctx.self())
      Ctx.send(P, Decision);
  decide(Ctx, R.Proposal);
}

void RotatingConsensusActor::decide(Context &Ctx, int64_t Value) {
  if (Decided)
    return;
  Decided = Value;
  Ctx.cancelTimer(RoundTimer);
  Ctx.observe(TraceKey::ConsensusDecide, Value);
}

void RotatingConsensusActor::onTimer(Context &Ctx, TimerId Id) {
  if (Decided || Id != RoundTimer)
    return;
  // The round stalled (coordinator crashed or too slow): move on.
  ++Round;
  beginRound(Ctx);
}

std::vector<ConsensusRecord>
dyndist::collectRotatingOutcome(const Trace &T) {
  std::map<ProcessId, ConsensusRecord> ByClient;
  for (const TraceRecord &E : T.records()) {
    if (E.observes(TraceKey::ConsensusPropose)) {
      ConsensusRecord &R = ByClient[E.subject()];
      R.Client = E.subject();
      R.Proposed = E.Value;
    } else if (E.observes(TraceKey::ConsensusDecide)) {
      ConsensusRecord &R = ByClient[E.subject()];
      R.Client = E.subject();
      R.Decided = true;
      R.Decision = E.Value;
    }
  }
  std::vector<ConsensusRecord> Out;
  for (auto &[P, R] : ByClient) {
    (void)P;
    Out.push_back(R);
  }
  return Out;
}
