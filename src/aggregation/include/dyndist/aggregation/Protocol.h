//===- dyndist/aggregation/Protocol.h - Shared protocol parts ---*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vocabulary shared by the one-time-query algorithms: message-kind
/// registry, the query-start stimulus, the contributor set, and the common
/// actor base that declares its input value and reports results in the
/// format the OneTimeQuery checker consumes.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_AGGREGATION_PROTOCOL_H
#define DYNDIST_AGGREGATION_PROTOCOL_H

#include "dyndist/core/OneTimeQuery.h"
#include "dyndist/sim/Actor.h"
#include "dyndist/sim/Message.h"
#include "dyndist/sim/Simulator.h"

#include <cstdint>

namespace dyndist {

/// Message kinds of the aggregation protocol family. Disjoint ranges per
/// algorithm keep cross-protocol deliveries detectable.
enum AggregationMsgKind : int {
  MsgQueryStart = 1,   ///< External stimulus: issuer, start your query.
  MsgFloodRequest = 10,
  MsgFloodReply = 11,
  MsgEchoRequest = 20,
  MsgEchoReply = 21,
  MsgGossipPush = 30,
  MsgGossipPull = 31,
  MsgGossipDigest = 32,
  MsgGossipDelta = 33,
  MsgToken = 40,
};

/// Name of the additional observation key TraceKey::OtqIssue: the instant
/// the issuer began its query.
inline constexpr const char *OtqIssueKey = keyNameOf(TraceKey::OtqIssue);

/// Stimulus telling the receiving actor to act as the query issuer.
/// scheduleQueryStart() injects it with Simulator::injectStimulus(): it
/// arrives one tick later, is exempt from loss, and is not counted in
/// MessagesSent.
struct QueryStartMsg : MessageBody {
  static constexpr int KindId = MsgQueryStart;
  QueryStartMsg() : MessageBody(KindId) {}
};

/// Common base of the aggregation actors: owns the input value, declares
/// it on start, and renders reports in checker format. (The Contributions
/// map and AggregateKind monoids live in core/OneTimeQuery.h: they are
/// part of the problem specification, not of any one algorithm.)
class AggregationActor : public Actor {
public:
  explicit AggregationActor(int64_t Value) : Value(Value) {}

  /// This process's query input.
  int64_t value() const { return Value; }

  void onStart(Context &Ctx) override;

protected:
  /// Emits the checker-visible report: one include record per contributor
  /// and the aggregate folded under \p Kind.
  static void reportResult(Context &Ctx, const Contributions &C,
                           AggregateKind Kind = AggregateKind::Sum);

  int64_t Value;
};

/// Injects the query-start stimulus for \p Issuer at time \p When.
void scheduleQueryStart(Simulator &S, SimTime When, ProcessId Issuer);

} // namespace dyndist

#endif // DYNDIST_AGGREGATION_PROTOCOL_H
