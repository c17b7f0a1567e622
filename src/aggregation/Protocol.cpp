//===- Protocol.cpp - Shared protocol parts ------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Protocol.h"

using namespace dyndist;

void AggregationActor::onStart(Context &Ctx) {
  Ctx.observe(TraceKey::OtqValue, Value);
}

void AggregationActor::reportResult(Context &Ctx, const Contributions &C,
                                    AggregateKind Kind) {
  for (const auto &[P, V] : C) {
    (void)V;
    Ctx.observe(TraceKey::OtqInclude, static_cast<int64_t>(P));
  }
  Ctx.observe(TraceKey::OtqResult, foldAggregate(Kind, C));
}

void dyndist::scheduleQueryStart(Simulator &S, SimTime When,
                                 ProcessId Issuer) {
  S.scheduleAt(When, [Issuer](Simulator &Sim) {
    if (!Sim.isUp(Issuer))
      return;
    Sim.injectStimulus(Issuer, makeBody<QueryStartMsg>());
  });
}
