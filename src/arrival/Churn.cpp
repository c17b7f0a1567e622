//===- Churn.cpp - Churn generation -------------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/arrival/Churn.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace dyndist;

/// All mutable driver state. Scheduled callbacks capture a weak_ptr to this
/// token, so a driver destroyed before the event queue drains leaves only
/// no-op callbacks behind.
struct ChurnDriver::State {
  ArrivalModel Model;
  ChurnParams Params;
  ActorFactory Factory;
  Rng R;
  uint64_t Arrivals = 0;
  uint64_t Suppressed = 0;

  /// Set right after construction; used to arm scheduled callbacks.
  std::weak_ptr<State> Self;

  SimTime sampleSession();
  void spawnOne(Simulator &Sim);
  void scheduleNextJoin(Simulator &Sim);
  void attemptJoin(Simulator &Sim);
};

ChurnDriver::ChurnDriver(ArrivalModel Model, ChurnParams Params,
                         ActorFactory Factory, Rng R)
    : S(std::make_shared<State>(
          State{Model, Params, std::move(Factory), R, 0, 0, {}})) {
  S->Self = S;
  assert(S->Factory && "churn driver needs an actor factory");
  assert(Params.MeanSession > 0.0 && "mean session must be positive");
}

void ChurnDriver::reset(ArrivalModel Model, ChurnParams Params, Rng R) {
  assert(Params.MeanSession > 0.0 && "mean session must be positive");
  S->Model = Model;
  S->Params = Params;
  S->R = R;
  S->Arrivals = 0;
  S->Suppressed = 0;
  // Factory and the Self token survive: callbacks armed by the *next*
  // start() capture the same token. The caller guarantees the previous
  // run's callbacks are gone (the simulator was reset).
}

void ChurnDriver::setFactory(ActorFactory F) {
  assert(F && "churn driver needs an actor factory");
  S->Factory = std::move(F);
}

std::unique_ptr<Actor> ChurnDriver::makeActor() const { return S->Factory(); }

uint64_t ChurnDriver::arrivals() const { return S->Arrivals; }

uint64_t ChurnDriver::suppressedJoins() const { return S->Suppressed; }

SimTime ChurnDriver::State::sampleSession() {
  double Ticks = 0.0;
  switch (Params.Dist) {
  case SessionDist::Exponential:
    Ticks = R.nextExponential(1.0 / Params.MeanSession);
    break;
  case SessionDist::Pareto: {
    // Choose Xm so the Pareto mean equals MeanSession when Alpha > 1;
    // otherwise fall back to Xm = MeanSession (mean is infinite anyway).
    double Alpha = Params.ParetoAlpha;
    double Xm = Alpha > 1.0 ? Params.MeanSession * (Alpha - 1.0) / Alpha
                            : Params.MeanSession;
    Ticks = R.nextPareto(Xm, Alpha);
    break;
  }
  }
  return std::max<SimTime>(1, static_cast<SimTime>(std::llround(Ticks)));
}

void ChurnDriver::State::spawnOne(Simulator &Sim) {
  // Inside the scope the factory's actor recycles a block of Sim's pool,
  // also for the initial population, which spawns outside run().
  BodyPool::Scope Pool = Sim.poolScope();
  ProcessId P = Sim.spawn(Factory());
  ++Arrivals;
  SimTime Session = sampleSession();
  SimTime DepartAt = Sim.now() + Session;
  // Draw the crash flag unconditionally: every spawn consumes the same
  // number of variates regardless of QuiesceAt, so configs differing only
  // in their quiescence point see identical RNG streams (paired-seed
  // comparability across E3/E4 sweeps).
  bool Crash = R.nextBernoulli(Params.CrashFraction);
  if (Params.QuiesceAt && DepartAt > *Params.QuiesceAt)
    return; // Quiesced: this process stays forever.
  Sim.scheduleAt(DepartAt, [P, Crash](Simulator &SimRef) {
    if (!SimRef.isUp(P))
      return;
    if (Crash)
      SimRef.crash(P);
    else
      SimRef.leave(P);
  });
}

void ChurnDriver::populateInitial(Simulator &Sim, size_t Count) {
  for (size_t I = 0; I != Count; ++I) {
    if (S->Model.Kind == ArrivalKind::BoundedConcurrency &&
        Sim.upCount() >= S->Model.ConcurrencyBound)
      break;
    if (S->Model.Kind == ArrivalKind::FiniteArrival &&
        S->Arrivals >= S->Model.TotalBound)
      break;
    S->spawnOne(Sim);
  }
}

void ChurnDriver::start(Simulator &Sim) {
  if (S->Params.JoinRate <= 0.0)
    return;
  S->scheduleNextJoin(Sim);
}

void ChurnDriver::State::scheduleNextJoin(Simulator &Sim) {
  double Gap = R.nextExponential(Params.JoinRate);
  SimTime Delay = std::max<SimTime>(1, static_cast<SimTime>(std::llround(Gap)));
  SimTime JoinAt = Sim.now() + Delay;
  SimTime JoinDeadline = Params.Horizon;
  if (Params.QuiesceAt)
    JoinDeadline = std::min(JoinDeadline, *Params.QuiesceAt);
  if (JoinAt > JoinDeadline)
    return; // Join process ends.
  std::weak_ptr<State> Weak = Self;
  Sim.scheduleAt(JoinAt, [Weak](Simulator &SimRef) {
    if (std::shared_ptr<State> Live = Weak.lock())
      Live->attemptJoin(SimRef);
  });
}

void ChurnDriver::State::attemptJoin(Simulator &Sim) {
  bool Blocked = false;
  if (Model.Kind == ArrivalKind::FiniteArrival && Arrivals >= Model.TotalBound)
    return; // Arrival budget exhausted: the join process dies out (M^n).
  if (Model.Kind == ArrivalKind::BoundedConcurrency &&
      Sim.upCount() >= Model.ConcurrencyBound) {
    ++Suppressed;
    Blocked = true;
  }
  if (!Blocked)
    spawnOne(Sim);
  scheduleNextJoin(Sim);
}
