//===- dyndist/sim/Actor.h - Simulated process interface --------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-side programming model of the simulator. An algorithm is an
/// Actor subclass; the kernel invokes its hooks with a Context through which
/// the actor can read the clock, learn its current neighbors (its only view
/// of the system, per the paper's locality dimension), send messages, and
/// arm timers.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_ACTOR_H
#define DYNDIST_SIM_ACTOR_H

#include "dyndist/sim/Message.h"
#include "dyndist/sim/TraceKeys.h"
#include "dyndist/sim/Types.h"
#include "dyndist/support/FunctionRef.h"
#include "dyndist/support/Random.h"

#include <cstddef>

namespace dyndist {

/// Capabilities handed to an actor while one of its hooks runs. A Context
/// is only valid for the duration of the hook invocation and holds no
/// protocol state: an actor keeps that in its own members.
class Context {
public:
  virtual ~Context();

  /// Current virtual time.
  virtual SimTime now() const = 0;

  /// The identity of the running actor.
  virtual ProcessId self() const = 0;

  /// Number of current overlay neighbors. Neighbors are the only
  /// membership information an actor ever gets: the geographical dimension
  /// of the paper ("each entity knows only a few other entities").
  virtual size_t neighborCount() const = 0;

  /// The \p I-th neighbor in ascending-id order (I < neighborCount()).
  virtual ProcessId neighborAt(size_t I) const = 0;

  /// Invokes \p F for each current neighbor in ascending-id order without
  /// materializing the list. \p F must not mutate membership or topology
  /// (no leaveSystem(), no churn) while iterating.
  virtual void forEachNeighbor(FunctionRef<void(ProcessId)> F) const = 0;

  /// Sends \p Body to \p To with model-sampled latency.
  virtual void send(ProcessId To, MessageRef Body) = 0;

  /// Arms a one-shot timer firing after \p Delay ticks; returns its id.
  virtual TimerId setTimer(SimTime Delay) = 0;

  /// Cancels a pending timer; ignores already-fired or unknown ids.
  virtual void cancelTimer(TimerId Id) = 0;

  /// Deterministic randomness for the algorithm (shared simulator stream;
  /// a private per-process stream in sharded runs).
  virtual Rng &rng() = 0;

  /// Records an algorithm output (e.g. the decided aggregate) in the trace
  /// under vocabulary key \p Key. The key's id is fixed (TraceKeys.h), so
  /// every hook, serial or lane-phase, records without touching the key
  /// table.
  virtual void observe(TraceKey Key, int64_t Value) = 0;

  /// Departs the system gracefully at the current instant; no further hooks
  /// run for this actor.
  virtual void leaveSystem() = 0;
};

/// A simulated process. Subclass and override the hooks of interest; all
/// defaults are no-ops. One Actor instance is owned by the simulator per
/// spawned process and lives until the run ends (even if the process
/// crashed, so post-run state inspection is possible).
///
/// Actor storage comes from the active BodyPool, the one a simulator
/// installs while it spawns or runs, so an arena's arrivals recycle the
/// previous run's actor blocks instead of calling the heap. Outside any
/// pool scope an actor lives on the plain heap; either way `delete` sends
/// the block home through the header PoolAllocated puts in front of it.
class Actor : public PoolAllocated {
public:
  virtual ~Actor();

  /// Runs once when the process joins the system.
  virtual void onStart(Context &Ctx);

  /// Runs on delivery of a message sent by \p From.
  virtual void onMessage(Context &Ctx, ProcessId From,
                         const MessageBody &Body);

  /// Runs when timer \p Id fires.
  virtual void onTimer(Context &Ctx, TimerId Id);

  /// Runs on graceful leave (not on crash: crashes are silent).
  virtual void onStop(Context &Ctx);
};

} // namespace dyndist

#endif // DYNDIST_SIM_ACTOR_H
