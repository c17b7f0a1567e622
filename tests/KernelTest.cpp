//===- KernelTest.cpp - event-kernel regression tests -------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Regression tests for the kernel internals documented in docs/MODEL.md
// ("Kernel internals"): timer bookkeeping stays bounded, upCount() tracks
// the real up-set under churn, same-seed runs are byte-identical, the
// (Time, Seq) tie-break is FIFO, and trace levels filter recording without
// perturbing the schedule.
//
//===----------------------------------------------------------------------===//

#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/sim/Simulator.h"
#include "dyndist/sim/TraceIO.h"
#include "dyndist/support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

using namespace dyndist;

namespace {

struct NoteMsg : MessageBody {
  static constexpr int KindId = 910;
  explicit NoteMsg(int64_t Payload) : MessageBody(KindId), Payload(Payload) {}
  int64_t Payload;
};

/// Arms a batch of timers on start, cancels half of them, and also cancels
/// the first timer again *after* it has fired — the historical leak: the
/// seed kernel parked such ids in a CancelledTimers set forever.
class TimerJuggler : public Actor {
public:
  void onStart(Context &Ctx) override {
    for (SimTime D = 1; D <= 8; ++D)
      Armed.push_back(Ctx.setTimer(D));
    for (size_t I = 0; I < Armed.size(); I += 2)
      Ctx.cancelTimer(Armed[I]);
  }
  void onTimer(Context &Ctx, TimerId Id) override {
    ++Fired;
    // Cancelling an already-fired (or never-armed) timer must be a no-op,
    // not a bookkeeping entry that outlives the run.
    Ctx.cancelTimer(Id);
    Ctx.cancelTimer(Id + 1000000);
  }
  std::vector<TimerId> Armed;
  int Fired = 0;
};

/// Random gossiper used for the byte-identical determinism check: every
/// code path (timers, sends, RNG draws, cancellations) feeds the trace.
class RandomGossiper : public Actor {
public:
  explicit RandomGossiper(size_t Universe) : Universe(Universe) {}
  void onStart(Context &Ctx) override { Ctx.setTimer(1 + Ctx.rng().nextBelow(3)); }
  void onTimer(Context &Ctx, TimerId) override {
    if (++Rounds > 12)
      return;
    Ctx.send(static_cast<ProcessId>(Ctx.rng().nextBelow(Universe)),
             makeBody<NoteMsg>(static_cast<int64_t>(Rounds)));
    TimerId Decoy = Ctx.setTimer(50);
    Ctx.cancelTimer(Decoy);
    Ctx.setTimer(1 + Ctx.rng().nextBelow(3));
  }
  void onMessage(Context &Ctx, ProcessId, const MessageBody &) override {
    Ctx.observe(TraceKey::OtqInclude, static_cast<int64_t>(++Received));
  }
  size_t Universe;
  int Rounds = 0;
  int Received = 0;
};

/// Schedules tagged actions through the public Simulator::scheduleAt and
/// logs (time, push index) for every push and every execution. A nesting
/// action pushes three more when it runs: one into its own instant
/// (behind the bucket's head), one a few ticks ahead, one far ahead.
struct CalendarLog {
  Simulator &S;
  Rng R;
  std::vector<std::pair<SimTime, uint64_t>> Pushed, Ran;

  void push(SimTime T, bool Nest) {
    uint64_t Seq = Pushed.size();
    Pushed.emplace_back(T, Seq);
    S.scheduleAt(T, [this, T, Seq, Nest](Simulator &Sim) {
      EXPECT_EQ(Sim.now(), T);
      Ran.emplace_back(T, Seq);
      if (Nest) {
        push(T, false);
        push(T + 1 + R.nextBelow(8), false);
        push(T + (SimTime(1) << 36) + R.nextBelow(1 << 20), false);
      }
    });
  }

  /// \p N pushes at or after \p Base, mixing one-off far-future instants,
  /// same-instant bursts, and instants that are multiples of 2^4..2^16
  /// apart — the same residue modulo the calendar's 64 buckets.
  void pushBatch(SimTime Base, size_t N) {
    while (N) {
      bool Nest = R.nextBelow(8) == 0;
      switch (R.nextBelow(3)) {
      case 0:
        push(Base + 1 + R.nextBelow(SimTime(1) << 40), Nest);
        --N;
        break;
      case 1: {
        SimTime T = Base + R.nextBelow(64);
        for (size_t Burst = 1 + R.nextBelow(16); Burst && N; --Burst, --N)
          push(T, Nest);
        break;
      }
      default:
        push(Base + ((1 + R.nextBelow(64)) << (4 + R.nextBelow(13))), Nest);
        --N;
        break;
      }
    }
  }

  /// Everything pushed, stably sorted by time: the execution order the
  /// (time, push order) contract promises.
  std::vector<std::pair<SimTime, uint64_t>> expected() const {
    std::vector<std::pair<SimTime, uint64_t>> E = Pushed;
    std::stable_sort(E.begin(), E.end(), [](const auto &A, const auto &B) {
      return A.first < B.first;
    });
    return E;
  }
};

} // namespace

TEST(Kernel, TimerBookkeepingFullyDrained) {
  Simulator S(3);
  auto Owned = std::make_unique<TimerJuggler>();
  TimerJuggler *J = Owned.get();
  S.spawn(std::move(Owned));
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);
  // 8 armed, 4 cancelled before firing.
  EXPECT_EQ(J->Fired, 4);
  // The leak regression: no timer id may survive the run — neither the
  // cancelled ones nor ids cancelled after they already fired.
  EXPECT_EQ(S.pendingTimers(), 0u);
}

TEST(Kernel, CancelAfterCrashLeavesNoBookkeeping) {
  Simulator S(4);
  auto Owned = std::make_unique<TimerJuggler>();
  ProcessId P = S.spawn(std::move(Owned));
  // Crash mid-flight: timers still in the queue pop against a dead process
  // and must still release their bookkeeping entries.
  S.scheduleAt(3, [P](Simulator &Sim) { Sim.crash(P); });
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);
  EXPECT_EQ(S.pendingTimers(), 0u);
}

TEST(Kernel, UpCountTracksUpProcessesUnderChurn) {
  Simulator S(7);
  auto Check = [&S] {
    const std::vector<ProcessId> &Up = S.upSet();
    EXPECT_EQ(S.upCount(), Up.size());
    for (ProcessId P : Up)
      EXPECT_TRUE(S.isUp(P));
  };
  std::vector<ProcessId> Pids;
  for (int I = 0; I != 20; ++I)
    Pids.push_back(S.spawn(std::make_unique<Actor>()));
  Check();
  EXPECT_EQ(S.upCount(), 20u);

  // Interleave crashes, leaves, and respawns on a schedule.
  for (int I = 0; I != 10; ++I) {
    SimTime T = 1 + static_cast<SimTime>(I);
    ProcessId Victim = Pids[static_cast<size_t>(I)];
    S.scheduleAt(T, [Victim, I](Simulator &Sim) {
      if (I % 2)
        Sim.leave(Victim);
      else
        Sim.crash(Victim);
      if (I % 3 == 0)
        Sim.spawn(std::make_unique<Actor>());
    });
  }
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);
  Check();
  // 20 spawned + 4 respawns - 10 removed.
  EXPECT_EQ(S.upCount(), 14u);
  // Double-down is idempotent for the count.
  S.crash(Pids[0]);
  Check();
  EXPECT_EQ(S.upCount(), 14u);
}

TEST(Kernel, SameSeedRunsAreByteIdentical) {
  auto RunOnce = [](uint64_t Seed, std::string &TraceOut, SimStats &StatsOut) {
    Simulator S(Seed);
    for (int I = 0; I != 16; ++I)
      S.spawn(std::make_unique<RandomGossiper>(16));
    RunLimits L;
    L.MaxTime = 200;
    EXPECT_EQ(S.run(L), StopReason::QueueExhausted);
    TraceOut = traceToJsonLines(S.trace());
    StatsOut = S.stats();
  };
  std::string TraceA, TraceB, TraceC;
  SimStats StatsA, StatsB, StatsC;
  RunOnce(42, TraceA, StatsA);
  RunOnce(42, TraceB, StatsB);
  RunOnce(43, TraceC, StatsC);

  // Same seed: byte-identical serialized trace and identical stats.
  EXPECT_EQ(TraceA, TraceB);
  EXPECT_TRUE(StatsA == StatsB);
  EXPECT_GT(StatsA.MessagesSent, 0u);
  // Different seed: genuinely different execution (guards against the
  // comparison trivially passing on empty traces).
  EXPECT_NE(TraceA, TraceC);
}

TEST(Kernel, SameTimeEventsKeepScheduleOrder) {
  // The ordering contract: ties in Time break by sequence number, i.e.
  // FIFO in scheduling order — regardless of heap internals.
  Simulator S(1);
  std::vector<int> Order;
  for (int I = 0; I != 32; ++I)
    S.scheduleAt(5, [&Order, I](Simulator &) { Order.push_back(I); });
  EXPECT_EQ(S.run(), StopReason::QueueExhausted);
  ASSERT_EQ(Order.size(), 32u);
  for (int I = 0; I != 32; ++I)
    EXPECT_EQ(Order[static_cast<size_t>(I)], I);
}

// Randomized order check of the calendar through the public API: several
// thousand distinct pending instants (most far past the 64-instant window,
// so spills take them from the far list and the heap behind it), bursts,
// power-of-two-spaced instants, pushes made while
// running, and reuse after a reset that left events pending. Execution
// must follow a stable sort by (time, push order), and a reset must drop
// every pending event.
TEST(Kernel, CalendarOrderMatchesStableSortUnderRandomSchedules) {
  for (uint64_t Seed : {1u, 2u, 3u}) {
    Simulator S(Seed);
    auto Log = std::make_unique<CalendarLog>(CalendarLog{S, Rng(Seed), {}, {}});
    Log->pushBatch(0, 6000);
    EXPECT_EQ(S.run(), StopReason::QueueExhausted);
    EXPECT_EQ(Log->Ran, Log->expected()) << "seed " << Seed;

    for (int Round = 0; Round != 3; ++Round) {
      S.reset(Seed + 10 * Round);
      Log = std::make_unique<CalendarLog>(
          CalendarLog{S, Rng(Seed * 100 + Round), {}, {}});
      Log->pushBatch(0, 3000);
      // Stop halfway through the instants; the rest stay pending. Every
      // event at or before the cut ran — nested pushes included — in
      // contract order, and nothing after it.
      const SimTime Cut = Log->expected()[Log->Pushed.size() / 2].first;
      EXPECT_EQ(S.run(RunLimits{Cut, 50'000'000}), StopReason::TimeLimit);
      std::vector<std::pair<SimTime, uint64_t>> Due = Log->expected();
      Due.erase(std::find_if(Due.begin(), Due.end(),
                             [Cut](const auto &E) { return E.first > Cut; }),
                Due.end());
      EXPECT_EQ(Log->Ran, Due) << "seed " << Seed << " round " << Round;
      EXPECT_LT(Due.size(), Log->Pushed.size());
    }

    // Reuse after a reset with events still pending: none of them runs,
    // and the fresh schedule keeps the contract.
    S.reset(Seed);
    Log = std::make_unique<CalendarLog>(CalendarLog{S, Rng(Seed + 7), {}, {}});
    Log->pushBatch(0, 6000);
    EXPECT_EQ(S.run(), StopReason::QueueExhausted);
    EXPECT_EQ(Log->Ran, Log->expected()) << "seed " << Seed << " reused";
  }
}

namespace {

/// Message latency of the far-tier test: past the calendar's 64-instant
/// window, so a send from an instant inside the window lands beyond it.
constexpr SimTime FarLatency = 100;

/// CalendarLog's (time, push order) bookkeeping over all three event
/// kinds: actions, deliveries to one sink process, and the sink's timers.
/// An action may nest pushes (into its own instant, a few ticks ahead,
/// across the window, and far ahead) and may send a note that lands
/// FarLatency ticks later; every third note the sink receives arms a timer
/// past the window.
struct FarLog {
  Simulator &S;
  Rng R;
  ProcessId Sink = 0;
  std::vector<std::pair<SimTime, uint64_t>> Pushed, Ran;
  std::map<TimerId, uint64_t> TimerSeq;

  void push(SimTime T, bool Nest, bool Send) {
    uint64_t Seq = Pushed.size();
    Pushed.emplace_back(T, Seq);
    S.scheduleAt(T, [this, T, Seq, Nest, Send](Simulator &Sim) {
      EXPECT_EQ(Sim.now(), T);
      Ran.emplace_back(T, Seq);
      if (Send) {
        uint64_t Note = Pushed.size();
        Pushed.emplace_back(T + FarLatency, Note);
        Sim.sendMessage(Sink, Sink,
                        makeBody<NoteMsg>(static_cast<int64_t>(Note)));
      }
      if (Nest) {
        push(T, false, false);
        push(T + 1 + R.nextBelow(8), false, R.nextBelow(2) == 0);
        push(T + 60 + R.nextBelow(10), false, false);
        push(T + (SimTime(1) << 36) + R.nextBelow(1 << 20), false, false);
      }
    });
  }

  /// \p N pushes from \p Base: a spread across a few windows, clusters
  /// straddling the 64-tick window edge, bursts into one instant, and
  /// one-off instants far ahead.
  void pushBatch(SimTime Base, size_t N) {
    while (N) {
      bool Nest = R.nextBelow(6) == 0;
      bool Send = R.nextBelow(3) == 0;
      switch (R.nextBelow(4)) {
      case 0:
        push(Base + R.nextBelow(256), Nest, Send);
        --N;
        break;
      case 1:
        push(Base + 62 + R.nextBelow(4), Nest, Send);
        --N;
        break;
      case 2: {
        SimTime T = Base + R.nextBelow(1024);
        for (size_t Burst = 1 + R.nextBelow(12); Burst && N; --Burst, --N)
          push(T, Nest, Send);
        break;
      }
      default:
        push(Base + 1 + R.nextBelow(SimTime(1) << 40), Nest, Send);
        --N;
        break;
      }
    }
  }

  std::vector<std::pair<SimTime, uint64_t>> expected() const {
    std::vector<std::pair<SimTime, uint64_t>> E = Pushed;
    std::stable_sort(E.begin(), E.end(), [](const auto &A, const auto &B) {
      return A.first < B.first;
    });
    return E;
  }

  /// expected() cut after every event at or before \p Cut.
  std::vector<std::pair<SimTime, uint64_t>> dueBy(SimTime Cut) const {
    std::vector<std::pair<SimTime, uint64_t>> Due = expected();
    Due.erase(std::find_if(Due.begin(), Due.end(),
                           [Cut](const auto &E) { return E.first > Cut; }),
              Due.end());
    return Due;
  }
};

class FarTierSink : public Actor {
public:
  explicit FarTierSink(FarLog &Log) : Log(Log) {}
  void onMessage(Context &Ctx, ProcessId, const MessageBody &Body) override {
    const auto Note = static_cast<uint64_t>(bodyAs<NoteMsg>(Body).Payload);
    Log.Ran.emplace_back(Ctx.now(), Note);
    if (Note % 3 != 0)
      return;
    const SimTime Delay = 65 + Log.R.nextBelow(200);
    const uint64_t Seq = Log.Pushed.size();
    Log.Pushed.emplace_back(Ctx.now() + Delay, Seq);
    Log.TimerSeq[Ctx.setTimer(Delay)] = Seq;
  }
  void onTimer(Context &Ctx, TimerId Id) override {
    Log.Ran.emplace_back(Ctx.now(), Log.TimerSeq.at(Id));
  }

private:
  FarLog &Log;
};

/// A fresh FarLog over \p S with its sink spawned.
std::unique_ptr<FarLog> startFarLog(Simulator &S, uint64_t Seed) {
  auto Log = std::make_unique<FarLog>(FarLog{S, Rng(Seed), 0, {}, {}, {}});
  Log->Sink = S.spawn(std::make_unique<FarTierSink>(*Log));
  return Log;
}

/// Blocks still out of \p S's body pool.
uint64_t liveBodies(Simulator &S) {
  BodyPool::Scope Pool = S.poolScope();
  return BodyPool::active()->outstanding();
}

} // namespace

// The calendar's far tier against a stable sort on time: pushes below, at
// and past the boundary, nested pushes from spilled events into their own
// instant, deliveries and timers that land past the window, a time-limit
// stop with only far events pending and its resumption, and a reset with
// far deliveries pending, whose payloads must all return to the pool.
TEST(Kernel, FarTierMatchesStableSortAcrossStopsAndResets) {
  for (uint64_t Seed : {4u, 5u, 6u}) {
    Simulator S(Seed);
    S.setLatencyModel(std::make_unique<FixedLatency>(FarLatency));
    auto Log = startFarLog(S, Seed);
    Log->pushBatch(0, 3000);

    // Stop at a cut inside the window traffic, then at one inside the far
    // one-offs; each resumption keeps the order.
    const SimTime Near = Log->expected()[Log->Pushed.size() / 4].first;
    EXPECT_EQ(S.run(RunLimits{Near, 50'000'000}), StopReason::TimeLimit);
    EXPECT_EQ(Log->Ran, Log->dueBy(Near)) << "seed " << Seed;
    const SimTime Far = Log->expected()[Log->Pushed.size() * 3 / 4].first;
    EXPECT_EQ(S.run(RunLimits{Far, 50'000'000}), StopReason::TimeLimit);
    EXPECT_EQ(Log->Ran, Log->dueBy(Far)) << "seed " << Seed;
    EXPECT_EQ(S.run(), StopReason::QueueExhausted);
    EXPECT_EQ(Log->Ran, Log->expected()) << "seed " << Seed;
    EXPECT_EQ(S.pendingTimers(), 0u);

    // Only far events pending: a stop before all of them runs nothing,
    // and the resumed run keeps the order.
    S.reset(Seed);
    Log = startFarLog(S, Seed + 100);
    Log->pushBatch(1000, 500);
    EXPECT_EQ(S.run(RunLimits{500, 50'000'000}), StopReason::TimeLimit);
    EXPECT_TRUE(Log->Ran.empty()) << "seed " << Seed;
    EXPECT_EQ(S.run(), StopReason::QueueExhausted);
    EXPECT_EQ(Log->Ran, Log->expected()) << "seed " << Seed << " far only";

    // Stops exactly at the window's edges: after a reset the window is
    // [0, 63], and it reopens at the clock once the ring is empty, as
    // [64, 127] and then [128, 191], so these instants sit just below, at
    // and just past an edge both times.
    S.reset(Seed);
    Log = startFarLog(S, Seed + 150);
    for (SimTime T : {62u, 63u, 64u, 65u, 127u, 128u, 129u})
      Log->push(T, T % 2 == 0, false);
    for (SimTime Cut : {64u, 128u}) {
      EXPECT_EQ(S.run(RunLimits{Cut, 50'000'000}), StopReason::TimeLimit);
      EXPECT_EQ(Log->Ran, Log->dueBy(Cut)) << "seed " << Seed << " cut " << Cut;
    }
    EXPECT_EQ(S.run(), StopReason::QueueExhausted);
    EXPECT_EQ(Log->Ran, Log->expected()) << "seed " << Seed << " at B";

    // Reset with deliveries in flight past the window: sends from the
    // first instants land FarLatency ticks later, after the stop.
    S.reset(Seed);
    Log = startFarLog(S, Seed + 200);
    for (SimTime T = 0; T != 40; ++T)
      Log->push(T, false, true);
    EXPECT_EQ(S.run(RunLimits{60, 50'000'000}), StopReason::TimeLimit);
    EXPECT_EQ(Log->Ran, Log->dueBy(60));
    EXPECT_GT(liveBodies(S), 0u);
    S.reset(Seed);
    EXPECT_EQ(liveBodies(S), 0u) << "seed " << Seed;

    // The queue is reusable after that reset.
    Log = startFarLog(S, Seed + 300);
    Log->pushBatch(0, 2000);
    EXPECT_EQ(S.run(), StopReason::QueueExhausted);
    EXPECT_EQ(Log->Ran, Log->expected()) << "seed " << Seed << " reused";
    EXPECT_EQ(liveBodies(S), 0u);
  }
}

namespace {

/// Arms one timer that fires at the last instant, ~SimTime(0).
class LastInstantTimer : public Actor {
public:
  explicit LastInstantTimer(std::string &Ran) : Ran(Ran) {}
  void onStart(Context &Ctx) override { Ctx.setTimer(~SimTime(0) - Ctx.now()); }
  void onTimer(Context &, TimerId) override { Ran += 't'; }

private:
  std::string &Ran;
};

} // namespace

// The last instant is an instant like any other, on both engines: an
// action there (and one it pushes into its own instant) and a lane timer
// there all run, a time limit just below it stops short of them, and the
// run then ends on empty queues with the clock at that instant.
TEST(Kernel, EventAtTheLastInstantRuns) {
  constexpr SimTime Last = ~SimTime(0);
  for (unsigned Shards : {0u, 1u}) {
    Simulator S(3);
    if (Shards > 0)
      S.setShards(Shards);
    std::string Ran;
    S.spawn(std::make_unique<LastInstantTimer>(Ran));
    S.scheduleAt(Last - 1, [&Ran](Simulator &) { Ran += 'a'; });
    S.scheduleAt(Last, [&Ran](Simulator &Sim) {
      Ran += 'b';
      Sim.scheduleAt(Sim.now(), [&Ran](Simulator &) { Ran += 'c'; });
    });
    EXPECT_EQ(S.run(RunLimits{Last - 1, 50'000'000}), StopReason::TimeLimit);
    EXPECT_EQ(Ran, "a") << "shards " << Shards;
    EXPECT_EQ(S.run(), StopReason::QueueExhausted);
    EXPECT_EQ(S.now(), Last) << "shards " << Shards;
    std::sort(Ran.begin() + 1, Ran.end()); // Lane timers run after actions.
    EXPECT_EQ(Ran, "abct") << "shards " << Shards;
  }
}

// Far events pushed at one instant run in push order even when a spill
// split them between the far list and the heap behind it. A and ~100
// events spread past 10^5 wait far; the action at 70 opens a window that
// moves only itself, fewer than 1/8 of the list, so the rest, A included,
// goes to the heap; C, pushed at A's instant when that action runs, joins
// the emptied list. A was pushed first and must run first.
TEST(Kernel, FarHeapRunsBeforeFarListAtOneInstant) {
  Simulator S(5);
  std::string Ran;
  S.scheduleAt(5000, [&Ran](Simulator &) { Ran += 'A'; });
  for (SimTime I = 0; I != 100; ++I)
    S.scheduleAt(100'000 + 997 * I, [](Simulator &) {});
  S.scheduleAt(70, [&Ran](Simulator &Sim) {
    Ran += 'x';
    Sim.scheduleAt(5000, [&Ran](Simulator &) { Ran += 'C'; });
  });
  EXPECT_EQ(S.run(RunLimits{10'000, 50'000'000}), StopReason::TimeLimit);
  EXPECT_EQ(Ran, "xAC");
}

TEST(Kernel, TraceLevelsFilterRecordingOnly) {
  KernelLoadConfig Cfg;
  Cfg.Processes = 64;
  Cfg.Horizon = 200;
  Cfg.GossipEvery = 3;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 20;

  KernelLoadResult Off = runKernelLoad(Cfg, TraceLevel::Off);
  KernelLoadResult Lifecycle = runKernelLoad(Cfg, TraceLevel::Lifecycle);
  KernelLoadResult Full = runKernelLoad(Cfg, TraceLevel::Full);

  // Recording is the only difference: the schedule, and therefore the
  // stats, are identical at every level.
  EXPECT_TRUE(Off.Stats == Lifecycle.Stats);
  EXPECT_TRUE(Off.Stats == Full.Stats);
  EXPECT_GT(Full.Stats.EventsExecuted, 0u);

  EXPECT_EQ(Off.TraceRecords, 0u);
  EXPECT_GT(Lifecycle.TraceRecords, 0u);
  EXPECT_GT(Full.TraceRecords, Lifecycle.TraceRecords);

  // The run stops at the horizon, so live actors legitimately hold one
  // in-flight gossip timer each — but bookkeeping must stay proportional
  // to those, not to the tens of thousands of timers fired and cancelled
  // over the run (the seed kernel's cancelled-set grew monotonically).
  EXPECT_LT(Off.PendingTimers, 4u * Cfg.Processes);
}

TEST(Kernel, LifecycleLevelKeepsPresenceDropsMessages) {
  struct Counts {
    size_t Join = 0, Crash = 0, Observe = 0, Send = 0, Deliver = 0, Drop = 0;
    size_t Total = 0;
  };
  auto Run = [](TraceLevel Level) {
    Simulator S(9);
    S.setTraceLevel(Level);
    ProcessId A = S.spawn(std::make_unique<RandomGossiper>(2));
    S.spawn(std::make_unique<RandomGossiper>(2));
    RunLimits L;
    L.MaxTime = 100;
    S.run(L);
    S.crash(A);
    Counts C;
    C.Join = S.trace().countKind(TraceKind::Join);
    C.Crash = S.trace().countKind(TraceKind::Crash);
    C.Observe = S.trace().countKind(TraceKind::Observe);
    C.Send = S.trace().countKind(TraceKind::Send);
    C.Deliver = S.trace().countKind(TraceKind::Deliver);
    C.Drop = S.trace().countKind(TraceKind::Drop);
    C.Total = S.trace().records().size();
    return C;
  };
  Counts Full = Run(TraceLevel::Full);
  Counts Life = Run(TraceLevel::Lifecycle);
  Counts Off = Run(TraceLevel::Off);

  // Lifecycle keeps joins/crashes and observations...
  EXPECT_EQ(Life.Join, 2u);
  EXPECT_EQ(Life.Crash, 1u);
  EXPECT_EQ(Life.Observe, Full.Observe);
  // ...but records none of the per-message traffic Full sees.
  EXPECT_GT(Full.Send, 0u);
  EXPECT_EQ(Life.Send, 0u);
  EXPECT_EQ(Life.Deliver, 0u);
  EXPECT_EQ(Life.Drop, 0u);
  EXPECT_EQ(Off.Total, 0u);
}
