//===- MessagePoolTest.cpp - Pooled payloads + SBO callables ---------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Tests for the allocation-free messaging layer: the BodyPool slab
// recycler behind makeBody(), the intrusive MessageRef handle, the
// InlineFunction SBO callable used by the scheduling surface, and the
// golden-digest determinism pin that proves the calendar queue executes
// the exact same schedule as the per-event heap it replaced.
//
//===----------------------------------------------------------------------===//

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/sim/BodyPool.h"
#include "dyndist/sim/Simulator.h"
#include "dyndist/sim/TraceIO.h"
#include "dyndist/support/InlineFunction.h"
#include "dyndist/support/Random.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

using namespace dyndist;

namespace {

/// Small payload: one value, one bucket.
struct SmallValueMsg : MessageBody {
  static constexpr int KindId = 950;
  explicit SmallValueMsg(uint64_t V) : MessageBody(KindId), V(V) {}
  uint64_t V;
};

/// Medium payload: lands in a different pool bucket than SmallValueMsg.
struct MediumValueMsg : MessageBody {
  static constexpr int KindId = 951;
  explicit MediumValueMsg(uint64_t V) : MessageBody(KindId) { Slice[0] = V; }
  std::array<uint64_t, 10> Slice = {};
};

/// Oversized payload: beyond BodyPool::MaxPooledBytes, always plain heap.
struct HugeValueMsg : MessageBody {
  static constexpr int KindId = 952;
  explicit HugeValueMsg(uint64_t V) : MessageBody(KindId) { Block[0] = V; }
  std::array<uint64_t, 80> Block = {};
};

/// Payload with a non-default weight, for the PayloadUnits accounting pin.
struct WeightedMsg : MessageBody {
  static constexpr int KindId = 953;
  WeightedMsg() : MessageBody(KindId) {}
  size_t weight() const override { return 3; }
};

/// Reads the value out of any of the three value-carrying shapes.
uint64_t valueOf(const MessageBody &Body) {
  switch (Body.kind()) {
  case SmallValueMsg::KindId:
    return bodyAs<SmallValueMsg>(Body).V;
  case MediumValueMsg::KindId:
    return bodyAs<MediumValueMsg>(Body).Slice[0];
  default:
    return bodyAs<HugeValueMsg>(Body).Block[0];
  }
}

/// Actor that ignores everything (default hooks).
struct NullActor : Actor {};

/// Actor that re-sends a fresh small body to a fixed peer every tick —
/// the steady-state shape whose allocations the pool must absorb.
class TickSender : public Actor {
public:
  explicit TickSender(ProcessId Peer) : Peer(Peer) {}
  void onStart(Context &Ctx) override { Ctx.setTimer(1); }
  void onTimer(Context &Ctx, TimerId) override {
    Ctx.send(Peer, makeBody<SmallValueMsg>(Ctx.now()));
    Ctx.send(Peer, makeBody<MediumValueMsg>(Ctx.now()));
    Ctx.setTimer(1);
  }

private:
  ProcessId Peer;
};

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

} // namespace

//===----------------------------------------------------------------------===//
// BodyPool
//===----------------------------------------------------------------------===//

// Property test: a randomized create/read/drop churn over pooled bodies,
// mirrored step-for-step by plain-heap bodies (made outside any pool
// scope) and a shadow vector of expected values. Every read must agree
// across all three, and after warm-up the pool must serve >90% of
// allocations from its free lists.
TEST(BodyPool, RecyclingChurnMatchesPlainHeapModel) {
  BodyPool Pool;
  Rng R(1234);
  std::vector<MessageRef> Pooled, Plain;
  std::vector<uint64_t> Shadow;

  for (int Step = 0; Step != 20000; ++Step) {
    // Slight create bias up to a population cap, so the run reaches a
    // steady state where recycling (not fresh slabs) serves allocations.
    bool Create =
        Pooled.empty() || (Pooled.size() < 400 && R.nextBelow(100) < 55);
    if (Create) {
      uint64_t V = R.nextBelow(1'000'000);
      bool Medium = R.nextBelow(2) == 0;
      MessageRef P, H;
      {
        BodyPool::Scope Scope(&Pool);
        P = Medium ? makeBody<MediumValueMsg>(V) : makeBody<SmallValueMsg>(V);
      }
      H = Medium ? makeBody<MediumValueMsg>(V) : makeBody<SmallValueMsg>(V);
      ASSERT_EQ(P->pool(), &Pool);
      ASSERT_EQ(H->pool(), nullptr);
      Pooled.push_back(std::move(P));
      Plain.push_back(std::move(H));
      Shadow.push_back(V);
    } else {
      size_t I = R.nextBelow(Pooled.size());
      ASSERT_EQ(valueOf(*Pooled[I]), Shadow[I]);
      ASSERT_EQ(valueOf(*Plain[I]), Shadow[I]);
      Pooled[I] = std::move(Pooled.back());
      Pooled.pop_back();
      Plain[I] = std::move(Plain.back());
      Plain.pop_back();
      Shadow[I] = Shadow.back();
      Shadow.pop_back();
    }
  }

  EXPECT_EQ(Pool.outstanding(), Pooled.size());
  uint64_t Total = Pool.hits() + Pool.misses();
  ASSERT_GT(Total, 0u);
  EXPECT_GT(double(Pool.hits()) / double(Total), 0.9);

  // Everything still reads back correctly after the churn.
  for (size_t I = 0; I != Pooled.size(); ++I)
    EXPECT_EQ(valueOf(*Pooled[I]), Shadow[I]);
  Pooled.clear();
  EXPECT_EQ(Pool.outstanding(), 0u);
}

TEST(BodyPool, FreedBlockIsReusedLifo) {
  BodyPool Pool;
  BodyPool::Scope Scope(&Pool);
  const void *FirstAddr;
  {
    MessageRef M = makeBody<SmallValueMsg>(7);
    FirstAddr = M.get();
  }
  MessageRef N = makeBody<SmallValueMsg>(8);
  EXPECT_EQ(static_cast<const void *>(N.get()), FirstAddr);
  EXPECT_EQ(Pool.hits(), 1u);
  EXPECT_EQ(Pool.misses(), 1u);
}

TEST(BodyPool, RecycledBlocksArePoisonedUnderAsan) {
#ifndef DYNDIST_POOL_ASAN
  GTEST_SKIP() << "the pool poisons blocks only under AddressSanitizer";
#else
  BodyPool Pool;
  BodyPool::Scope Scope(&Pool);
  const void *Body;
  {
    MessageRef M = makeBody<SmallValueMsg>(7);
    Body = M.get();
    EXPECT_FALSE(__asan_address_is_poisoned(Body));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(Body));
  MessageRef N = makeBody<SmallValueMsg>(8);
  EXPECT_EQ(static_cast<const void *>(N.get()), Body);
  EXPECT_FALSE(__asan_address_is_poisoned(Body));

  // Actor blocks too: the object and the pool header in front of it. The
  // address crosses the delete as a volatile integer, so the compiler
  // cannot trace the queries back to the freed pointer and read them as
  // uses after free (-Wuse-after-free).
  struct IdleActor : Actor {};
  auto A = std::make_unique<IdleActor>();
  const volatile uintptr_t Obj = reinterpret_cast<uintptr_t>(A.get());
  A.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(reinterpret_cast<void *>(Obj)));
  EXPECT_TRUE(__asan_address_is_poisoned(reinterpret_cast<void *>(Obj - 1)));
#endif
}

TEST(BodyPool, OversizedPayloadsBypassThePool) {
  static_assert(sizeof(HugeValueMsg) > BodyPool::MaxPooledBytes,
                "test payload must exceed the pooling cutoff");
  BodyPool Pool;
  BodyPool::Scope Scope(&Pool);
  MessageRef M = makeBody<HugeValueMsg>(3);
  EXPECT_EQ(M->pool(), nullptr);
  EXPECT_EQ(Pool.hits() + Pool.misses(), 0u);
  EXPECT_EQ(Pool.outstanding(), 0u);
  EXPECT_EQ(valueOf(*M), 3u);
}

TEST(BodyPool, ScopesNestAndRestore) {
  BodyPool Outer, Inner;
  EXPECT_EQ(BodyPool::active(), nullptr);
  {
    BodyPool::Scope S1(&Outer);
    EXPECT_EQ(BodyPool::active(), &Outer);
    {
      BodyPool::Scope S2(&Inner);
      EXPECT_EQ(BodyPool::active(), &Inner);
    }
    EXPECT_EQ(BodyPool::active(), &Outer);
  }
  EXPECT_EQ(BodyPool::active(), nullptr);
}

TEST(MessageRef, BroadcastSharesOneBody) {
  MessageRef A = makeBody<SmallValueMsg>(5);
  EXPECT_EQ(A->refCount(), 1u);
  MessageRef B = A;
  EXPECT_EQ(A->refCount(), 2u);
  EXPECT_EQ(A.get(), B.get());
  B = nullptr;
  EXPECT_EQ(A->refCount(), 1u);
}

// End-to-end: a simulator under steady messaging load keeps >90% pool
// hits and never spills a scheduled callable to the heap — the observable
// form of the allocation-free claim.
TEST(Simulator, SteadyStateMessagingHitsThePool) {
  Simulator S(3);
  S.setTraceLevel(TraceLevel::Off);
  std::vector<ProcessId> Ids;
  for (int I = 0; I != 8; ++I)
    Ids.push_back(S.spawn(std::make_unique<NullActor>()));
  for (int I = 0; I != 8; ++I)
    S.spawn(std::make_unique<TickSender>(Ids[size_t(I)]));
  RunLimits L;
  L.MaxTime = 200;
  S.run(L);
  const SimStats &St = S.stats();
  uint64_t Total = St.BodyPoolHits + St.BodyPoolMisses;
  ASSERT_GT(Total, 0u);
  EXPECT_GT(double(St.BodyPoolHits) / double(Total), 0.9);
  EXPECT_EQ(St.InlineFnHeapFallbacks, 0u);
}

//===----------------------------------------------------------------------===//
// InlineFunction
//===----------------------------------------------------------------------===//

TEST(InlineFunction, SmallCapturesStayInline) {
  uint64_t A = 1, B = 2;
  uint64_t *Ptr = &A;
  InlineFunction<uint64_t()> F([=] { return A + B + *Ptr; });
  EXPECT_FALSE(F.usesHeap());
  EXPECT_EQ(F(), 4u);
}

TEST(InlineFunction, OversizedCapturesFallBackToHeap) {
  std::array<uint64_t, 16> Big = {};
  Big[0] = 9;
  static_assert(sizeof(Big) > InlineFunctionBuffer,
                "capture must exceed the inline buffer");
  InlineFunction<uint64_t()> F([Big] { return Big[0]; });
  EXPECT_TRUE(F.usesHeap());
  EXPECT_EQ(F(), 9u);
  // The heap fallback still moves correctly (pointer steal, no deep copy).
  InlineFunction<uint64_t()> G = std::move(F);
  EXPECT_TRUE(G.usesHeap());
  EXPECT_EQ(G(), 9u);
  EXPECT_FALSE(static_cast<bool>(F));
}

TEST(InlineFunction, MoveOnlyCapturesCompileAndRun) {
  auto P = std::make_unique<int>(41);
  InlineFunction<int()> F([P = std::move(P)] { return *P + 1; });
  EXPECT_FALSE(F.usesHeap()); // A unique_ptr fits the buffer.
  EXPECT_EQ(F(), 42);
  InlineFunction<int()> G = std::move(F);
  EXPECT_EQ(G(), 42);
  EXPECT_FALSE(static_cast<bool>(F));
}

namespace {
/// Move-aware destruction counter: counts only the destruction of the
/// live (not moved-from) copy.
struct DtorCounter {
  int *Count;
  explicit DtorCounter(int *Count) : Count(Count) {}
  DtorCounter(DtorCounter &&Other) noexcept : Count(Other.Count) {
    Other.Count = nullptr;
  }
  DtorCounter &operator=(DtorCounter &&) = delete;
  DtorCounter(const DtorCounter &) = delete;
  ~DtorCounter() {
    if (Count)
      ++*Count;
  }
};
} // namespace

TEST(InlineFunction, CapturedStateDestroyedExactlyOnce) {
  int Destroyed = 0;
  {
    InlineFunction<void()> F;
    {
      InlineFunction<void()> G([D = DtorCounter(&Destroyed)] {});
      F = std::move(G);
    } // G (moved-from) dies: no destruction of the live capture.
    EXPECT_EQ(Destroyed, 0);
  } // F dies: the one live capture is destroyed.
  EXPECT_EQ(Destroyed, 1);
}

TEST(InlineFunction, TriviallyCopyableCapturesSurviveMoves) {
  uint64_t X = 10, Y = 20, Z = 30, W = 40; // 32 trivially-copyable bytes.
  InlineFunction<uint64_t()> F([=] { return X + Y + Z + W; });
  EXPECT_FALSE(F.usesHeap());
  InlineFunction<uint64_t()> G = std::move(F);
  InlineFunction<uint64_t()> H;
  H = std::move(G);
  EXPECT_EQ(H(), 100u);
  EXPECT_FALSE(static_cast<bool>(F));
  EXPECT_FALSE(static_cast<bool>(G));
}

TEST(InlineFunction, EmptyAndNullBehave) {
  InlineFunction<void()> F;
  EXPECT_FALSE(static_cast<bool>(F));
  InlineFunction<void()> G(nullptr);
  EXPECT_FALSE(static_cast<bool>(G));
  G = std::move(F);
  EXPECT_FALSE(static_cast<bool>(G));
  EXPECT_EQ(InlineFunction<void()>::inlineCapacity(), InlineFunctionBuffer);
}

TEST(Simulator, ActionHeapFallbackIsCounted) {
  Simulator S(1);
  S.setTraceLevel(TraceLevel::Off);
  std::array<uint64_t, 16> Big = {};
  S.scheduleAt(1, [Big](Simulator &) { (void)Big; });
  EXPECT_EQ(S.stats().InlineFnHeapFallbacks, 1u);
  S.scheduleAt(2, [](Simulator &) {});
  EXPECT_EQ(S.stats().InlineFnHeapFallbacks, 1u);
  S.run();
}

//===----------------------------------------------------------------------===//
// PayloadUnits accounting
//===----------------------------------------------------------------------===//

// Regression pin for the injectStimulus accounting fix: stimuli ship
// payload exactly like sends, on the same counter.
TEST(Simulator, InjectedStimuliCountTowardPayloadUnits) {
  Simulator S(5);
  S.setTraceLevel(TraceLevel::Off);
  ProcessId P = S.spawn(std::make_unique<NullActor>());
  S.sendMessage(P, P, makeBody<WeightedMsg>());
  EXPECT_EQ(S.stats().PayloadUnits, 3u);
  S.injectStimulus(P, makeBody<WeightedMsg>());
  EXPECT_EQ(S.stats().PayloadUnits, 6u);
  S.run();
  EXPECT_EQ(S.stats().PayloadUnits, 6u);
  EXPECT_EQ(S.stats().MessagesDelivered, 2u);
}

//===----------------------------------------------------------------------===//
// Golden-digest determinism
//===----------------------------------------------------------------------===//

// The full churn + gossip query experiment must produce a byte-identical
// trace across kernel-internals changes. The original digest was recorded
// from the pre-pool, pre-calendar-queue kernel (shared_ptr payloads,
// std::function actions, per-event 4-ary heap) and survived every kernel
// rewrite since; re-pinned once when DynamicOverlay::join switched from
// full-membership shuffle to rejection sampling (same uniform attach
// distribution, different Rng draw sequence — an intentional stream
// change). Any schedule drift — event reordering, a lost or duplicated
// event, an Rng draw moved — shows up here first. PayloadUnits includes
// the one injected query stimulus.
TEST(DeterminismGolden, ChurnGossipExperimentIsByteIdentical) {
  ExperimentConfig Cfg;
  Cfg.Seed = 0xC0FFEE;
  Cfg.Class = {ArrivalModel::boundedConcurrency(40),
               KnowledgeModel::knownDiameter(10)};
  Cfg.UseRecommended = false;
  Cfg.Algorithm = RecommendedAlgorithm::GossipBestEffort;
  Cfg.InitialMembers = 24;
  Cfg.Churn.JoinRate = 0.2;
  Cfg.Churn.MeanSession = 120.0;
  Cfg.Churn.CrashFraction = 0.3;
  Cfg.Churn.Horizon = 600;
  Cfg.QueryAt = 200;
  Cfg.Horizon = 1200;
  Cfg.Gossip.ReportAfter = 60;
  Cfg.Gossip.Rounds = 30;
  Cfg.Gossip.RoundEvery = 2;
  Cfg.KeepTrace = true;
  Cfg.Tracing = TraceLevel::Full;

  ExperimentResult R = runQueryExperiment(Cfg);
  ASSERT_TRUE(R.RecordedTrace.has_value());
  std::string Json = traceToJsonLines(*R.RecordedTrace);
  EXPECT_EQ(Json.size(), 695978u);
  EXPECT_EQ(fnv1a(Json), 0xcb04ce0bac41ebf2ULL);
  EXPECT_EQ(R.Stats.MessagesSent, 4234u);
  EXPECT_EQ(R.Stats.MessagesDelivered, 4175u);
  EXPECT_EQ(R.Stats.MessagesDropped, 60u);
  EXPECT_EQ(R.Stats.PayloadUnits, 439789u);
  EXPECT_EQ(R.Stats.TimersFired, 2130u);
  EXPECT_EQ(R.Stats.EventsExecuted, 6726u);
}

TEST(DeterminismGolden, KernelLoadScheduleIsPinned) {
  KernelLoadConfig Cfg;
  Cfg.Seed = 42;
  Cfg.Processes = 200;
  Cfg.Horizon = 400;
  Cfg.GossipEvery = 4;
  Cfg.GossipFanout = 2;
  Cfg.ChurnEvery = 25;
  KernelLoadResult R = runKernelLoad(Cfg, TraceLevel::Full);
  EXPECT_EQ(R.Stats.MessagesSent, 39968u);
  EXPECT_EQ(R.Stats.MessagesDelivered, 38077u);
  EXPECT_EQ(R.Stats.EventsExecuted, 61995u);
  EXPECT_EQ(R.TraceRecords, 79794u);
}
