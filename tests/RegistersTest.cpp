//===- RegistersTest.cpp - register self-implementation tests ------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/registers/MajorityRegister.h"
#include "dyndist/registers/MultiWriterRegister.h"
#include "dyndist/registers/MultiReaderRegister.h"
#include "dyndist/registers/StackRegister.h"
#include "dyndist/runtime/StressHarness.h"
#include "dyndist/runtime/ThreadRunner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

using namespace dyndist;

namespace {

/// Spin-waits (with sleeps) until \p Pred holds or ~2s elapsed.
bool eventually(const std::function<bool()> &Pred) {
  for (int I = 0; I != 2000; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Yields until \p B withholds exactly \p N operations (or ~60s elapsed):
/// the adversary's view of how far a blocked client has got.
bool deferredReaches(const BaseRegister &B, size_t N) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (B.deferredCount() != N)
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    else
      std::this_thread::yield();
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// StackRegister: t+1 responsive-crash construction
//===----------------------------------------------------------------------===//

TEST(StackRegister, SequentialReadYourWrites) {
  StackRegister R(/*Tolerated=*/2);
  EXPECT_EQ(R.baseCount(), 3u);
  EXPECT_EQ(R.read(0), 0); // Initial value.
  R.write(5);
  EXPECT_EQ(R.read(0), 5);
  R.write(6);
  R.write(7);
  EXPECT_EQ(R.read(0), 7);
}

TEST(StackRegister, SurvivesTCrashes) {
  for (size_t CrashFirst = 0; CrashFirst != 3; ++CrashFirst) {
    StackRegister R(/*Tolerated=*/2);
    R.write(10);
    R.base(CrashFirst).crash();
    EXPECT_EQ(R.read(0), 10) << "crashed base " << CrashFirst;
    R.write(11);
    R.base((CrashFirst + 1) % 3).crash();
    EXPECT_EQ(R.read(0), 11);
    R.write(12);
    EXPECT_EQ(R.read(0), 12); // One base left: still fully functional.
  }
}

TEST(StackRegister, CrashMoreThanTLosesFreshness) {
  StackRegister R(/*Tolerated=*/1);
  R.write(10);
  EXPECT_EQ(R.read(0), 10);
  R.base(0).crash();
  R.base(1).crash(); // t exceeded: writes can no longer land anywhere.
  R.write(11);
  // The reader's monotone cache still answers, but freshness is gone.
  EXPECT_EQ(R.read(0), 10);
}

TEST(StackRegister, StressWithMidRunCrashesIsAtomic) {
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    StackRegister R(/*Tolerated=*/2);
    RegisterStressOptions Opt;
    Opt.Readers = 1; // SWSR construction: a single reader.
    Opt.Writes = 120;
    Opt.ReadsPerReader = 120;
    Opt.Seed = Seed;
    Opt.InjectBeforeWrite[30] = [&R] { R.base(0).crash(); };
    Opt.InjectBeforeWrite[70] = [&R] { R.base(2).crash(); };
    History H = stressRegister(R, Opt);
    Status S = checkSwmrAtomicity(H);
    EXPECT_TRUE(S.ok()) << "seed " << Seed << ": " << S.error().str();
  }
}

TEST(StackRegister, TaggedInterfaceMonotone) {
  StackRegister R(1);
  R.writeTagged({5, 50});
  EXPECT_EQ(R.readTagged().Seq, 5u);
  R.writeTagged({5, 50}); // Equal tag allowed (idempotent re-announce).
  R.writeTagged({9, 90});
  EXPECT_EQ(R.readTagged(), (TaggedValue{9, 90}));
}

//===----------------------------------------------------------------------===//
// MajorityRegister: 2t+1 nonresponsive-crash construction
//===----------------------------------------------------------------------===//

TEST(MajorityRegister, SequentialReadYourWrites) {
  MajorityRegister R(/*NumBases=*/5, /*Tolerated=*/2);
  EXPECT_EQ(R.read(0), 0);
  R.write(5);
  EXPECT_EQ(R.read(0), 5);
  R.write(6);
  EXPECT_EQ(R.read(1), 6); // Any reader index.
}

TEST(MajorityRegister, SurvivesTNonresponsiveCrashes) {
  MajorityRegister R(5, 2);
  R.write(10);
  R.base(0).crash();
  R.base(3).crash();
  EXPECT_EQ(R.read(0), 10);
  R.write(11);
  EXPECT_EQ(R.read(0), 11);
}

TEST(MajorityRegister, OperationsBlockWhileQuorumSuspended) {
  MajorityRegister R(3, 1);
  R.write(1);
  R.base(0).suspend();
  R.base(1).suspend(); // Only one base live: quorum of 2 unreachable.

  std::atomic<bool> ReadDone{false};
  int64_t Value = -1;
  ThreadRunner Runner;
  Runner.spawn([&] {
    Value = R.read(0);
    ReadDone = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(ReadDone.load()); // Blocked, as the model demands.

  R.base(0).resume(); // Quorum becomes reachable.
  ASSERT_TRUE(eventually([&] { return ReadDone.load(); }));
  EXPECT_EQ(Value, 1);
  R.base(1).resume();
  Runner.joinAll();
}

/// Caller-supplied responsive-crash bases answer ⊥ once crashed. A ⊥ is
/// not a reply: counting it toward the read quorum would let {⊥, stale}
/// pass for a majority and return a value older than a completed write.
TEST(MajorityRegister, BottomRepliesDoNotFormAQuorum) {
  auto B0 = std::make_shared<BaseRegister>(FailureMode::Responsive);
  auto B1 = std::make_shared<BaseRegister>(FailureMode::Responsive);
  auto B2 = std::make_shared<BaseRegister>(FailureMode::Responsive);
  MajorityRegister R({B0, B1, B2}, /*Tolerated=*/1);

  // The write completes on {B0, B2}; at B1 it stays pending.
  B1->suspend();
  R.write(42);
  ASSERT_EQ(B1->deferredCount(), 1u);
  B0->crash(); // From now on B0 answers ⊥: one failure, within t.
  B2->suspend();

  std::atomic<bool> ReadDone{false};
  int64_t Got = -1;
  ThreadRunner Runner;
  Runner.spawn([&] {
    Got = R.read(0);
    ReadDone = true;
  });
  // Serve the read at B1 ahead of the pending write: a stale {0, 0}.
  ASSERT_TRUE(eventually([&] { return B1->deferredCount() == 2; }));
  B1->resumeOne(1);
  B1->resume();
  // ⊥ from B0 plus B1's stale pair is one real reply, not a quorum.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(ReadDone.load());

  B2->resume(); // The second real reply carries the completed write.
  ASSERT_TRUE(eventually([&] { return ReadDone.load(); }));
  Runner.joinAll();
  EXPECT_EQ(Got, 42);
  EXPECT_EQ(R.read(0), 42);
}

TEST(MajorityRegister, StressMultiReaderWithCrashesIsAtomic) {
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    MajorityRegister R(5, 2);
    RegisterStressOptions Opt;
    Opt.Readers = 3;
    Opt.Writes = 100;
    Opt.ReadsPerReader = 80;
    Opt.Seed = Seed;
    Opt.InjectBeforeWrite[25] = [&R] { R.base(1).crash(); };
    Opt.InjectBeforeWrite[60] = [&R] { R.base(4).crash(); };
    History H = stressRegister(R, Opt);
    Status S = checkSwmrAtomicity(H);
    EXPECT_TRUE(S.ok()) << "seed " << Seed << ": " << S.error().str();
  }
}

/// The lower-bound demonstration: with n = 2t (underprovisioned), an
/// adversary that delays in-flight base operations makes a completed write
/// invisible to a later read — the quorums fail to intersect. The same
/// schedule against n = 2t+1 is harmless.
TEST(MajorityRegister, UnderprovisionedViolatesSafety) {
  auto B0 = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  auto B1 = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  MajorityRegister R({B0, B1}, /*Tolerated=*/1,
                     /*AllowUnderprovisioned=*/true);

  HistoryRecorder Rec;

  // Step 1: the write completes against {B0} while its operation on B1
  // hangs in flight.
  B1->suspend();
  uint64_t W = Rec.beginOp(0, OpKind::Write, 42);
  R.write(42);
  Rec.endOp(W);
  ASSERT_EQ(B1->deferredCount(), 1u);

  // Step 2: a later read is served by {B1} only; B0 is silent.
  B0->suspend();
  std::atomic<bool> ReadDone{false};
  int64_t Got = -1;
  uint64_t Rd = Rec.beginOp(1, OpKind::Read);
  ThreadRunner Runner;
  Runner.spawn([&] {
    Got = R.read(0);
    ReadDone = true;
  });

  // Adversary: linearize the reader's base read on B1 *before* the
  // writer's still-pending base write (they are concurrent at B1).
  ASSERT_TRUE(eventually([&] { return B1->deferredCount() == 2; }));
  B1->resumeOne(1); // The read: answers the initial value.
  // Phase 2 (write-back) also targets both bases; release it on B1 too
  // (keeping the stale order: the write-back carries the stale pair).
  ASSERT_TRUE(eventually([&] { return B1->deferredCount() == 2; }));
  B1->resumeOne(1);
  ASSERT_TRUE(eventually([&] { return ReadDone.load(); }));
  Rec.endOp(Rd, Got);
  Runner.joinAll();

  // The read missed a write that had completed before it began.
  EXPECT_EQ(Got, 0);
  Status S = checkSwmrAtomicity(Rec.snapshot());
  ASSERT_FALSE(S.ok());
  EXPECT_EQ(S.error().Kind, Error::Code::ProtocolViolation);

  B0->resume();
  B1->resume();
}

/// Companion: with n = 3, t = 1 the same adversary power cannot hide a
/// completed write — any two quorums of size 2 intersect.
TEST(MajorityRegister, ProperlyProvisionedResistsTheSameAdversary) {
  auto B0 = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  auto B1 = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  auto B2 = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  MajorityRegister R({B0, B1, B2}, /*Tolerated=*/1);

  B1->suspend(); // One base may lag...
  R.write(42);   // ...the write still lands on a majority {B0, B2}.

  B0->suspend(); // Silence a *different* base for the read.
  std::atomic<bool> ReadDone{false};
  int64_t Got = -1;
  ThreadRunner Runner;
  Runner.spawn([&] {
    Got = R.read(0);
    ReadDone = true;
  });
  // The reader's quorum {B1?, B2} must include B2, which holds 42. Let the
  // adversary even serve B1's stale read first: the majority still wins.
  ASSERT_TRUE(eventually([&] { return B1->deferredCount() >= 2; }));
  B1->resumeOne(1); // Phase-1 read at B1 answers the stale pair.
  // The write-back phase also needs two acks; release it at B1 as well.
  ASSERT_TRUE(eventually([&] { return B1->deferredCount() >= 2; }));
  B1->resumeOne(1);
  ASSERT_TRUE(eventually([&] { return ReadDone.load(); }));
  EXPECT_EQ(Got, 42);
  B0->resume();
  B1->resume();
  Runner.joinAll();
}

/// Regression: a reader delayed between its quorum read and its write-back
/// must not bury a newer completed write. Five bases, t = 2: the reader
/// picks #3, then the writer's #4 lands on the majority {B0, B1, B2} ahead
/// of the reader's write-back of #3 to those same bases. With one shared
/// cell per base the write-back overwrote #4 there, and a later read
/// served by that majority returned #3.
TEST(MajorityRegister, DelayedWriteBackCannotBuryACompletedWrite) {
  std::vector<std::shared_ptr<BaseRegister>> B;
  for (int I = 0; I != 5; ++I)
    B.push_back(std::make_shared<BaseRegister>(FailureMode::Nonresponsive));
  MajorityRegister R(B, /*Tolerated=*/2);
  for (int64_t V = 1; V <= 3; ++V)
    R.write(V);

  // The reader's phase 1 is answered by B3, B4 and then B0 ...
  for (int I = 0; I != 3; ++I)
    B[I]->suspend();
  int64_t Delayed = -1;
  ThreadRunner Reader;
  Reader.spawn([&] { Delayed = R.read(0); });
  ASSERT_TRUE(deferredReaches(*B[2], 1));
  B[0]->resumeOne(0);
  // ... and its write-back of #3 waits at B0, B1 and B2.
  ASSERT_TRUE(deferredReaches(*B[2], 2));

  // Write #4 completes, applied on B0, B1 and B2 before the write-back.
  ThreadRunner Writer;
  Writer.spawn([&] { R.write(4); });
  ASSERT_TRUE(deferredReaches(*B[2], 3));
  B[0]->resumeOne(1); // B0 withholds [write-back #3, write #4].
  B[1]->resumeOne(2); // B1 and B2: [read, write-back #3, write #4].
  B[2]->resumeOne(2);
  Writer.joinAll();
  // Now the delayed write-back lands on the same majority.
  for (int I = 0; I != 3; ++I)
    B[I]->resume();
  Reader.joinAll();
  EXPECT_EQ(Delayed, 3); // Concurrent with write #4: legal.

  // A read that begins after write #4 completed, served by {B0, B1, B2}.
  B[3]->suspend();
  B[4]->suspend();
  EXPECT_EQ(R.read(1), 4);
  B[3]->resume();
  B[4]->resume();
}

//===----------------------------------------------------------------------===//
// MultiReaderRegister: SWSR cells -> SWMR register
//===----------------------------------------------------------------------===//

TEST(MultiReaderRegister, LayoutCounts) {
  MultiReaderRegister R(/*Readers=*/3, /*Tolerated=*/2);
  EXPECT_EQ(R.cellCount(), 3u + 6u);
  EXPECT_EQ(R.baseCount(), 9u * 3u);
}

TEST(MultiReaderRegister, SequentialSemantics) {
  MultiReaderRegister R(3, 1);
  EXPECT_EQ(R.read(0), 0);
  R.write(5);
  EXPECT_EQ(R.read(0), 5);
  EXPECT_EQ(R.read(1), 5);
  EXPECT_EQ(R.read(2), 5);
  R.write(6);
  EXPECT_EQ(R.read(2), 6);
  EXPECT_EQ(R.read(0), 6);
}

TEST(MultiReaderRegister, ReaderAnnouncementPreventsInversion) {
  // Crash reader 1's writer-cell bases so reader 1 cannot see writes
  // directly; the reader-to-reader announcements must still deliver the
  // fresh value once reader 0 has read it.
  MultiReaderRegister R(2, 1);
  R.writerCell(1).base(0).crash();
  R.writerCell(1).base(1).crash();
  R.write(7);
  EXPECT_EQ(R.read(1), 0); // Cut off and nobody announced yet: sees old.
  EXPECT_EQ(R.read(0), 7); // Reader 0 sees it and announces.
  EXPECT_EQ(R.read(1), 7); // Now reader 1 must see it too (atomicity).
}

TEST(MultiReaderRegister, StressConcurrentReadersIsAtomic) {
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    MultiReaderRegister R(3, 1);
    RegisterStressOptions Opt;
    Opt.Readers = 3;
    Opt.Writes = 80;
    Opt.ReadsPerReader = 60;
    Opt.Seed = Seed;
    Opt.InjectBeforeWrite[20] = [&R] { R.writerCell(0).base(0).crash(); };
    Opt.InjectBeforeWrite[50] = [&R] { R.readerCell(1, 2).base(1).crash(); };
    History H = stressRegister(R, Opt);
    Status S = checkSwmrAtomicity(H);
    EXPECT_TRUE(S.ok()) << "seed " << Seed << ": " << S.error().str();
  }
}

TEST(MultiReaderRegister, BaseInvocationsAccumulate) {
  MultiReaderRegister R(2, 1);
  uint64_t Before = R.baseInvocations();
  R.write(1);
  R.read(0);
  EXPECT_GT(R.baseInvocations(), Before);
}

//===----------------------------------------------------------------------===//
// MultiWriterRegister: the full tower (base -> SWSR -> SWMR -> MWMR)
//===----------------------------------------------------------------------===//

TEST(MultiWriterRegister, SequentialLastWriteWins) {
  MultiWriterRegister R(/*Writers=*/3, /*Readers=*/2, /*Tolerated=*/1);
  EXPECT_EQ(R.read(0), 0);
  R.write(0, 10);
  EXPECT_EQ(R.read(0), 10);
  R.write(2, 20);
  EXPECT_EQ(R.read(1), 20);
  R.write(1, 30);
  R.write(0, 40);
  EXPECT_EQ(R.read(0), 40);
  EXPECT_EQ(R.read(1), 40);
}

TEST(MultiWriterRegister, WritersSeeEachOther) {
  // Each writer's timestamp scan must observe the other writers' cells,
  // so alternating writers always move the register forward.
  MultiWriterRegister R(2, 1, 1);
  for (int K = 1; K <= 10; ++K) {
    R.write(static_cast<size_t>(K % 2), K);
    EXPECT_EQ(R.read(0), K);
  }
}

TEST(MultiWriterRegister, SurvivesCellBaseCrashes) {
  MultiWriterRegister R(2, 2, /*Tolerated=*/1);
  R.write(0, 5);
  // Crash one base register inside one SWSR cell of writer 1's SWMR cell:
  // within every budget.
  R.cell(1).writerCell(0).base(0).crash();
  R.write(1, 6);
  EXPECT_EQ(R.read(0), 6);
  EXPECT_EQ(R.read(1), 6);
  R.write(0, 7);
  EXPECT_EQ(R.read(1), 7);
}

TEST(MultiWriterRegister, ConcurrentWritersLinearizable) {
  // Small concurrent histories (<= 24 ops) validated by the general
  // Wing&Gong search across seeds.
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    MultiWriterRegister R(2, 2, 1);
    HistoryRecorder Rec;
    ThreadRunner Runner;
    for (size_t W = 0; W != 2; ++W) {
      Runner.spawn([&R, &Rec, W, Seed] {
        Rng Jit(Seed ^ (0x111 * (W + 1)));
        for (int K = 0; K != 4; ++K) {
          int64_t V = static_cast<int64_t>(100 * (W + 1) + K);
          uint64_t Op = Rec.beginOp(W, OpKind::Write, V);
          R.write(W, V);
          Rec.endOp(Op);
          jitter(Jit);
        }
      });
    }
    for (size_t Rd = 0; Rd != 2; ++Rd) {
      Runner.spawn([&R, &Rec, Rd, Seed] {
        Rng Jit(Seed ^ (0x999 * (Rd + 1)));
        for (int K = 0; K != 4; ++K) {
          uint64_t Op = Rec.beginOp(10 + Rd, OpKind::Read);
          int64_t V = R.read(Rd);
          Rec.endOp(Op, V);
          jitter(Jit);
        }
      });
    }
    Runner.joinAll();
    Status S = checkLinearizableRegister(Rec.snapshot());
    EXPECT_TRUE(S.ok()) << "seed " << Seed << ": " << S.error().str();
  }
}

TEST(MultiWriterRegister, BaseInvocationsAccumulate) {
  MultiWriterRegister R(2, 1, 1);
  uint64_t Before = R.baseInvocations();
  R.write(0, 1);
  uint64_t AfterWrite = R.baseInvocations();
  EXPECT_GT(AfterWrite, Before);
  R.read(0);
  EXPECT_GT(R.baseInvocations(), AfterWrite);
}

//===----------------------------------------------------------------------===//
// Ablation: the majority construction's write-back phase
//===----------------------------------------------------------------------===//

namespace {

/// Runs the write-back ablation schedule: a write pending at a quorum
/// minority while two sequential readers are served by adversarially
/// chosen quorums. Fills \p Out with the recorded history. \p WriteBack
/// selects the construction variant. (void return: gtest ASSERTs.)
void runWriteBackSchedule(bool WriteBack, History &Out) {
  auto B0 = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  auto B1 = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  auto B2 = std::make_shared<BaseRegister>(FailureMode::Nonresponsive);
  MajorityRegister R({B0, B1, B2}, /*Tolerated=*/1);
  R.setWriteBackEnabled(WriteBack);
  HistoryRecorder Rec;

  // An initial write that fully lands.
  uint64_t W1 = Rec.beginOp(0, OpKind::Write, 1);
  R.write(1);
  Rec.endOp(W1);

  // The contested write: lands on B0 only; stays pending at B1, B2.
  B1->suspend();
  B2->suspend();
  std::atomic<bool> WriteDone{false};
  uint64_t W2 = Rec.beginOp(0, OpKind::Write, 2);
  ThreadRunner Writer;
  Writer.spawn([&] {
    R.write(2);
    WriteDone = true;
  });
  ASSERT_TRUE(eventually([&] {
    return B1->deferredCount() >= 1 && B2->deferredCount() >= 1;
  }));

  // Reader 1: quorum {B0 (fresh), B1 (stale, read reordered before the
  // pending write)} -> observes value 2.
  std::atomic<bool> R1Done{false};
  int64_t V1 = -1;
  uint64_t R1 = Rec.beginOp(1, OpKind::Read);
  ThreadRunner Reader1;
  Reader1.spawn([&] {
    V1 = R.read(0);
    R1Done = true;
  });
  ASSERT_TRUE(eventually([&] { return B1->deferredCount() >= 2; }));
  B1->resumeOne(1); // The phase-1 read at B1: answers the stale pair.
  if (WriteBack) {
    // The write-back also needs a second ack; grant it at B1 (carrying
    // the fresh pair there).
    ASSERT_TRUE(eventually([&] { return B1->deferredCount() >= 2; }));
    B1->resumeOne(1);
  }
  ASSERT_TRUE(eventually([&] { return R1Done.load(); }));
  Rec.endOp(R1, V1);
  Reader1.joinAll();

  // Reader 2 (starts after reader 1 finished): B0 silenced; quorum
  // {B1, B2} with both reads reordered before the pending write(2).
  B0->suspend();
  std::atomic<bool> R2Done{false};
  int64_t V2 = -1;
  uint64_t R2 = Rec.beginOp(2, OpKind::Read);
  ThreadRunner Reader2;
  Reader2.spawn([&] {
    V2 = R.read(1);
    R2Done = true;
  });
  ASSERT_TRUE(eventually([&] {
    return B1->deferredCount() >= 2 && B2->deferredCount() >= 2;
  }));
  B1->resumeOne(B1->deferredCount() - 1);
  B2->resumeOne(B2->deferredCount() - 1);
  if (WriteBack) {
    // Reader 2's write-back: grant two acks (again skipping the still
    // pending write(2) where there is a choice).
    ASSERT_TRUE(eventually([&] {
      return B1->deferredCount() >= 2 && B2->deferredCount() >= 2;
    }));
    B1->resumeOne(B1->deferredCount() - 1);
    B2->resumeOne(B2->deferredCount() - 1);
  }
  ASSERT_TRUE(eventually([&] { return R2Done.load(); }));
  Rec.endOp(R2, V2);
  Reader2.joinAll();

  // Let the contested write finish so the history is complete.
  B0->resume();
  B1->resume();
  B2->resume();
  ASSERT_TRUE(eventually([&] { return WriteDone.load(); }));
  Rec.endOp(W2);
  Writer.joinAll();
  Out = Rec.snapshot();
}

} // namespace

TEST(MajorityRegisterAblation, WithoutWriteBackOnlyRegular) {
  History H;
  runWriteBackSchedule(/*WriteBack=*/false, H);
  if (HasFatalFailure())
    return;
  // Regularity survives (each read returned a legal concurrent value)...
  EXPECT_TRUE(checkSwmrRegularity(H).ok());
  // ...but atomicity is gone: the two sequential readers inverted.
  Status S = checkSwmrAtomicity(H);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.error().Message.find("inversion"), std::string::npos)
      << S.error().str();
}

TEST(MajorityRegisterAblation, WithWriteBackAtomicUnderSameAdversary) {
  History H;
  runWriteBackSchedule(/*WriteBack=*/true, H);
  if (HasFatalFailure())
    return;
  Status S = checkSwmrAtomicity(H);
  EXPECT_TRUE(S.ok()) << S.error().str();
}

TEST(MultiWriterRegister, ThreeConcurrentWritersLinearizable) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    MultiWriterRegister R(3, 1, 1);
    HistoryRecorder Rec;
    ThreadRunner Runner;
    for (size_t W = 0; W != 3; ++W) {
      Runner.spawn([&R, &Rec, W, Seed] {
        Rng Jit(Seed ^ (0x222 * (W + 1)));
        for (int K = 0; K != 3; ++K) {
          int64_t V = static_cast<int64_t>(100 * (W + 1) + K);
          uint64_t Op = Rec.beginOp(W, OpKind::Write, V);
          R.write(W, V);
          Rec.endOp(Op);
          jitter(Jit);
        }
      });
    }
    Runner.spawn([&R, &Rec, Seed] {
      Rng Jit(Seed ^ 0x777);
      for (int K = 0; K != 6; ++K) {
        uint64_t Op = Rec.beginOp(10, OpKind::Read);
        int64_t V = R.read(0);
        Rec.endOp(Op, V);
        jitter(Jit);
      }
    });
    Runner.joinAll();
    // 9 writes + 6 reads = 15 ops: within the Wing-Gong budget.
    Status S = checkLinearizableRegister(Rec.snapshot());
    EXPECT_TRUE(S.ok()) << "seed " << Seed << ": " << S.error().str();
  }
}
