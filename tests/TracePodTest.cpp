//===- TracePodTest.cpp - POD trace record / interned key tests -----------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// The trace storage rewrite (POD TraceRecords + TraceKeyTable interning +
// batched sink delivery) must be observationally invisible: every query the
// string-keyed API answered before must answer identically, out-of-order
// appends must latch the same deferred error the columnar writer reports,
// and the batched columnar sink path must produce files byte-identical to
// feeding the writer one materialized event at a time.
//
//===----------------------------------------------------------------------===//

#include "dyndist/sim/Trace.h"

#include "TraceTestUtil.h"
#include "dyndist/aggregation/Experiment.h"
#include "dyndist/runtime/KernelLoad.h"
#include "dyndist/sim/TraceColumnar.h"
#include "dyndist/support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

using namespace dyndist;

namespace {

const std::string TestPathStr = "/tmp/dyndist_tracepod_test." +
                                std::to_string(::getpid()) + ".dytr";

/// Adversarial key pool (mirrors TraceIOTest): empty, quotes, backslashes,
/// newlines, control bytes, long, and repeated keys.
std::string randomKey(Rng &R) {
  switch (R.nextBelow(8)) {
  case 0:
    return "";
  case 1:
    return "plain.key";
  case 2:
    return "with\"quote";
  case 3:
    return "back\\slash";
  case 4:
    return "new\nline\r\t";
  case 5:
    return std::string("\x01\x02\x1f ctrl");
  case 6:
    return std::string(300, 'k');
  default:
    return "shared." + std::to_string(R.nextBelow(4));
  }
}

/// The naive string-keyed model the POD trace must be equivalent to: a
/// plain event vector queried by linear scans and string compares.
struct ReferenceModel {
  std::vector<TraceEvent> Events;

  void append(const TraceEvent &E) { Events.push_back(E); }

  std::vector<TraceEvent> observations(const std::string &Key) const {
    std::vector<TraceEvent> Out;
    for (const TraceEvent &E : Events)
      if (E.Kind == TraceKind::Observe && E.Key == Key)
        Out.push_back(E);
    return Out;
  }

  std::optional<TraceEvent> firstObservation(ProcessId Subject,
                                             const std::string &Key) const {
    for (const TraceEvent &E : Events)
      if (E.Kind == TraceKind::Observe && E.Subject == Subject && E.Key == Key)
        return E;
    return std::nullopt;
  }

  size_t countKind(TraceKind Kind) const {
    size_t N = 0;
    for (const TraceEvent &E : Events)
      if (E.Kind == Kind)
        ++N;
    return N;
  }
};

void expectEventEq(const TraceEvent &A, const TraceEvent &B, size_t I) {
  EXPECT_EQ(static_cast<int>(A.Kind), static_cast<int>(B.Kind)) << I;
  EXPECT_EQ(A.Time, B.Time) << I;
  EXPECT_EQ(A.Subject, B.Subject) << I;
  EXPECT_EQ(A.Peer, B.Peer) << I;
  EXPECT_EQ(A.MsgKind, B.MsgKind) << I;
  EXPECT_EQ(A.Key, B.Key) << I;
  EXPECT_EQ(A.Value, B.Value) << I;
}

} // namespace

TEST(TracePod, KeyTableInternFindName) {
  TraceKeyTable K;
  EXPECT_EQ(K.size(), TraceKeyCount); // The vocabulary comes first.
  EXPECT_EQ(K.intern(""), 0u);
  EXPECT_EQ(K.find(""), 0u);
  uint32_t A = K.intern("alpha");
  uint32_t B = K.intern("beta\n\x01");
  EXPECT_NE(A, 0u);
  EXPECT_NE(B, 0u);
  EXPECT_NE(A, B);
  EXPECT_EQ(K.intern("alpha"), A); // Idempotent.
  EXPECT_EQ(K.find("alpha"), A);
  EXPECT_EQ(K.find("never-interned"), 0u);
  EXPECT_EQ(K.name(A), "alpha");
  EXPECT_EQ(K.name(B), "beta\n\x01");
  EXPECT_EQ(K.name(0), "");
  EXPECT_EQ(K.size(), TraceKeyCount + 2);
}

namespace {

/// Every vocabulary key resolves to its fixed id, both ways, in \p K.
void expectVocabulary(const TraceKeyTable &K, const char *Where) {
  for (uint32_t Id = 1; Id <= TraceKeyCount; ++Id) {
    EXPECT_EQ(K.find(TraceKeyNames[Id]), Id) << Where;
    EXPECT_EQ(K.name(Id), TraceKeyNames[Id]) << Where;
  }
  EXPECT_EQ(K.find("otq.values"), 0u) << Where; // Not a prefix match.
}

/// Runs one query of \p Algo at \p Shards with its full trace kept.
Trace queryRunTrace(RecommendedAlgorithm Algo, unsigned Shards) {
  ExperimentConfig Cfg;
  Cfg.Seed = 11;
  Cfg.Class = {ArrivalModel::boundedConcurrency(50),
               KnowledgeModel::knownDiameter(8)};
  Cfg.Algorithm = Algo;
  Cfg.UseRecommended = false;
  Cfg.InitialMembers = 24;
  Cfg.Churn.JoinRate = 0.1;
  Cfg.Churn.MeanSession = 180;
  Cfg.Churn.Horizon = 220;
  Cfg.Shards = Shards;
  Cfg.QueryAt = 100;
  Cfg.Horizon = 280;
  Cfg.KeepTrace = true;
  Cfg.Tracing = TraceLevel::Full;
  ExperimentResult R = runQueryExperiment(Cfg);
  EXPECT_TRUE(R.QueryIssued && R.Verdict.Terminated);
  return std::move(*R.RecordedTrace);
}

} // namespace

// The Observe-key vocabulary has the same ids in every key table: a fresh
// trace, one reset for reuse after other keys were interned, and an
// archive read back. Since lanes record those ids directly, the in-memory
// records of a query run, key ids included, are byte-identical at every
// shard count.
TEST(TracePod, VocabularyIdsAreFixedAcrossTablesAndShards) {
  Trace Fresh;
  expectVocabulary(Fresh.keys(), "fresh");

  Trace Reused;
  Reused.append({TraceKind::Observe, 1, 1, InvalidProcess, 0, "custom", 5});
  Reused.append({TraceKind::Observe, 2, 1, InvalidProcess, 0, OtqResultKey, 7});
  EXPECT_EQ(Reused.keys().find("custom"), TraceKeyCount + 1);
  EXPECT_EQ(Reused.records()[1].keyId(), keyIdOf(TraceKey::OtqResult));
  Reused.resetForReuse();
  expectVocabulary(Reused.keys(), "reset");
  EXPECT_EQ(Reused.keys().find("custom"), 0u);
  EXPECT_EQ(Reused.keys().size(), TraceKeyCount);

  for (RecommendedAlgorithm Algo : {RecommendedAlgorithm::FloodingKnownDiameter,
                                    RecommendedAlgorithm::GossipBestEffort}) {
    const Trace Ref = queryRunTrace(Algo, 1);
    const std::vector<TraceRecord> &Want = Ref.records();
    ASSERT_GT(observationsOf(Ref, OtqIncludeKey).size(), 0u);
    for (unsigned K : {2u, 4u}) {
      const Trace Got = queryRunTrace(Algo, K);
      ASSERT_EQ(Got.records().size(), Want.size()) << K;
      EXPECT_EQ(std::memcmp(Got.records().data(), Want.data(),
                            Want.size() * sizeof(TraceRecord)),
                0)
          << algorithmName(Algo) << " shards=" << K;
      EXPECT_EQ(Got.keys().size(), TraceKeyCount);
    }
    Result<Trace> Back = columnarRoundTrip(Ref);
    ASSERT_TRUE(Back.ok()) << Back.error().str();
    expectVocabulary(Back->keys(), "read-back");
    ASSERT_EQ(Back->records().size(), Want.size());
    EXPECT_EQ(std::memcmp(Back->records().data(), Want.data(),
                          Want.size() * sizeof(TraceRecord)),
              0)
        << algorithmName(Algo) << " read-back";
  }
}

TEST(TracePod, RecordPacksKindAndKeyAndNarrowsIds) {
  TraceRecord R = TraceRecord::make(TraceKind::Observe, 7, 3, InvalidProcess,
                                    -9, /*KeyId=*/12345, /*Value=*/-42);
  EXPECT_EQ(R.kind(), TraceKind::Observe);
  EXPECT_EQ(R.keyId(), 12345u);
  EXPECT_EQ(R.subject(), 3u);
  EXPECT_EQ(R.peer(), InvalidProcess);
  EXPECT_EQ(R.MsgKind, -9);
  EXPECT_EQ(R.Value, -42);
  R.setKeyId(TraceKeyTable::MaxKeys);
  EXPECT_EQ(R.keyId(), TraceKeyTable::MaxKeys);
  EXPECT_EQ(R.kind(), TraceKind::Observe); // Kind bits untouched.
}

// The in-memory trace reports misordering the same deferred-error way the
// columnar writer does: the record is dropped, the latch trips, and the
// archive writer refuses to serialize.
TEST(TracePod, OutOfOrderAppendLatchedAndWritersRefuse) {
  Trace T;
  T.appendRecord(TraceRecord::make(TraceKind::Join, 10, 1));
  EXPECT_FALSE(T.timeOrderViolated());
  T.appendRecord(TraceRecord::make(TraceKind::Join, 5, 2));
  EXPECT_TRUE(T.timeOrderViolated());
  EXPECT_EQ(T.records().size(), 1u); // The misordered record is not stored.
  EXPECT_EQ(T.totalArrivals(), 1u);  // Nor its presence side effects.

  Status Col = writeColumnarTraceFile(T, TestPathStr);
  ASSERT_FALSE(Col.ok());
  EXPECT_NE(Col.error().Message.find("out of time order"), std::string::npos);
  EXPECT_EQ(std::fopen(TestPathStr.c_str(), "r"), nullptr);

  // The string-compat append path latches identically.
  Trace U;
  U.append({TraceKind::Observe, 10, 1, InvalidProcess, 0, "k", 1});
  U.append({TraceKind::Observe, 5, 1, InvalidProcess, 0, "k", 2});
  EXPECT_TRUE(U.timeOrderViolated());
  EXPECT_EQ(U.records().size(), 1u);

  // clear() resets the latch with the rest of the trace state.
  U.clear();
  EXPECT_FALSE(U.timeOrderViolated());
}

// Randomized equivalence: the POD/interned-key trace, driven through a mix
// of the string-compat append() and the raw appendRecord() (with keys
// pre-interned by the caller, the way protocols hold ids), answers every
// query identically to the naive string-keyed reference model.
TEST(TracePod, RandomizedEquivalenceWithStringReferenceModel) {
  Rng R(20260808);
  Trace T;
  ReferenceModel Ref;
  std::set<std::string> KeysSeen;
  std::set<ProcessId> Joined;
  SimTime Clock = 0;

  for (size_t I = 0; I != 20000; ++I) {
    if (R.nextBernoulli(0.3))
      Clock += R.nextBelow(1000);
    TraceEvent E;
    E.Kind = static_cast<TraceKind>(R.nextBelow(7));
    E.Time = Clock;
    E.Subject = R.nextBernoulli(0.1) ? InvalidProcess : R.nextBelow(200);
    if (E.Kind == TraceKind::Leave || E.Kind == TraceKind::Crash) {
      if (!Joined.count(E.Subject))
        E.Kind = TraceKind::Join;
      else
        Joined.erase(E.Subject);
    }
    if (E.Kind == TraceKind::Join)
      Joined.insert(E.Subject);
    E.Peer = R.nextBernoulli(0.3) ? InvalidProcess : R.nextBelow(200);
    E.MsgKind = static_cast<int>(R.nextBelow(100)) - 50;
    E.Key = randomKey(R);
    E.Value = R.nextInRange(INT64_MIN / 2, INT64_MAX / 2);
    KeysSeen.insert(E.Key);
    Ref.append(E);
    if (R.nextBernoulli(0.5)) {
      T.append(E); // String boundary: interns internally.
    } else {
      // Protocol idiom: hold a pre-interned id, emit the POD directly.
      uint32_t Id = T.keys().intern(E.Key);
      T.appendRecord(TraceRecord::make(E.Kind, E.Time, E.Subject, E.Peer,
                                       E.MsgKind, Id, E.Value));
    }
  }
  ASSERT_FALSE(T.timeOrderViolated());

  // Record-level equality through the key table.
  ASSERT_EQ(T.records().size(), Ref.Events.size());
  for (size_t I = 0; I != Ref.Events.size(); ++I) {
    const TraceRecord &Rec = T.records()[I];
    const TraceEvent &E = Ref.Events[I];
    EXPECT_EQ(static_cast<int>(Rec.kind()), static_cast<int>(E.Kind)) << I;
    EXPECT_EQ(Rec.Time, E.Time) << I;
    EXPECT_EQ(Rec.subject(), E.Subject) << I;
    EXPECT_EQ(Rec.peer(), E.Peer) << I;
    EXPECT_EQ(Rec.MsgKind, E.MsgKind) << I;
    EXPECT_EQ(T.keys().name(Rec.keyId()), E.Key) << I;
    EXPECT_EQ(Rec.Value, E.Value) << I;
  }

  // Keyed queries, including keys the trace never saw.
  KeysSeen.insert("never-interned.key");
  for (const std::string &Key : KeysSeen) {
    std::vector<TraceRecord> Got = observationsOf(T, Key);
    std::vector<TraceEvent> Want = Ref.observations(Key);
    ASSERT_EQ(Got.size(), Want.size()) << Key;
    for (size_t I = 0; I != Want.size(); ++I) {
      EXPECT_EQ(Got[I].Time, Want[I].Time) << Key << " " << I;
      EXPECT_EQ(Got[I].subject(), Want[I].Subject) << Key << " " << I;
      EXPECT_EQ(Got[I].Value, Want[I].Value) << Key << " " << I;
    }
    for (ProcessId Subject : {ProcessId(0), ProcessId(7), ProcessId(199),
                              InvalidProcess}) {
      auto GotFirst = T.firstObservation(Subject, Key);
      auto WantFirst = Ref.firstObservation(Subject, Key);
      ASSERT_EQ(GotFirst.has_value(), WantFirst.has_value())
          << Key << " subject " << Subject;
      if (WantFirst)
        expectEventEq(*GotFirst, *WantFirst, 0);
      // The allocation-free record variant agrees with the string one.
      auto GotRec = T.firstObservationRecord(Subject, T.keys().find(Key));
      if (Key.empty() || T.keys().find(Key) != 0) {
        ASSERT_EQ(GotRec.has_value(), WantFirst.has_value());
        if (WantFirst) {
          EXPECT_EQ(GotRec->Time, WantFirst->Time);
          EXPECT_EQ(GotRec->Value, WantFirst->Value);
        }
      }
    }
  }

  // Kind counts.
  for (int K = 0; K != 7; ++K)
    EXPECT_EQ(T.countKind(static_cast<TraceKind>(K)),
              Ref.countKind(static_cast<TraceKind>(K)))
        << K;

  // Presence bookkeeping against a naive interval replay.
  std::map<ProcessId, PresenceInterval> RefIntervals;
  for (const TraceEvent &E : Ref.Events) {
    if (E.Kind == TraceKind::Join) {
      PresenceInterval &PI = RefIntervals[E.Subject];
      PI.JoinTime = E.Time;
      PI.EndTime.reset();
      PI.Crashed = false;
    } else if (E.Kind == TraceKind::Leave || E.Kind == TraceKind::Crash) {
      PresenceInterval &PI = RefIntervals[E.Subject];
      PI.EndTime = E.Time;
      PI.Crashed = E.Kind == TraceKind::Crash;
    }
  }
  ASSERT_EQ(T.totalArrivals(), RefIntervals.size());
  for (const auto &[P, Want] : RefIntervals) {
    const PresenceInterval &Got = T.presence().at(P);
    EXPECT_EQ(Got.JoinTime, Want.JoinTime) << P;
    EXPECT_EQ(Got.EndTime, Want.EndTime) << P;
    EXPECT_EQ(Got.Crashed, Want.Crashed) << P;
  }
}

// Batches re-interned across tables resolve to the same key strings.
TEST(TracePod, AppendBatchReinternsAcrossKeyTables) {
  Trace Src;
  Src.append({TraceKind::Observe, 1, 1, InvalidProcess, 0, "first", 10});
  Src.append({TraceKind::Observe, 2, 2, InvalidProcess, 0, "second\x02", 20});

  Trace Dst;
  // Skew Dst's id space so Src's ids would dangle if copied untranslated.
  Dst.keys().intern("occupying.id.one");
  Dst.appendBatch(Src.records().data(), Src.records().size(), Src.keys());
  ASSERT_EQ(Dst.records().size(), 2u);
  EXPECT_EQ(Dst.keys().name(Dst.records()[0].keyId()), "first");
  EXPECT_EQ(Dst.keys().name(Dst.records()[1].keyId()), "second\x02");
  EXPECT_EQ(observationsOf(Dst, "second\x02").size(), 1u);
}

namespace {

/// Forces the one-event-at-a-time sink path: only append() is
/// overridden, so batches reach the writer through TraceSink's default
/// appendBatch shim, which materializes string-keyed events one by one.
class PerEventSink final : public TraceSink {
public:
  explicit PerEventSink(ColumnarTraceWriter &W) : W(W) {}
  void append(const TraceEvent &E) override { W.append(E); }

private:
  ColumnarTraceWriter &W;
};

std::vector<unsigned char> readFileBytes(const std::string &Path) {
  std::vector<unsigned char> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_NE(F, nullptr) << Path;
  if (!F)
    return Bytes;
  unsigned char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Bytes.insert(Bytes.end(), Buf, Buf + N);
  std::fclose(F);
  return Bytes;
}

} // namespace

// The kernel's batched sink delivery is a pure transport optimization: at
// every shard count, streaming the trace through the columnar writer's
// appendBatch fast path yields a file byte-identical to forcing the same
// stream through the per-event compatibility shim (and identical across
// shard counts, as the columnar format is a pure function of the stream).
TEST(TracePod, BatchedSinkMatchesPerEventColumnarOutput) {
  std::vector<unsigned char> Reference;
  for (unsigned K : {1u, 2u, 4u}) {
    KernelLoadConfig Cfg;
    Cfg.Processes = 300;
    Cfg.Horizon = 60;
    Cfg.GossipEvery = 4;
    Cfg.GossipFanout = 2;
    Cfg.ChurnEvery = 25;
    Cfg.Shards = K;

    ColumnarTraceWriter Batched;
    ASSERT_TRUE(Batched.open(TestPathStr).ok());
    Cfg.Sink = &Batched;
    runKernelLoad(Cfg, TraceLevel::Full);
    ASSERT_TRUE(Batched.close().ok());
    std::vector<unsigned char> BatchedBytes = readFileBytes(TestPathStr);

    ColumnarTraceWriter PerEvent;
    ASSERT_TRUE(PerEvent.open(TestPathStr).ok());
    PerEventSink Shim(PerEvent);
    Cfg.Sink = &Shim;
    runKernelLoad(Cfg, TraceLevel::Full);
    ASSERT_TRUE(PerEvent.close().ok());
    std::vector<unsigned char> PerEventBytes = readFileBytes(TestPathStr);

    ASSERT_GT(BatchedBytes.size(), 40u);
    EXPECT_EQ(BatchedBytes, PerEventBytes) << "shards=" << K;
    if (Reference.empty())
      Reference = BatchedBytes;
    else
      EXPECT_EQ(BatchedBytes, Reference) << "shards=" << K;
    std::remove(TestPathStr.c_str());
  }
}
