//===- TraceQueryTest.cpp - sharded trace query tests ---------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/runtime/TraceQuery.h"

#include "dyndist/aggregation/Experiment.h"
#include "dyndist/sim/TraceIO.h"
#include "dyndist/support/Random.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <unordered_set>

#include <unistd.h>

using namespace dyndist;

namespace {

// Pid-unique so concurrent ctest processes from this binary don't race
// on a shared fixture file.
const std::string PathStem =
    "/tmp/dyndist_query_test." + std::to_string(::getpid());
const std::string ColPathStr = PathStem + ".dytr";
const std::string RereadPathStr = PathStem + ".reread.dytr";
const char *ColPath = ColPathStr.c_str();
const char *RereadPath = RereadPathStr.c_str();

struct FileGuard {
  ~FileGuard() {
    std::remove(ColPath);
    std::remove(RereadPath);
  }
};

/// Deterministic random trace big enough to span several chunks, so the
/// parallel scan actually shards.
Trace buildTrace(uint64_t Seed, size_t Events) {
  Rng R(Seed);
  Trace T;
  std::unordered_set<ProcessId> Joined;
  SimTime Clock = 0;
  for (size_t I = 0; I != Events; ++I) {
    if (R.nextBernoulli(0.2))
      Clock += R.nextBelow(50);
    TraceEvent E;
    E.Kind = static_cast<TraceKind>(R.nextBelow(7));
    E.Time = Clock;
    E.Subject = R.nextBelow(40);
    if (E.Kind == TraceKind::Leave || E.Kind == TraceKind::Crash) {
      if (!Joined.count(E.Subject))
        E.Kind = TraceKind::Join;
      else
        Joined.erase(E.Subject);
    }
    if (E.Kind == TraceKind::Join)
      Joined.insert(E.Subject);
    E.Peer = R.nextBernoulli(0.2) ? InvalidProcess : R.nextBelow(40);
    E.MsgKind = static_cast<int>(R.nextBelow(6)) - 2;
    E.Key = R.nextBernoulli(0.3) ? "metric." + std::to_string(R.nextBelow(5))
                                 : std::string();
    E.Value = static_cast<int64_t>(R.nextBelow(200)) - 100;
    T.append(std::move(E));
  }
  return T;
}

/// \p T archived, and the archive of \p T read back and archived again:
/// every query must render identically from both.
struct Sources {
  std::shared_ptr<TraceQuerySource> Col, Reread;
};

Sources openBoth(const Trace &T) {
  EXPECT_TRUE(writeColumnarTraceFile(T, ColPath).ok());
  auto Back = readColumnarTraceFile(ColPath);
  EXPECT_TRUE(Back.ok());
  EXPECT_TRUE(writeColumnarTraceFile(*Back, RereadPath).ok());
  auto C = TraceQuerySource::open(ColPath);
  auto R = TraceQuerySource::open(RereadPath);
  EXPECT_TRUE(C.ok());
  EXPECT_TRUE(R.ok());
  return {*C, *R};
}

/// The view of record \p I of \p T.
TraceEventView viewAt(const Trace &T, size_t I) {
  return TraceEventView::of(T.records()[I], T.keys());
}

} // namespace

// queryFilter against brute force: the engine's output is exactly the
// JSON lines of the matching events, in order, from either archive.
TEST(TraceQuery, FilterMatchesBruteForce) {
  FileGuard G;
  Trace T = buildTrace(11, 140'000); // 3 chunks.
  Sources S = openBoth(T);

  TraceFilter F;
  F.Kind = TraceKind::Send;
  F.Subject = 7;
  F.FromTime = 100;
  F.ToTime = 600'000;

  std::string Expected;
  for (size_t I = 0; I != T.records().size(); ++I) {
    TraceEventView E = viewAt(T, I);
    if (E.Kind != TraceKind::Send || E.Subject != 7 || E.Time < 100 ||
        E.Time > 600'000)
      continue;
    appendTraceJsonLine(Expected, E);
  }

  QueryOptions O;
  O.Threads = 3;
  auto FromCol = queryFilter(*S.Col, F, O);
  auto FromReread = queryFilter(*S.Reread, F, O);
  ASSERT_TRUE(FromCol.ok()) << FromCol.error().str();
  ASSERT_TRUE(FromReread.ok()) << FromReread.error().str();
  EXPECT_EQ(*FromCol, Expected);
  EXPECT_EQ(*FromReread, Expected);
}

TEST(TraceQuery, FilterLimitCapsInEventOrder) {
  FileGuard G;
  Trace T = buildTrace(12, 70'000);
  Sources S = openBoth(T);

  TraceFilter F;
  QueryOptions O;
  O.Threads = 4;
  O.Limit = 10;
  auto R = queryFilter(*S.Col, F, O);
  ASSERT_TRUE(R.ok());

  std::string Expected;
  for (size_t I = 0; I != 10; ++I)
    appendTraceJsonLine(Expected, viewAt(T, I));
  EXPECT_EQ(*R, Expected);
}

// group-by against a brute-force std::map aggregation, every field.
TEST(TraceQuery, GroupByMatchesBruteForce) {
  FileGuard G;
  Trace T = buildTrace(13, 90'000);
  Sources S = openBoth(T);

  TraceFilter F; // Match-all.
  QueryOptions O;
  O.Threads = 4;
  O.TimeBucketWidth = 250;

  // Brute force for subject.
  struct Agg {
    uint64_t Count = 0;
    int64_t Sum = 0;
  };
  std::map<ProcessId, Agg> Expected;
  for (const TraceRecord &E : T.records()) {
    Agg &A = Expected[E.subject()];
    ++A.Count;
    A.Sum += E.Value;
  }

  auto R = queryGroupBy(*S.Col, F, GroupField::Subject, O);
  ASSERT_TRUE(R.ok()) << R.error().str();
  // Count the data rows (header + one per group) and spot-check totals.
  size_t Rows = 0;
  uint64_t CountTotal = 0;
  size_t Pos = 0;
  bool Header = true;
  while (Pos < R->size()) {
    size_t Eol = R->find('\n', Pos);
    std::string Line = R->substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Header) {
      EXPECT_NE(Line.find("count"), std::string::npos);
      Header = false;
      continue;
    }
    ++Rows;
    // Columns: group \t count \t value_sum \t t_min \t t_max.
    size_t Tab1 = Line.find('\t'), Tab2 = Line.find('\t', Tab1 + 1);
    CountTotal += std::stoull(Line.substr(Tab1 + 1, Tab2 - Tab1 - 1));
  }
  EXPECT_EQ(Rows, Expected.size());
  EXPECT_EQ(CountTotal, T.records().size());

  // Both archives and every group field render identically.
  for (GroupField Field :
       {GroupField::Kind, GroupField::Subject, GroupField::Peer,
        GroupField::Msg, GroupField::Key, GroupField::TimeBucket}) {
    auto A = queryGroupBy(*S.Col, F, Field, O);
    auto B = queryGroupBy(*S.Reread, F, Field, O);
    ASSERT_TRUE(A.ok() && B.ok());
    EXPECT_EQ(*A, *B) << static_cast<int>(Field);
  }
}

// The determinism contract: byte-identical output at every thread count.
TEST(TraceQuery, OutputIsThreadCountInvariant) {
  FileGuard G;
  Trace T = buildTrace(14, 200'000); // 4 chunks.
  Sources S = openBoth(T);

  TraceFilter F;
  F.Kind = TraceKind::Deliver;
  std::string Ref;
  for (unsigned Threads : {1u, 2u, 3u, 8u, 16u}) {
    QueryOptions O;
    O.Threads = Threads;
    auto Filtered = queryFilter(*S.Col, F, O);
    auto Grouped = queryGroupBy(*S.Col, F, GroupField::Msg, O);
    auto Top = queryTopK(*S.Col, F, GroupField::Subject, O);
    auto Stats = queryStats(*S.Col, F, O);
    ASSERT_TRUE(Filtered.ok() && Grouped.ok() && Top.ok() && Stats.ok());
    std::string All = *Filtered + *Grouped + *Top + *Stats;
    if (Ref.empty())
      Ref = All;
    else
      EXPECT_EQ(All, Ref) << "threads=" << Threads;
  }
}

// Chunk pruning must not change results: a narrow time window whose
// matches sit entirely in the last chunk returns exactly those events.
TEST(TraceQuery, ChunkPruningPreservesResults) {
  FileGuard G;
  Trace T = buildTrace(15, 140'000);
  Sources S = openBoth(T);

  SimTime Last = T.records().back().Time;
  TraceFilter F;
  F.FromTime = Last; // Only the final-time events.

  std::string Expected;
  for (const TraceRecord &E : T.records())
    if (E.Time >= Last)
      appendTraceJsonLine(Expected, E, T.keys());

  QueryOptions O;
  O.Threads = 4;
  auto R = queryFilter(*S.Col, F, O);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(*R, Expected);

  // A kind absent from the trace's bitmap prunes everything to zero rows.
  TraceFilter None;
  None.Kind = TraceKind::Join;
  None.ToTime = 0;
  None.FromTime = 0;
  auto Stats = queryStats(*S.Col, None, O);
  ASSERT_TRUE(Stats.ok());
  EXPECT_NE(Stats->find("events\t"), std::string::npos);
}

// top-k: descending count, ties broken by ascending group value, capped.
TEST(TraceQuery, TopKOrderingAndCap) {
  FileGuard G;
  Trace T;
  // Subject 3 appears 5 times, subject 1 and 2 appear 3 times each (tie),
  // subject 9 once.
  for (int I = 0; I != 5; ++I)
    T.append({TraceKind::Send, static_cast<SimTime>(I), 3, 0, 0, "", 0});
  for (int I = 0; I != 3; ++I)
    T.append({TraceKind::Send, 10, 2, 0, 0, "", 0});
  for (int I = 0; I != 3; ++I)
    T.append({TraceKind::Send, 11, 1, 0, 0, "", 0});
  T.append({TraceKind::Send, 12, 9, 0, 0, "", 0});
  Sources S = openBoth(T);

  QueryOptions O;
  O.TopK = 3;
  TraceFilter F;
  auto R = queryTopK(*S.Col, F, GroupField::Subject, O);
  ASSERT_TRUE(R.ok()) << R.error().str();
  // Expect rows for 3 (count 5), then 1 before 2 (tie -> ascending), and
  // subject 9 cut off by the cap.
  size_t P3 = R->find("\n3\t");
  size_t P1 = R->find("\n1\t");
  size_t P2 = R->find("\n2\t");
  EXPECT_NE(P3, std::string::npos);
  EXPECT_NE(P1, std::string::npos);
  EXPECT_NE(P2, std::string::npos);
  EXPECT_LT(P3, P1);
  EXPECT_LT(P1, P2);
  EXPECT_EQ(R->find("\n9\t"), std::string::npos);
}

// stats: totals agree with brute force.
TEST(TraceQuery, StatsMatchBruteForce) {
  FileGuard G;
  Trace T = buildTrace(16, 70'000);
  Sources S = openBoth(T);

  uint64_t Sends = 0;
  int64_t Sum = 0;
  std::set<ProcessId> Subjects;
  for (const TraceRecord &E : T.records()) {
    Sends += E.kind() == TraceKind::Send;
    Sum += E.Value;
    Subjects.insert(E.subject());
  }

  QueryOptions O;
  O.Threads = 4;
  TraceFilter F;
  auto R = queryStats(*S.Col, F, O);
  ASSERT_TRUE(R.ok()) << R.error().str();
  EXPECT_NE(R->find("events\t" + std::to_string(T.records().size())),
            std::string::npos);
  EXPECT_NE(R->find("kind_send\t" + std::to_string(Sends)),
            std::string::npos);
  EXPECT_NE(R->find("subjects\t" + std::to_string(Subjects.size())),
            std::string::npos);
  EXPECT_NE(R->find("value_sum\t" + std::to_string(Sum)),
            std::string::npos);

  auto FromReread = queryStats(*S.Reread, F, O);
  ASSERT_TRUE(FromReread.ok());
  EXPECT_EQ(*R, *FromReread);
}

// Negative msg kinds sort numerically in group-by output (the offset-binary
// transform), not by unsigned bit pattern.
TEST(TraceQuery, NegativeMsgKindsSortNumerically) {
  FileGuard G;
  Trace T;
  T.append({TraceKind::Send, 0, 1, 2, 5, "", 0});
  T.append({TraceKind::Send, 1, 1, 2, -3, "", 0});
  T.append({TraceKind::Send, 2, 1, 2, 0, "", 0});
  T.append({TraceKind::Send, 3, 1, 2, -3, "", 0});
  Sources S = openBoth(T);

  QueryOptions O;
  TraceFilter F;
  auto R = queryGroupBy(*S.Col, F, GroupField::Msg, O);
  ASSERT_TRUE(R.ok()) << R.error().str();
  size_t PNeg = R->find("\n-3\t");
  size_t PZero = R->find("\n0\t");
  size_t PFive = R->find("\n5\t");
  ASSERT_NE(PNeg, std::string::npos);
  ASSERT_NE(PZero, std::string::npos);
  ASSERT_NE(PFive, std::string::npos);
  EXPECT_LT(PNeg, PZero);
  EXPECT_LT(PZero, PFive);
}

TEST(TraceQuery, GroupFieldNamesParse) {
  GroupField F;
  EXPECT_TRUE(groupFieldFromName("kind", F));
  EXPECT_EQ(F, GroupField::Kind);
  EXPECT_TRUE(groupFieldFromName("subject", F));
  EXPECT_TRUE(groupFieldFromName("peer", F));
  EXPECT_TRUE(groupFieldFromName("msg", F));
  EXPECT_TRUE(groupFieldFromName("key", F));
  EXPECT_TRUE(groupFieldFromName("time", F));
  EXPECT_EQ(F, GroupField::TimeBucket);
  EXPECT_FALSE(groupFieldFromName("bogus", F));
}

TEST(TraceQuery, OpenRejectsMissingAndGarbage) {
  EXPECT_FALSE(TraceQuerySource::open("/nonexistent/q.dytr").ok());
  const char *Bad = "/tmp/dyndist_query_garbage.bin";
  std::FILE *F = std::fopen(Bad, "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("DYTRCOL1 but then garbage", F);
  std::fclose(F);
  EXPECT_FALSE(TraceQuerySource::open(Bad).ok());
  std::remove(Bad);
}

// The export contract: `query filter` with no filter over a run's archive
// prints exactly traceToJsonLines of the run's in-memory trace, at any
// thread count.
TEST(TraceQuery, FilterExportEqualsTraceToJsonLines) {
  FileGuard G;
  for (uint64_t Seed : {3, 5, 9}) {
    ExperimentConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.Class = {ArrivalModel::boundedConcurrency(24),
                 KnowledgeModel::knownDiameter(8)};
    Cfg.Churn.JoinRate = 0.05;
    Cfg.Churn.MeanSession = 400;
    Cfg.KeepTrace = true;
    ExperimentResult R = runQueryExperiment(Cfg);
    ASSERT_TRUE(R.RecordedTrace.has_value());
    ASSERT_TRUE(writeColumnarTraceFile(*R.RecordedTrace, ColPath).ok());
    auto Src = TraceQuerySource::open(ColPath);
    ASSERT_TRUE(Src.ok()) << Src.error().str();
    const std::string Want = traceToJsonLines(*R.RecordedTrace);
    ASSERT_FALSE(Want.empty());
    for (unsigned Threads : {1u, 4u}) {
      QueryOptions O;
      O.Threads = Threads;
      auto Got = queryFilter(**Src, TraceFilter(), O);
      ASSERT_TRUE(Got.ok()) << Got.error().str();
      EXPECT_EQ(*Got, Want) << "seed " << Seed << " threads " << Threads;
    }
  }
}

//===----------------------------------------------------------------------===//
// Byte-for-byte oracle: every query shape against a brute-force fold over
// the in-memory records.
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t OracleChunk = ColumnarTraceWriter::EventsPerChunk;
/// Four subjects that tie for the top count, their events split across
/// the first chunk boundary; the last one is the largest id a record holds.
constexpr ProcessId TiedSubjects[] = {(1u << 20) + 7, (1u << 20) + 3, 1u << 21,
                                      (1ULL << 32) - 2};
const char *const OracleKeys[] = {"zeta", "alpha", "Mid", "be\"ta", "k\n"};
constexpr size_t NumOracleKeys = std::size(OracleKeys);

/// A three-chunk trace built to catch order bugs: InvalidProcess peers,
/// subjects at and above 2^20, negative msg kinds, keys whose
/// first-appearance order differs from their string order and from chunk
/// to chunk, and a top-count tie whose events straddle a chunk boundary.
Trace buildOracleTrace() {
  Rng R(21);
  Trace T;
  std::unordered_set<ProcessId> Joined;
  SimTime Clock = 0;
  const size_t Events = 2 * OracleChunk + 20'000;
  const size_t TieBegin = OracleChunk - 8'000, TieEnd = OracleChunk + 8'000;
  for (size_t I = 0; I != Events; ++I) {
    if (R.nextBernoulli(0.1))
      Clock += R.nextBelow(40);
    TraceEvent E;
    E.Kind = static_cast<TraceKind>(R.nextBelow(7));
    E.Time = Clock;
    E.Subject = I >= TieBegin && I < TieEnd ? TiedSubjects[I % 4]
                : R.nextBernoulli(0.02) ? (1u << 20) + R.nextBelow(3)
                                        : R.nextBelow(50);
    if (E.Kind == TraceKind::Leave || E.Kind == TraceKind::Crash) {
      if (!Joined.count(E.Subject))
        E.Kind = TraceKind::Join;
      else
        Joined.erase(E.Subject);
    }
    if (E.Kind == TraceKind::Join)
      Joined.insert(E.Subject);
    E.Peer = R.nextBernoulli(0.2) ? InvalidProcess : R.nextBelow(60);
    E.MsgKind = static_cast<int>(R.nextBelow(7)) - 3;
    // Each chunk opens with every key, in reversed pool order rotated by
    // the chunk index.
    const size_t InChunk = I % OracleChunk, Chunk = I / OracleChunk;
    if (InChunk < NumOracleKeys)
      E.Key = OracleKeys[(NumOracleKeys - 1 - InChunk + Chunk) % NumOracleKeys];
    else if (R.nextBernoulli(0.3))
      E.Key = OracleKeys[R.nextBelow(NumOracleKeys)];
    E.Value = static_cast<int64_t>(R.nextBelow(2000)) - 1000;
    T.append(std::move(E));
  }
  return T;
}

struct OracleAgg {
  uint64_t Count = 0;
  int64_t Sum = 0;
  SimTime Min = ~0ULL, Max = 0;
};

/// group-by and top-k text for one field, folded into a std::map keyed by
/// the field's natural value type and rendered with \p Render.
template <typename K, typename KeyFn, typename RenderFn>
std::string bruteGroups(const Trace &T, const TraceFilter &F,
                        const char *Label, size_t TopK, KeyFn Key,
                        RenderFn Render) {
  std::map<K, OracleAgg> Groups;
  for (size_t I = 0; I != T.records().size(); ++I) {
    TraceEventView V = viewAt(T, I);
    if (!F.matches(V))
      continue;
    OracleAgg &A = Groups[Key(V)];
    ++A.Count;
    A.Sum += V.Value;
    A.Min = std::min(A.Min, V.Time);
    A.Max = std::max(A.Max, V.Time);
  }
  std::string GroupBy =
      std::string(Label) + "\tcount\tvalue_sum\tt_min\tt_max\n";
  std::vector<std::pair<K, uint64_t>> Counts;
  for (const auto &[G, A] : Groups) {
    GroupBy += Render(G) + "\t" + std::to_string(A.Count) + "\t" +
               std::to_string(A.Sum) + "\t" + std::to_string(A.Min) + "\t" +
               std::to_string(A.Max) + "\n";
    Counts.emplace_back(G, A.Count);
  }
  std::stable_sort(Counts.begin(), Counts.end(),
                   [](const auto &X, const auto &Y) {
                     return X.second > Y.second;
                   });
  std::string Top = std::string(Label) + "\tcount\n";
  for (size_t I = 0; I != std::min(TopK, Counts.size()); ++I)
    Top += Render(Counts[I].first) + "\t" + std::to_string(Counts[I].second) +
           "\n";
  return GroupBy + Top;
}

/// The expected queryGroupBy + queryTopK text for \p Field.
std::string bruteGroupQueries(const Trace &T, const TraceFilter &F,
                              GroupField Field, const QueryOptions &O) {
  auto Num = [](uint64_t N) { return std::to_string(N); };
  switch (Field) {
  case GroupField::Kind:
    return bruteGroups<int>(
        T, F, "kind", O.TopK,
        [](const TraceEventView &V) { return static_cast<int>(V.Kind); },
        [](int K) { return std::string(traceKindName(TraceKind(K))); });
  case GroupField::Subject:
    return bruteGroups<uint64_t>(
        T, F, "subject", O.TopK,
        [](const TraceEventView &V) { return V.Subject; }, Num);
  case GroupField::Peer:
    return bruteGroups<uint64_t>(
        T, F, "peer", O.TopK, [](const TraceEventView &V) { return V.Peer; },
        Num);
  case GroupField::Msg:
    return bruteGroups<int>(
        T, F, "msg", O.TopK,
        [](const TraceEventView &V) { return V.MsgKind; },
        [](int M) { return std::to_string(M); });
  case GroupField::Key:
    return bruteGroups<std::string>(
        T, F, "key", O.TopK,
        [](const TraceEventView &V) { return std::string(V.Key); },
        [](const std::string &K) {
          std::string Out;
          appendEscapedTraceString(Out, K);
          return Out;
        });
  case GroupField::TimeBucket:
    return bruteGroups<uint64_t>(
        T, F, "time_bucket", O.TopK,
        [&O](const TraceEventView &V) {
          return V.Time / O.TimeBucketWidth * O.TimeBucketWidth;
        },
        Num);
  }
  return "?";
}

/// The expected queryStats text.
std::string bruteStats(const Trace &T, const TraceFilter &F) {
  uint64_t Events = 0, Kinds[7] = {};
  SimTime Min = ~0ULL, Max = 0;
  int64_t Sum = 0;
  std::set<ProcessId> Subjects;
  for (size_t I = 0; I != T.records().size(); ++I) {
    TraceEventView V = viewAt(T, I);
    if (!F.matches(V))
      continue;
    ++Events;
    ++Kinds[static_cast<unsigned>(V.Kind)];
    Min = std::min(Min, V.Time);
    Max = std::max(Max, V.Time);
    Sum += V.Value;
    Subjects.insert(V.Subject);
  }
  std::string Out = "events\t" + std::to_string(Events) + "\n";
  if (Events > 0)
    Out += "t_min\t" + std::to_string(Min) + "\nt_max\t" +
           std::to_string(Max) + "\n";
  Out += "subjects\t" + std::to_string(Subjects.size()) + "\n";
  Out += "value_sum\t" + std::to_string(Sum) + "\n";
  for (unsigned K = 0; K != 7; ++K)
    Out += std::string("kind_") + traceKindName(static_cast<TraceKind>(K)) +
           "\t" + std::to_string(Kinds[K]) + "\n";
  return Out;
}

/// The expected queryFilter text.
std::string bruteFilter(const Trace &T, const TraceFilter &F) {
  std::string Out;
  for (size_t I = 0; I != T.records().size(); ++I)
    if (F.matches(viewAt(T, I)))
      appendTraceJsonLine(Out, viewAt(T, I));
  return Out;
}

/// EXPECT_EQ for long texts: reports the first differing line, since
/// gtest's diff of two multi-megabyte strings is quadratic.
::testing::AssertionResult sameText(const std::string &Got,
                                    const std::string &Want) {
  if (Got == Want)
    return ::testing::AssertionSuccess();
  const size_t Common = Got.size() < Want.size() ? Got.size() : Want.size();
  size_t At = 0;
  while (At != Common && Got[At] == Want[At])
    ++At;
  const size_t Line = At == 0 ? 0 : Want.rfind('\n', At - 1) + 1;
  return ::testing::AssertionFailure()
         << "first difference at byte " << At << "\n  got:  "
         << Got.substr(Line, 100) << "\n  want: " << Want.substr(Line, 100);
}

} // namespace

TEST(TraceQuery, EveryQueryShapeMatchesBruteForceByteForByte) {
  FileGuard G;
  const Trace T = buildOracleTrace();
  ASSERT_TRUE(writeColumnarTraceFile(T, ColPath).ok());
  auto Src = TraceQuerySource::open(ColPath);
  ASSERT_TRUE(Src.ok()) << Src.error().str();
  ASSERT_EQ((*Src)->chunkCount(), 3u);

  const SimTime Boundary = T.records()[OracleChunk].Time;
  std::vector<std::pair<const char *, TraceFilter>> Filters(7);
  Filters[0].first = "none";
  Filters[1].first = "kind";
  Filters[1].second.Kind = TraceKind::Deliver;
  Filters[2].first = "subject";
  Filters[2].second.Subject = TiedSubjects[1];
  Filters[3].first = "peer";
  Filters[3].second.Peer = InvalidProcess;
  Filters[4].first = "msg";
  Filters[4].second.Msg = -2;
  Filters[5].first = "key";
  Filters[5].second.Key = "Mid";
  Filters[6].first = "window";
  Filters[6].second.FromTime = Boundary - 300;
  Filters[6].second.ToTime = Boundary + 300;

  QueryOptions O;
  O.TopK = 3; // Cuts through the four-way tie.
  O.TimeBucketWidth = 250;
  for (const auto &[Name, F] : Filters) {
    std::string Want[8];
    for (unsigned Field = 0; Field != 6; ++Field)
      Want[Field] = bruteGroupQueries(T, F, GroupField(Field), O);
    Want[6] = bruteStats(T, F);
    Want[7] = bruteFilter(T, F);
    // Two threads split three chunks unevenly: one worker takes two.
    for (unsigned Threads : {1u, 2u, 4u}) {
      O.Threads = Threads;
      for (unsigned Field = 0; Field != 6; ++Field) {
        auto By = queryGroupBy(**Src, F, GroupField(Field), O);
        auto Top = queryTopK(**Src, F, GroupField(Field), O);
        ASSERT_TRUE(By.ok() && Top.ok());
        EXPECT_TRUE(sameText(*By + *Top, Want[Field]))
            << "filter " << Name << " field " << Field << " threads "
            << Threads;
      }
      auto Stats = queryStats(**Src, F, O);
      auto Filtered = queryFilter(**Src, F, O);
      ASSERT_TRUE(Stats.ok() && Filtered.ok());
      EXPECT_TRUE(sameText(*Stats, Want[6]))
          << "filter " << Name << " threads " << Threads;
      EXPECT_TRUE(sameText(*Filtered, Want[7]))
          << "filter " << Name << " threads " << Threads;
    }
  }

  // The fixture exercises what it claims: the tie leads the subject top-k,
  // cut at its three lowest ids.
  O.Threads = 1;
  auto Top = queryTopK(**Src, TraceFilter(), GroupField::Subject, O);
  ASSERT_TRUE(Top.ok());
  EXPECT_EQ(*Top, "subject\tcount\n1048579\t4000\n1048583\t4000\n"
                  "2097152\t4000\n");
}
