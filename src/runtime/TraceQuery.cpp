//===- TraceQuery.cpp - Sharded trace queries -----------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/runtime/TraceQuery.h"

#include "dyndist/runtime/SweepRunner.h"
#include "dyndist/sim/TraceIO.h"
#include "dyndist/support/StringUtils.h"
#include "dyndist/support/WorkerPool.h"

#include <algorithm>
#include <map>
#include <numeric>

using namespace dyndist;

bool dyndist::groupFieldFromName(const std::string &Name, GroupField &Out) {
  if (Name == "kind")
    Out = GroupField::Kind;
  else if (Name == "subject")
    Out = GroupField::Subject;
  else if (Name == "peer")
    Out = GroupField::Peer;
  else if (Name == "msg")
    Out = GroupField::Msg;
  else if (Name == "key")
    Out = GroupField::Key;
  else if (Name == "time")
    Out = GroupField::TimeBucket;
  else
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Parallel scan harness
//===----------------------------------------------------------------------===//

namespace {

/// A worker's decode buffers, reused across chunks and queries.
thread_local ColumnBatch TLBatch;
thread_local std::vector<uint32_t> TLRows;

/// The rows of \p B that \p F keeps, ascending, in \p Rows. Times ascend
/// within a chunk, so the time window is a row range found by binary
/// search; each set field then narrows it in one pass.
const std::vector<uint32_t> &selectRows(const ColumnBatch &B,
                                        const TraceFilter &F,
                                        std::vector<uint32_t> &Rows) {
  const auto &Time = B.Time;
  auto Begin = std::lower_bound(Time.begin(), Time.end(), F.FromTime);
  auto End = std::upper_bound(Begin, Time.end(), F.ToTime);
  Rows.resize(static_cast<size_t>(End - Begin));
  std::iota(Rows.begin(), Rows.end(),
            static_cast<uint32_t>(Begin - Time.begin()));
  auto Narrow = [&Rows](auto Keep) {
    size_t N = 0;
    for (uint32_t I : Rows) {
      Rows[N] = I;
      N += Keep(I);
    }
    Rows.resize(N);
  };
  if (F.Kind) {
    const auto Kind = static_cast<uint8_t>(*F.Kind);
    Narrow([&](uint32_t I) { return B.Kind[I] == Kind; });
  }
  if (F.Subject)
    Narrow([&](uint32_t I) { return B.Subject[I] == *F.Subject; });
  if (F.Peer)
    Narrow([&](uint32_t I) { return B.Peer[I] == *F.Peer; });
  if (F.Msg)
    Narrow([&](uint32_t I) { return B.Msg[I] == *F.Msg; });
  if (F.Key) {
    // Resolved once per chunk: which string-table ids name the key.
    std::vector<uint8_t> Match(B.Strings.size() + 1);
    for (uint32_t Id = 0; Id != Match.size(); ++Id)
      Match[Id] = B.keyName(Id) == *F.Key;
    Narrow([&](uint32_t I) { return Match[B.KeyId[I]] != 0; });
  }
  return Rows;
}

/// Decodes every chunk the filter's frame check keeps and calls Scan(P,
/// Batch, Rows) with the rows the filter keeps. P is Out[J] for the J-th
/// kept chunk with \p PerChunk (output joined in chunk order), else the
/// worker's own partial (aggregates are order-free). Job W takes kept
/// chunks W, W + Jobs, ...; the first error in chunk order wins.
template <typename Partial, typename ScanFn>
Status scanChunks(const TraceQuerySource &Src, const TraceFilter &Filter,
                  unsigned Threads, bool PerChunk, std::vector<Partial> &Out,
                  ScanFn Scan) {
  std::vector<size_t> Chunks;
  for (size_t I = 0, N = Src.chunkCount(); I != N; ++I)
    if (Filter.mayMatchChunk(Src.chunk(I)))
      Chunks.push_back(I);
  const size_t NumChunks = Chunks.size();
  const auto Jobs = static_cast<unsigned>(std::clamp<size_t>(
      resolveSweepThreads(Threads), 1, std::max<size_t>(1, NumChunks)));
  Out.assign(PerChunk ? NumChunks : Jobs, Partial());
  std::vector<std::optional<Error>> Errors(NumChunks);

  auto RunJob = [&](unsigned J) {
    for (size_t C = J; C < NumChunks; C += Jobs) {
      if (Status St = Src.decodeChunk(Chunks[C], TLBatch); !St) {
        Errors[C] = St.error();
        return;
      }
      Scan(Out[PerChunk ? C : J], TLBatch, selectRows(TLBatch, Filter, TLRows));
    }
  };
  if (Jobs == 1) {
    RunJob(0);
  } else {
    WorkerPool Pool;
    Pool.ensureWorkers(Jobs - 1);
    Pool.run(Jobs, RunJob);
  }
  for (auto &E : Errors)
    if (E)
      return *E;
  return Status::success();
}

/// Per-group aggregate: count, value sum, time extent. The sum wraps
/// (two's complement), so every fold order gives the same bits.
struct GroupAgg {
  uint64_t Count = 0;
  uint64_t ValueSum = 0;
  uint64_t MinTime = ~0ULL;
  uint64_t MaxTime = 0;

  void add(uint64_t Time, int64_t Value) {
    ++Count;
    ValueSum += static_cast<uint64_t>(Value);
    MinTime = std::min(MinTime, Time);
    MaxTime = std::max(MaxTime, Time);
  }

  void fold(const GroupAgg &O) {
    Count += O.Count;
    ValueSum += O.ValueSum;
    MinTime = std::min(MinTime, O.MinTime);
    MaxTime = std::max(MaxTime, O.MaxTime);
  }
};

/// One worker's groups. Kind, subject and peer values below the events the
/// query decodes fold into Dense by value, so a crafted id never sizes an
/// allocation; larger ones (InvalidProcess too), offset-binary msg kinds
/// and time buckets into the ordered Sparse; keys into Named.
struct Groups {
  std::vector<GroupAgg> Dense;
  std::map<uint64_t, GroupAgg> Sparse;
  std::map<std::string, GroupAgg> Named;

  void fold(const Groups &O) {
    if (Dense.size() < O.Dense.size())
      Dense.resize(O.Dense.size());
    for (size_t I = 0; I != O.Dense.size(); ++I)
      Dense[I].fold(O.Dense[I]);
    for (const auto &[K, A] : O.Sparse)
      Sparse[K].fold(A);
    for (const auto &[K, A] : O.Named)
      Named[K].fold(A);
  }
};

void foldChunk(Groups &G, GroupField Field, uint64_t Limit,
               uint64_t BucketWidth, const ColumnBatch &B,
               const std::vector<uint32_t> &Rows) {
  const uint64_t *Time = B.Time.data();
  const int64_t *Value = B.Value.data();
  // Folds each row into its group Num(I): Dense when below DenseLimit,
  // else Sparse, through a one-group cache (time buckets come in runs).
  auto Fold = [&](uint64_t DenseLimit, auto Num) {
    GroupAgg *Last = nullptr;
    uint64_t LastNum = 0;
    for (uint32_t I : Rows) {
      const uint64_t N = Num(I);
      GroupAgg *A = Last;
      if (N < DenseLimit) {
        if (N >= G.Dense.size())
          G.Dense.resize(N + 1);
        A = &G.Dense[N];
      } else if (!Last || N != LastNum) {
        A = Last = &G.Sparse[N];
        LastNum = N;
      }
      A->add(Time[I], Value[I]);
    }
  };
  switch (Field) {
  case GroupField::Kind:
    return Fold(Limit, [&](uint32_t I) { return uint64_t(B.Kind[I]); });
  case GroupField::Subject:
    return Fold(Limit, [&](uint32_t I) { return B.Subject[I]; });
  case GroupField::Peer:
    return Fold(Limit, [&](uint32_t I) { return B.Peer[I]; });
  case GroupField::Msg:
    return Fold(0, [&](uint32_t I) {
      return static_cast<uint64_t>(int64_t(B.Msg[I])) ^ (1ULL << 63);
    });
  case GroupField::TimeBucket:
    return Fold(0, [&](uint32_t I) {
      return BucketWidth ? Time[I] / BucketWidth * BucketWidth : Time[I];
    });
  case GroupField::Key:
    // Chunk-local ids (bounded by the string table) in Dense, then names.
    Fold(~0ULL, [&](uint32_t I) { return uint64_t(B.KeyId[I]); });
    for (uint32_t Id = 0; Id != G.Dense.size(); ++Id)
      if (G.Dense[Id].Count)
        G.Named[std::string(B.keyName(Id))].fold(G.Dense[Id]);
    G.Dense.clear();
    return;
  }
}

const char *groupFieldLabel(GroupField Field) {
  switch (Field) {
  case GroupField::Kind:
    return "kind";
  case GroupField::Subject:
    return "subject";
  case GroupField::Peer:
    return "peer";
  case GroupField::Msg:
    return "msg";
  case GroupField::Key:
    return "key";
  case GroupField::TimeBucket:
    return "time_bucket";
  }
  return "?";
}

/// One output group: its rendered value and aggregate.
struct GroupRow {
  std::string Label;
  GroupAgg Agg;
};

/// Renders a numeric group value.
std::string renderGroup(GroupField Field, uint64_t Num) {
  switch (Field) {
  case GroupField::Kind:
    return traceKindName(static_cast<TraceKind>(Num));
  case GroupField::Msg:
    return format("%lld", (long long)(int64_t)(Num ^ (1ULL << 63)));
  default:
    return format("%llu", (unsigned long long)Num);
  }
}

/// The matching events folded by each of \p Fields, one Groups per field,
/// in a single scan.
Result<std::vector<Groups>> foldGroups(const TraceQuerySource &Src,
                                       const TraceFilter &Filter,
                                       const std::vector<GroupField> &Fields,
                                       const QueryOptions &Opts) {
  uint64_t Limit = 0; // The events the scan decodes: Groups' dense bound.
  for (size_t I = 0; I != Src.chunkCount(); ++I)
    if (Filter.mayMatchChunk(Src.chunk(I)))
      Limit += Src.chunk(I).EventCount;
  std::vector<std::vector<Groups>> Parts;
  Status S = scanChunks(
      Src, Filter, Opts.Threads, /*PerChunk=*/false, Parts,
      [&](std::vector<Groups> &G, const ColumnBatch &B,
          const std::vector<uint32_t> &Rows) {
        G.resize(Fields.size());
        for (size_t F = 0; F != Fields.size(); ++F)
          foldChunk(G[F], Fields[F], Limit, Opts.TimeBucketWidth, B, Rows);
      });
  if (!S)
    return S.error();
  std::vector<Groups> &Total = Parts.front();
  Total.resize(Fields.size()); // Empty when no chunk survived pruning.
  for (size_t W = 1; W < Parts.size(); ++W)
    for (size_t F = 0; F != Fields.size(); ++F)
      Total[F].fold(Parts[W][F]);
  return std::move(Total);
}

/// Calls Fn(Num, Agg) for each numeric group of \p G, ascending: the dense
/// values all sit below the sparse ones.
template <typename FnT> void forEachGroup(const Groups &G, FnT Fn) {
  for (size_t N = 0; N != G.Dense.size(); ++N)
    if (G.Dense[N].Count)
      Fn(uint64_t(N), G.Dense[N]);
  for (const auto &[N, A] : G.Sparse)
    Fn(N, A);
}

/// The groups of matching events by \p Field, sorted by group value.
Result<std::vector<GroupRow>> aggregateGroups(const TraceQuerySource &Src,
                                              const TraceFilter &Filter,
                                              GroupField Field,
                                              const QueryOptions &Opts) {
  auto Folded = foldGroups(Src, Filter, {Field}, Opts);
  if (!Folded)
    return Folded.error();
  const Groups &G = Folded->front();
  std::vector<GroupRow> Rows;
  forEachGroup(G, [&](uint64_t N, const GroupAgg &A) {
    Rows.push_back({renderGroup(Field, N), A});
  });
  for (const auto &[Key, A] : G.Named) {
    Rows.push_back({std::string(), A});
    appendEscapedTraceString(Rows.back().Label, Key);
  }
  return Rows;
}

} // namespace

//===----------------------------------------------------------------------===//
// Query subcommands
//===----------------------------------------------------------------------===//

Result<std::string> dyndist::queryFilter(const TraceQuerySource &Src,
                                         const TraceFilter &Filter,
                                         const QueryOptions &Opts) {
  std::vector<std::string> Parts;
  Status S = scanChunks(
      Src, Filter, Opts.Threads, /*PerChunk=*/true, Parts,
      [](std::string &P, const ColumnBatch &B,
         const std::vector<uint32_t> &Rows) {
        for (uint32_t I : Rows)
          appendTraceJsonLine(P, B.view(I));
      });
  if (!S)
    return S.error();
  std::string Out;
  uint64_t Emitted = 0;
  for (const std::string &P : Parts) {
    // Take this chunk's lines only up to the limit.
    size_t Pos = 0;
    while (Pos < P.size() && Emitted < Opts.Limit) {
      size_t End = P.find('\n', Pos);
      End = End == std::string::npos ? P.size() : End + 1;
      Out.append(P, Pos, End - Pos);
      Pos = End;
      ++Emitted;
    }
  }
  return Out;
}

Result<std::string> dyndist::queryGroupBy(const TraceQuerySource &Src,
                                          const TraceFilter &Filter,
                                          GroupField Field,
                                          const QueryOptions &Opts) {
  auto Rows = aggregateGroups(Src, Filter, Field, Opts);
  if (!Rows)
    return Rows.error();
  std::string Out =
      format("%s\tcount\tvalue_sum\tt_min\tt_max\n", groupFieldLabel(Field));
  for (const GroupRow &R : *Rows)
    Out += format("%s\t%llu\t%lld\t%llu\t%llu\n", R.Label.c_str(),
                  (unsigned long long)R.Agg.Count, (long long)R.Agg.ValueSum,
                  (unsigned long long)R.Agg.MinTime,
                  (unsigned long long)R.Agg.MaxTime);
  return Out;
}

Result<std::string> dyndist::queryTopK(const TraceQuerySource &Src,
                                       const TraceFilter &Filter,
                                       GroupField Field,
                                       const QueryOptions &Opts) {
  auto Rows = aggregateGroups(Src, Filter, Field, Opts);
  if (!Rows)
    return Rows.error();
  // Descending count; the rows arrive in ascending group value, and
  // stable_sort keeps that order among ties.
  std::stable_sort(Rows->begin(), Rows->end(),
                   [](const GroupRow &A, const GroupRow &B) {
                     return A.Agg.Count > B.Agg.Count;
                   });
  if (Rows->size() > Opts.TopK)
    Rows->resize(Opts.TopK);
  std::string Out = format("%s\tcount\n", groupFieldLabel(Field));
  for (const GroupRow &R : *Rows)
    Out += format("%s\t%llu\n", R.Label.c_str(),
                  (unsigned long long)R.Agg.Count);
  return Out;
}

Result<std::string> dyndist::queryStats(const TraceQuerySource &Src,
                                        const TraceFilter &Filter,
                                        const QueryOptions &Opts) {
  // One scan: the kind groups give the totals, the subject groups the
  // distinct-subject count.
  auto Folded = foldGroups(Src, Filter,
                           {GroupField::Kind, GroupField::Subject}, Opts);
  if (!Folded)
    return Folded.error();
  GroupAgg All;
  uint64_t KindCounts[7] = {};
  forEachGroup((*Folded)[0], [&](uint64_t Kind, const GroupAgg &A) {
    All.fold(A);
    KindCounts[Kind] = A.Count;
  });
  size_t Subjects = 0;
  forEachGroup((*Folded)[1], [&](uint64_t, const GroupAgg &) { ++Subjects; });

  std::string Out;
  Out += format("events\t%llu\n", (unsigned long long)All.Count);
  if (All.Count > 0) {
    Out += format("t_min\t%llu\n", (unsigned long long)All.MinTime);
    Out += format("t_max\t%llu\n", (unsigned long long)All.MaxTime);
  }
  Out += format("subjects\t%zu\n", Subjects);
  Out += format("value_sum\t%lld\n", (long long)All.ValueSum);
  for (unsigned K = 0; K != 7; ++K)
    Out += format("kind_%s\t%llu\n",
                  traceKindName(static_cast<TraceKind>(K)),
                  (unsigned long long)KindCounts[K]);
  return Out;
}
