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

/// Runs \p Scan once per filter-surviving chunk on a WorkerPool (slot
/// order positional: slot J is the J-th surviving chunk in file order),
/// then hands the slots to \p Merge serially in that same order. The first
/// scan error in chunk order wins, matching what a serial run would hit.
template <typename Partial, typename ScanFn, typename MergeFn>
Status scanAndMerge(const TraceQuerySource &Src, const TraceFilter &Filter,
                    unsigned Threads, ScanFn Scan, MergeFn Merge) {
  std::vector<size_t> Eligible;
  for (size_t I = 0, N = Src.chunkCount(); I != N; ++I)
    if (Filter.mayMatchChunk(Src.chunk(I)))
      Eligible.push_back(I);

  std::vector<Partial> Partials(Eligible.size());
  std::vector<std::optional<Error>> Errors(Eligible.size());

  auto RunOne = [&](unsigned J) {
    Status S = Src.scanChunk(Eligible[J], [&](const TraceEventView &V) {
      if (Filter.matches(V))
        Scan(V, Partials[J]);
    });
    if (!S)
      Errors[J] = S.error();
  };

  Threads = std::max(1u, resolveSweepThreads(Threads));
  if (Threads <= 1 || Eligible.size() <= 1) {
    for (unsigned J = 0; J != Eligible.size(); ++J)
      RunOne(J);
  } else {
    WorkerPool Pool;
    Pool.ensureWorkers(
        std::min<unsigned>(Threads, (unsigned)Eligible.size()) - 1);
    Pool.run(static_cast<unsigned>(Eligible.size()), RunOne);
  }

  for (auto &E : Errors)
    if (E)
      return *E;
  for (size_t J = 0; J != Partials.size(); ++J)
    Merge(Partials[J]);
  return Status::success();
}

/// Ordered group identity. Numeric fields order by Num (msg uses an
/// offset-binary transform so negative kinds sort before positive); the
/// key field orders by Str.
struct GroupKey {
  uint64_t Num = 0;
  std::string Str;

  bool operator<(const GroupKey &O) const {
    return Num != O.Num ? Num < O.Num : Str < O.Str;
  }
};

GroupKey groupKeyOf(GroupField Field, const TraceEventView &V,
                    uint64_t BucketWidth) {
  GroupKey K;
  switch (Field) {
  case GroupField::Kind:
    K.Num = static_cast<uint64_t>(V.Kind);
    break;
  case GroupField::Subject:
    K.Num = V.Subject;
    break;
  case GroupField::Peer:
    K.Num = V.Peer;
    break;
  case GroupField::Msg:
    K.Num = static_cast<uint64_t>(static_cast<int64_t>(V.MsgKind)) ^
            (1ULL << 63);
    break;
  case GroupField::Key:
    K.Str.assign(V.Key);
    break;
  case GroupField::TimeBucket:
    K.Num = BucketWidth ? V.Time / BucketWidth * BucketWidth : V.Time;
    break;
  }
  return K;
}

/// Renders a group value for output rows.
std::string renderGroup(GroupField Field, const GroupKey &K) {
  switch (Field) {
  case GroupField::Kind:
    return traceKindName(static_cast<TraceKind>(K.Num));
  case GroupField::Subject:
  case GroupField::Peer:
  case GroupField::TimeBucket:
    return format("%llu", (unsigned long long)K.Num);
  case GroupField::Msg:
    return format("%lld", (long long)(int64_t)(K.Num ^ (1ULL << 63)));
  case GroupField::Key: {
    std::string Out;
    appendEscapedTraceString(Out, K.Str);
    return Out;
  }
  }
  return "?";
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

/// Per-group aggregate: count, value sum, time extent.
struct GroupAgg {
  uint64_t Count = 0;
  int64_t ValueSum = 0;
  uint64_t MinTime = ~0ULL;
  uint64_t MaxTime = 0;

  void add(const TraceEventView &V) {
    ++Count;
    ValueSum += V.Value;
    MinTime = std::min(MinTime, (uint64_t)V.Time);
    MaxTime = std::max(MaxTime, (uint64_t)V.Time);
  }

  void fold(const GroupAgg &O) {
    Count += O.Count;
    ValueSum += O.ValueSum;
    MinTime = std::min(MinTime, O.MinTime);
    MaxTime = std::max(MaxTime, O.MaxTime);
  }
};

using GroupMap = std::map<GroupKey, GroupAgg>;

Status aggregateGroups(const TraceQuerySource &Src, const TraceFilter &Filter,
                       GroupField Field, const QueryOptions &Opts,
                       GroupMap &Out) {
  return scanAndMerge<GroupMap>(
      Src, Filter, Opts.Threads,
      [&](const TraceEventView &V, GroupMap &P) {
        P[groupKeyOf(Field, V, Opts.TimeBucketWidth)].add(V);
      },
      [&](GroupMap &P) {
        for (auto &[K, A] : P) {
          auto [It, Inserted] = Out.try_emplace(K, A);
          if (!Inserted)
            It->second.fold(A);
        }
      });
}

} // namespace

//===----------------------------------------------------------------------===//
// Query subcommands
//===----------------------------------------------------------------------===//

Result<std::string> dyndist::queryFilter(const TraceQuerySource &Src,
                                         const TraceFilter &Filter,
                                         const QueryOptions &Opts) {
  std::string Out;
  uint64_t Emitted = 0;
  Status S = scanAndMerge<std::string>(
      Src, Filter, Opts.Threads,
      [](const TraceEventView &V, std::string &P) {
        appendTraceJsonLine(P, V);
      },
      [&](std::string &P) {
        if (Emitted >= Opts.Limit)
          return;
        // Count lines in this partial; take only up to the limit.
        size_t Pos = 0;
        while (Pos < P.size() && Emitted < Opts.Limit) {
          size_t End = P.find('\n', Pos);
          End = End == std::string::npos ? P.size() : End + 1;
          Out.append(P, Pos, End - Pos);
          Pos = End;
          ++Emitted;
        }
      });
  if (!S)
    return S.error();
  return Out;
}

Result<std::string> dyndist::queryGroupBy(const TraceQuerySource &Src,
                                          const TraceFilter &Filter,
                                          GroupField Field,
                                          const QueryOptions &Opts) {
  GroupMap Groups;
  if (Status S = aggregateGroups(Src, Filter, Field, Opts, Groups); !S)
    return S.error();
  std::string Out =
      format("%s\tcount\tvalue_sum\tt_min\tt_max\n", groupFieldLabel(Field));
  for (const auto &[K, A] : Groups)
    Out += format("%s\t%llu\t%lld\t%llu\t%llu\n",
                  renderGroup(Field, K).c_str(), (unsigned long long)A.Count,
                  (long long)A.ValueSum, (unsigned long long)A.MinTime,
                  (unsigned long long)A.MaxTime);
  return Out;
}

Result<std::string> dyndist::queryTopK(const TraceQuerySource &Src,
                                       const TraceFilter &Filter,
                                       GroupField Field,
                                       const QueryOptions &Opts) {
  GroupMap Groups;
  if (Status S = aggregateGroups(Src, Filter, Field, Opts, Groups); !S)
    return S.error();
  std::vector<const GroupMap::value_type *> Rows;
  Rows.reserve(Groups.size());
  for (const auto &Entry : Groups)
    Rows.push_back(&Entry);
  // Descending count; the map's key order breaks ties ascending, and
  // stable_sort preserves it.
  std::stable_sort(Rows.begin(), Rows.end(), [](const auto *A, const auto *B) {
    return A->second.Count > B->second.Count;
  });
  if (Rows.size() > Opts.TopK)
    Rows.resize(Opts.TopK);
  std::string Out = format("%s\tcount\n", groupFieldLabel(Field));
  for (const auto *Row : Rows)
    Out += format("%s\t%llu\n", renderGroup(Field, Row->first).c_str(),
                  (unsigned long long)Row->second.Count);
  return Out;
}

Result<std::string> dyndist::queryStats(const TraceQuerySource &Src,
                                        const TraceFilter &Filter,
                                        const QueryOptions &Opts) {
  struct StatsPartial {
    uint64_t Events = 0;
    uint64_t KindCounts[7] = {};
    uint64_t MinTime = ~0ULL;
    uint64_t MaxTime = 0;
    int64_t ValueSum = 0;
    std::vector<ProcessId> Subjects; ///< Sorted unique after finish().

    void finish() {
      std::sort(Subjects.begin(), Subjects.end());
      Subjects.erase(std::unique(Subjects.begin(), Subjects.end()),
                     Subjects.end());
    }
  };

  StatsPartial Totals;
  std::vector<ProcessId> AllSubjects;
  Status S = scanAndMerge<StatsPartial>(
      Src, Filter, Opts.Threads,
      [](const TraceEventView &V, StatsPartial &P) {
        ++P.Events;
        ++P.KindCounts[static_cast<unsigned>(V.Kind)];
        P.MinTime = std::min(P.MinTime, (uint64_t)V.Time);
        P.MaxTime = std::max(P.MaxTime, (uint64_t)V.Time);
        P.ValueSum += V.Value;
        P.Subjects.push_back(V.Subject);
      },
      [&](StatsPartial &P) {
        P.finish();
        Totals.Events += P.Events;
        for (unsigned K = 0; K != 7; ++K)
          Totals.KindCounts[K] += P.KindCounts[K];
        Totals.MinTime = std::min(Totals.MinTime, P.MinTime);
        Totals.MaxTime = std::max(Totals.MaxTime, P.MaxTime);
        Totals.ValueSum += P.ValueSum;
        AllSubjects.insert(AllSubjects.end(), P.Subjects.begin(),
                           P.Subjects.end());
      });
  if (!S)
    return S.error();
  std::sort(AllSubjects.begin(), AllSubjects.end());
  AllSubjects.erase(std::unique(AllSubjects.begin(), AllSubjects.end()),
                    AllSubjects.end());

  std::string Out;
  Out += format("events\t%llu\n", (unsigned long long)Totals.Events);
  if (Totals.Events > 0) {
    Out += format("t_min\t%llu\n", (unsigned long long)Totals.MinTime);
    Out += format("t_max\t%llu\n", (unsigned long long)Totals.MaxTime);
  }
  Out += format("subjects\t%zu\n", AllSubjects.size());
  Out += format("value_sum\t%lld\n", (long long)Totals.ValueSum);
  for (unsigned K = 0; K != 7; ++K)
    Out += format("kind_%s\t%llu\n",
                  traceKindName(static_cast<TraceKind>(K)),
                  (unsigned long long)Totals.KindCounts[K]);
  return Out;
}
