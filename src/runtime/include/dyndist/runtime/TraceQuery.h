//===- dyndist/runtime/TraceQuery.h - Sharded trace queries -----*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel filter/aggregation over archived traces: the analysis engine
/// behind `dyndist-query query ...`. A query runs in three phases, the
/// shape of a distributed scan-and-merge, a column at a time (X100-style;
/// Boncz et al., CIDR 2005):
///
///   1. Prune: chunk frame metadata (min/max time, kind bitmap) eliminates
///      chunks that cannot contain a matching event.
///   2. Scan: each WorkerPool job decodes its share of the surviving chunks
///      into reused typed arrays, selects the matching rows (the time
///      window is a binary-searched row range), and folds them into one
///      partial per worker: dense arrays for small kind/subject/peer
///      values, ordered maps for the rest.
///   3. Merge: aggregates are order-free, so the partials fold in any
///      order; filter output is kept per chunk and joined in chunk order.
///
/// So the rendered output is byte-identical at any thread count — the same
/// determinism contract SweepRunner established for seed sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_RUNTIME_TRACEQUERY_H
#define DYNDIST_RUNTIME_TRACEQUERY_H

#include "dyndist/sim/TraceColumnar.h"
#include "dyndist/support/Result.h"

#include <optional>
#include <string>

namespace dyndist {

/// Conjunctive event predicate: every set field must match, and the event
/// time must fall in the inclusive [FromTime, ToTime] window.
struct TraceFilter {
  std::optional<TraceKind> Kind;
  std::optional<ProcessId> Subject;
  std::optional<ProcessId> Peer;
  std::optional<int> Msg;
  std::optional<std::string> Key;
  SimTime FromTime = 0;
  SimTime ToTime = ~0ULL;

  /// True when \p V satisfies every set field.
  bool matches(const TraceEventView &V) const {
    if (Kind && V.Kind != *Kind)
      return false;
    if (V.Time < FromTime || V.Time > ToTime)
      return false;
    if (Subject && V.Subject != *Subject)
      return false;
    if (Peer && V.Peer != *Peer)
      return false;
    if (Msg && V.MsgKind != *Msg)
      return false;
    if (Key && V.Key != *Key)
      return false;
    return true;
  }

  /// Chunk-level pruning from frame metadata alone: false when no event in
  /// a chunk with this min/max time and kind bitmap can match.
  bool mayMatchChunk(const ColumnarChunkInfo &Info) const {
    if (Info.MaxTime < FromTime || Info.MinTime > ToTime)
      return false;
    if (Kind && !(Info.KindMask & (1u << static_cast<unsigned>(*Kind))))
      return false;
    return true;
  }
};

/// Field a group-by/top-k groups on.
enum class GroupField { Kind, Subject, Peer, Msg, Key, TimeBucket };

/// Parses a field name ("kind", "subject", "peer", "msg", "key", "time").
bool groupFieldFromName(const std::string &Name, GroupField &Out);

/// A query's event source: the columnar reader itself. Immutable after
/// open, so any number of query workers may scan it concurrently.
using TraceQuerySource = ColumnarTraceReader;

/// Execution knobs shared by the query subcommands.
struct QueryOptions {
  /// Scan concurrency; 0 resolves like SweepRunner (DYNDIST_THREADS, then
  /// hardware). The rendered output is identical at every value.
  unsigned Threads = 1;
  /// group-by time: bucket width in ticks.
  uint64_t TimeBucketWidth = 100;
  /// top-k: number of groups reported.
  size_t TopK = 10;
  /// filter: cap on emitted events (~0 = all).
  uint64_t Limit = ~0ULL;
};

/// Emits matching events as JSON lines (the TraceIO export, byte for byte),
/// in event order, capped at Opts.Limit.
Result<std::string> queryFilter(const TraceQuerySource &Src,
                                const TraceFilter &Filter,
                                const QueryOptions &Opts);

/// Aggregates matching events by \p Field: one TSV row per group (sorted
/// by group value) with count, value sum, and time extent.
Result<std::string> queryGroupBy(const TraceQuerySource &Src,
                                 const TraceFilter &Filter, GroupField Field,
                                 const QueryOptions &Opts);

/// The Opts.TopK most frequent groups of \p Field among matching events,
/// by descending count (ties by ascending group value).
Result<std::string> queryTopK(const TraceQuerySource &Src,
                              const TraceFilter &Filter, GroupField Field,
                              const QueryOptions &Opts);

/// Whole-trace summary of matching events: totals, per-kind counts, time
/// extent, distinct subjects, value sum.
Result<std::string> queryStats(const TraceQuerySource &Src,
                               const TraceFilter &Filter,
                               const QueryOptions &Opts);

} // namespace dyndist

#endif // DYNDIST_RUNTIME_TRACEQUERY_H
