//===- dyndist/core/OneTimeQuery.h - The canonical problem ------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's canonical problem: the **one-time query** (simple data
/// aggregation). A designated issuer q wants f(v_i) over the values v_i
/// held by the members of the dynamic system. The specification, stated
/// over a recorded execution with query interval [Issue, Response]:
///
///  - Termination: q eventually reports a result (an Observe record with
///    key TraceKey::OtqResult).
///  - Completeness (validity, part 1): every process that is up throughout
///    the whole closed interval [Issue, Response] contributes to the
///    result.
///  - No invention (validity, part 2): every contribution comes from a
///    process that was up at some instant of [Issue, Response].
///  - Aggregate consistency: the reported value equals f over the reported
///    contributor set's declared inputs.
///
/// Processes declare their input by observing TraceKey::OtqValue once
/// (normally at start); algorithms report the contributor set via
/// TraceKey::OtqInclude records and the aggregate via TraceKey::OtqResult.
/// The checker here evaluates all four clauses purely over the trace —
/// algorithms are never trusted.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_CORE_ONETIMEQUERY_H
#define DYNDIST_CORE_ONETIMEQUERY_H

#include "dyndist/sim/Trace.h"
#include "dyndist/support/FlatMap.h"

#include <string>
#include <vector>

namespace dyndist {

/// Observation key names of the one-time query protocol family (the
/// vocabulary's OtqValue, OtqInclude and OtqResult).
inline constexpr const char *OtqValueKey = keyNameOf(TraceKey::OtqValue);
inline constexpr const char *OtqIncludeKey = keyNameOf(TraceKey::OtqInclude);
inline constexpr const char *OtqResultKey = keyNameOf(TraceKey::OtqResult);

/// A partial aggregation result: contributor -> declared input value.
/// Merging is set union; the aggregate monoid folds over the values at
/// report time. Carrying the full map (not just the folded value) is what
/// lets the checker audit completeness and invention. Stored as a sorted
/// flat vector: enumeration ascends exactly like the std::map it replaced
/// (experiment outputs are byte-identical), and the whole set lives in one
/// allocation.
using Contributions = FlatMap<ProcessId, int64_t>;

/// The aggregate functions f(v_1, ...) of the query: commutative and
/// associative, made duplicate-insensitive by the structural dedup of the
/// Contributions map.
enum class AggregateKind {
  Sum,   ///< Sum of contributor inputs.
  Count, ///< Number of contributors (a census).
  Min,   ///< Smallest input.
  Max,   ///< Largest input.
};

/// Folds \p C under \p Kind. Empty contributions fold to the monoid
/// identity (0 for Sum/Count; INT64_MAX/INT64_MIN for Min/Max).
int64_t foldAggregate(AggregateKind Kind, const Contributions &C);

/// Display name ("sum", "count", ...).
std::string aggregateName(AggregateKind Kind);

/// Checker output for one query instance.
struct QueryVerdict {
  /// Clause 1: the issuer reported a result before the horizon.
  bool Terminated = false;

  /// Time of the result report (valid when Terminated).
  SimTime ResponseTime = 0;

  /// Clause 2: no required member is missing.
  bool Complete = false;

  /// Clause 3: no contributor was invented.
  bool NoInvention = false;

  /// Clause 4: reported aggregate equals the sum over included inputs.
  bool AggregateConsistent = false;

  /// All clauses hold.
  bool valid() const {
    return Terminated && Complete && NoInvention && AggregateConsistent;
  }

  /// Required members (up throughout [Issue, Response]) missing from the
  /// contributor set.
  std::vector<ProcessId> Missed;

  /// Contributors that were never up during [Issue, Response].
  std::vector<ProcessId> Invented;

  /// |included ∩ required| / |required| (1.0 when required is empty).
  /// Meaningful even for failed runs: E4 plots gossip's coverage decay.
  double Coverage = 0.0;

  size_t IncludedCount = 0;
  size_t RequiredCount = 0;

  /// The reported aggregate (valid when Terminated).
  int64_t Aggregate = 0;

  /// One-line human summary.
  std::string str() const;
};

/// Evaluates the one-time query spec over \p T for the query issued by
/// \p Issuer at \p IssueTime. \p Horizon is the end of the recorded run;
/// non-termination means no result record up to it. \p Kind selects the
/// aggregate monoid the consistency clause re-folds; it must match the
/// kind the algorithm reported under. The clause is skipped — reported
/// true — when the issuer reports no contributor set at all, which only
/// happens for algorithms outside this library.
QueryVerdict checkOneTimeQuery(const Trace &T, ProcessId Issuer,
                               SimTime IssueTime, SimTime Horizon,
                               AggregateKind Kind = AggregateKind::Sum);

} // namespace dyndist

#endif // DYNDIST_CORE_ONETIMEQUERY_H
