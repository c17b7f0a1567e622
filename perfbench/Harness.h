//===- Harness.h - Timing, statistics and reporting for the driver -*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement side of the end-to-end benchmark: a wall clock read from
/// outside the library, order statistics over repeated operations, output
/// checks counted against the checks attempted, the simulated-statistics
/// fingerprint, and the report lines the driver prints. Nothing here calls
/// into dyndist.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_PERFBENCH_HARNESS_H
#define DYNDIST_PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since \p T0.
inline double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// The tail of a latency sample: the highest percentile of a fixed ladder
/// that still has at least ten samples beyond it (nearest-rank), or the
/// maximum, labelled p100, when the sample is too small for any rung.
struct Tail {
  double Value = 0.0;
  double Percentile = 100.0;
};

inline Tail tailOf(std::vector<double> V) {
  Tail T;
  if (V.empty())
    return T;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  T.Value = V.back();
  for (double P : {50.0, 90.0, 95.0, 99.0, 99.9, 99.99}) {
    size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
    size_t Index = Rank == 0 ? 0 : Rank - 1;
    if (N - 1 - Index < 10)
      break;
    T.Value = V[Index];
    T.Percentile = P;
  }
  return T;
}

/// Per-operation best-of-N. Every pass of a workload repeats the same
/// deterministic operations (the fingerprint checks they stay identical), and
/// on a shared host interference only ever adds time to an operation, so its
/// minimum over passes estimates its own cost. Sampling the minimum per
/// operation rather than per pass averages the interference out across the
/// many operations of a pass.
class BestOf {
public:
  void add(const std::vector<double> &Sample) {
    if (Best.empty()) {
      Best = Sample;
      return;
    }
    for (size_t I = 0; I != Best.size() && I != Sample.size(); ++I)
      Best[I] = std::min(Best[I], Sample[I]);
  }
  const std::vector<double> &best() const { return Best; }
  double total() const {
    double S = 0;
    for (double V : Best)
      S += V;
    return S;
  }

private:
  std::vector<double> Best;
};

/// Runs \p Once repeatedly for about \p Seconds: another repetition starts
/// only while the previous one would still fit, and at least \p MinReps run
/// whatever the budget. Closed loop on the calling thread.
template <typename Fn>
void repeatFor(double Seconds, size_t MinReps, Fn &&Once) {
  const auto T0 = Clock::now();
  size_t Reps = 0;
  double Last = 0.0;
  while (Reps < MinReps || since(T0) + Last <= Seconds) {
    const auto T = Clock::now();
    Once();
    Last = since(T);
    ++Reps;
  }
}

/// Peak resident set of this process so far, in MiB.
inline double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

/// Output checks: every expectation counts as attempted, the false ones as
/// failed; the first few failures are kept for the report.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;

  void expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (Failures.size() < 16)
      Failures.push_back(What);
  }
};

/// Appends \p S to \p Out as a JSON string literal.
inline void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}

/// A number printed with all its digits (round-trippable double).
inline std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

/// A JSON array of numbers.
inline std::string jsonArray(const std::vector<double> &V) {
  std::string Out = "[";
  for (double X : V)
    Out += (Out.size() > 1 ? "," : "") + jsonNumber(X);
  return Out + "]";
}

/// An ordered flat JSON object under construction.
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double V) {
    return raw(Key, jsonNumber(V));
  }
  JsonObject &count(const std::string &Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  JsonObject &str(const std::string &Key, const std::string &V) {
    std::string S;
    appendJsonString(S, V);
    return raw(Key, S);
  }
  JsonObject &raw(const std::string &Key, const std::string &Json) {
    Body += Body.empty() ? "{" : ",";
    appendJsonString(Body, Key);
    Body += ':';
    Body += Json;
    return *this;
  }
  std::string render() const { return Body.empty() ? "{}" : Body + "}"; }

private:
  std::string Body;
};

/// Named metrics with units, in report order.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// FNV-1a over a byte range, continuing from \p H.
inline uint64_t fnv1a(const void *Data, size_t N,
                      uint64_t H = 0xcbf29ce484222325ULL) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// The simulated-statistics fingerprint: ordered integer counters plus a
/// FNV-1a digest over "name=value;" pairs. A change that claims speed only
/// must leave it byte-identical.
class Fingerprint {
public:
  void add(const std::string &Name, uint64_t V) { Fields.emplace_back(Name, V); }

  std::string digest() const {
    uint64_t H = fnv1a(nullptr, 0);
    for (const auto &[Name, V] : Fields) {
      const std::string S = Name + "=" + std::to_string(V) + ";";
      H = fnv1a(S.data(), S.size(), H);
    }
    char Buf[24];
    std::snprintf(Buf, sizeof Buf, "%016llx", (unsigned long long)H);
    return Buf;
  }

  std::string render() const {
    JsonObject O;
    for (const auto &[Name, V] : Fields)
      O.count(Name, V);
    O.str("digest", digest());
    return O.render();
  }

private:
  std::vector<std::pair<std::string, uint64_t>> Fields;
};

} // namespace perfbench

#endif // DYNDIST_PERFBENCH_HARNESS_H
