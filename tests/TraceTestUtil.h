//===- TraceTestUtil.h - shared trace test helpers --------------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// Readers of a Trace walk records() and resolve keys through keys(); these
// helpers package the few walks the tests repeat: record-stream equality
// across two key tables, the Observe records of one key, and the columnar
// write -> read round trip.
//
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_TESTS_TRACETESTUTIL_H
#define DYNDIST_TESTS_TRACETESTUTIL_H

#include "dyndist/sim/Trace.h"
#include "dyndist/sim/TraceColumnar.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

namespace dyndist {

/// Field-by-field equality of two record streams. Keys compare as strings:
/// the two key tables may assign different ids.
inline void expectSameRecords(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.records().size(), B.records().size());
  for (size_t I = 0; I != A.records().size(); ++I) {
    TraceEventView X = TraceEventView::of(A.records()[I], A.keys());
    TraceEventView Y = TraceEventView::of(B.records()[I], B.keys());
    ASSERT_EQ(static_cast<int>(X.Kind), static_cast<int>(Y.Kind)) << I;
    ASSERT_EQ(X.Time, Y.Time) << I;
    ASSERT_EQ(X.Subject, Y.Subject) << I;
    ASSERT_EQ(X.Peer, Y.Peer) << I;
    ASSERT_EQ(X.MsgKind, Y.MsgKind) << I;
    ASSERT_EQ(X.Key, Y.Key) << I;
    ASSERT_EQ(X.Value, Y.Value) << I;
  }
}

/// The Observe records of \p T with key \p Key, in trace order.
inline std::vector<TraceRecord> observationsOf(const Trace &T,
                                               const std::string &Key) {
  std::vector<TraceRecord> Out;
  uint32_t Id = T.keys().find(Key);
  if (Id == 0 && !Key.empty())
    return Out; // Never interned: no record can carry it.
  for (const TraceRecord &R : T.records())
    if (R.kind() == TraceKind::Observe && R.keyId() == Id)
      Out.push_back(R);
  return Out;
}

/// Writes \p T as a columnar archive under a pid-unique temp path, reads it
/// back, and deletes the file.
inline Result<Trace> columnarRoundTrip(const Trace &T) {
  const std::string Path = "/tmp/dyndist_roundtrip." +
                           std::to_string(::getpid()) + ".dytr";
  Result<Trace> Back = [&]() -> Result<Trace> {
    if (Status S = writeColumnarTraceFile(T, Path); !S)
      return S.error();
    return readColumnarTraceFile(Path);
  }();
  std::remove(Path.c_str());
  return Back;
}

} // namespace dyndist

#endif // DYNDIST_TESTS_TRACETESTUTIL_H
