//===- dyndist/sim/TraceKeys.h - Observe-key vocabulary ---------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed vocabulary of Observe keys. Every key a protocol of the
/// library records is listed here with a fixed id, and every TraceKeyTable
/// starts with these ids, so actors observe and checkers match by constant
/// id: no key is interned while a run executes, in any phase or lane.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_SIM_TRACEKEYS_H
#define DYNDIST_SIM_TRACEKEYS_H

#include <cstdint>

namespace dyndist {

/// An Observe key of the vocabulary; the enumerator is its key id.
enum class TraceKey : uint32_t {
  OtqValue = 1,     ///< "otq.value": my input is V.
  OtqInclude,       ///< "otq.include": pid V included.
  OtqResult,        ///< "otq.result": the aggregate is V.
  OtqIssue,         ///< "otq.issue": the issuer began its query.
  ConsensusPropose, ///< "consensus.propose": my proposal is V.
  ConsensusDecide,  ///< "consensus.decide": I decided V.
  FloodSetDecide,   ///< "floodset.decide": I decided V.
  MemberSuspect,    ///< "member.suspect": I suspect pid V.
  MemberRestore,    ///< "member.restore": I trust pid V again.
};

/// Number of vocabulary keys: their ids are 1..TraceKeyCount.
inline constexpr uint32_t TraceKeyCount = 9;

/// Key names by id; entry 0 is the empty key.
inline constexpr const char *TraceKeyNames[TraceKeyCount + 1] = {
    "",
    "otq.value", "otq.include", "otq.result", "otq.issue",
    "consensus.propose", "consensus.decide", "floodset.decide",
    "member.suspect", "member.restore"};

/// The key id of \p K.
constexpr uint32_t keyIdOf(TraceKey K) { return static_cast<uint32_t>(K); }

/// The name of \p K.
constexpr const char *keyNameOf(TraceKey K) {
  return TraceKeyNames[keyIdOf(K)];
}

} // namespace dyndist

#endif // DYNDIST_SIM_TRACEKEYS_H
