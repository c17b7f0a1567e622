//===- dyndist/registers/MajorityRegister.h - 2t+1 construction -*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-implementation of a reliable SWMR atomic register from **n = 2t+1
/// base registers with nonresponsive crash failures**. A nonresponsive
/// object never answers, so no operation may wait on a specific base
/// object; every phase waits for a quorum of n-t completions, and quorum
/// intersection — (n-t) + (n-t) > n, i.e. n >= 2t+1 — carries the freshest
/// value across operations (the shared-object form of the ABD discipline):
///
///   write(v): Seq++; write {Seq, v} to all n; await n-t acks.
///   read():   phase 1: read all n; await n-t answers; pick max Seq.
///             phase 2 (write-back): write the picked pair to all n;
///             await n-t acks; return its value.
///
/// The write-back phase is what upgrades regular to atomic for multiple
/// readers: once a read returns, a quorum holds a value at least as fresh,
/// so no later read can return an older one.
///
/// Base registers are plain (a write stores, never compares), so each
/// client writes its own slot of every base object: the writer slot 0,
/// reader i slot i + 1 (BaseRegister's slot array). A base read answers
/// the highest Seq over the slots. A reader delayed between its two
/// phases therefore writes back an old pair only into its own slot, never
/// over a newer pair a completed write left in slot 0. Each phase is still
/// one invocation per base object.
///
/// Quorums count real replies only. Caller-supplied bases may be
/// responsive-crash objects, which answer ⊥ once crashed; a ⊥ is treated
/// as silence, so a "majority" can never be made of ⊥s, and with at most
/// t failed bases the n-t correct ones always answer.
///
/// The constructor accepts any (n, t). With n < 2t+1 the quorums stop
/// intersecting and the construction is *incorrect* — kept constructible
/// (behind an explicit flag) because the test suite and experiment E6 use
/// exactly that configuration, plus an adversary schedule, to demonstrate
/// the lower bound empirically.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_REGISTERS_MAJORITYREGISTER_H
#define DYNDIST_REGISTERS_MAJORITYREGISTER_H

#include "dyndist/objects/BaseRegister.h"
#include "dyndist/objects/Quorum.h"
#include "dyndist/registers/AtomicRegister.h"

#include <atomic>
#include <memory>
#include <vector>

namespace dyndist {

/// The 2t+1 nonresponsive-crash construction (SWMR, ABD-style).
class MajorityRegister : public AtomicRegister {
public:
  /// Builds over \p NumBases fresh nonresponsive-crash base registers,
  /// tolerating \p Tolerated of them failing. Requires NumBases >=
  /// 2*Tolerated + 1 unless \p AllowUnderprovisioned (lower-bound demos).
  MajorityRegister(size_t NumBases, size_t Tolerated,
                   bool AllowUnderprovisioned = false);

  /// Same, over caller-provided base registers (shared with an adversary).
  MajorityRegister(std::vector<std::shared_ptr<BaseRegister>> Bases,
                   size_t Tolerated, bool AllowUnderprovisioned = false);

  void write(int64_t Value) override;
  int64_t read(size_t ReaderIndex) override;
  uint64_t baseInvocations() const override { return BaseOps.load(); }

  /// Ablation switch: disables the read's write-back phase. The resulting
  /// object is only *regular* — concurrent readers can suffer new/old
  /// inversions, which the ablation test and bench exhibit with a
  /// delay-and-reorder adversary. On by default; leave it on.
  void setWriteBackEnabled(bool Enabled) { WriteBack = Enabled; }

  /// Number of base registers (n).
  size_t baseCount() const { return Bases.size(); }

  /// Access to base register \p I for failure injection in tests.
  BaseRegister &base(size_t I) { return *Bases[I]; }

private:
  /// Issues reads to every base and returns the max-Seq answer among the
  /// first n-t real (non-⊥) replies.
  TaggedValue quorumRead();

  /// Issues writes of \p V into slot \p Slot of every base and blocks for
  /// n-t real acks.
  void quorumWrite(TaggedValue V, size_t Slot);

  std::vector<std::shared_ptr<BaseRegister>> Bases;
  size_t Tolerated;
  bool WriteBack = true;
  std::atomic<uint64_t> NextSeq{0}; // Single writer; atomic for visibility.
  std::atomic<uint64_t> BaseOps{0};
};

} // namespace dyndist

#endif // DYNDIST_REGISTERS_MAJORITYREGISTER_H
