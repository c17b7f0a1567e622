//===- dyndist/core/Membership.h - Local membership detector ----*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A heartbeat-based local membership detector: the knowledge machinery a
/// real dynamic system runs under the paper's geographical dimension. Each
/// entity periodically heartbeats its current overlay neighbors and tracks
/// when it last heard from each; silence beyond a timeout turns into
/// *suspicion*, later heartbeats lift it.
///
/// The detector is local by construction — a process only ever forms
/// opinions about its neighbors — and inherits the classic failure-detector
/// trade-off: with bounded message delay and SuspectAfter above the bound,
/// it is accurate (no live neighbor suspected) and complete (every departed
/// neighbor eventually suspected); under heavy-tailed delay it can only be
/// *eventually* accurate, and the suspicion/restore observations it records
/// let the tests measure exactly that.
///
/// Each detector keeps its state as plain members: one sorted flat run of
/// (neighbor, last-heard, suspected) entries. The per-entry layout and all
/// enumeration orders match the old std::map/std::set representation, so
/// recorded traces are byte-identical. A departed detector's state stays
/// readable after the run, like every actor's.
///
/// Observation keys: "member.suspect" / "member.restore" with the subject
/// neighbor's id as value.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_CORE_MEMBERSHIP_H
#define DYNDIST_CORE_MEMBERSHIP_H

#include "dyndist/sim/Actor.h"
#include "dyndist/sim/Message.h"
#include "dyndist/support/InlineVec.h"

#include <functional>
#include <memory>
#include <vector>

namespace dyndist {

/// Names of the observation keys the detector records.
inline constexpr const char *MemberSuspectKey =
    keyNameOf(TraceKey::MemberSuspect);
inline constexpr const char *MemberRestoreKey =
    keyNameOf(TraceKey::MemberRestore);

/// Message kind of the heartbeat (disjoint from other families).
enum MembershipMsgKind : int { MsgHeartbeat = 70 };

/// The heartbeat payload (content-free: receipt is the information).
struct HeartbeatMsg : MessageBody {
  static constexpr int KindId = MsgHeartbeat;
  HeartbeatMsg() : MessageBody(KindId) {}
};

/// Detector tuning shared by all members of one system.
struct MembershipConfig {
  /// Ticks between heartbeat rounds.
  SimTime HeartbeatEvery = 4;

  /// Silence threshold: a neighbor unheard-from for more than this many
  /// ticks is suspected. Must exceed HeartbeatEvery plus the worst
  /// round-trip latency for accuracy to hold.
  SimTime SuspectAfter = 12;
};

/// The per-process membership detector.
class MembershipActor : public Actor {
public:
  /// One tracked neighbor: identity, last-heard instant, suspicion flag.
  /// Kept sorted by Pid, fusing the old LastHeard map and Suspected set
  /// into a single cache line per few neighbors.
  struct NbrEntry {
    ProcessId Pid = InvalidProcess;
    SimTime Heard = 0;
    bool Suspect = false;
  };

  explicit MembershipActor(std::shared_ptr<const MembershipConfig> Config)
      : Config(std::move(Config)) {}

  void onStart(Context &Ctx) override;
  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override;
  void onTimer(Context &Ctx, TimerId Id) override;

  /// The local view: overlay neighbors currently believed up.
  std::vector<ProcessId> liveView(Context &Ctx) const;

  /// A sorted read-only view of the currently suspected ids: the set-like
  /// inspection surface (size/empty/count ascend-ordered enumeration) over
  /// the detector's entries, without materializing a set.
  class SuspectedView {
  public:
    size_t size() const { return A->SuspectCount; }
    bool empty() const { return size() == 0; }

    /// 1 when \p P is suspected, else 0 (std::set::count).
    size_t count(ProcessId P) const;

    /// Invokes \p F for each suspected id in ascending order.
    template <typename FnT> void forEach(FnT F) const {
      for (const NbrEntry &E : A->Nbrs)
        if (E.Suspect)
          F(E.Pid);
    }

  private:
    friend class MembershipActor;
    explicit SuspectedView(const MembershipActor &A) : A(&A) {}
    const MembershipActor *A;
  };

  /// Currently suspected ids (inspection for tests).
  SuspectedView suspected() const { return SuspectedView(*this); }

private:
  void heartbeatRound(Context &Ctx);
  /// True when \p P is a tracked neighbor currently suspected.
  bool isSuspected(ProcessId P) const;

  std::shared_ptr<const MembershipConfig> Config;
  /// The detector state. The inline capacity covers the usual overlay
  /// degree; denser neighborhoods spill to the heap.
  InlineVec<NbrEntry, 8> Nbrs; ///< Sorted by Pid.
  uint32_t SuspectCount = 0;
  /// Reused across rounds: the current neighbor ids, ascending. Kept as a
  /// member so steady-state heartbeat rounds allocate nothing.
  std::vector<ProcessId> NbrScratch;
  /// Reused merge buffer for the per-round entry rebuild.
  std::vector<NbrEntry> MergeScratch;
  TimerId RoundTimer = 0;
};

/// Factory for ChurnDriver / manual spawns.
std::function<std::unique_ptr<Actor>()>
makeMembershipFactory(std::shared_ptr<const MembershipConfig> Config);

} // namespace dyndist

#endif // DYNDIST_CORE_MEMBERSHIP_H
