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
/// Per-process detector state lives in a StateSlab shared by every detector
/// the same factory spawns: one sorted flat run of (neighbor, last-heard,
/// suspected) entries per state slot, contiguous across processes, so a
/// million detectors are one dense array instead of a million map/set
/// heaps. The per-entry layout and all enumeration orders match the old
/// std::map/std::set representation, so recorded traces are byte-identical.
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
#include "dyndist/support/StateSlab.h"

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
  /// Kept sorted by Pid inside the slab record, fusing the old LastHeard
  /// map and Suspected set into a single cache line per few neighbors.
  struct NbrEntry {
    ProcessId Pid = InvalidProcess;
    SimTime Heard = 0;
    bool Suspect = false;
  };

  /// The slab record: the whole detector state of one process. The inline
  /// capacity covers the usual overlay degree; denser neighborhoods spill
  /// to the heap once and keep that capacity across slot reuse.
  struct State {
    InlineVec<NbrEntry, 8> Nbrs; ///< Sorted by Pid.
    uint32_t SuspectCount = 0;
    void reset() {
      Nbrs.clear();
      SuspectCount = 0;
    }
  };
  using Slab = StateSlab<State>;

  /// A detector normally shares the slab its factory owns; directly
  /// constructed actors (tests, probes) get a private one.
  explicit MembershipActor(std::shared_ptr<const MembershipConfig> Config,
                           std::shared_ptr<Slab> SharedSlab = nullptr)
      : Config(std::move(Config)),
        States(SharedSlab ? std::move(SharedSlab)
                          : std::make_shared<Slab>()) {}

  void onStart(Context &Ctx) override;
  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override;
  void onTimer(Context &Ctx, TimerId Id) override;

  /// The local view: overlay neighbors currently believed up.
  std::vector<ProcessId> liveView(Context &Ctx) const;

  /// A sorted read-only view of the currently suspected ids: the set-like
  /// inspection surface (size/empty/count ascend-ordered enumeration) over
  /// the slab entries, without materializing a set. Empty once the slot
  /// has been recycled to a newer tenant.
  class SuspectedView {
  public:
    size_t size() const { return St ? St->SuspectCount : 0; }
    bool empty() const { return size() == 0; }

    /// 1 when \p P is suspected, else 0 (std::set::count).
    size_t count(ProcessId P) const;

    /// Invokes \p F for each suspected id in ascending order.
    template <typename FnT> void forEach(FnT F) const {
      if (!St)
        return;
      for (const NbrEntry &E : St->Nbrs)
        if (E.Suspect)
          F(E.Pid);
    }

  private:
    friend class MembershipActor;
    explicit SuspectedView(const State *St) : St(St) {}
    const State *St;
  };

  /// Currently suspected ids (inspection for tests).
  SuspectedView suspected() const {
    return SuspectedView(States->find(Handle));
  }

private:
  void heartbeatRound(Context &Ctx);
  State &state() { return States->at(Handle); }

  std::shared_ptr<const MembershipConfig> Config;
  std::shared_ptr<Slab> States;
  SlabHandle Handle;
  /// Reused across rounds: the current neighbor ids, ascending. Kept as a
  /// member so steady-state heartbeat rounds allocate nothing.
  std::vector<ProcessId> NbrScratch;
  /// Reused merge buffer for the per-round entry rebuild.
  std::vector<NbrEntry> MergeScratch;
  TimerId RoundTimer = 0;
};

/// Factory for ChurnDriver / manual spawns. All actors from one factory
/// share one state slab.
std::function<std::unique_ptr<Actor>()>
makeMembershipFactory(std::shared_ptr<const MembershipConfig> Config);

} // namespace dyndist

#endif // DYNDIST_CORE_MEMBERSHIP_H
