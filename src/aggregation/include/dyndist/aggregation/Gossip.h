//===- dyndist/aggregation/Gossip.h - Epidemic best-effort query -*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The claim-C3 *best-effort* algorithm: a push-pull epidemic over the
/// contributor set. In the classes where the one-time query is unsolvable
/// (sustained unbounded arrivals, no diameter knowledge) no algorithm can
/// meet the spec; gossip is the paper's archetype of what remains
/// achievable — probabilistic coverage that degrades smoothly with churn
/// instead of failing outright (experiment E4).
///
/// Protocol: infected processes periodically push their known contribution
/// set to a random neighbor; receivers merge, inject their own value,
/// become infected, and answer with their own set (pull). The issuer
/// reports whatever it knows after a fixed waiting time — a deliberate spec
/// violation (the deadline is not derivable from any granted knowledge),
/// which is why gossip is never credited as "solving" a cell in E1.
///
/// Representation: pids are dense per run, so a contributor set is a
/// DenseBitSet over the run's pid space — a merge is one word-wise OR pass that
/// also reports whether it added a member — and the input values sit in one
/// per-run table (GossipValueTable), joined to the ids once, when the issuer
/// reports. Bodies are shared, and never change while a send of them is
/// pending: an actor numbers the versions of its Known set (a new member by its
/// own insert or by a merge bumps it) and keeps the round body (push, or digest
/// in digest mode) and the pull reply it last built, each tagged with the
/// version it copies, the pull also with the query it answers. A send re-uses
/// the body while the version holds, so the set is copied and counted once per
/// change rather than once per send. After a change, a body with a send in
/// flight stays as it was sent and a new one is built; a body that only the
/// cache holds is refilled in place. The push cache is dropped when the rounds
/// end, both caches on a graceful leave. Under the sharded kernel a process
/// never changes lanes, so a cached body is re-sent only by its owner, on the
/// lane whose pool built it.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_AGGREGATION_GOSSIP_H
#define DYNDIST_AGGREGATION_GOSSIP_H

#include "dyndist/aggregation/Protocol.h"
#include "dyndist/support/DenseBitSet.h"

#include <functional>
#include <memory>
#include <vector>

namespace dyndist {

/// Tuning of the epidemic; shared by all actors of one system.
struct GossipConfig {
  /// Ticks between gossip rounds of an infected process.
  SimTime RoundEvery = 2;

  /// Rounds an infected process participates in before going quiet.
  uint64_t Rounds = 40;

  /// Issuer reports after this many ticks.
  SimTime ReportAfter = 100;

  /// Neighbors contacted per round.
  size_t FanOut = 1;

  /// Aggregate monoid the issuer reports under.
  AggregateKind Aggregate = AggregateKind::Sum;

  /// Anti-entropy ablation: when set, rounds exchange id digests first and
  /// ship only the entries the peer is missing, instead of pushing the
  /// full contribution map every round. Same convergence, smaller
  /// payloads — measured by experiment E4's payload column.
  bool DigestMode = false;
};

/// Epidemic payloads that carry the sender's contributor set as a pid
/// bitset: push and pull in full-state mode, the digest in digest mode. A
/// contribution is (pid, that pid's input), and the input is a function of
/// the pid within a run, so the ids alone determine the set; values are
/// looked up at report time. Push and pull still weigh an entry as two
/// units (identity and value) — the bandwidth of shipping the
/// contributions themselves; a digest ships identities only, one unit
/// each. Every body counts its set when it is filled, so weight() is O(1).
template <int MsgKind, size_t UnitsPerMember>
struct GossipSetMsg : MessageBody {
  static constexpr int KindId = MsgKind;
  GossipSetMsg(uint64_t QueryId, const DenseBitSet &Known)
      : MessageBody(KindId) {
    refill(QueryId, Known);
  }
  /// Re-points the body at a new set. Only for a body nobody else holds
  /// (see GossipActor::cachedBody): a body never changes while a send of
  /// it is pending.
  void refill(uint64_t Qid, const DenseBitSet &Set) {
    QueryId = Qid;
    Known = Set;
    Count = Set.count();
  }
  uint64_t QueryId;
  DenseBitSet Known;
  size_t Count; ///< Known.count().
  size_t weight() const override { return 1 + UnitsPerMember * Count; }
};

using GossipPushMsg = GossipSetMsg<MsgGossipPush, 2>;
using GossipPullMsg = GossipSetMsg<MsgGossipPull, 2>;

/// Digest-mode payloads (anti-entropy, in the vocabulary of delta-state
/// CRDTs): the digest carries only identities; the delta answers with the
/// entries the peer lacks (mine & ~theirs) and asks for the ones the
/// sender lacks (theirs & ~mine). An identity weighs one unit, an entry
/// two.
using GossipDigestMsg = GossipSetMsg<MsgGossipDigest, 1>;

struct GossipDeltaMsg : MessageBody {
  static constexpr int KindId = MsgGossipDelta;
  GossipDeltaMsg(uint64_t QueryId, DenseBitSet Entries, DenseBitSet WantIds)
      : MessageBody(KindId), QueryId(QueryId), Entries(std::move(Entries)),
        WantIds(std::move(WantIds)), EntryCount(this->Entries.count()),
        WantCount(this->WantIds.count()) {}
  uint64_t QueryId;
  DenseBitSet Entries;
  DenseBitSet WantIds;
  size_t EntryCount; ///< Entries.count().
  size_t WantCount;  ///< WantIds.count().
  size_t weight() const override { return 1 + 2 * EntryCount + WantCount; }
};

/// Per-run pid -> input value table of one gossip factory. Each actor
/// writes its own entry in onStart, a serial phase of either kernel (the
/// sharded engine asserts no parallel round is running at a spawn), so the
/// handlers only ever read it. A pid's bit is set only by that process's
/// own infect, after its onStart, so an entry left over from an earlier
/// run through the same factory is never read. One factory therefore
/// serves one simulator at a time.
using GossipValueTable = std::vector<int64_t>;

/// Actor implementing the push-pull epidemic query.
class GossipActor : public AggregationActor {
public:
  GossipActor(std::shared_ptr<const GossipConfig> Config,
              std::shared_ptr<GossipValueTable> Values, int64_t Value)
      : AggregationActor(Value), Config(std::move(Config)),
        Values(std::move(Values)) {}

  void onStart(Context &Ctx) override;
  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override;
  void onTimer(Context &Ctx, TimerId Id) override;
  void onStop(Context &Ctx) override;

private:
  /// A body this actor sends, kept while Known stays at the version it
  /// was built from (and, for pulls, the query it answers).
  struct CachedBody {
    MessageRef Body;
    uint64_t Version = 0;
    uint64_t QueryId = 0;
  };

  void startQuery(Context &Ctx);
  void infect(Context &Ctx, uint64_t QueryId);
  void gossipRound(Context &Ctx);
  /// \p C's body, brought up to the current version of Known for \p Qid:
  /// kept when current, refilled in place when only \p C holds it, built
  /// anew otherwise.
  template <typename T>
  const MessageRef &cachedBody(CachedBody &C, uint64_t Qid);

  std::shared_ptr<const GossipConfig> Config;
  std::shared_ptr<GossipValueTable> Values;
  bool Infected = false;
  bool Issuing = false;
  bool Reported = false;
  uint64_t QueryId = 0;
  uint64_t RoundsLeft = 0;
  TimerId RoundTimer = 0;
  TimerId ReportTimer = 0;
  DenseBitSet Known;    ///< Contributor pids.
  uint64_t Version = 0; ///< Bumped on every change of Known.
  CachedBody Round;     ///< This actor's push (or digest) body.
  CachedBody Pull;      ///< Its last pull reply.
};

/// Factory for ChurnDriver / manual spawns. \p NextValue draws each
/// actor's input; the factory owns the value table its actors share.
std::function<std::unique_ptr<Actor>()>
makeGossipFactory(std::shared_ptr<const GossipConfig> Config,
                  std::function<int64_t()> NextValue);

} // namespace dyndist

#endif // DYNDIST_AGGREGATION_GOSSIP_H
