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
/// DenseBitSet over the run's pid space — a merge is a word-wise OR with a
/// subset early exit, a send copies a few words — and the input values sit
/// in one per-run table (GossipValueTable), joined to the ids once, when
/// the issuer reports.
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

/// Epidemic payloads; push and pull carry the same content: the sender's
/// contributor set as a pid bitset. A contribution is (pid, that pid's
/// input), and the input is a function of the pid within a run, so the
/// ids alone determine the set; values are looked up at report time. The
/// weight still counts an entry as two units (identity and value) — the
/// bandwidth of shipping the contributions themselves.
struct GossipPushMsg : MessageBody {
  static constexpr int KindId = MsgGossipPush;
  GossipPushMsg(uint64_t QueryId, const DenseBitSet &Known)
      : MessageBody(KindId), QueryId(QueryId), Known(Known) {}
  uint64_t QueryId;
  DenseBitSet Known;
  size_t weight() const override { return 1 + 2 * Known.count(); }
};

struct GossipPullMsg : MessageBody {
  static constexpr int KindId = MsgGossipPull;
  GossipPullMsg(uint64_t QueryId, const DenseBitSet &Known)
      : MessageBody(KindId), QueryId(QueryId), Known(Known) {}
  uint64_t QueryId;
  DenseBitSet Known;
  size_t weight() const override { return 1 + 2 * Known.count(); }
};

/// Digest-mode payloads (anti-entropy, in the vocabulary of delta-state
/// CRDTs): the push carries only identities; the delta answers with the
/// entries the peer lacks (mine & ~theirs) and asks for the ones the
/// sender lacks (theirs & ~mine). An identity weighs one unit, an entry
/// two.
struct GossipDigestMsg : MessageBody {
  static constexpr int KindId = MsgGossipDigest;
  GossipDigestMsg(uint64_t QueryId, const DenseBitSet &KnownIds)
      : MessageBody(KindId), QueryId(QueryId), KnownIds(KnownIds) {}
  uint64_t QueryId;
  DenseBitSet KnownIds;
  size_t weight() const override { return 1 + KnownIds.count(); }
};

struct GossipDeltaMsg : MessageBody {
  static constexpr int KindId = MsgGossipDelta;
  GossipDeltaMsg(uint64_t QueryId, DenseBitSet Entries, DenseBitSet WantIds)
      : MessageBody(KindId), QueryId(QueryId), Entries(std::move(Entries)),
        WantIds(std::move(WantIds)) {}
  uint64_t QueryId;
  DenseBitSet Entries;
  DenseBitSet WantIds;
  size_t weight() const override {
    return 1 + 2 * Entries.count() + WantIds.count();
  }
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

private:
  void startQuery(Context &Ctx);
  void infect(Context &Ctx, uint64_t QueryId);
  void gossipRound(Context &Ctx);

  std::shared_ptr<const GossipConfig> Config;
  std::shared_ptr<GossipValueTable> Values;
  bool Infected = false;
  bool Issuing = false;
  bool Reported = false;
  uint64_t QueryId = 0;
  uint64_t RoundsLeft = 0;
  TimerId RoundTimer = 0;
  TimerId ReportTimer = 0;
  DenseBitSet Known; ///< Contributor pids.
};

/// Factory for ChurnDriver / manual spawns. \p NextValue draws each
/// actor's input; the factory owns the value table its actors share.
std::function<std::unique_ptr<Actor>()>
makeGossipFactory(std::shared_ptr<const GossipConfig> Config,
                  std::function<int64_t()> NextValue);

} // namespace dyndist

#endif // DYNDIST_AGGREGATION_GOSSIP_H
