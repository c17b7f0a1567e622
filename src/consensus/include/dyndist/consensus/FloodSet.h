//===- dyndist/consensus/FloodSet.h - Static-system consensus ---*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classical *static-system* comparator: FloodSet consensus over the
/// message-passing kernel. In a synchronous static system of n known
/// processes with at most f crash failures, f+1 rounds of "broadcast every
/// value you know" guarantee that all survivors hold the same value set, so
/// deciding min() yields agreement. Every ingredient is static-system
/// luxury: the participant set is known, n and f are constants, rounds are
/// bounded.
///
/// The point of carrying it in this library is the contrast the paper is
/// built on: run the very same algorithm while entities keep *arriving*
/// and the ground it stands on — "everyone knows who participates" —
/// dissolves. A process that joins mid-run starts flooding its own value
/// after the veterans' f+1 rounds have closed, and decisions diverge. The
/// test suite and the consensus bench exhibit both sides.
///
/// Round structure: rounds are timer-paced (one round per RoundLength
/// ticks of the synchronous latency model). In round r <= f+1 each
/// participant broadcasts its known-value set to its neighbors and merges
/// everything it received; after round f+1 it decides min(known) and
/// observes it under DecideKey.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_CONSENSUS_FLOODSET_H
#define DYNDIST_CONSENSUS_FLOODSET_H

#include "dyndist/sim/Actor.h"
#include "dyndist/sim/Message.h"
#include "dyndist/sim/Simulator.h"

#include <functional>
#include <memory>
#include <set>

namespace dyndist {

/// Name of the observation key TraceKey::FloodSetDecide, under which
/// FloodSet actors record their decision.
inline constexpr const char *FloodSetDecideKey =
    keyNameOf(TraceKey::FloodSetDecide);

/// Message kind (disjoint from the aggregation protocol family).
enum FloodSetMsgKind : int { MsgFloodSetRound = 60 };

/// One round's value-set broadcast.
struct FloodSetRoundMsg : MessageBody {
  static constexpr int KindId = MsgFloodSetRound;
  FloodSetRoundMsg(uint64_t Round, std::set<int64_t> Known)
      : MessageBody(KindId), Round(Round), Known(std::move(Known)) {}
  uint64_t Round;
  std::set<int64_t> Known;
  size_t weight() const override { return 1 + Known.size(); }
};

/// Static parameters shared by all participants of one instance.
struct FloodSetConfig {
  /// Crash-failure budget; the protocol runs Faults + 1 rounds.
  uint64_t Faults = 1;

  /// Ticks per round; must exceed the maximum message latency so round r
  /// messages land before round r+1 closes (1-tick synchronous model:
  /// 2 is ample).
  SimTime RoundLength = 2;
};

/// A FloodSet participant. Starts flooding immediately on joining the
/// system — which is exactly the behavior that is harmless in a static
/// system and fatal in a dynamic one.
class FloodSetActor : public Actor {
public:
  FloodSetActor(std::shared_ptr<const FloodSetConfig> Config,
                int64_t InitialValue)
      : Config(std::move(Config)), Known{InitialValue} {}

  void onStart(Context &Ctx) override;
  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override;
  void onTimer(Context &Ctx, TimerId Id) override;

  /// Decision, once made (inspection for tests; the trace carries it too).
  std::optional<int64_t> decision() const { return Decision; }

private:
  void broadcast(Context &Ctx);
  void closeRound(Context &Ctx);

  std::shared_ptr<const FloodSetConfig> Config;
  std::set<int64_t> Known;
  uint64_t Round = 1;
  TimerId RoundTimer = 0;
  std::optional<int64_t> Decision;
};

/// Factory for ChurnDriver / manual spawns; values from \p NextValue.
std::function<std::unique_ptr<Actor>()>
makeFloodSetFactory(std::shared_ptr<const FloodSetConfig> Config,
                    std::function<int64_t()> NextValue);

/// Collects the decisions recorded in \p T: one (process, decided?) record
/// per process that ever joined. Feed into checkConsensusRun() after
/// mapping to ConsensusRecords, or use checkFloodSetRun() below.
struct FloodSetOutcome {
  size_t Participants = 0;  ///< Processes that ever joined.
  size_t Decided = 0;       ///< Processes that recorded a decision.
  std::set<int64_t> DistinctDecisions;
};

/// Summarizes a recorded run.
FloodSetOutcome collectFloodSetOutcome(const Trace &T);

} // namespace dyndist

#endif // DYNDIST_CONSENSUS_FLOODSET_H
