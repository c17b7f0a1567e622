//===- dyndist/consensus/RotatingConsensus.h - ◇-synchronous consensus ---===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *competent* static-system consensus: a rotating-coordinator protocol
/// in the Chandra-Toueg style for a known participant set Π with up to
/// f < n/2 crash failures under partial synchrony. Where FloodSet is the
/// textbook strawman (synchronous rounds, f known), this is the protocol a
/// production static system would actually run — and it leans even harder
/// on static assumptions: every participant knows Π exactly (quorums are
/// counted against |Π|), and timeouts grow per round until they exceed the
/// unknown delay bound (eventual synchrony).
///
/// Round r (coordinator Π[r mod n]):
///   1. everyone sends ESTIMATE(r, est, ts) to the coordinator;
///   2. on a majority of estimates the coordinator proposes the estimate
///      with the largest ts (locking discipline: any decided value was
///      ack'd by a majority at some round, so every later majority of
///      estimates contains it with the highest ts);
///   3. a process receiving PROPOSE(r, v) adopts (est, ts) := (v, r) and
///      ACKs; on a majority of ACKs the coordinator broadcasts DECIDE;
///   4. a round timeout (BaseTimeout + r * TimeoutStep) moves a process to
///      round r+1 — suspicion is purely local, no failure detector oracle.
///
/// Decided processes answer late ESTIMATEs with DECIDE, so laggards catch
/// up. Safety needs only f < n/2 and reliable channels; termination
/// additionally needs the timeouts to eventually exceed the real latency
/// (guaranteed for any fixed latency bound since timeouts grow).
///
/// Observation keys: "consensus.propose" (own initial value, at start) and
/// "consensus.decide" (the decision) — collectRotatingOutcome() pairs them
/// into ConsensusRecords for checkConsensusRun().
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_CONSENSUS_ROTATINGCONSENSUS_H
#define DYNDIST_CONSENSUS_ROTATINGCONSENSUS_H

#include "dyndist/objects/History.h"
#include "dyndist/sim/Actor.h"
#include "dyndist/sim/Message.h"
#include "dyndist/sim/Trace.h"

#include <map>
#include <memory>
#include <set>
#include <vector>

namespace dyndist {

/// Observation key names (the vocabulary's ConsensusPropose/Decide).
inline constexpr const char *ConsensusProposeKey =
    keyNameOf(TraceKey::ConsensusPropose);
inline constexpr const char *ConsensusDecideKey =
    keyNameOf(TraceKey::ConsensusDecide);

/// Message kinds (disjoint range 80+).
enum RotatingMsgKind : int {
  MsgRcStart = 80,
  MsgRcEstimate = 81,
  MsgRcPropose = 82,
  MsgRcAck = 83,
  MsgRcDecide = 84,
};

/// Stimulus starting the protocol (sent by the harness to every
/// participant once Π is known).
struct RcStartMsg : MessageBody {
  static constexpr int KindId = MsgRcStart;
  RcStartMsg() : MessageBody(KindId) {}
};

struct RcEstimateMsg : MessageBody {
  static constexpr int KindId = MsgRcEstimate;
  RcEstimateMsg(uint64_t Round, int64_t Estimate, int64_t Ts)
      : MessageBody(KindId), Round(Round), Estimate(Estimate), Ts(Ts) {}
  uint64_t Round;
  int64_t Estimate;
  int64_t Ts; ///< Round the estimate was adopted in; -1 = initial value.
};

struct RcProposeMsg : MessageBody {
  static constexpr int KindId = MsgRcPropose;
  RcProposeMsg(uint64_t Round, int64_t Value)
      : MessageBody(KindId), Round(Round), Value(Value) {}
  uint64_t Round;
  int64_t Value;
};

struct RcAckMsg : MessageBody {
  static constexpr int KindId = MsgRcAck;
  explicit RcAckMsg(uint64_t Round) : MessageBody(KindId), Round(Round) {}
  uint64_t Round;
};

struct RcDecideMsg : MessageBody {
  static constexpr int KindId = MsgRcDecide;
  explicit RcDecideMsg(int64_t Value) : MessageBody(KindId), Value(Value) {}
  int64_t Value;
};

/// Shared static knowledge: the participant set and timeout schedule. The
/// harness fills Participants after spawning (ids are only known then) and
/// before injecting RcStartMsg.
struct RotatingConfig {
  std::vector<ProcessId> Participants;
  SimTime BaseTimeout = 12;
  SimTime TimeoutStep = 4; ///< Per-round growth (eventual synchrony).
};

/// One participant of the rotating-coordinator protocol.
class RotatingConsensusActor : public Actor {
public:
  RotatingConsensusActor(std::shared_ptr<const RotatingConfig> Config,
                         int64_t InitialValue)
      : Config(std::move(Config)), Estimate(InitialValue) {}

  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override;
  void onTimer(Context &Ctx, TimerId Id) override;

  /// The decision, once reached (tests; the trace records it too).
  std::optional<int64_t> decision() const { return Decided; }

  /// Rounds entered (1 = decided in the first round's attempt).
  uint64_t roundsUsed() const { return Round + 1; }

private:
  struct CoordinatorRound {
    std::vector<std::pair<int64_t, int64_t>> Estimates; ///< (ts, est).
    bool Proposed = false;
    size_t Acks = 0;
    int64_t Proposal = 0;
    bool Decided = false;
  };

  size_t majority() const { return Config->Participants.size() / 2 + 1; }
  ProcessId coordinatorOf(uint64_t R) const {
    return Config->Participants[R % Config->Participants.size()];
  }

  void beginRound(Context &Ctx);
  void decide(Context &Ctx, int64_t Value);
  void handleEstimate(Context &Ctx, const RcEstimateMsg &Msg,
                      ProcessId From);
  void handleAck(Context &Ctx, const RcAckMsg &Msg);

  std::shared_ptr<const RotatingConfig> Config;
  int64_t Estimate;
  int64_t Ts = -1;
  uint64_t Round = 0;
  bool Started = false;
  std::optional<int64_t> Decided;
  TimerId RoundTimer = 0;
  std::map<uint64_t, CoordinatorRound> Coord; ///< My coordinator rounds.
};

/// Pairs propose/decide observations into checker records: one per
/// participant that ever proposed.
std::vector<ConsensusRecord> collectRotatingOutcome(const Trace &T);

} // namespace dyndist

#endif // DYNDIST_CONSENSUS_ROTATINGCONSENSUS_H
