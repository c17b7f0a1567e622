//===- dyndist/core/PeerSampling.h - Partial-view shuffling -----*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A gossip-based peer-sampling service (in the Cyclon style): the
/// mechanism by which real dynamic systems *implement* the paper's
/// geographical dimension. Each entity maintains a small bounded *partial
/// view* — (peer, age) entries — and periodically shuffles a slice of it
/// with its oldest peer: both sides send a random sample (the initiator
/// includes itself at age 0) and merge what they receive, evicting what
/// they sent. The emergent directed view graph stays well mixed while
/// every node stores O(ViewSize) state, no matter how large the system —
/// exactly the "knows only a few other entities and possibly will never
/// know the whole system" regime.
///
/// Age does the garbage collection: a departed peer's entries stop being
/// refreshed, age past everything else, and are preferentially shuffled
/// away — so views track the live population under churn without any
/// failure detector (the tests measure the view's live fraction
/// post hoc against the trace).
///
/// The view is a plain member of the actor, so a departed actor's view
/// stays readable after the run, like every actor's state.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_CORE_PEERSAMPLING_H
#define DYNDIST_CORE_PEERSAMPLING_H

#include "dyndist/sim/Actor.h"
#include "dyndist/sim/Message.h"
#include "dyndist/support/FlatMap.h"
#include "dyndist/support/InlineVec.h"

#include <functional>
#include <memory>
#include <vector>

namespace dyndist {

/// Message kinds (disjoint range 90+).
enum PeerSamplingMsgKind : int {
  MsgShuffleRequest = 90,
  MsgShuffleReply = 91,
};

/// A slice of a view: (peer, age) pairs.
using ViewSlice = std::vector<std::pair<ProcessId, uint64_t>>;

struct ShuffleRequestMsg : MessageBody {
  static constexpr int KindId = MsgShuffleRequest;
  explicit ShuffleRequestMsg(ViewSlice Slice)
      : MessageBody(KindId), Slice(std::move(Slice)) {}
  ViewSlice Slice;
  size_t weight() const override { return 1 + 2 * Slice.size(); }
};

struct ShuffleReplyMsg : MessageBody {
  static constexpr int KindId = MsgShuffleReply;
  explicit ShuffleReplyMsg(ViewSlice Slice)
      : MessageBody(KindId), Slice(std::move(Slice)) {}
  ViewSlice Slice;
  size_t weight() const override { return 1 + 2 * Slice.size(); }
};

/// Service tuning shared by all members.
struct PeerSamplingConfig {
  size_t ViewSize = 6;     ///< Partial-view capacity.
  size_t ShuffleSize = 3;  ///< Entries exchanged per shuffle (<= ViewSize).
  SimTime ShuffleEvery = 8;
};

/// The per-entity peer-sampling actor. Bootstraps its view from the
/// overlay neighbors present at start, then lives entirely off shuffling —
/// the overlay is only the introduction service.
class PeerSamplingActor : public Actor {
public:
  /// The view representation: a sorted flat run of (peer, age) entries
  /// living inline in the actor (the default ViewSize fits the inline
  /// buffer; larger configured views spill to the heap once).
  /// Enumeration ascends by peer id exactly like the std::map it replaced.
  using ViewMap =
      FlatMap<ProcessId, uint64_t,
              InlineVec<std::pair<ProcessId, uint64_t>, 8>>;

  explicit PeerSamplingActor(std::shared_ptr<const PeerSamplingConfig> Config)
      : Config(std::move(Config)) {}

  void onStart(Context &Ctx) override;
  void onMessage(Context &Ctx, ProcessId From,
                 const MessageBody &Body) override;
  void onTimer(Context &Ctx, TimerId Id) override;

  /// The current partial view (peer -> age), for tests and samplers.
  const ViewMap &view() const { return View; }

  /// A uniform-ish random peer from the view (the service's API);
  /// InvalidProcess when the view is empty.
  ProcessId samplePeer(Context &Ctx) const;

private:
  void shuffleRound(Context &Ctx);

  /// Copies up to \p Count random entries of the view (the exchange is
  /// replicating, not destructive: shuffling spreads pointers, capacity
  /// eviction is what forgets).
  ViewSlice sampleRandomSlice(Context &Ctx, size_t Count) const;

  /// Merges \p Slice into the view: skips self, prefers younger entries,
  /// fills free capacity, and at capacity replaces the oldest resident
  /// when the incoming entry is younger.
  void mergeSlice(Context &Ctx, const ViewSlice &Slice);

  std::shared_ptr<const PeerSamplingConfig> Config;
  ViewMap View;
  TimerId RoundTimer = 0;
};

/// Factory for ChurnDriver / manual spawns.
std::function<std::unique_ptr<Actor>()>
makePeerSamplingFactory(std::shared_ptr<const PeerSamplingConfig> Config);

} // namespace dyndist

#endif // DYNDIST_CORE_PEERSAMPLING_H
