//===- PeerSampling.cpp - Partial-view shuffling ---------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/core/PeerSampling.h"

#include <cassert>

using namespace dyndist;

void PeerSamplingActor::onStart(Context &Ctx) {
  // The overlay is the introduction service: bootstrap the view from the
  // neighbors present at join time (indexed early-exit walk).
  for (size_t I = 0, E = Ctx.neighborCount();
       I != E && View.size() < Config->ViewSize; ++I)
    View.emplace(Ctx.neighborAt(I), 0);
  RoundTimer = Ctx.setTimer(Config->ShuffleEvery);
}

ViewSlice PeerSamplingActor::sampleRandomSlice(Context &Ctx,
                                               size_t Count) const {
  // Reservoir-free sampling without replacement over the (small) view.
  std::vector<std::pair<ProcessId, uint64_t>> Entries(View.begin(),
                                                      View.end());
  ViewSlice Slice;
  while (Slice.size() < Count && !Entries.empty()) {
    size_t Index =
        static_cast<size_t>(Ctx.rng().nextBelow(Entries.size()));
    Slice.push_back(Entries[Index]);
    Entries.erase(Entries.begin() + static_cast<long>(Index));
  }
  return Slice;
}

void PeerSamplingActor::mergeSlice(Context &Ctx, const ViewSlice &Slice) {
  for (const auto &[Peer, Age] : Slice) {
    if (Peer == Ctx.self())
      continue;
    auto It = View.find(Peer);
    if (It != View.end()) {
      It->second = std::min(It->second, Age); // Fresher sighting wins.
      continue;
    }
    if (View.size() < Config->ViewSize) {
      View.emplace(Peer, Age);
      continue;
    }
    // At capacity: replace the oldest resident if it is older than the
    // incoming entry (age is the staleness signal).
    auto Oldest = View.begin();
    for (auto Cur = View.begin(); Cur != View.end(); ++Cur)
      if (Cur->second > Oldest->second)
        Oldest = Cur;
    if (Oldest->second > Age) {
      View.erase(Oldest);
      View.emplace(Peer, Age);
    }
  }
}

void PeerSamplingActor::shuffleRound(Context &Ctx) {
  RoundTimer = Ctx.setTimer(Config->ShuffleEvery);
  if (View.empty()) {
    // Isolated (e.g. every traded entry was lost to a dead peer): fall
    // back to the introduction service and start shuffling next round.
    for (size_t I = 0, E = Ctx.neighborCount();
         I != E && View.size() < Config->ViewSize; ++I)
      View.emplace(Ctx.neighborAt(I), 0);
    return;
  }
  // Age everything, then shuffle with the oldest peer — the one most
  // likely to be gone, so its slot is the first to be recycled.
  ProcessId Target = InvalidProcess;
  uint64_t OldestAge = 0;
  for (auto &[Peer, Age] : View) {
    ++Age;
    if (Target == InvalidProcess || Age > OldestAge) {
      Target = Peer;
      OldestAge = Age;
    }
  }
  if (View.size() > 1)
    View.erase(Target); // Cyclon self-cleaning: the stalest slot recycles
                        // first; the reply refills it (or not, if the
                        // target is gone — which is the point). A view's
                        // last entry is kept: trading it away would
                        // voluntarily isolate the node.

  ViewSlice Slice = sampleRandomSlice(
      Ctx, Config->ShuffleSize > 0 ? Config->ShuffleSize - 1 : 0);
  Slice.push_back({Ctx.self(), 0}); // Fresh pointer to myself.
  Ctx.send(Target, makeBody<ShuffleRequestMsg>(std::move(Slice)));
}

void PeerSamplingActor::onMessage(Context &Ctx, ProcessId From,
                                  const MessageBody &Body) {
  switch (Body.kind()) {
  case MsgShuffleRequest: {
    const auto &Req = bodyAs<ShuffleRequestMsg>(Body);
    ViewSlice Reply = sampleRandomSlice(Ctx, Config->ShuffleSize);
    Ctx.send(From, makeBody<ShuffleReplyMsg>(std::move(Reply)));
    mergeSlice(Ctx, Req.Slice);
    return;
  }
  case MsgShuffleReply:
    mergeSlice(Ctx, bodyAs<ShuffleReplyMsg>(Body).Slice);
    return;
  default:
    assert(false && "peer-sampling actor received foreign message kind");
  }
}

void PeerSamplingActor::onTimer(Context &Ctx, TimerId Id) {
  if (Id != RoundTimer)
    return;
  shuffleRound(Ctx);
}

ProcessId PeerSamplingActor::samplePeer(Context &Ctx) const {
  if (View.empty())
    return InvalidProcess;
  size_t Index = static_cast<size_t>(Ctx.rng().nextBelow(View.size()));
  return (View.begin() + static_cast<long>(Index))->first;
}

std::function<std::unique_ptr<Actor>()> dyndist::makePeerSamplingFactory(
    std::shared_ptr<const PeerSamplingConfig> Config) {
  assert(Config && "factory needs a config");
  return [Config]() { return std::make_unique<PeerSamplingActor>(Config); };
}
