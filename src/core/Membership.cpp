//===- Membership.cpp - Local membership detector ------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/core/Membership.h"

#include <algorithm>
#include <cassert>

using namespace dyndist;

bool MembershipActor::isSuspected(ProcessId P) const {
  auto It = std::lower_bound(
      Nbrs.begin(), Nbrs.end(), P,
      [](const NbrEntry &E, ProcessId Pid) { return E.Pid < Pid; });
  return It != Nbrs.end() && It->Pid == P && It->Suspect;
}

size_t MembershipActor::SuspectedView::count(ProcessId P) const {
  return A->isSuspected(P) ? 1 : 0;
}

void MembershipActor::onStart(Context &Ctx) { heartbeatRound(Ctx); }

void MembershipActor::onMessage(Context &Ctx, ProcessId From,
                                const MessageBody &Body) {
  assert(Body.kind() == MsgHeartbeat &&
         "membership actor received foreign message kind");
  (void)Body;
  auto It = std::lower_bound(
      Nbrs.begin(), Nbrs.end(), From,
      [](const NbrEntry &E, ProcessId Pid) { return E.Pid < Pid; });
  if (It == Nbrs.end() || It->Pid != From) {
    // First contact: start the silence clock (the old LastHeard[From]).
    Nbrs.emplace(It, NbrEntry{From, Ctx.now(), false});
    return;
  }
  It->Heard = Ctx.now();
  if (It->Suspect) {
    It->Suspect = false;
    --SuspectCount;
    Ctx.observe(TraceKey::MemberRestore, static_cast<int64_t>(From));
  }
}

void MembershipActor::onTimer(Context &Ctx, TimerId Id) {
  if (Id != RoundTimer)
    return;
  heartbeatRound(Ctx);
}

void MembershipActor::heartbeatRound(Context &Ctx) {
  // One pass over the live neighbor view: beat and snapshot the ids into
  // the reused scratch (ascending, since neighbor enumeration ascends).
  NbrScratch.clear();
  auto Beat = makeBody<HeartbeatMsg>();
  Ctx.forEachNeighbor([&](ProcessId N) {
    NbrScratch.push_back(N);
    Ctx.send(N, Beat);
  });

  // Rebuild the entry run against the current neighborhood in one sorted
  // two-pointer merge: meet new neighbors (start their clock), keep the
  // retained, and forget the departed — the overlay already routed around
  // those, so they are outside this process's (purely local)
  // responsibility.
  MergeScratch.clear();
  auto EIt = Nbrs.begin(), EEnd = Nbrs.end();
  auto NIt = NbrScratch.begin(), NEnd = NbrScratch.end();
  uint32_t Suspects = 0;
  while (EIt != EEnd || NIt != NEnd) {
    if (NIt == NEnd || (EIt != EEnd && EIt->Pid < *NIt)) {
      ++EIt; // Departed: dropped (its suspicion, if any, goes with it).
    } else if (EIt == EEnd || *NIt < EIt->Pid) {
      MergeScratch.push_back(NbrEntry{*NIt, Ctx.now(), false});
      ++NIt;
    } else {
      MergeScratch.push_back(*EIt);
      Suspects += EIt->Suspect;
      ++EIt;
      ++NIt;
    }
  }
  Nbrs.clear();
  Nbrs.reserve(MergeScratch.size());
  for (const NbrEntry &E : MergeScratch)
    Nbrs.push_back(E);
  SuspectCount = Suspects;

  // Suspect the silent (ascending, like the old LastHeard walk).
  for (NbrEntry &E : Nbrs) {
    if (Ctx.now() - E.Heard <= Config->SuspectAfter)
      continue;
    if (!E.Suspect) {
      E.Suspect = true;
      ++SuspectCount;
      Ctx.observe(TraceKey::MemberSuspect, static_cast<int64_t>(E.Pid));
    }
  }

  RoundTimer = Ctx.setTimer(Config->HeartbeatEvery);
}

std::vector<ProcessId> MembershipActor::liveView(Context &Ctx) const {
  std::vector<ProcessId> Out;
  Ctx.forEachNeighbor([&](ProcessId N) {
    if (!isSuspected(N))
      Out.push_back(N);
  });
  return Out;
}

std::function<std::unique_ptr<Actor>()> dyndist::makeMembershipFactory(
    std::shared_ptr<const MembershipConfig> Config) {
  assert(Config && "factory needs a config");
  return [Config]() { return std::make_unique<MembershipActor>(Config); };
}
