//===- Overlay.cpp - Churn-maintained overlay --------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/graph/Overlay.h"

#include <cassert>

using namespace dyndist;

DynamicOverlay::DynamicOverlay(size_t TargetDegree, Rng R, AttachMode Mode,
                               RepairMode Repair)
    : TargetDegree(TargetDegree), R(R), Mode(Mode), Repair(Repair) {
  assert(TargetDegree >= 1 && "overlay target degree must be >= 1");
}

void DynamicOverlay::join(ProcessId P) {
  assert(!G.hasNode(P) && "node already in the overlay");
  if (G.nodeCount() == 0) {
    G.addNode(P);
    LastJoined = P;
    return;
  }
  if (Mode == AttachMode::Chain) {
    ProcessId Anchor = G.hasNode(LastJoined) && LastJoined != P
                           ? LastJoined
                           : G.nodesView().back();
    G.addNodeWithEdges(P, {&Anchor, 1});
    LastJoined = P;
    return;
  }
  // Uniform attach targets sampled without replacement by rejection against
  // the picks so far — O(TargetDegree^2) instead of the full membership
  // copy + Fisher-Yates shuffle this used to do (O(n) per join, and the
  // dominant cost of populating large systems). Targets are resolved
  // against the pre-join view, which adding P invalidates.
  NeighborView Members = G.nodesView();
  size_t Links = std::min(TargetDegree, Members.size());
  Picks.clear();
  if (Links == Members.size()) {
    // Degenerate small system: every member is a target, no draws needed
    // (the shuffled prefix would have been the same set).
    Picks.assign(Members.begin(), Members.end());
  } else {
    while (Picks.size() != Links) {
      ProcessId T = Members[R.nextBelow(Members.size())];
      bool Dup = false;
      for (ProcessId Seen : Picks)
        Dup |= Seen == T;
      if (!Dup)
        Picks.push_back(T);
    }
  }
  G.addNodeWithEdges(P, Picks);
  LastJoined = P;
}

void DynamicOverlay::leave(ProcessId P) {
  switch (Repair) {
  case RepairMode::PatchPath:
    // Path through the (sorted) neighbor list: every route through P is
    // rerouted, so connectivity survives deterministically.
    G.spliceOut(P);
    return;
  case RepairMode::RandomRewire: {
    if (!G.hasNode(P))
      return;
    // Copied: the view dies with P's edges.
    NeighborView View = G.neighborView(P);
    Nbrs.assign(View.begin(), View.end());
    G.removeNode(P);
    // Top orphans back up to the target degree with random links. Degrees
    // stay bounded, but nothing guarantees the replacement links restore
    // every severed route: connectivity becomes probabilistic. The view
    // stays valid through the loop — addEdge never touches the node set.
    NeighborView Members = G.nodesView();
    if (Members.size() < 2)
      return;
    for (ProcessId N : Nbrs) {
      if (!G.hasNode(N))
        continue;
      for (int Attempt = 0;
           Attempt != 8 && G.degree(N) < TargetDegree; ++Attempt) {
        ProcessId Target = Members[R.nextBelow(Members.size())];
        if (Target == N || G.hasEdge(N, Target))
          continue;
        G.addEdge(N, Target);
      }
    }
    return;
  }
  }
}

void DynamicOverlay::seed(Graph Initial) { G = std::move(Initial); }

void DynamicOverlay::reset(size_t NewTargetDegree, Rng NewR,
                           AttachMode NewMode, RepairMode NewRepair) {
  assert(NewTargetDegree >= 1 && "overlay target degree must be >= 1");
  TargetDegree = NewTargetDegree;
  R = NewR;
  Mode = NewMode;
  Repair = NewRepair;
  G.clear();
  LastJoined = InvalidProcess;
}

void DynamicOverlay::attachTo(Simulator &S) {
  S.setTopologyProvider(this);
  S.setMembershipHooks([this](ProcessId P) { join(P); },
                       [this](ProcessId P) { leave(P); });
}
