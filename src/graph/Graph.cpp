//===- Graph.cpp - Undirected dynamic graph ---------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//

#include "dyndist/graph/Graph.h"

#include <algorithm>
#include <cassert>

using namespace dyndist;

namespace {

/// Sorted-insert of \p V into \p Vec; returns false when already present.
bool sortedInsert(std::vector<ProcessId> &Vec, ProcessId V) {
  if (Vec.empty() || V > Vec.back()) { // Most inserts append: ids ascend.
    Vec.push_back(V);
    return true;
  }
  auto It = std::lower_bound(Vec.begin(), Vec.end(), V);
  if (It != Vec.end() && *It == V)
    return false;
  Vec.insert(It, V);
  return true;
}

/// Sorted-erase of \p V from \p Vec; returns false when absent.
bool sortedErase(std::vector<ProcessId> &Vec, ProcessId V) {
  auto It = std::lower_bound(Vec.begin(), Vec.end(), V);
  if (It == Vec.end() || *It != V)
    return false;
  Vec.erase(It);
  return true;
}

} // namespace

bool Graph::addNode(ProcessId P) {
  assert(P != InvalidProcess && "InvalidProcess cannot be a node");
  if (P >= SlotOfId.size())
    SlotOfId.resize(P + 1, NoSlot);
  else if (SlotOfId[P] != NoSlot)
    return false;

  uint32_t S;
  if (!FreeSlots.empty()) {
    S = FreeSlots.back();
    FreeSlots.pop_back();
  } else {
    S = static_cast<uint32_t>(Slots.size());
    Slots.emplace_back();
  }
  Slots[S].Id = P;
  assert(Slots[S].Nbrs.empty() && "recycled slot carries stale neighbors");
  SlotOfId[P] = S;
  sortedInsert(NodeIds, P);
  ++Epoch.Value;
  return true;
}

void Graph::addNodeWithEdges(ProcessId P,
                             std::span<const ProcessId> Targets) {
  [[maybe_unused]] bool Added = addNode(P);
  assert(Added && "addNodeWithEdges() needs an absent node");
  std::vector<ProcessId> &Nbrs = Slots[SlotOfId[P]].Nbrs;
  Nbrs.resize(Targets.size());
  // Insertion sort while copying: an overlay join links a handful of
  // targets, where this beats a general sort.
  for (size_t I = 0; I != Targets.size(); ++I) {
    ProcessId T = Targets[I];
    assert(T != P && hasNode(T) && "addNodeWithEdges() targets must exist");
    sortedInsert(Slots[SlotOfId[T]].Nbrs, P);
    size_t J = I;
    for (; J != 0 && Nbrs[J - 1] > T; --J)
      Nbrs[J] = Nbrs[J - 1];
    Nbrs[J] = T;
  }
  assert(std::adjacent_find(Nbrs.begin(), Nbrs.end()) == Nbrs.end() &&
         "addNodeWithEdges() targets must be distinct");
  Edges += Targets.size();
}

bool Graph::removeNode(ProcessId P) {
  uint32_t S = slotOf(P);
  if (S == NoSlot)
    return false;
  std::vector<ProcessId> &Nbrs = Slots[S].Nbrs;
  for (ProcessId N : Nbrs) {
    sortedErase(Slots[SlotOfId[N]].Nbrs, P);
    --Edges;
  }
  Nbrs.clear(); // Capacity is retained for the slot's next occupant.
  Slots[S].Id = InvalidProcess;
  FreeSlots.push_back(S);
  SlotOfId[P] = NoSlot;
  sortedErase(NodeIds, P);
  ++Epoch.Value;
  return true;
}

bool Graph::addEdge(ProcessId A, ProcessId B) {
  assert(A != B && "self-loops are not allowed");
  uint32_t SA = slotOf(A);
  uint32_t SB = slotOf(B);
  assert(SA != NoSlot && SB != NoSlot && "addEdge() endpoints must exist");
  if (!sortedInsert(Slots[SA].Nbrs, B))
    return false;
  sortedInsert(Slots[SB].Nbrs, A);
  ++Edges;
  ++Epoch.Value;
  return true;
}

bool Graph::removeEdge(ProcessId A, ProcessId B) {
  uint32_t SA = slotOf(A);
  uint32_t SB = slotOf(B);
  if (SA == NoSlot || SB == NoSlot || !sortedErase(Slots[SA].Nbrs, B))
    return false;
  sortedErase(Slots[SB].Nbrs, A);
  --Edges;
  ++Epoch.Value;
  return true;
}

bool Graph::hasEdge(ProcessId A, ProcessId B) const {
  uint32_t SA = slotOf(A);
  if (SA == NoSlot)
    return false;
  const std::vector<ProcessId> &Nbrs = Slots[SA].Nbrs;
  return std::binary_search(Nbrs.begin(), Nbrs.end(), B);
}

void Graph::clear() {
  // Capacity-retaining: slots are vacated (keeping their neighbor vectors'
  // storage, as removeNode does) and pushed onto the free list in
  // descending order, so slot 0 is handed out first — a cleared graph
  // assigns exactly the slots a fresh graph would.
  FreeSlots.clear();
  for (uint32_t S = static_cast<uint32_t>(Slots.size()); S--;) {
    Slots[S].Id = InvalidProcess;
    Slots[S].Nbrs.clear();
    FreeSlots.push_back(S);
  }
  std::fill(SlotOfId.begin(), SlotOfId.end(), NoSlot);
  NodeIds.clear();
  Edges = 0;
  ++Epoch.Value;
}

bool Graph::checkConsistency() const {
  // Node index: ascending, unique, cross-consistent with the slot table.
  if (!std::is_sorted(NodeIds.begin(), NodeIds.end()))
    return false;
  if (std::adjacent_find(NodeIds.begin(), NodeIds.end()) != NodeIds.end())
    return false;
  for (ProcessId P : NodeIds) {
    uint32_t S = slotOf(P);
    if (S == NoSlot || S >= Slots.size() || Slots[S].Id != P)
      return false;
  }
  // Every id-table entry that claims a slot must be a present node.
  size_t Mapped = 0;
  for (ProcessId P = 0; P != SlotOfId.size(); ++P)
    if (SlotOfId[P] != NoSlot) {
      ++Mapped;
      if (Slots[SlotOfId[P]].Id != P)
        return false;
    }
  if (Mapped != NodeIds.size())
    return false;
  // Free list covers exactly the vacant slots, each cleanly vacated.
  if (FreeSlots.size() + NodeIds.size() != Slots.size())
    return false;
  for (uint32_t S : FreeSlots)
    if (S >= Slots.size() || Slots[S].Id != InvalidProcess ||
        !Slots[S].Nbrs.empty())
      return false;
  // Adjacency: sorted, unique, no self-loops, symmetric, edge count.
  size_t HalfEdges = 0;
  for (ProcessId P : NodeIds) {
    const std::vector<ProcessId> &Nbrs = Slots[SlotOfId[P]].Nbrs;
    if (!std::is_sorted(Nbrs.begin(), Nbrs.end()))
      return false;
    if (std::adjacent_find(Nbrs.begin(), Nbrs.end()) != Nbrs.end())
      return false;
    for (ProcessId N : Nbrs) {
      if (N == P)
        return false; // Self-loop.
      uint32_t NS = slotOf(N);
      if (NS == NoSlot)
        return false; // Dangling edge.
      const std::vector<ProcessId> &Back = Slots[NS].Nbrs;
      if (!std::binary_search(Back.begin(), Back.end(), P))
        return false; // Asymmetric edge.
    }
    HalfEdges += Nbrs.size();
  }
  return HalfEdges == 2 * Edges;
}
