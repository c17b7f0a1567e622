//===- dyndist/graph/Graph.h - Undirected dynamic graph ---------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The overlay graph of a dynamic system: an undirected simple graph over
/// ProcessId vertices supporting incremental mutation (nodes and edges come
/// and go as entities join and leave).
///
/// Representation: a slot-indexed flat node table. Each present node owns a
/// dense slot holding its sorted neighbor vector; slots of departed nodes
/// are recycled through a free list (mirroring the simulator's indexed
/// process table), so steady-state churn reuses neighbor-vector capacity
/// instead of allocating. Identity-to-slot translation is a direct-indexed
/// vector — ProcessIds are assigned densely by the simulator (0, 1, 2, ...)
/// and the generators, so the table is O(max id) small integers. All
/// neighbor and node enumerations ascend by id, which keeps whole
/// experiments seed-reproducible (the determinism contract of
/// docs/BENCHMARKING.md).
///
/// An overlay's patched leave is one step, spliceOut: it rewrites each of
/// the leaver's neighbor lists once, dropping the leaver and adding the
/// missing path links, with no per-edge lookup.
///
/// NeighborView is a zero-copy span over a neighbor (or node) list. Views
/// are invalidated by ANY graph mutation — addNode/removeNode can grow or
/// reshuffle the tables, add/removeEdge and spliceOut move neighbor-vector
/// elements. Use them for immediate iteration, never for storage across
/// mutations.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_GRAPH_GRAPH_H
#define DYNDIST_GRAPH_GRAPH_H

#include "dyndist/sim/Types.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dyndist {

/// Zero-copy view over a contiguous, ascending run of ProcessIds (a node's
/// neighbor list, or the graph's node set). Invalidated by any mutation of
/// the graph it was obtained from.
class NeighborView {
public:
  using value_type = ProcessId;

  NeighborView() = default;
  NeighborView(const ProcessId *Data, size_t Count)
      : Data(Data), Count(Count) {}

  const ProcessId *begin() const { return Data; }
  const ProcessId *end() const { return Data + Count; }
  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  ProcessId operator[](size_t I) const { return Data[I]; }
  ProcessId front() const { return Data[0]; }
  ProcessId back() const { return Data[Count - 1]; }

private:
  const ProcessId *Data = nullptr;
  size_t Count = 0;
};

/// Undirected simple graph with stable, deterministic iteration order.
class Graph {
public:
  /// Sentinel slot index for "node absent".
  static constexpr uint32_t NoSlot = ~0u;

  /// Adds a node; no-op if present. Returns true when newly added.
  bool addNode(ProcessId P);

  /// Adds the absent node \p P linked to every one of \p Targets: the
  /// same graph as addNode(P) followed by addEdge(P, T) per target, in one
  /// step (one epoch bump). The targets must be present, distinct and
  /// differ from \p P, in any order. P's neighbor list is built sorted at
  /// once; each target's list takes an append when P is its largest id
  /// (the simulator's ids ascend) and a sorted insert otherwise.
  void addNodeWithEdges(ProcessId P, std::span<const ProcessId> Targets);

  /// Removes a node and all incident edges; no-op if absent. Returns true
  /// when the node existed.
  bool removeNode(ProcessId P);

  /// Removes \p P after linking its neighbors N1 < ... < Nk into a path:
  /// the same graph as addEdge(Ni, Ni+1) for each missing path edge
  /// followed by removeNode(P), in one step with one epoch bump. Each Ni's
  /// list is rewritten once: P is dropped and N(i-1) and N(i+1) are
  /// inserted where missing; lists stay ascending. Invalidates every view.
  /// Returns false, changing nothing (not the epoch either), when \p P is
  /// absent.
  bool spliceOut(ProcessId P);

  /// Adds the edge {A, B}; both endpoints must exist and A != B. Returns
  /// true when the edge was newly added.
  bool addEdge(ProcessId A, ProcessId B);

  /// Removes the edge {A, B}; returns true when it existed.
  bool removeEdge(ProcessId A, ProcessId B);

  /// True when the node exists.
  bool hasNode(ProcessId P) const { return slotOf(P) != NoSlot; }

  /// True when the edge {A, B} exists.
  bool hasEdge(ProcessId A, ProcessId B) const;

  /// Zero-copy neighbors of \p P (ascending; empty for unknown nodes).
  /// Invalidated by any graph mutation.
  NeighborView neighborView(ProcessId P) const {
    uint32_t S = slotOf(P);
    if (S == NoSlot)
      return {};
    const std::vector<ProcessId> &N = Slots[S].Nbrs;
    return {N.data(), N.size()};
  }

  /// Invokes \p Fn for each neighbor of \p P in ascending order. \p Fn must
  /// not mutate the graph.
  template <typename Fn> void forEachNeighbor(ProcessId P, Fn &&F) const {
    for (ProcessId N : neighborView(P))
      F(N);
  }

  /// Degree of \p P; 0 for unknown nodes.
  size_t degree(ProcessId P) const {
    uint32_t S = slotOf(P);
    return S == NoSlot ? 0 : Slots[S].Nbrs.size();
  }

  /// Zero-copy ascending node set. Invalidated by any graph mutation.
  NeighborView nodesView() const { return {NodeIds.data(), NodeIds.size()}; }

  /// Number of nodes.
  size_t nodeCount() const { return NodeIds.size(); }

  /// Number of edges.
  size_t edgeCount() const { return Edges; }

  /// Mutation epoch: bumped by every successful node or edge add/remove
  /// (once per spliceOut), by clear(), and by assignment into this graph,
  /// so one graph object never shows the same epoch for two different
  /// contents. Equal epochs of one object mean an unchanged graph (the
  /// diameter monitor reuses its last sample on that).
  uint64_t epoch() const { return Epoch.Value; }

  /// Removes every node and edge. Capacity-retaining: slots (and their
  /// neighbor vectors' storage) go onto the free list ordered so that a
  /// cleared graph assigns the same slot numbers a fresh graph would —
  /// the arena-reset path reuses overlay graphs across runs.
  void clear();

  /// Validates structural invariants (symmetry, sortedness, no self-loops,
  /// id/slot cross-consistency, free-list integrity, edge count); returns
  /// true when consistent. Used by tests and assertions.
  bool checkConsistency() const;

  // --- Dense-index access (for algorithms over scratch buffers) ----------

  /// Slot of \p P, or NoSlot when absent. O(1).
  uint32_t slotOf(ProcessId P) const {
    return P < SlotOfId.size() ? SlotOfId[P] : NoSlot;
  }

  /// Number of slots ever allocated (in-use + free). Scratch buffers sized
  /// to this bound can be indexed by any in-use slot.
  size_t slotTableSize() const { return Slots.size(); }

  /// Identity occupying \p S (valid only for in-use slots).
  ProcessId slotId(uint32_t S) const { return Slots[S].Id; }

  /// Neighbor view of the node occupying in-use slot \p S.
  NeighborView slotNeighbors(uint32_t S) const {
    const std::vector<ProcessId> &N = Slots[S].Nbrs;
    return {N.data(), N.size()};
  }

private:
  /// One node's storage. Freed slots keep their neighbor vector's capacity
  /// so churn reuses it (Id is InvalidProcess while on the free list).
  struct Slot {
    ProcessId Id = InvalidProcess;
    std::vector<ProcessId> Nbrs;
  };

  /// Epoch counter. Copy-constructing keeps the source's value; assigning
  /// moves past both the old and the source value, so an epoch observed
  /// on this object before the assignment cannot reappear after it.
  struct MutationEpoch {
    uint64_t Value = 0;
    MutationEpoch() = default;
    MutationEpoch(const MutationEpoch &) = default;
    MutationEpoch &operator=(const MutationEpoch &O) {
      Value = std::max(Value, O.Value) + 1;
      return *this;
    }
  };

  /// Frees in-use slot \p S whose edges are already gone from the other
  /// lists and from the edge count: one epoch bump.
  void vacate(uint32_t S);

  std::vector<Slot> Slots;          ///< Dense node table.
  std::vector<uint32_t> FreeSlots;  ///< Recycled slot indices (LIFO).
  std::vector<uint32_t> SlotOfId;   ///< id -> slot, indexed by raw id.
  std::vector<ProcessId> NodeIds;   ///< Present ids, ascending.
  size_t Edges = 0;
  MutationEpoch Epoch;
};

} // namespace dyndist

#endif // DYNDIST_GRAPH_GRAPH_H
