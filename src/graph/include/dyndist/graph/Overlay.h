//===- dyndist/graph/Overlay.h - Churn-maintained overlay -------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamic overlay that absorbs joins and leaves while keeping the graph
/// connected. This is the substrate of the paper's geographical dimension
/// under churn: entities attach to a few random members on arrival, and a
/// local "patch" rule stitches a departing entity's neighbors together so
/// no departure can disconnect the overlay.
///
/// Join rule: a new node links to min(TargetDegree, |V|) distinct members
/// chosen uniformly at random.
///
/// Leave rule: before removal, the departing node's neighbors N1 < ... < Nk
/// are joined into a path (N1-N2, ..., Nk-1 - Nk) if those edges are
/// missing. Any path through the departing node is thereby rerouted, so a
/// connected overlay stays connected under any sequence of single leaves.
/// The patch and the removal are one graph step, Graph::spliceOut, which
/// rewrites each neighbor's list once.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_GRAPH_OVERLAY_H
#define DYNDIST_GRAPH_OVERLAY_H

#include "dyndist/graph/Graph.h"
#include "dyndist/sim/Simulator.h"
#include "dyndist/support/Random.h"

namespace dyndist {

/// How the overlay heals around a departing node.
enum class RepairMode {
  /// Join the departed node's neighbors into a path (deterministic):
  /// provably connectivity-preserving, but repeated departures inflate
  /// the survivors' degrees (every departure adds up to k-1 edges among
  /// its k neighbors).
  PatchPath,
  /// Give each orphaned neighbor one link to a uniformly random member:
  /// degrees stay near the target, but connectivity is only probabilistic
  /// — the E8 ablation measures how often it actually breaks.
  RandomRewire,
};

/// How a joining node picks its initial links.
enum class AttachMode {
  /// TargetDegree uniformly random members: expander-like, the diameter
  /// stays logarithmic in the population with high probability.
  Random,
  /// The single most recently joined member: the overlay grows a chain, so
  /// sustained arrivals push the diameter up without bound. This is the
  /// constructive witness for the paper's "unbounded diameter" classes.
  Chain,
};

/// Connectivity-preserving dynamic overlay; also usable directly as the
/// simulator's TopologyProvider.
class DynamicOverlay : public TopologyProvider {
public:
  /// \p TargetDegree is the number of links a joiner requests (>= 1 for
  /// connectivity; >= 2 recommended so the patch rule rarely inflates
  /// degrees). Ignored by AttachMode::Chain, which always links once.
  DynamicOverlay(size_t TargetDegree, Rng R,
                 AttachMode Mode = AttachMode::Random,
                 RepairMode Repair = RepairMode::PatchPath);

  /// Adds \p P and links it per the join rule.
  void join(ProcessId P);

  /// Patches around \p P and removes it (leave and crash are handled the
  /// same way: the overlay layer detects departure either way).
  void leave(ProcessId P);

  /// Seeds the overlay with an externally generated topology (e.g. from
  /// Generators.h). Clears any existing content.
  void seed(Graph Initial);

  /// Current overlay.
  const Graph &graph() const { return G; }

  /// TopologyProvider: neighbors of \p P, answered straight from the flat
  /// adjacency.
  size_t neighborCountOf(ProcessId P) const override { return G.degree(P); }
  ProcessId neighborAtOf(ProcessId P, size_t I) const override {
    return G.neighborView(P)[I];
  }
  void forEachNeighborOf(ProcessId P,
                         FunctionRef<void(ProcessId)> F) const override {
    for (ProcessId N : G.neighborView(P))
      F(N);
  }

  /// Wires this overlay to \p S: membership hooks keep the overlay in sync
  /// with joins/leaves/crashes and the simulator routes neighbor queries
  /// here. Call once after constructing the simulator.
  void attachTo(Simulator &S);

  /// Arena-reset path: re-arms the overlay exactly as the constructor
  /// would — fresh policy knobs and random stream, empty graph — while the
  /// graph keeps every slot and neighbor-vector capacity it has faulted.
  /// Re-attach to the (reset) simulator afterwards.
  // DYNDIST_SERIAL_ONLY: rewinds shared overlay state between runs.
  void reset(size_t NewTargetDegree, Rng NewR,
             AttachMode NewMode = AttachMode::Random,
             RepairMode NewRepair = RepairMode::PatchPath);

private:
  size_t TargetDegree;
  Rng R;
  AttachMode Mode;
  RepairMode Repair;
  Graph G;
  ProcessId LastJoined = InvalidProcess;
  /// Attach-target scratch, reused across joins (capacity TargetDegree).
  std::vector<ProcessId> Picks;
  /// Copy of a leaver's neighbour list, reused across RandomRewire leaves.
  std::vector<ProcessId> Nbrs;
};

} // namespace dyndist

#endif // DYNDIST_GRAPH_OVERLAY_H
