//===- dyndist/graph/Algorithms.h - Graph algorithms ------------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graph analyses used to characterize overlays: connectivity, connected
/// components, eccentricity, BFS balls, and exact diameter. The diameter is
/// the load-bearing quantity of the paper's geographical dimension — the
/// one-time query is solvable with TTL flooding exactly when a bound on it
/// is known — so the experiment harnesses measure it exactly.
///
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_GRAPH_ALGORITHMS_H
#define DYNDIST_GRAPH_ALGORITHMS_H

#include "dyndist/graph/Graph.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace dyndist {

/// True when the graph is connected (vacuously true when empty).
bool isConnected(const Graph &G);

/// Connected components; each component's nodes ascend, and components are
/// ordered by their smallest node.
std::vector<std::vector<ProcessId>> connectedComponents(const Graph &G);

/// Eccentricity of \p Source (max distance to any reachable node); nullopt
/// when the graph is disconnected from Source's view (some node
/// unreachable) or Source is unknown.
std::optional<uint64_t> eccentricity(const Graph &G, ProcessId Source);

/// The diameter where it exceeds \p Floor: nullopt iff the graph is empty
/// or disconnected; otherwise the exact diameter when that is above
/// \p Floor, else some value <= Floor. A caller tracking a running maximum
/// passes it as Floor and learns exactly what can raise it.
///
/// \p Centre is a hint in and a centre out: the connectivity BFS starts
/// from it (from the smallest node when it is absent), and it returns the
/// node with the best upper bound seen, which makes a good hint for the
/// next call on a slightly changed graph. Only the cost depends on it.
///
/// The call copies the graph into one compact array: one 64-bit neighbor
/// row per node when it has at most 64 nodes, whose BFS levels are then
/// single masks, else a CSR array; one routine runs the same steps over
/// either. Every BFS from a
/// node u of eccentricity e bounds the diameter D: e <= D <= 2e, and
/// D <= 2e - 1 when a single node sits at depth e. After the connectivity
/// BFS the 4-sweep (Magnien, Latapy and Habib, JEA 2009, as extended by
/// Crescenzi et al., TCS 2013) runs up to four more, two when a hint stands
/// in for its first midpoint, and the call returns as soon as Lb >= Ub or
/// Ub <= Floor. On every path and tree-like overlay that costs at most
/// five BFS, O(V + E). Otherwise a word-parallel multi-source BFS (MS-BFS,
/// Then et al., PVLDB 2014) sweeps 64 sources per pass from the nodes deep
/// enough to end a path longer than max(Lb, Floor):
/// O(ceil(V / 64) * D * (V + E)) word operations. Scratch is thread-local;
/// steady-state calls allocate nothing.
std::optional<uint64_t> diameterAbove(const Graph &G, uint64_t Floor,
                                      ProcessId &Centre);

/// Exact diameter; nullopt when disconnected or empty. diameterAbove() with
/// Floor 0 and no hint.
std::optional<uint64_t> diameter(const Graph &G);

/// Nodes within \p MaxHops of \p Source (Source included), ascending. This
/// is the exact coverage set of a TTL-flooding wave with TTL = MaxHops over
/// a static snapshot, used by the E2 checker.
std::vector<ProcessId> ballAround(const Graph &G, ProcessId Source,
                                  uint64_t MaxHops);

/// Articulation points (cut vertices): nodes whose departure disconnects
/// their component. The overlay's *fragility margin* — a repair rule is
/// only as good as its ability to keep this set small, since each cut
/// vertex is one crash away from a partition (experiment E8 tracks it).
/// Tarjan's low-link algorithm, iterative, O(V + E).
std::vector<ProcessId> articulationPoints(const Graph &G);

} // namespace dyndist

#endif // DYNDIST_GRAPH_ALGORITHMS_H
