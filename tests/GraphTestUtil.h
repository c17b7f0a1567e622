//===- GraphTestUtil.h - shared overlay test helpers ------------*- C++ -*-===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// The reference the diameter kernel and the diameter monitor are checked
// against: one BFS from every node, no bounds and no pruning. Plus copies
// of a node or neighbor set, for tests that compare or mutate while
// iterating.
//
//===----------------------------------------------------------------------===//

#ifndef DYNDIST_TESTS_GRAPHTESTUTIL_H
#define DYNDIST_TESTS_GRAPHTESTUTIL_H

#include "dyndist/graph/Algorithms.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace dyndist {

/// All-sources reference: the largest eccentricity, nullopt when empty or
/// disconnected.
inline std::optional<uint64_t> allSourcesDiameter(const Graph &G) {
  if (G.nodeCount() == 0)
    return std::nullopt;
  uint64_t Diam = 0;
  for (ProcessId P : G.nodesView()) {
    auto Ecc = eccentricity(G, P);
    if (!Ecc)
      return std::nullopt;
    Diam = std::max(Diam, *Ecc);
  }
  return Diam;
}

/// The node set copied out of nodesView(), for comparing against a vector
/// or for iterating while the graph changes.
inline std::vector<ProcessId> nodeList(const Graph &G) {
  NeighborView V = G.nodesView();
  return {V.begin(), V.end()};
}

/// \p P's neighbors copied out of neighborView(), for comparing against a
/// vector or for iterating while the graph changes.
inline std::vector<ProcessId> neighborList(const Graph &G, ProcessId P) {
  NeighborView V = G.neighborView(P);
  return {V.begin(), V.end()};
}

} // namespace dyndist

#endif // DYNDIST_TESTS_GRAPHTESTUTIL_H
