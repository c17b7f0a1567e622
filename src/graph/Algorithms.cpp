//===- Algorithms.cpp - Graph algorithms ------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// All traversals run over the graph's dense slot indices with epoch-stamped
// thread-local scratch buffers: a BFS allocates nothing once the scratch has
// grown to the graph's slot-table size, and "visited" is one stamp compare
// instead of a map lookup. The public map-returning wrappers materialize
// their results from the scratch, preserving the original (ascending,
// deterministic) output contracts byte for byte.
//
//===----------------------------------------------------------------------===//

#include "dyndist/graph/Algorithms.h"

#include <algorithm>

using namespace dyndist;

namespace {

/// Reusable per-thread traversal state, indexed by graph slot. Epoch
/// stamping makes "clear" an increment; the arrays are only ever resized
/// upward (thread-local, so sweeps sharded by SweepRunner do not share it).
struct BfsScratch {
  std::vector<uint32_t> Stamp;  ///< Slot visited iff Stamp[S] == Epoch.
  std::vector<uint64_t> Dist;   ///< Hop distance, valid when stamped.
  std::vector<uint32_t> Parent; ///< Parent slot, valid when stamped.
  std::vector<uint32_t> Order;  ///< Stamped slots in discovery order.
  uint32_t Epoch = 0;

  /// Starts a fresh traversal over \p G; invalidates previous results.
  void begin(const Graph &G) {
    size_t N = G.slotTableSize();
    if (Stamp.size() < N) {
      Stamp.resize(N, 0);
      Dist.resize(N);
      Parent.resize(N);
    }
    if (++Epoch == 0) { // Stamp wrap-around: reset the array once.
      std::fill(Stamp.begin(), Stamp.end(), 0u);
      Epoch = 1;
    }
    Order.clear();
  }

  bool visited(uint32_t S) const { return Stamp[S] == Epoch; }

  void visit(uint32_t S, uint64_t D, uint32_t P) {
    Stamp[S] = Epoch;
    Dist[S] = D;
    Parent[S] = P;
    Order.push_back(S);
  }
};

thread_local BfsScratch TLScratch;

/// Dense BFS from \p Source. Fills \p S (distances, parents, discovery
/// order) and returns the number of reachable nodes, 0 when Source is
/// unknown. Neighbor expansion ascends by id, so discovery order — and
/// therefore every derived output — is deterministic.
size_t bfsDense(const Graph &G, ProcessId Source, BfsScratch &S) {
  S.begin(G);
  uint32_t Src = G.slotOf(Source);
  if (Src == Graph::NoSlot)
    return 0;
  S.visit(Src, 0, Src);
  for (size_t Head = 0; Head != S.Order.size(); ++Head) {
    uint32_t Cur = S.Order[Head];
    uint64_t D = S.Dist[Cur];
    for (ProcessId N : G.slotNeighbors(Cur)) {
      uint32_t NS = G.slotOf(N);
      if (!S.visited(NS))
        S.visit(NS, D + 1, Cur);
    }
  }
  return S.Order.size();
}

/// Word-parallel multi-source BFS state (MS-BFS), over compact node
/// indices: index I is the I-th node of the centre BFS's discovery order.
/// Bit J of a node's word stands for source J of the current 64-source
/// block. Resized upward only, like BfsScratch.
struct SweepScratch {
  std::vector<uint32_t> Index;   ///< Slot -> compact index.
  std::vector<uint32_t> Offsets; ///< CSR row starts, N + 1 entries.
  std::vector<uint32_t> Adj;     ///< CSR neighbor indices, 2E entries.
  std::vector<uint64_t> Seen;    ///< Sources that have reached the node.
  std::vector<uint64_t> Frontier; ///< Sources that reached it last round.
  std::vector<uint64_t> Next;     ///< Sources reaching it this round.
};

thread_local SweepScratch TLSweep;

/// Exact diameter of the connected graph \p G given bounds Lb <= D <= Ub,
/// with \p Centre holding a BFS from the node the bounds were taken around.
/// A diametral pair longer than Lb has an endpoint at depth >= (Lb + 1) / 2
/// (rounded up) from the centre, so only those nodes are sources; they are
/// a suffix of the discovery order. The result is the largest eccentricity
/// among them, or Lb when none exceeds it.
uint64_t sweepDiameter(const Graph &G, const BfsScratch &Centre, uint64_t Lb,
                       uint64_t Ub) {
  SweepScratch &W = TLSweep;
  const std::vector<uint32_t> &Order = Centre.Order;
  size_t N = Order.size();
  if (W.Index.size() < G.slotTableSize())
    W.Index.resize(G.slotTableSize());
  for (size_t I = 0; I != N; ++I)
    W.Index[Order[I]] = static_cast<uint32_t>(I);
  W.Offsets.resize(N + 1);
  W.Adj.clear();
  for (size_t I = 0; I != N; ++I) {
    W.Offsets[I] = static_cast<uint32_t>(W.Adj.size());
    for (ProcessId Nbr : G.slotNeighbors(Order[I]))
      W.Adj.push_back(W.Index[G.slotOf(Nbr)]);
  }
  W.Offsets[N] = static_cast<uint32_t>(W.Adj.size());
  W.Seen.resize(N);
  W.Frontier.resize(N);
  W.Next.resize(N);

  size_t First = 0;
  while (First != N && Centre.Dist[Order[First]] < (Lb + 2) / 2)
    ++First;
  uint64_t Best = Lb;
  for (size_t Base = First; Base < N && Best < Ub; Base += 64) {
    size_t Width = std::min<size_t>(64, N - Base);
    uint64_t Full = Width == 64 ? ~uint64_t(0) : (uint64_t(1) << Width) - 1;
    std::fill(W.Seen.begin(), W.Seen.end(), uint64_t(0));
    std::fill(W.Frontier.begin(), W.Frontier.end(), uint64_t(0));
    for (size_t J = 0; J != Width; ++J)
      W.Seen[Base + J] = W.Frontier[Base + J] = uint64_t(1) << J;
    size_t FullNodes = Width == 1 ? 1 : 0; // A lone source knows itself.
    uint64_t Rounds = 0;
    // Each round pulls the neighbors' last-round bits into every node that
    // has not heard from the whole block yet; the graph is connected, so
    // every round until the last one adds a bit somewhere.
    while (FullNodes != N) {
      ++Rounds;
      for (size_t V = 0; V != N; ++V) {
        uint64_t Known = W.Seen[V];
        uint64_t In = 0;
        if (Known != Full) {
          for (uint32_t E = W.Offsets[V], End = W.Offsets[V + 1]; E != End;
               ++E)
            In |= W.Frontier[W.Adj[E]];
          In &= ~Known;
          if (In != 0) {
            W.Seen[V] = Known | In;
            FullNodes += (Known | In) == Full;
          }
        }
        W.Next[V] = In;
      }
      W.Frontier.swap(W.Next);
    }
    Best = std::max(Best, Rounds);
  }
  return Best;
}

} // namespace

std::map<ProcessId, uint64_t> dyndist::bfsDistances(const Graph &G,
                                                    ProcessId Source) {
  BfsScratch &S = TLScratch;
  bfsDense(G, Source, S);
  std::map<ProcessId, uint64_t> Dist;
  for (uint32_t Slot : S.Order)
    Dist.emplace(G.slotId(Slot), S.Dist[Slot]);
  return Dist;
}

bool dyndist::isConnected(const Graph &G) {
  if (G.nodeCount() == 0)
    return true;
  // Early-exit by count: no distance map is materialized; the BFS itself
  // is the visited counter.
  return bfsDense(G, G.nodesView().front(), TLScratch) == G.nodeCount();
}

std::vector<std::vector<ProcessId>>
dyndist::connectedComponents(const Graph &G) {
  std::vector<std::vector<ProcessId>> Components;
  BfsScratch &S = TLScratch;
  S.begin(G); // One epoch spans the whole sweep.
  for (ProcessId Root : G.nodesView()) {
    uint32_t RS = G.slotOf(Root);
    if (S.visited(RS))
      continue;
    // BFS the component, appending to the shared discovery order.
    size_t First = S.Order.size();
    S.visit(RS, 0, RS);
    for (size_t Head = First; Head != S.Order.size(); ++Head) {
      uint32_t Cur = S.Order[Head];
      for (ProcessId N : G.slotNeighbors(Cur)) {
        uint32_t NS = G.slotOf(N);
        if (!S.visited(NS))
          S.visit(NS, S.Dist[Cur] + 1, Cur);
      }
    }
    std::vector<ProcessId> Component;
    Component.reserve(S.Order.size() - First);
    for (size_t I = First; I != S.Order.size(); ++I)
      Component.push_back(G.slotId(S.Order[I]));
    std::sort(Component.begin(), Component.end());
    Components.push_back(std::move(Component));
  }
  // Roots ascend over NodeIds, so components are already ordered by their
  // smallest node (the root is its component's minimum-id entry point, and
  // every smaller id was visited by an earlier root's BFS).
  return Components;
}

std::optional<uint64_t> dyndist::eccentricity(const Graph &G,
                                              ProcessId Source) {
  if (!G.hasNode(Source))
    return std::nullopt;
  BfsScratch &S = TLScratch;
  if (bfsDense(G, Source, S) != G.nodeCount())
    return std::nullopt;
  uint64_t Ecc = 0;
  for (uint32_t Slot : S.Order)
    Ecc = std::max(Ecc, S.Dist[Slot]);
  return Ecc;
}

std::optional<uint64_t> dyndist::diameter(const Graph &G) {
  size_t N = G.nodeCount();
  if (N == 0)
    return std::nullopt;
  BfsScratch &S = TLScratch;
  // Connectivity check; the BFS doubles as the first sweep.
  if (bfsDense(G, G.nodesView().front(), S) != N)
    return std::nullopt;

  // 4-sweep: two double sweeps, the second started from the midpoint of
  // the first one's longest path. Every eccentricity seen is a lower bound;
  // the last midpoint is the centre the upper bound is taken around.
  uint64_t Lb = 0;
  for (int Round = 0; Round != 2; ++Round) {
    uint32_t Far = S.Order.back(); // BFS order: distances never decrease.
    Lb = std::max(Lb, S.Dist[Far]);
    bfsDense(G, G.slotId(Far), S);
    uint32_t Mid = S.Order.back();
    Lb = std::max(Lb, S.Dist[Mid]);
    for (uint64_t Up = S.Dist[Mid] / 2; Up != 0; --Up)
      Mid = S.Parent[Mid];
    bfsDense(G, G.slotId(Mid), S);
  }

  // Depth gate: any two nodes are at most 2e apart through the centre, and
  // at most 2e - 1 apart unless two distinct nodes sit at depth e.
  uint64_t Ecc = S.Dist[S.Order.back()];
  Lb = std::max(Lb, Ecc);
  size_t AtEcc = 0;
  for (auto It = S.Order.rbegin(); It != S.Order.rend() && S.Dist[*It] == Ecc;
       ++It)
    ++AtEcc;
  uint64_t Ub = 2 * Ecc - (AtEcc == 1 && Ecc != 0 ? 1 : 0);
  if (Lb >= Ub)
    return Lb;
  return sweepDiameter(G, S, Lb, Ub);
}

std::vector<ProcessId> dyndist::ballAround(const Graph &G, ProcessId Source,
                                           uint64_t MaxHops) {
  BfsScratch &S = TLScratch;
  bfsDense(G, Source, S);
  std::vector<ProcessId> Out;
  for (uint32_t Slot : S.Order)
    if (S.Dist[Slot] <= MaxHops)
      Out.push_back(G.slotId(Slot));
  std::sort(Out.begin(), Out.end());
  return Out;
}

std::map<ProcessId, ProcessId> dyndist::bfsTree(const Graph &G,
                                                ProcessId Source) {
  BfsScratch &S = TLScratch;
  bfsDense(G, Source, S);
  std::map<ProcessId, ProcessId> Parent;
  for (uint32_t Slot : S.Order)
    Parent.emplace(G.slotId(Slot), G.slotId(S.Parent[Slot]));
  return Parent;
}

std::vector<ProcessId> dyndist::articulationPoints(const Graph &G) {
  // Iterative Tarjan low-link DFS (the recursion could be deep on chain
  // overlays, which are exactly a case we analyze), over dense slot
  // indices: discovery/low-link/parent live in flat arrays.
  size_t Table = G.slotTableSize();
  std::vector<uint64_t> Disc(Table, 0), Low(Table, 0);
  std::vector<uint32_t> Parent(Table, Graph::NoSlot);
  std::vector<bool> Cut(Table, false);
  uint64_t Clock = 0;

  struct Frame {
    uint32_t Slot;
    NeighborView Nbrs; // Valid: the graph is not mutated while we walk.
    size_t NextNbr = 0;
  };

  std::vector<Frame> Stack;
  for (ProcessId RootId : G.nodesView()) {
    uint32_t Root = G.slotOf(RootId);
    if (Disc[Root] != 0)
      continue;
    size_t RootChildren = 0;
    Parent[Root] = Root;
    Stack.push_back({Root, G.slotNeighbors(Root), 0});
    Disc[Root] = Low[Root] = ++Clock;

    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      if (Top.NextNbr < Top.Nbrs.size()) {
        uint32_t Next = G.slotOf(Top.Nbrs[Top.NextNbr++]);
        if (Disc[Next] == 0) {
          Parent[Next] = Top.Slot;
          if (Top.Slot == Root)
            ++RootChildren;
          Disc[Next] = Low[Next] = ++Clock;
          Stack.push_back({Next, G.slotNeighbors(Next), 0});
        } else if (Next != Parent[Top.Slot]) {
          Low[Top.Slot] = std::min(Low[Top.Slot], Disc[Next]);
        }
        continue;
      }
      // Done with Top: fold its low-link into the parent.
      uint32_t Done = Top.Slot;
      Stack.pop_back();
      if (Stack.empty())
        continue;
      uint32_t Up = Stack.back().Slot;
      Low[Up] = std::min(Low[Up], Low[Done]);
      if (Up != Root && Low[Done] >= Disc[Up])
        Cut[Up] = true;
    }
    if (RootChildren >= 2)
      Cut[Root] = true;
  }

  std::vector<ProcessId> Out;
  for (ProcessId P : G.nodesView())
    if (Cut[G.slotOf(P)])
      Out.push_back(P);
  return Out; // NodeIds ascend, so the cut set ascends.
}
