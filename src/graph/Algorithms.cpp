//===- Algorithms.cpp - Graph algorithms ------------------------------------===//
//
// Part of the dyndist project.
//
//===----------------------------------------------------------------------===//
//
// All traversals run over the graph's dense slot indices with epoch-stamped
// thread-local scratch buffers: a BFS allocates nothing once the scratch has
// grown to the graph's slot-table size, and "visited" is one stamp compare
// instead of a map lookup. The public wrappers materialize their results
// from the scratch, preserving the original (ascending, deterministic)
// output contracts byte for byte. The diameter kernel, which
// runs several BFS per call, first copies the graph into a compact form and
// runs them all over that. One routine holds its bound and source logic; it
// is a template over two BFS engines, one per adjacency form: a graph of at
// most 64 nodes (a machine word) gets one 64-bit neighbor row per node and
// keeps each BFS level as a mask, a larger one gets a CSR array.
//
//===----------------------------------------------------------------------===//

#include "dyndist/graph/Algorithms.h"

#include <algorithm>
#include <bit>

using namespace dyndist;

namespace {

/// Reusable per-thread traversal state, indexed by graph slot. Epoch
/// stamping makes "clear" an increment; the arrays are only ever resized
/// upward (thread-local, so sweeps sharded by SweepRunner do not share it).
struct BfsScratch {
  std::vector<uint32_t> Stamp;  ///< Slot visited iff Stamp[S] == Epoch.
  std::vector<uint64_t> Dist;   ///< Hop distance, valid when stamped.
  std::vector<uint32_t> Order;  ///< Stamped slots in discovery order.
  uint32_t Epoch = 0;

  /// Starts a fresh traversal over \p G; invalidates previous results.
  void begin(const Graph &G) {
    size_t N = G.slotTableSize();
    if (Stamp.size() < N) {
      Stamp.resize(N, 0);
      Dist.resize(N);
    }
    if (++Epoch == 0) { // Stamp wrap-around: reset the array once.
      std::fill(Stamp.begin(), Stamp.end(), 0u);
      Epoch = 1;
    }
    Order.clear();
  }

  bool visited(uint32_t S) const { return Stamp[S] == Epoch; }

  void visit(uint32_t S, uint64_t D) {
    Stamp[S] = Epoch;
    Dist[S] = D;
    Order.push_back(S);
  }
};

thread_local BfsScratch TLScratch;

/// Dense BFS from \p Source. Fills \p S (distances, discovery order) and returns the number of reachable nodes, 0 when Source is
/// unknown. Neighbor expansion ascends by id, so discovery order — and
/// therefore every derived output — is deterministic.
size_t bfsDense(const Graph &G, ProcessId Source, BfsScratch &S) {
  S.begin(G);
  uint32_t Src = G.slotOf(Source);
  if (Src == Graph::NoSlot)
    return 0;
  S.visit(Src, 0);
  for (size_t Head = 0; Head != S.Order.size(); ++Head) {
    uint32_t Cur = S.Order[Head];
    uint64_t D = S.Dist[Cur];
    for (ProcessId N : G.slotNeighbors(Cur)) {
      uint32_t NS = G.slotOf(N);
      if (!S.visited(NS))
        S.visit(NS, D + 1);
    }
  }
  return S.Order.size();
}

/// BFS engine over compact node indices 0..N-1 (each node's rank in the
/// graph's ascending node set) for graphs of any size: one CSR copy of the
/// graph serves every BFS of a call and the word-parallel sweep after them.
/// Capacity only grows, like BfsScratch's.
struct CsrBfs {
  std::vector<uint32_t> Offsets;  ///< CSR row starts, N + 1 entries.
  std::vector<uint32_t> Adj;      ///< CSR neighbor indices, 2E entries.
  std::vector<uint32_t> Dist;     ///< Hop distance of the last BFS.
  std::vector<uint32_t> Order;    ///< Discovery order of the last BFS.
  std::vector<uint32_t> Sources;  ///< MS-BFS sources.
  std::vector<uint64_t> Seen;     ///< MS-BFS: sources that reached the node.
  std::vector<uint64_t> Frontier; ///< MS-BFS: sources that reached it last.
  std::vector<uint64_t> Next;     ///< MS-BFS: sources reaching it this round.

  static constexpr uint32_t Unseen = ~0u;

  /// Copies the non-empty graph \p G into the CSR arrays.
  void build(const Graph &G, const std::vector<uint32_t> &Rank) {
    NeighborView Nodes = G.nodesView();
    size_t N = Nodes.size();
    Offsets.resize(N + 1);
    Adj.resize(2 * G.edgeCount());
    uint32_t E = 0;
    for (size_t I = 0; I != N; ++I) {
      Offsets[I] = E;
      for (ProcessId Nbr : G.neighborView(Nodes[I]))
        Adj[E++] = Rank[Nbr];
    }
    Offsets[N] = E;
    Dist.resize(N);
    Order.resize(N);
  }

  /// BFS from node \p Src; returns the number of nodes reached, which are
  /// Order[0, count) in nondecreasing distance.
  size_t bfs(uint32_t Src) {
    std::fill(Dist.begin(), Dist.end(), Unseen);
    Dist[Src] = 0;
    Order[0] = Src;
    size_t Tail = 1;
    for (size_t Head = 0; Head != Tail; ++Head) {
      uint32_t Cur = Order[Head];
      uint32_t Next = Dist[Cur] + 1;
      for (uint32_t E = Offsets[Cur], End = Offsets[Cur + 1]; E != End; ++E) {
        uint32_t Nbr = Adj[E];
        if (Dist[Nbr] == Unseen) {
          Dist[Nbr] = Next;
          Order[Tail++] = Nbr;
        }
      }
    }
    return Tail;
  }

  // The accessors below read the last BFS, which reached every node.
  uint32_t farthest() const { return Order.back(); }
  uint64_t ecc() const { return Dist[farthest()]; }
  size_t atEcc() const {
    size_t N = Order.size(), I = N;
    for (uint32_t Ecc = Dist[farthest()]; I != 0 && Dist[Order[I - 1]] == Ecc;)
      --I;
    return N - I;
  }

  /// A node halfway along a shortest path from the last BFS's source to
  /// farthest(): walks half its distance back toward the source.
  uint32_t midpoint() const {
    uint32_t Cur = farthest();
    for (uint32_t Up = Dist[Cur] / 2; Up != 0; --Up)
      for (uint32_t E = Offsets[Cur];; ++E)
        if (Dist[Adj[E]] + 1 == Dist[Cur]) {
          Cur = Adj[E];
          break;
        }
    return Cur;
  }

  /// Makes the last BFS's nodes at depth >= \p MinDepth the sweep's sources.
  void deepSources(uint64_t MinDepth) {
    Sources.clear();
    for (size_t I = Order.size(); I != 0 && Dist[Order[I - 1]] >= MinDepth; --I)
      Sources.push_back(Order[I - 1]);
  }

  /// Largest eccentricity among Sources, or \p Best when none exceeds it;
  /// stops once \p Ub is reached. MS-BFS (Then et al., PVLDB 2014): bit J
  /// of a node's word stands for source J of the current 64-source block,
  /// and each round pulls the neighbors' last-round bits into every node
  /// that has not heard from the whole block yet. The graph is connected,
  /// so every round until the last adds a bit somewhere.
  uint64_t sweep(uint64_t Best, uint64_t Ub) {
    size_t N = Order.size();
    Seen.resize(N);
    Frontier.resize(N);
    Next.resize(N);
    for (size_t Base = 0; Base < Sources.size() && Best < Ub; Base += 64) {
      size_t Width = std::min<size_t>(64, Sources.size() - Base);
      uint64_t Full = Width == 64 ? ~uint64_t(0) : (uint64_t(1) << Width) - 1;
      std::fill(Seen.begin(), Seen.end(), uint64_t(0));
      std::fill(Frontier.begin(), Frontier.end(), uint64_t(0));
      for (size_t J = 0; J != Width; ++J) {
        uint32_t Source = Sources[Base + J];
        Seen[Source] = Frontier[Source] = uint64_t(1) << J;
      }
      size_t FullNodes = Width == 1 ? 1 : 0; // A lone source knows itself.
      uint64_t Rounds = 0;
      while (FullNodes != N) {
        ++Rounds;
        for (size_t V = 0; V != N; ++V) {
          uint64_t Known = Seen[V];
          uint64_t In = 0;
          if (Known != Full) {
            for (uint32_t E = Offsets[V], End = Offsets[V + 1]; E != End; ++E)
              In |= Frontier[Adj[E]];
            In &= ~Known;
            if (In != 0) {
              Seen[V] = Known | In;
              FullNodes += (Known | In) == Full;
            }
          }
          Next[V] = In;
        }
        Frontier.swap(Next);
      }
      Best = std::max(Best, Rounds);
    }
    return Best;
  }
};

/// The same engine for graphs of at most 64 nodes, where a node set is one
/// machine word: node I's neighbors are the bits of Row[I], and a BFS keeps
/// its levels as masks, each the OR of the last level's rows minus the
/// nodes already seen.
struct MaskBfs {
  static constexpr size_t MaxNodes = 64;

  uint64_t Row[MaxNodes] = {};
  uint64_t Level[MaxNodes] = {}; ///< The last BFS's nodes at depth D.
  uint32_t Depth = 0;            ///< The last BFS's eccentricity.
  uint64_t All = 0;              ///< Every node.
  uint64_t Sources = 0;          ///< Sweep sources.
  uint64_t Seen[MaxNodes] = {};  ///< Sweep: sources that reached the node.
  uint64_t Words[2][MaxNodes] = {}; ///< Sweep: last and next round's bits.

  static uint64_t bit(uint32_t I) { return uint64_t(1) << I; }
  static uint32_t lowest(uint64_t Mask) { return std::countr_zero(Mask); }

  /// Fills the rows of the non-empty graph \p G of at most 64 nodes.
  void build(const Graph &G, const std::vector<uint32_t> &Rank) {
    NeighborView Nodes = G.nodesView();
    for (size_t I = 0; I != Nodes.size(); ++I) {
      uint64_t R = 0;
      for (ProcessId Nbr : G.neighborView(Nodes[I]))
        R |= bit(Rank[Nbr]);
      Row[I] = R;
    }
    All = ~uint64_t(0) >> (MaxNodes - Nodes.size());
  }

  size_t bfs(uint32_t Src) {
    uint64_t Seen = bit(Src), Cur = Seen;
    Depth = 0;
    Level[0] = Cur;
    for (;;) {
      uint64_t Next = 0;
      for (uint64_t B = Cur; B != 0; B &= B - 1)
        Next |= Row[lowest(B)];
      Next &= ~Seen;
      if (Next == 0)
        return std::popcount(Seen);
      Seen |= Next;
      Level[++Depth] = Cur = Next;
    }
  }

  /// The deepest level's highest-ranked node.
  uint32_t farthest() const { return 63 - std::countl_zero(Level[Depth]); }
  uint64_t ecc() const { return Depth; }
  size_t atEcc() const { return std::popcount(Level[Depth]); }

  uint32_t midpoint() const {
    uint32_t Cur = farthest();
    for (uint32_t D = Depth; D != Depth - Depth / 2; --D)
      Cur = lowest(Row[Cur] & Level[D - 1]);
    return Cur;
  }

  void deepSources(uint64_t MinDepth) {
    Sources = 0;
    for (uint64_t D = MinDepth; D <= Depth; ++D)
      Sources |= Level[D];
  }

  /// CsrBfs::sweep as one block, which no Ub can cut short, whose source
  /// bits are the sources' own indices. Only nodes still missing a source
  /// pull, and only from neighbors that gained a bit last round.
  uint64_t sweep(uint64_t Best, uint64_t /*Ub*/) {
    if (Sources == 0)
      return Best;
    uint64_t *Frontier = Words[0], *Next = Words[1];
    for (uint64_t B = All; B != 0; B &= B - 1) {
      uint32_t V = lowest(B);
      Seen[V] = Frontier[V] = Sources & bit(V);
    }
    // A lone source knows itself.
    uint64_t Pending = std::has_single_bit(Sources) ? All & ~Sources : All;
    uint64_t Active = Sources; // Nodes whose frontier word is non-zero.
    uint64_t Rounds = 0;
    while (Pending != 0) {
      ++Rounds;
      uint64_t Gained = 0;
      for (uint64_t P = Pending; P != 0; P &= P - 1) {
        uint32_t V = lowest(P);
        uint64_t In = 0;
        for (uint64_t R = Row[V] & Active; R != 0; R &= R - 1)
          In |= Frontier[lowest(R)];
        In &= ~Seen[V];
        if (In == 0)
          continue;
        Seen[V] |= In;
        Next[V] = In;
        Gained |= bit(V);
        if (Seen[V] == Sources)
          Pending &= ~bit(V);
      }
      Active = Gained;
      std::swap(Frontier, Next);
    }
    return std::max(Best, Rounds);
  }
};

/// Per-thread diameter state: the id -> rank table both engines index
/// their nodes by, and the engines themselves.
struct DiameterScratch {
  std::vector<uint32_t> Rank; ///< ProcessId -> rank in the node set.
  CsrBfs Csr;
  MaskBfs Mask;

  /// Ranks the non-empty graph \p G's nodes. Ids index Rank directly: ids
  /// are dense, like the graph's own id table.
  void rank(const Graph &G) {
    NeighborView Nodes = G.nodesView();
    if (Rank.size() <= Nodes.back())
      Rank.resize(Nodes.back() + 1);
    for (size_t I = 0; I != Nodes.size(); ++I)
      Rank[Nodes[I]] = static_cast<uint32_t>(I);
  }
};

/// diameterAbove() over either engine, which holds a copy of \p G.
template <typename Engine>
std::optional<uint64_t> boundDiameter(Engine &W, const Graph &G,
                                      uint64_t Floor, uint32_t Src,
                                      bool Hinted, ProcessId &Centre) {
  // Connectivity check, from the hint: a previous centre usually still has
  // a small eccentricity, so this BFS alone often bounds the diameter.
  if (W.bfs(Src) != G.nodeCount())
    return std::nullopt;

  // Every BFS from a node u of eccentricity e bounds the diameter: e <= D,
  // and D <= 2e, or 2e - 1 when a single node sits at depth e (any other
  // pair meets through u with one end shallower). The 4-sweep (Magnien,
  // Latapy and Habib, JEA 2009; Crescenzi et al., TCS 2013) runs two
  // double sweeps, each from the farthest node of the last BFS and then
  // from the midpoint of that BFS's longest path. A hint stands in for the
  // first double sweep's midpoint, so a hinted call runs only the second.
  // After every BFS the bounds may settle the answer: Lb >= Ub is exact,
  // and Ub <= Floor is all a caller who already saw Floor needs.
  uint64_t Lb = 0, Ub = ~uint64_t(0);
  auto Bound = [&](uint32_t Source) {
    uint64_t Ecc = W.ecc();
    Lb = std::max(Lb, Ecc);
    uint64_t SourceUb = 2 * Ecc - (W.atEcc() == 1 && Ecc != 0 ? 1 : 0);
    if (SourceUb < Ub) {
      Ub = SourceUb;
      Centre = G.nodesView()[Source];
    }
    return Ub <= std::max(Lb, Floor);
  };
  if (Bound(Src))
    return Lb;
  for (int Round = Hinted ? 1 : 0; Round != 2; ++Round) {
    uint32_t Far = W.farthest();
    W.bfs(Far);
    if (Bound(Far))
      return Lb;
    uint32_t Mid = W.midpoint();
    W.bfs(Mid);
    if (Bound(Mid))
      return Lb;
  }

  // A pair longer than T = max(Lb, Floor) has an endpoint at depth
  // >= ceil((T + 1) / 2) from the last BFS's source: only those nodes can
  // lift the answer above T, so they are the word-parallel sweep's sources.
  uint64_t T = std::max(Lb, Floor);
  W.deepSources((T + 2) / 2);
  return W.sweep(Lb, Ub);
}

thread_local DiameterScratch TLDiameter;

} // namespace

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
    S.visit(RS, 0);
    for (size_t Head = First; Head != S.Order.size(); ++Head) {
      uint32_t Cur = S.Order[Head];
      for (ProcessId N : G.slotNeighbors(Cur)) {
        uint32_t NS = G.slotOf(N);
        if (!S.visited(NS))
          S.visit(NS, S.Dist[Cur] + 1);
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

std::optional<uint64_t> dyndist::diameterAbove(const Graph &G, uint64_t Floor,
                                               ProcessId &Centre) {
  size_t N = G.nodeCount();
  if (N == 0)
    return std::nullopt;
  DiameterScratch &W = TLDiameter;
  W.rank(G);
  const bool Hinted = G.hasNode(Centre);
  uint32_t Src = Hinted ? W.Rank[Centre] : 0;
  if (N <= MaskBfs::MaxNodes) {
    W.Mask.build(G, W.Rank);
    return boundDiameter(W.Mask, G, Floor, Src, Hinted, Centre);
  }
  W.Csr.build(G, W.Rank);
  return boundDiameter(W.Csr, G, Floor, Src, Hinted, Centre);
}

std::optional<uint64_t> dyndist::diameter(const Graph &G) {
  ProcessId Centre = InvalidProcess;
  return diameterAbove(G, 0, Centre);
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
