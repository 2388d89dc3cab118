// The one search engine behind every shortest-path query in the system
// (graph::Dijkstra / graph::AStar, HABIT's Imputer, the GTI baseline),
// plus the bound-pruned corridor search built on it.
//
// State is flat and index-keyed: distance / parent / stamp vectors sized to
// the frozen graph, plus a binary heap buffer. Visited and settled marks
// are generation stamps, so reusing one SearchScratch across a batch of
// queries costs a single counter increment instead of clearing or
// rehashing anything. The heuristic is a template parameter, so the
// per-edge std::function indirection of the old search layer is gone — a
// zero heuristic compiles down to plain Dijkstra.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/compact_graph.h"

namespace habit::graph {

/// \brief Reusable flat working state for CSR searches.
///
/// Owned by the caller, valid for any number of queries against graphs of
/// any size (Prepare re-sizes on demand). One scratch serves one thread.
struct SearchScratch {
  struct HeapEntry {
    double priority;
    NodeIndex node;
  };
  std::vector<HeapEntry> heap;
  std::vector<double> dist;        ///< valid iff visit_stamp matches
  std::vector<NodeIndex> parent;   ///< kInvalidNodeIndex for seed nodes
  std::vector<uint32_t> visit_stamp;
  std::vector<uint32_t> settle_stamp;
  uint32_t generation = 0;

  /// Per-query ALT state (graph/landmarks.h): the active landmark subset
  /// and its aggregated bounds toward this query's target set. Lives here
  /// so a batch of ALT queries allocates nothing in steady state; plain
  /// searches never touch it. Survives Prepare() — it is set up once per
  /// query and read by both phases of an ALT run.
  struct AltState {
    std::vector<uint32_t> active;  ///< landmark column indices in use
    std::vector<double> from_min;  ///< min over targets of dist(L -> t)
    std::vector<double> to_max;    ///< max over targets of dist(t -> L)
    /// Triangle *upper* bound on the query's optimal cost: the cheapest
    /// seed -> landmark -> target relay, min over all stored landmarks.
    /// +inf when no landmark connects the seed set to the target set
    /// (RunSearchAlt then skips the corridor).
    double upper = 0.0;
    /// True when `active` is the identity over all stored landmarks — the
    /// bound evaluation then scans the distance rows linearly (one cache
    /// line per direction at k = 8) instead of through the index vector.
    bool dense = false;
    /// Probe-to-replay bound memo: the weighted-A* probe and the pruned
    /// replay evaluate the SAME per-node lower bound (AltState is fixed
    /// for the whole query), so values the probe computed are stamped
    /// here and returned verbatim by the replay — output-invariant by
    /// construction, the replay just skips the landmark-row scans for
    /// every node the probe's frontier already touched. Generation-
    /// stamped like the search arrays: PrepareAltQuery bumps the
    /// generation once per query instead of clearing.
    std::vector<double> bound_cache;
    std::vector<uint32_t> bound_stamp;  ///< valid iff == bound_generation
    uint32_t bound_generation = 0;
  };
  AltState alt;

  /// Starts a new query over a graph of `num_nodes` nodes: bumps the
  /// generation (invalidating all stamps at once) and grows the arrays if
  /// this graph is larger than any seen before.
  void Prepare(size_t num_nodes) {
    if (visit_stamp.size() < num_nodes) {
      dist.resize(num_nodes);
      parent.resize(num_nodes);
      visit_stamp.resize(num_nodes, 0);
      settle_stamp.resize(num_nodes, 0);
    }
    if (generation == UINT32_MAX) {  // wraparound: hard-reset the stamps
      std::fill(visit_stamp.begin(), visit_stamp.end(), 0);
      std::fill(settle_stamp.begin(), settle_stamp.end(), 0);
      generation = 0;
    }
    ++generation;
    heap.clear();
  }

  bool Visited(NodeIndex u) const { return visit_stamp[u] == generation; }
  bool Settled(NodeIndex u) const { return settle_stamp[u] == generation; }
  void MarkVisited(NodeIndex u) { visit_stamp[u] = generation; }
  void MarkSettled(NodeIndex u) { settle_stamp[u] = generation; }
};

/// A search entry point: start node plus its seed cost (0 for classic
/// single-source; snap displacement for multi-source imputation).
struct SearchSeed {
  NodeIndex node = kInvalidNodeIndex;
  double cost = 0.0;
};

/// \brief Outcome of one engine run (index domain).
struct CsrSearch {
  bool found = false;
  NodeIndex reached = kInvalidNodeIndex;  ///< first settled target
  double cost = 0.0;
  size_t expanded = 0;  ///< settled nodes (search effort)
};

/// \brief Runs best-first search over the frozen graph, with a record-time
/// prune hook.
///
/// Identical to RunSearch except that a candidate entry (a seed, or an
/// improving edge relaxation reaching `u` at distance `du`) is discarded —
/// never recorded, never pushed, never settled — when `prune(u, du)`
/// returns true, as if the node did not exist at that distance. Pruning at
/// record time rather than pop time means rejected nodes cost one
/// predicate call instead of a full heap push/pop cycle.
///
/// For a prune predicate monotone in `du` (true for the corridor test,
/// `du + bound(u) > limit`), this is output-equivalent to filtering pops:
/// the relaxation that establishes a surviving node's final distance has
/// the smallest `du` seen for that node, hence always passes, and with it
/// every (priority, node) heap entry that determines the settle sequence.
/// RunSearchCorridor's replay phase is its one pruning caller (lint rule
/// `corridor-home`); everything else calls RunSearch or RunSearchCorridor.
///
/// Equal-priority heap entries pop in ascending node order. This makes the
/// settle sequence a function of the entry set alone (not of heap
/// operation history), which is what lets a pruned replay reproduce the
/// unpruned search's parent choices exactly.
template <typename IsTargetFn, typename HeuristicFn, typename PruneFn>
CsrSearch RunSearchPruned(const CompactGraph& g,
                          std::span<const SearchSeed> seeds,
                          IsTargetFn&& is_target, HeuristicFn&& h,
                          PruneFn&& prune, SearchScratch& scratch) {
  scratch.Prepare(g.num_nodes());
  auto& heap = scratch.heap;
  const auto heap_greater = [](const SearchScratch::HeapEntry& a,
                               const SearchScratch::HeapEntry& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.node > b.node;
  };
  auto heap_push = [&](double priority, NodeIndex node) {
    heap.push_back({priority, node});
    std::push_heap(heap.begin(), heap.end(), heap_greater);
  };

  for (const SearchSeed& seed : seeds) {
    if (seed.node == kInvalidNodeIndex) continue;
    if (!scratch.Visited(seed.node) || seed.cost < scratch.dist[seed.node]) {
      if (prune(seed.node, seed.cost)) continue;
      scratch.MarkVisited(seed.node);
      scratch.dist[seed.node] = seed.cost;
      scratch.parent[seed.node] = kInvalidNodeIndex;
      heap_push(seed.cost + h(seed.node), seed.node);
    }
  }

  CsrSearch result;
  while (!heap.empty()) {
    const NodeIndex u = heap.front().node;
    std::pop_heap(heap.begin(), heap.end(), heap_greater);
    heap.pop_back();
    if (scratch.Settled(u)) continue;
    scratch.MarkSettled(u);
    ++result.expanded;
    if (is_target(u)) {
      result.found = true;
      result.reached = u;
      result.cost = scratch.dist[u];
      return result;
    }
    const double du = scratch.dist[u];
    const auto neighbors = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t e = 0; e < neighbors.size(); ++e) {
      const NodeIndex v = neighbors[e];
      if (scratch.Settled(v)) continue;
      const double cand = du + weights[e];
      if (!scratch.Visited(v) || cand < scratch.dist[v]) {
        if (prune(v, cand)) continue;
        scratch.MarkVisited(v);
        scratch.dist[v] = cand;
        scratch.parent[v] = u;
        heap_push(cand + h(v), v);
      }
    }
  }
  return result;
}

/// \brief Runs best-first search over the frozen graph.
///
/// Seeds are relaxed like discovered nodes (the cheapest wins when a node
/// is seeded twice); the search stops when `is_target(u)` holds for a
/// settled node, or runs to exhaustion (single-source all-distances) when
/// it never does. `h(u)` must be admissible for optimal paths; pass a
/// lambda returning 0.0 for Dijkstra. After the call, `scratch` holds the
/// distance/parent state of this query (read via Visited/Settled + dist).
template <typename IsTargetFn, typename HeuristicFn>
CsrSearch RunSearch(const CompactGraph& g, std::span<const SearchSeed> seeds,
                    IsTargetFn&& is_target, HeuristicFn&& h,
                    SearchScratch& scratch) {
  return RunSearchPruned(g, seeds, is_target, h,
                         [](NodeIndex, double) { return false; }, scratch);
}

/// Inflation of the corridor probe's heuristic (see RunSearchCorridor).
inline constexpr double kProbeWeight = 2.0;

/// \brief The corridor search: plain Dijkstra's answer from a fraction of
/// its work, given a goal-directed lower bound.
///
/// `bound(u)` must be an admissible, consistent lower bound on the cost
/// from `u` to the nearest target (consistent: bound(u) <= w(u, v) +
/// bound(v) on every edge). Returns exactly what
/// `RunSearch(g, seeds, is_target, zero, scratch)` returns — same target,
/// same cost, same parent chain in `scratch` — with `expanded` counting
/// only the nodes the corridor admitted. Two phases:
///
///   1. Probe: a weighted A* (the bound inflated by kProbeWeight), greedy
///      and unpruned, walks a real path toward the targets in
///      near-path-length expansions. Its cost is an upper bound on the
///      optimal cost C, typically within a few percent of it. Unpruned
///      also means exhaustive: a failed probe proves no target reachable.
///   2. Replay: the zero-heuristic baseline, record-time-pruned
///      (RunSearchPruned) to { u : dist(u) + bound(u) <= limit }, where
///      limit is the probe's cost plus a relative slack for the ulp-level
///      gap between cost sums taken along different paths.
///
/// Why the replay reproduces the baseline: every node on an optimal path
/// has dist(u) + bound(u) <= C <= limit, so it survives. By consistency,
/// so does every equal-cost predecessor of a surviving node, so each
/// parent choice sees the same candidates as in the baseline. And
/// surviving entries settle in the baseline's order, since the heap pops
/// equal priorities by node index (the settle sequence is a function of
/// the entry set alone). A replay that finds nothing can only mean an
/// inadmissible bound; it falls back to the unpruned baseline.
template <typename IsTargetFn, typename BoundFn>
CsrSearch RunSearchCorridor(const CompactGraph& g,
                            std::span<const SearchSeed> seeds,
                            IsTargetFn&& is_target, BoundFn&& bound,
                            SearchScratch& scratch) {
  const auto zero = [](NodeIndex) { return 0.0; };
  const CsrSearch probe = RunSearch(
      g, seeds, is_target,
      [&](NodeIndex u) { return kProbeWeight * bound(u); }, scratch);
  if (!probe.found) return probe;
  const double limit = probe.cost + 1e-9 * (std::abs(probe.cost) + 1.0);
  CsrSearch run = RunSearchPruned(
      g, seeds, is_target, zero,
      [&](NodeIndex u, double du) { return du + bound(u) > limit; },
      scratch);
  if (!run.found) run = RunSearch(g, seeds, is_target, zero, scratch);
  return run;
}

/// Walks the parent chain of `scratch` from `reached` back to its seed.
/// Returns the node indices in seed..reached order.
inline std::vector<NodeIndex> ReconstructPath(const SearchScratch& scratch,
                                              NodeIndex reached) {
  std::vector<NodeIndex> path;
  for (NodeIndex cur = reached; cur != kInvalidNodeIndex;
       cur = scratch.parent[cur]) {
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace habit::graph
