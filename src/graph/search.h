// The one search engine behind every shortest-path query in the system
// (graph::Dijkstra / graph::AStar, HABIT's Imputer, the GTI baseline),
// plus the bound-pruned corridor search built on it.
//
// State is flat and index-keyed: distance / parent / stamp vectors sized to
// the frozen graph, plus the two queues: a binary heap buffer for
// RunSearch and the bucket lists of the corridor replay. Visited and
// settled marks are generation stamps, so reusing one SearchScratch across
// a batch of queries costs a single counter increment instead of clearing
// or rehashing anything. The heuristic is a template parameter, so the
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
  std::vector<HeapEntry> heap;  ///< RunSearch's priority queue
  /// The corridor replay's queue (RunSearchPruned): bucket b is a linked
  /// list, newest first, of the nodes recorded at a distance d with
  /// floor(d / width) == b. Two flat arrays, so a fresh scratch grows in a
  /// few reallocations rather than one per bucket, and the entries of
  /// scanned buckets are reused, so `bucket_entries` stays about one
  /// search frontier long.
  struct BucketEntry {
    NodeIndex node;
    uint32_t next;  ///< index of the bucket's next entry, or kNoEntry
  };
  static constexpr uint32_t kNoEntry = UINT32_MAX;
  std::vector<uint32_t> bucket_head;  ///< per bucket: newest entry
  std::vector<BucketEntry> bucket_entries;
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

/// \brief Runs best-first search over the frozen graph.
///
/// Seeds are relaxed like discovered nodes (the cheapest wins when a node
/// is seeded twice); the search stops when `is_target(u)` holds for a
/// settled node, or runs to exhaustion (single-source all-distances) when
/// it never does. `h(u)` must be admissible for optimal paths; pass a
/// lambda returning 0.0 for Dijkstra. After the call, `scratch` holds the
/// distance/parent state of this query (read via Visited/Settled + dist).
///
/// Equal-priority heap entries pop in ascending node order, so with a zero
/// heuristic and positive edge weights nodes settle in ascending
/// (dist, node) order: the order the corridor replay (RunSearchPruned)
/// reproduces without a heap.
template <typename IsTargetFn, typename HeuristicFn>
CsrSearch RunSearch(const CompactGraph& g, std::span<const SearchSeed> seeds,
                    IsTargetFn&& is_target, HeuristicFn&& h,
                    SearchScratch& scratch) {
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
        scratch.MarkVisited(v);
        scratch.dist[v] = cand;
        scratch.parent[v] = u;
        heap_push(cand + h(v), v);
      }
    }
  }
  return result;
}

/// The most buckets one corridor replay may index. A limit spanning more
/// bucket widths (a tiny `w_min` against a long path) replays as plain
/// Dijkstra instead; KIEL r=10 gaps need a few thousand.
inline constexpr double kMaxReplayBuckets = 1 << 20;

/// \brief The corridor replay: plain Dijkstra restricted to
/// { u : dist(u) + bound(u) <= limit }, run on a bucket queue.
///
/// A candidate entry (a seed, or a relaxation reaching `v` at `d`) is
/// recorded only when `d + bound(v) <= limit`: pruned at record time, a
/// rejected node costs one bound evaluation and never enters the queue.
/// The test is monotone in `d`, so an improvement of a recorded node
/// passes it and is not re-tested.
///
/// `w_min` is a positive lower bound on every edge weight. Bucket b holds
/// the nodes with floor(d / width) == b, width = w_min / 2, and buckets
/// are scanned in order. d / width, rounded, is monotone in d, so a node
/// in an earlier bucket has a smaller distance. Every edge spans at least
/// two widths (one would do in exact arithmetic; the second absorbs
/// rounding), so a relaxation lands in a later bucket: nodes of one
/// bucket cannot improve one another, and a bucket is scanned unsorted.
/// Two rules make the outcome RunSearch's zero-heuristic (dist, node)
/// settle order exactly:
///   - on a tie (cand == dist[v]), `u` becomes v's parent only if
///     (dist[u], u) < (dist[parent], parent): the parent RunSearch would
///     have settled first. A seed's (absent) parent is never replaced.
///   - the answer is the smallest (dist, node) target in the first bucket
///     that holds a target, and `expanded` counts every settle of the
///     earlier buckets plus this bucket's settled nodes at or below it.
///
/// Buckets are indexed absolutely: seed costs are >= 0 and every recorded
/// distance is <= limit, so floor(limit / width) + 1 buckets suffice.
/// Finds nothing, which sends RunSearchCorridor to plain Dijkstra, when a
/// seed cost is negative or limit / width reaches kMaxReplayBuckets.
/// Keeps no settle marks (an entry whose node was lowered into an earlier
/// bucket is skipped by its distance): afterwards `Visited(u)` marks the
/// recorded nodes, all of them settled when no target was reached.
/// Called only by RunSearchCorridor (lint rule `corridor-home`).
template <typename IsTargetFn, typename BoundFn>
CsrSearch RunSearchPruned(const CompactGraph& g,
                          std::span<const SearchSeed> seeds,
                          IsTargetFn&& is_target, BoundFn&& bound,
                          double limit, double w_min,
                          SearchScratch& scratch) {
  CsrSearch result;
  const double width = w_min / 2.0;
  const double span = limit / width;
  if (!(width > 0.0 && span >= 0.0 && span < kMaxReplayBuckets)) {
    return result;
  }
  const size_t num_buckets = static_cast<size_t>(span) + 1;
  scratch.Prepare(g.num_nodes());
  auto& head = scratch.bucket_head;
  auto& entries = scratch.bucket_entries;
  head.assign(num_buckets, SearchScratch::kNoEntry);
  entries.clear();

  const double per_width = 1.0 / width;
  const auto bucket_of = [per_width](double d) {
    return static_cast<size_t>(d * per_width);
  };
  // `d <= limit` is implied for bound(v) >= 0; it keeps the bucket index
  // in range for any bound.
  const auto admit = [&](NodeIndex v, double d) {
    return d <= limit && d + bound(v) <= limit;
  };
  const auto settles_before = [&](NodeIndex a, NodeIndex b) {
    const double da = scratch.dist[a];
    const double db = scratch.dist[b];
    return da < db || (da == db && a < b);
  };
  // The entries of scanned buckets, linked for reuse: the queue then holds
  // about one frontier of entries, as a heap would.
  uint32_t free_entry = SearchScratch::kNoEntry;
  // Records v at a new, lower distance; a node whose bucket is unchanged
  // is already queued there.
  const auto lower = [&](NodeIndex v, double d, NodeIndex from) {
    const size_t b = bucket_of(d);
    const bool queued =
        scratch.Visited(v) && bucket_of(scratch.dist[v]) == b;
    scratch.MarkVisited(v);
    scratch.dist[v] = d;
    scratch.parent[v] = from;
    if (queued) return;
    uint32_t i = free_entry;
    if (i != SearchScratch::kNoEntry) {
      free_entry = entries[i].next;
      entries[i] = {v, head[b]};
    } else {
      i = static_cast<uint32_t>(entries.size());
      entries.push_back({v, head[b]});
    }
    head[b] = i;
  };

  for (const SearchSeed& seed : seeds) {
    if (seed.node == kInvalidNodeIndex) continue;
    if (!(seed.cost >= 0.0)) return result;
    if (scratch.Visited(seed.node) ? seed.cost < scratch.dist[seed.node]
                                   : admit(seed.node, seed.cost)) {
      lower(seed.node, seed.cost, kInvalidNodeIndex);
    }
  }

  // An entry is stale when its node was lowered into an earlier bucket
  // (and settled there); each node has at most one entry per bucket.
  const auto live_in = [&](size_t b, NodeIndex u) {
    return bucket_of(scratch.dist[u]) == b;
  };
  for (size_t b = 0; b < num_buckets; ++b) {
    NodeIndex reached = kInvalidNodeIndex;
    size_t settled = 0;
    uint32_t last = SearchScratch::kNoEntry;
    // Relaxations only add entries to later buckets, so this walk sees a
    // fixed list (read by index: `entries` may reallocate).
    for (uint32_t i = head[b]; i != SearchScratch::kNoEntry;) {
      last = i;
      const NodeIndex u = entries[i].node;
      i = entries[i].next;
      if (!live_in(b, u)) continue;
      ++settled;
      if (is_target(u)) {
        if (reached == kInvalidNodeIndex || settles_before(u, reached)) {
          reached = u;
        }
        continue;
      }
      if (reached != kInvalidNodeIndex) continue;  // the search ends here
      const double du = scratch.dist[u];
      const auto neighbors = g.OutNeighbors(u);
      const auto weights = g.OutWeights(u);
      for (size_t e = 0; e < neighbors.size(); ++e) {
        // A settled v sits in this bucket or an earlier one, so
        // cand > dist[v] and no branch below fires for it.
        const NodeIndex v = neighbors[e];
        const double cand = du + weights[e];
        if (!scratch.Visited(v)) {
          if (admit(v, cand)) lower(v, cand, u);
        } else if (cand < scratch.dist[v]) {
          lower(v, cand, u);
        } else if (cand == scratch.dist[v]) {
          const NodeIndex p = scratch.parent[v];
          if (p != kInvalidNodeIndex && settles_before(u, p)) {
            scratch.parent[v] = u;
          }
        }
      }
    }
    if (reached == kInvalidNodeIndex) {
      result.expanded += settled;
      if (last != SearchScratch::kNoEntry) {
        entries[last].next = free_entry;
        free_entry = head[b];
      }
      continue;
    }
    for (uint32_t i = head[b]; i != SearchScratch::kNoEntry;
         i = entries[i].next) {
      const NodeIndex u = entries[i].node;
      if (live_in(b, u) && !settles_before(reached, u)) ++result.expanded;
    }
    result.found = true;
    result.reached = reached;
    result.cost = scratch.dist[reached];
    return result;
  }
  return result;
}

/// Inflation of the corridor probe's heuristic (see RunSearchCorridor).
inline constexpr double kProbeWeight = 2.0;

/// \brief The corridor search: plain Dijkstra's answer from a fraction of
/// its work, given a goal-directed lower bound.
///
/// `bound(u)` must be an admissible, consistent lower bound on the cost
/// from `u` to the nearest target (consistent: bound(u) <= w(u, v) +
/// bound(v) on every edge), and `w_min` a positive lower bound on every
/// edge weight. Returns exactly what
/// `RunSearch(g, seeds, is_target, zero, scratch)` returns — same target,
/// same cost, same parent chain in `scratch` — with `expanded` counting
/// only the nodes the corridor admitted. Two phases:
///
///   1. Probe: a weighted A* (the bound inflated by kProbeWeight), greedy
///      and unpruned, walks a real path toward the targets in
///      near-path-length expansions. Its cost is an upper bound on the
///      optimal cost C, typically within a few percent of it. Unpruned
///      also means exhaustive: a failed probe proves no target reachable.
///   2. Replay: the zero-heuristic baseline on a bucket queue,
///      record-time-pruned (RunSearchPruned) to
///      { u : dist(u) + bound(u) <= limit }, where limit is the probe's
///      cost plus a relative slack for the ulp-level gap between cost sums
///      taken along different paths.
///
/// Why the replay reproduces the baseline: every node on an optimal path
/// has dist(u) + bound(u) <= C <= limit, so it survives. By consistency,
/// so does every equal-cost predecessor of a surviving node, so each
/// parent choice sees the same candidates as in the baseline, and the
/// replay's tie and target rules pick what the baseline's (dist, node)
/// settle order picks. A replay that finds nothing (an inadmissible bound,
/// or a `w_min` the bucket queue cannot use) falls back to the unpruned
/// baseline.
template <typename IsTargetFn, typename BoundFn>
CsrSearch RunSearchCorridor(const CompactGraph& g,
                            std::span<const SearchSeed> seeds,
                            IsTargetFn&& is_target, BoundFn&& bound,
                            double w_min, SearchScratch& scratch) {
  const auto zero = [](NodeIndex) { return 0.0; };
  const CsrSearch probe = RunSearch(
      g, seeds, is_target,
      [&](NodeIndex u) { return kProbeWeight * bound(u); }, scratch);
  if (!probe.found) return probe;
  const double limit = probe.cost + 1e-9 * (std::abs(probe.cost) + 1.0);
  CsrSearch run =
      RunSearchPruned(g, seeds, is_target, bound, limit, w_min, scratch);
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
