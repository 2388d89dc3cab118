// ALT (A*, Landmarks, Triangle inequality) precomputation and the
// corridor query search built on it.
//
// Freeze/save time: ComputeLandmarks picks k landmarks by farthest-point
// sampling over the frozen graph and runs one full Dijkstra per landmark
// in each direction (backward via a reversed Digraph re-freeze, which
// preserves the dense index mapping because the node-id set is identical).
// The resulting distance columns attach to the CompactGraph and persist in
// the snapshot v3 landmark section — mmap-servable like every other
// column.
//
// Query time: the triangle inequality turns the stored distances into an
// admissible lower bound on the remaining cost to the query's target set,
//
//   dist(u, t) >= dist(L, t) - dist(L, u)   (from-column)
//   dist(u, t) >= dist(u, L) - dist(t, L)   (to-column)
//
// aggregated over targets once per query (PrepareAltQuery) so the bound is
// O(active landmarks) per node with no per-query allocation.
//
// Output equivalence: an A* guided by a different heuristic legitimately
// returns a *different equal-cost path* than the zero-heuristic baseline
// when ties exist — so a drop-in heuristic swap cannot promise
// byte-identical imputations. RunSearchAlt instead hands the bound to
// RunSearchCorridor (graph/search.h): a weighted-A* probe finds a real
// path whose cost caps the optimum, and the baseline search replays
// pruned to the corridor { u : dist(u) + bound(u) <= cap }, which provably
// keeps every node and tie that decides the baseline's answer. Under
// honest columns the result is certifiably optimal, not just plausible:
// any path through a discarded node costs more than the cap >= the
// returned cost. Dishonest columns are a load-time concern — copy loads
// verify the payload checksum, mapped loads the landmark section's
// structure (ValidateLandmarks) — and a replay that pruned itself into
// finding nothing falls back to the unpruned baseline.
//
// PrepareAltQuery also computes the triangle *upper* bound (the cheapest
// seed -> landmark -> target relay). It does not cap the corridor — the
// probe's path is within a few percent of optimal, while landmarks sit on
// the periphery and relay with 2-10x detours — but an infinite one says
// no landmark connects the two sets, which RunSearchAlt answers with the
// plain baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "core/status.h"
#include "graph/compact_graph.h"
#include "graph/search.h"

namespace habit::graph {

/// Bound evaluation cost is k double-compares per node, paid on every
/// improving relaxation, so cap the per-query subset: PrepareAltQuery
/// keeps the landmarks that promise the most at the seed set. 8 active
/// columns measure as the sweet spot: on the bench graphs the strongest
/// 8 of 16 stored landmarks prune within ~0.5% as many nodes as all 16,
/// at half the bound-evaluation memory traffic — a dense 16 measures
/// ~10-20% slower end to end. When the graph stores at most this many
/// landmarks the subset is all of them, and the evaluation takes a dense
/// path: each direction's distance row is a single 64-byte cache line
/// (k = 8 doubles), scanned linearly with a branch-free max accumulation.
inline constexpr size_t kMaxActiveLandmarks = 8;

/// \brief Computes `k` landmarks (capped at num_nodes and kMaxLandmarks)
/// with their forward/backward distance columns. O(k) full Dijkstras per
/// direction — freeze/save-time work, amortized into the snapshot.
Result<LandmarkSet> ComputeLandmarks(const CompactGraph& g, size_t k);

/// \brief Fills `scratch.alt` for one query: aggregates each landmark's
/// bound ingredients over the target set and keeps the
/// kMaxActiveLandmarks-strongest columns (judged at the seed set). No-op
/// bounds (targets unreachable through a landmark) are dropped or
/// sentineled so the per-node evaluation never produces NaN.
void PrepareAltQuery(const CompactGraph& g,
                     std::span<const NodeIndex> targets,
                     std::span<const SearchSeed> seeds,
                     SearchScratch& scratch);

/// \brief The ALT lower bound on the cost from a node to the query's
/// target set, reading the state PrepareAltQuery left in the scratch.
/// Admissible and consistent for honest landmark data; 0 when no landmark
/// says anything (the zero-heuristic degradation). Evaluations memoize
/// into the scratch's generation-stamped bound cache, so the corridor
/// replay reuses the probe's frontier evaluations instead of re-scanning
/// the landmark rows (AltState is fixed per query — the memo cannot
/// change any value, only skip recomputing it).
class LandmarkHeuristic {
 public:
  LandmarkHeuristic(const CompactGraph& g, SearchScratch& scratch)
      : g_(&g), alt_(&scratch.alt) {}

  double operator()(NodeIndex u) const {
    SearchScratch::AltState& alt = *alt_;
    if (alt.bound_stamp[u] == alt.bound_generation) {
      return alt.bound_cache[u];
    }
    double best = 0.0;
    const std::span<const double> from_row = g_->LandmarkFrom(u);
    const std::span<const double> to_row = g_->LandmarkTo(u);
    const size_t m = alt.active.size();
    // Infinities never poison the result: from_min is -inf when no target
    // is reachable from landmark l (sentineled in PrepareAltQuery), making
    // the f-term -inf, and a vacuous to-bound yields -inf or NaN — both
    // rejected by the strict > comparison.
    if (alt.dense) {
      // active == identity over all stored landmarks: scan the rows
      // linearly, no index indirection. std::max keeps its first argument
      // on a NaN second argument, so the accumulation is branch-free and
      // the compiler can keep it in vector registers.
      for (size_t l = 0; l < m; ++l) {
        best = std::max(best, alt.from_min[l] - from_row[l]);
        best = std::max(best, to_row[l] - alt.to_max[l]);
      }
    } else {
      for (size_t i = 0; i < m; ++i) {
        const uint32_t l = alt.active[i];
        const double f = alt.from_min[i] - from_row[l];
        if (f > best) best = f;
        const double t = to_row[l] - alt.to_max[i];
        if (t > best) best = t;
      }
    }
    alt.bound_cache[u] = best;
    alt.bound_stamp[u] = alt.bound_generation;
    return best;
  }

 private:
  const CompactGraph* g_;
  SearchScratch::AltState* alt_;
};

/// \brief The ALT corridor search: RunSearchCorridor (graph/search.h)
/// guided by the landmark bound. Returns exactly what
/// `RunSearch(g, seeds, is_target, zero, scratch)` returns — same target,
/// same parent chain, same cost — with `expanded` counting only the nodes
/// the corridor admitted. `targets` must hold the same node set
/// `is_target` accepts (it feeds the per-query bound aggregation), and
/// `w_min` is a positive lower bound on every edge weight (the corridor
/// replay's bucket width). Degrades to the plain baseline when the graph
/// carries no landmarks or no landmark relays the seed set to the target
/// set.
template <typename IsTargetFn>
CsrSearch RunSearchAlt(const CompactGraph& g,
                       std::span<const SearchSeed> seeds,
                       IsTargetFn&& is_target,
                       std::span<const NodeIndex> targets, double w_min,
                       SearchScratch& scratch) {
  const auto zero = [](NodeIndex) { return 0.0; };
  if (g.num_landmarks() == 0 || targets.empty()) {
    return RunSearch(g, seeds, is_target, zero, scratch);
  }
  PrepareAltQuery(g, targets, seeds, scratch);
  if (scratch.alt.upper == std::numeric_limits<double>::infinity()) {
    // No landmark relays seeds to targets: the bound is vacuous (and
    // likely there is no path at all), so a corridor would only search
    // twice — run the plain baseline.
    return RunSearch(g, seeds, is_target, zero, scratch);
  }
  return RunSearchCorridor(g, seeds, is_target,
                           LandmarkHeuristic(g, scratch), w_min, scratch);
}

}  // namespace habit::graph
