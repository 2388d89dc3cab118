#include "habit/imputer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/landmarks.h"

namespace habit::core {

LatticeBound::LatticeBound(const graph::CompactGraph& g, hex::CellId center,
                           std::span<const graph::NodeIndex> targets)
    : g_(&g), center_(hex::CellToAxial(center)) {
  for (const graph::NodeIndex t : targets) {
    radius_ = std::max(
        radius_, hex::AxialDistance(hex::CellToAxial(g.IdOf(t)), center_));
  }
}

LatticeScan ScanLattice(const graph::CompactGraph& g, int resolution) {
  LatticeScan scan{true, std::numeric_limits<double>::infinity()};
  for (graph::NodeIndex u = 0; u < g.num_nodes(); ++u) {
    if (hex::Resolution(static_cast<hex::CellId>(g.IdOf(u))) != resolution) {
      scan.holds = false;
    }
    const hex::Axial from = hex::CellToAxial(g.IdOf(u));
    const auto neighbors = g.OutNeighbors(u);
    const auto weights = g.OutWeights(u);
    for (size_t e = 0; e < neighbors.size(); ++e) {
      const double w = weights[e];
      if (w < scan.w_min || std::isnan(w)) scan.w_min = w;  // NaN sticks
      if (!scan.holds) continue;
      const int64_t hops = std::max<int64_t>(
          1, hex::AxialDistance(from, hex::CellToAxial(g.IdOf(neighbors[e]))));
      // Negated so a NaN weight fails the check too.
      if (!(w >= static_cast<double>(hops))) scan.holds = false;
    }
  }
  return scan;
}

Imputer::Imputer(const graph::CompactGraph* graph, const HabitConfig& config)
    : graph_(graph),
      config_(config),
      scan_(ScanLattice(*graph, config.resolution)) {}

std::vector<hex::CellId> Imputer::SnapCandidates(
    const geo::LatLng& p, SnapRole role, size_t max_candidates) const {
  std::vector<hex::CellId> found;
  if (!p.IsValid()) return found;
  const hex::CellId own = hex::LatLngToCell(p, config_.resolution);
  if (own == hex::kInvalidCell) return found;

  // A source must have somewhere to go; a target must be enterable. Both
  // checks are O(1) reads of the frozen graph's degree arrays.
  auto usable = [&](hex::CellId c) {
    const graph::NodeIndex idx = graph_->IndexOf(c);
    if (idx == graph::kInvalidNodeIndex) return false;
    switch (role) {
      case SnapRole::kSource:
        return graph_->OutDegree(idx) > 0;
      case SnapRole::kTarget:
        return graph_->InDegree(idx) > 0;
      case SnapRole::kAny:
        return true;
    }
    return true;
  };
  if (usable(own)) found.push_back(own);

  // Expand rings a few steps beyond the first hit so the search has
  // alternatives when the nearest nodes belong to dead-end fragments.
  int rings_after_hit = 0;
  for (int k = 1; k <= config_.max_snap_ring; ++k) {
    if (!found.empty() && ++rings_after_hit > 12) break;
    if (found.size() >= max_candidates) break;
    for (const hex::CellId c : hex::GridRing(own, k)) {
      if (usable(c)) found.push_back(c);
    }
  }
  // Decorate-sort-undecorate: the cell-center projection and haversine
  // are trig-heavy, so compute them once per candidate instead of once
  // per comparison.
  std::vector<std::pair<double, hex::CellId>> by_distance;
  by_distance.reserve(found.size());
  for (const hex::CellId c : found) {
    by_distance.emplace_back(geo::HaversineMeters(p, hex::CellToLatLng(c)),
                             c);
  }
  std::sort(by_distance.begin(), by_distance.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  found.clear();
  for (const auto& [dist, c] : by_distance) found.push_back(c);
  if (found.size() > max_candidates) found.resize(max_candidates);
  return found;
}

Result<hex::CellId> Imputer::SnapToNode(const geo::LatLng& p) const {
  if (!p.IsValid()) {
    return Status::InvalidArgument("invalid gap endpoint " + p.ToString());
  }
  const std::vector<hex::CellId> candidates =
      SnapCandidates(p, SnapRole::kAny, 1);
  if (candidates.empty()) {
    return Status::Unreachable("no graph node within " +
                               std::to_string(config_.max_snap_ring) +
                               " rings of " + p.ToString());
  }
  return candidates.front();
}

geo::LatLng Imputer::ProjectCell(hex::CellId cell) const {
  if (config_.projection == Projection::kDataMedian) {
    const graph::NodeIndex idx = graph_->IndexOf(cell);
    if (idx != graph::kInvalidNodeIndex && graph_->has_attrs() &&
        graph_->MessageCount(idx) > 0) {
      return graph_->MedianPos(idx);
    }
  }
  return hex::CellToLatLng(cell);
}

Result<Imputation> Imputer::Impute(const geo::LatLng& gap_start,
                                   const geo::LatLng& gap_end,
                                   int64_t t_start, int64_t t_end) const {
  SearchScratch scratch;
  return Impute(gap_start, gap_end, t_start, t_end, &scratch);
}

Result<Imputation> Imputer::Impute(const geo::LatLng& gap_start,
                                   const geo::LatLng& gap_end,
                                   int64_t t_start, int64_t t_end,
                                   SearchScratch* scratch) const {
  if (!gap_start.IsValid() || !gap_end.IsValid()) {
    return Status::InvalidArgument("invalid gap endpoint " +
                                   gap_start.ToString() + " -> " +
                                   gap_end.ToString());
  }
  const std::vector<hex::CellId> src_cands =
      SnapCandidates(gap_start, SnapRole::kSource);
  const std::vector<hex::CellId> dst_cands =
      SnapCandidates(gap_end, SnapRole::kTarget);
  if (src_cands.empty() || dst_cands.empty()) {
    return Status::Unreachable(
        "gap endpoint could not be snapped to the transition graph");
  }

  // Trivial case: both endpoints share a candidate cell.
  for (const hex::CellId s : src_cands) {
    if (s == dst_cands.front() &&
        s == hex::LatLngToCell(gap_end, config_.resolution)) {
      Imputation result;
      result.cells = {s};
      result.path = {gap_start, gap_end};
      result.timestamps = {t_start, t_end};
      return result;
    }
  }

  // Multi-source / multi-target search: every source candidate is seeded
  // with a cost proportional to its snap displacement (so the search
  // prefers nearby, *connected* entry points without committing to one up
  // front); the search settles the first destination candidate reached.
  //
  // Costs are measured in "hops" (edge weights are >= 1 per grid step for
  // the hop-based policies), so displacements are converted via the cell
  // pitch at this resolution.
  const double cell_pitch_m =
      hex::EdgeLengthMeters(config_.resolution) * 1.7320508;

  std::vector<graph::SearchSeed> seeds;
  seeds.reserve(src_cands.size());
  for (const hex::CellId s : src_cands) {
    const graph::NodeIndex idx = graph_->IndexOf(s);
    if (idx == graph::kInvalidNodeIndex) continue;
    const double seed_cost =
        geo::HaversineMeters(gap_start, hex::CellToLatLng(s)) / cell_pitch_m;
    seeds.push_back({idx, seed_cost});
  }

  // Dense target marks over the dst candidates (few dozen at most).
  std::vector<graph::NodeIndex> target_idx;
  target_idx.reserve(dst_cands.size());
  for (const hex::CellId d : dst_cands) {
    const graph::NodeIndex idx = graph_->IndexOf(d);
    if (idx != graph::kInvalidNodeIndex) target_idx.push_back(idx);
  }
  std::sort(target_idx.begin(), target_idx.end());
  auto is_target = [&](graph::NodeIndex u) {
    return std::binary_search(target_idx.begin(), target_idx.end(), u);
  };

  // The answer is plain Dijkstra's (zero heuristic). The corridor search
  // returns it byte for byte from less work, guided by the lattice bound
  // (centered on the nearest target candidate) where it holds, else by
  // the snapshot's ALT columns when landmarks are enabled (see
  // graph/search.h).
  graph::CsrSearch run;
  if (scan_.holds) {
    run = graph::RunSearchCorridor(
        *graph_, seeds, is_target,
        LatticeBound(*graph_, dst_cands.front(), target_idx), scan_.w_min,
        *scratch);
  } else if (use_landmarks_ && graph_->num_landmarks() > 0 &&
             scan_.w_min > 0.0 && std::isfinite(scan_.w_min)) {
    run = graph::RunSearchAlt(*graph_, seeds, is_target, target_idx,
                              scan_.w_min, *scratch);
  } else {
    run = graph::RunSearch(
        *graph_, seeds, is_target, [](graph::NodeIndex) { return 0.0; },
        *scratch);
  }
  if (!run.found) {
    return Status::Unreachable(
        "no snap candidate pair is connected in the transition graph");
  }

  Imputation result;
  result.expanded = run.expanded;
  for (const graph::NodeIndex i :
       graph::ReconstructPath(*scratch, run.reached)) {
    result.cells.push_back(static_cast<hex::CellId>(graph_->IdOf(i)));
  }

  // Inverse projection (Section 3.3): cells -> coordinates under option p,
  // bracketed by the true gap boundary points.
  geo::Polyline line;
  line.reserve(result.cells.size() + 2);
  line.push_back(gap_start);
  for (const hex::CellId c : result.cells) {
    const geo::LatLng p = ProjectCell(c);
    if (geo::HaversineMeters(line.back(), p) > 1.0) line.push_back(p);
  }
  if (geo::HaversineMeters(line.back(), gap_end) > 1.0 || line.size() == 1) {
    line.push_back(gap_end);
  } else {
    line.back() = gap_end;
  }

  // Section 3.4: RDP simplification for a navigable, smooth path.
  result.path = geo::RdpSimplify(line, config_.rdp_tolerance_m);

  // Timestamps by arc-length interpolation across the gap duration.
  result.timestamps.resize(result.path.size(), t_start);
  const double total = geo::PolylineLengthMeters(result.path);
  if (total > 0 && t_end > t_start) {
    double acc = 0;
    for (size_t i = 1; i < result.path.size(); ++i) {
      acc += geo::HaversineMeters(result.path[i - 1], result.path[i]);
      result.timestamps[i] = t_start + static_cast<int64_t>(std::llround(
                                           (t_end - t_start) * (acc / total)));
    }
  } else if (!result.timestamps.empty()) {
    result.timestamps.back() = t_end;
  }
  return result;
}

}  // namespace habit::core
