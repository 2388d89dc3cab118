// Trajectory imputation (Section 3.3) and simplification (Section 3.4):
// snap gap endpoints to graph nodes, run the shared CSR search engine over
// transition costs (pruned by the hex-lattice bound), project the cell sequence back to coordinates (center
// or data-driven median), and smooth the result with RDP.
#pragma once

#include <span>
#include <vector>

#include "core/status.h"
#include "geo/polyline.h"
#include "graph/compact_graph.h"
#include "graph/search.h"
#include "habit/config.h"
#include "hexgrid/hexgrid.h"

namespace habit::core {

/// \brief An imputed gap fill.
struct Imputation {
  /// The imputed path in coordinates, starting at the gap start point and
  /// ending at the gap end point (after inverse projection + RDP).
  geo::Polyline path;
  /// The traversed cell sequence (before simplification).
  std::vector<hex::CellId> cells;
  /// Timestamps assigned to `path` points by arc-length interpolation
  /// between the gap boundary times (same size as `path`).
  std::vector<int64_t> timestamps;
  /// Search effort (settled nodes; the corridor replay's when the search
  /// ran as a corridor), for performance analysis.
  size_t expanded = 0;
};

/// \brief The hex-lattice lower bound on a node's remaining search cost.
///
/// A node id is a cell packing (resolution, i, j). On a graph where every
/// edge costs at least max(1, grid distance) — what the hop-based cost
/// policies build (graph_builder.cc) — no path from u to a target t costs
/// less than hexdist(u, t). Taking the exact minimum over a few dozen
/// targets per node does not pay, so the bound measures from one center
/// cell c and subtracts the target set's radius R around it:
///
///   hexdist(u, t) >= hexdist(u, c) - hexdist(c, t) >= hexdist(u, c) - R.
///
/// max(0, hexdist(u, c) - R) is admissible and consistent (it changes by
/// at most hexdist(u, v) <= w(u, v) along an edge), computed from the node
/// id alone: no per-node array, no snapshot section. Valid only where
/// ScanLattice(g, resolution).holds.
class LatticeBound {
 public:
  /// `center` must be a cell of the graph's resolution; `targets` are the
  /// query's target nodes (they set the radius).
  LatticeBound(const graph::CompactGraph& g, hex::CellId center,
               std::span<const graph::NodeIndex> targets);

  double operator()(graph::NodeIndex u) const {
    const int64_t d =
        hex::AxialDistance(hex::CellToAxial(g_->IdOf(u)), center_) - radius_;
    return d > 0 ? static_cast<double>(d) : 0.0;
  }

 private:
  const graph::CompactGraph* g_;
  hex::Axial center_;
  int64_t radius_ = 0;
};

/// What the corridor search may assume about a graph, from one O(V + E)
/// scan (ScanLattice).
struct LatticeScan {
  /// LatticeBound is admissible and consistent: every node id is a valid
  /// cell at the scanned resolution and every edge costs at least
  /// max(1, grid distance). The factor is fixed at 1, not fitted per
  /// graph, so a shard and the full graph it was cut from prune alike.
  bool holds = false;
  /// The smallest edge weight: the corridor replay's `w_min`
  /// (graph::RunSearchCorridor). At least 1 wherever `holds`; NaN when a
  /// weight is NaN, +inf on a graph without edges.
  double w_min = 0.0;
};

/// Scans `g` once for LatticeScan's two facts at `resolution`.
LatticeScan ScanLattice(const graph::CompactGraph& g, int resolution);

/// \brief Imputes gaps against a frozen transition graph.
///
/// The imputer owns no search state of its own: all queries run through the
/// flat graph::SearchScratch (generation-stamped distance/parent/settled
/// arrays keyed by dense NodeIndex), either a per-call local one or a
/// caller-owned scratch shared across a batch.
///
/// Every query returns plain Dijkstra's path. Where the lattice bound holds
/// (ScanLattice, once, at construction) the search runs as
/// graph::RunSearchCorridor guided by it; otherwise it is the landmark
/// corridor with landmarks on and a positive, finite `w_min`, or plain
/// Dijkstra.
class Imputer {
 public:
  /// Reusable search working state (one per querying thread).
  using SearchScratch = graph::SearchScratch;

  /// The frozen graph must outlive the imputer.
  Imputer(const graph::CompactGraph* graph, const HabitConfig& config);

  /// \brief Fills the gap between two boundary reports.
  ///
  /// `t_start` / `t_end` are the boundary timestamps used to assign times to
  /// imputed points. Fails with kInvalidArgument for malformed coordinates
  /// and kUnreachable when the graph cannot connect the endpoints
  /// (disconnected components or snap failure).
  Result<Imputation> Impute(const geo::LatLng& gap_start,
                            const geo::LatLng& gap_end, int64_t t_start = 0,
                            int64_t t_end = 0) const;

  /// Same as above but reuses `scratch` for the search working state, which
  /// amortizes allocation across a batch of queries (the hot path behind
  /// api::ImputationModel::ImputeBatch).
  Result<Imputation> Impute(const geo::LatLng& gap_start,
                            const geo::LatLng& gap_end, int64_t t_start,
                            int64_t t_end, SearchScratch* scratch) const;

  /// Maps a point to its graph node: its own cell if present, else the
  /// nearest node cell by expanding k-ring search (Section 3.3).
  Result<hex::CellId> SnapToNode(const geo::LatLng& p) const;

  /// Where a snap candidate will sit in the search, which decides the
  /// degree filter applied (sources need out-edges, targets in-edges).
  enum class SnapRole { kAny, kSource, kTarget };

  /// Nearby candidate graph nodes for `p`, sorted by distance. Candidates
  /// from several rings are returned so the search can avoid snapping onto
  /// a disconnected fragment or a directed dead-end of the transition
  /// graph; the role filter reads the frozen graph's out-/in-degree arrays.
  std::vector<hex::CellId> SnapCandidates(const geo::LatLng& p,
                                          SnapRole role = SnapRole::kAny,
                                          size_t max_candidates = 48) const;

  /// Inverse projection of one cell under the configured option p.
  geo::LatLng ProjectCell(hex::CellId cell) const;

  /// Turns ALT landmark acceleration on or off for subsequent queries.
  /// Only effective when the frozen graph carries landmark columns (a v3
  /// snapshot saved with landmarks=k) and the lattice bound does not hold
  /// (it prunes more cheaply); otherwise queries run as without it. On or
  /// off, imputed outputs are identical.
  void set_use_landmarks(bool on) { use_landmarks_ = on; }
  bool use_landmarks() const { return use_landmarks_; }

 private:
  const graph::CompactGraph* graph_;
  HabitConfig config_;
  bool use_landmarks_ = false;
  LatticeScan scan_;
};

}  // namespace habit::core
