// Graph generation (Section 3.2): projects trips onto the hex grid, computes
// the paper's DuckDB query — per-cell counts, medians and
// approx_count_distinct, and a LAG window per trip whose transitions are
// grouped again — with a typed group-by kernel over the table's columns,
// and assembles the transition graph with per-cell statistics straight into
// CSR: the transitions (expanded along grid paths) are sorted once by
// (src, dst), each run is summed into one edge, and graph/csr_assembler.h
// lays the sorted nodes and edges out. No hash map or Digraph is built.
#pragma once

#include <vector>

#include "ais/ais.h"
#include "core/status.h"
#include "graph/compact_graph.h"
#include "graph/digraph.h"
#include "habit/config.h"
#include "minidb/table.h"

namespace habit::core {

/// \brief Converts trips to the flat AIS table the statistics consume.
/// Columns: trip_id, mmsi, ts, lon, lat, sog, cog, cell (the H3 cell id at
/// the configured resolution, stored as int64).
db::Table TripsToTable(const std::vector<ais::Trip>& trips, int resolution);

/// \brief The per-cell statistics table (group by cl):
/// cell, cnt, vessels, med_lon, med_lat, med_sog, med_cog. Groups come in
/// order of first appearance. Reads cell, mmsi (int64) and lon, lat, sog,
/// cog (double); NotFound if one is missing, InvalidArgument if one has
/// another type or a null.
Result<db::Table> ComputeCellStats(const db::Table& ais_table,
                                   const HabitConfig& config);

/// \brief The transition statistics table (group by (lag_cl, cl), with
/// lag_cl != cl): lag_cell, cell, transitions, grid_distance. Groups come in
/// the order the LAG window first emits them: trips by first appearance,
/// rows of a trip by ts (stable). Reads trip_id, ts and cell (int64), with
/// the same errors as ComputeCellStats.
Result<db::Table> ComputeTransitionStats(const db::Table& ais_table,
                                         const HabitConfig& config);

/// \brief Assembles the frozen transition graph from the two statistics
/// tables. Nodes are the statistics cells plus every edge endpoint; they
/// carry median lon/lat, message count and distinct vessels (the first row
/// wins for a cell listed twice; an endpoint-only cell gets its center as
/// median). Edges carry summed transition counts, grid distance and the
/// weight EdgeCost(policy, transitions) * max(1, grid distance).
Result<graph::CompactGraph> BuildCompactTransitionGraph(
    const db::Table& cell_stats, const db::Table& transition_stats,
    const HabitConfig& config);

/// The same graph as a mutable Digraph, filled from the same sorted edge
/// runs; Freeze() on it equals BuildCompactTransitionGraph array by array.
/// Kept for the per-layer build replay, which times graph and freeze
/// apart.
Result<graph::Digraph> BuildTransitionGraph(const db::Table& cell_stats,
                                            const db::Table& transition_stats,
                                            const HabitConfig& config);

/// Convenience: full Section 3.2 pipeline from trips to the frozen graph.
Result<graph::CompactGraph> BuildGraphFromTrips(
    const std::vector<ais::Trip>& trips, const HabitConfig& config);

/// Edge traversal cost under the policy, given a transition count.
double EdgeCost(EdgeCostPolicy policy, int64_t transitions);

}  // namespace habit::core
