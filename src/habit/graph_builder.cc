#include "habit/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/csr_assembler.h"
#include "hexgrid/hexgrid.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantile.h"

namespace habit::core {

namespace {

struct PairHash {
  template <typename T>
  size_t operator()(const std::pair<T, T>& p) const {
    return std::hash<uint64_t>()(static_cast<uint64_t>(p.first) *
                                     0x9e3779b97f4a7c15ULL ^
                                 static_cast<uint64_t>(p.second));
  }
};

// The statistics kernels index raw rows, so a column that is missing, of
// another type, shorter than the table, or holding a null is rejected up
// front rather than read out of bounds.
Result<const db::Column*> RequireColumn(const db::Table& table,
                                        const std::string& name,
                                        db::DataType type) {
  HABIT_ASSIGN_OR_RETURN(const db::Column* col, table.GetColumn(name));
  if (col->type() != type) {
    return Status::InvalidArgument(
        "column '" + name + "' is " + db::DataTypeToString(col->type()) +
        ", expected " + db::DataTypeToString(type));
  }
  if (col->size() != table.num_rows()) {
    return Status::InvalidArgument(
        "column '" + name + "' has " + std::to_string(col->size()) +
        " rows; the table has " + std::to_string(table.num_rows()));
  }
  for (size_t r = 0; r < col->size(); ++r) {
    if (!col->IsValid(r)) {
      return Status::InvalidArgument("column '" + name +
                                     "' is null at row " + std::to_string(r));
    }
  }
  return col;
}

// Rows grouped by key. Groups are numbered in order of first appearance;
// group g owns order[offsets[g] .. offsets[g + 1]), in input row order.
struct Groups {
  std::vector<size_t> offsets;
  std::vector<size_t> order;

  size_t size() const { return offsets.size() - 1; }
  /// Group g's part of an array laid out like `order`.
  template <typename T>
  std::span<T> Slice(std::vector<T>& all, size_t g) const {
    return std::span<T>(all).subspan(offsets[g], offsets[g + 1] - offsets[g]);
  }
};

// Dense first-appearance ids, then a stable counting sort by id.
template <typename Key, typename Hash = std::hash<Key>, typename KeyOf>
Groups GroupRows(size_t n, KeyOf key_of) {
  std::unordered_map<Key, size_t, Hash> ids;
  std::vector<size_t> id(n);
  for (size_t r = 0; r < n; ++r) {
    id[r] = ids.try_emplace(key_of(r), ids.size()).first->second;
  }
  Groups groups;
  groups.offsets.assign(ids.size() + 1, 0);
  for (size_t r = 0; r < n; ++r) ++groups.offsets[id[r] + 1];
  for (size_t g = 0; g < ids.size(); ++g) {
    groups.offsets[g + 1] += groups.offsets[g];
  }
  std::vector<size_t> next(groups.offsets.begin(), groups.offsets.end() - 1);
  groups.order.resize(n);
  for (size_t r = 0; r < n; ++r) groups.order[next[id[r]]++] = r;
  return groups;
}

// approx_count_distinct over one group's hashed keys.
int64_t ApproxCountDistinct(std::span<uint64_t> hashes, int precision) {
  return static_cast<int64_t>(std::llround(
      sketch::HyperLogLog::EstimateSparse(hashes, precision)));
}

}  // namespace

const char* ProjectionToString(Projection p) {
  switch (p) {
    case Projection::kCellCenter: return "center";
    case Projection::kDataMedian: return "median";
  }
  return "?";
}

const char* EdgeCostPolicyToString(EdgeCostPolicy p) {
  switch (p) {
    case EdgeCostPolicy::kHops: return "hops";
    case EdgeCostPolicy::kInverseFrequency: return "inverse_frequency";
    case EdgeCostPolicy::kHopsThenFrequency: return "hops_then_frequency";
  }
  return "?";
}

std::string HabitConfig::ToString() const {
  return "HabitConfig{r=" + std::to_string(resolution) +
         ", p=" + ProjectionToString(projection) +
         ", t=" + std::to_string(static_cast<int>(rdp_tolerance_m)) +
         ", cost=" + EdgeCostPolicyToString(edge_cost) + "}";
}

double EdgeCost(EdgeCostPolicy policy, int64_t transitions) {
  const double n = static_cast<double>(std::max<int64_t>(1, transitions));
  switch (policy) {
    case EdgeCostPolicy::kHops:
      return 1.0;
    case EdgeCostPolicy::kInverseFrequency:
      return 1.0 / std::log(std::exp(1.0) + n);
    case EdgeCostPolicy::kHopsThenFrequency:
      return 1.0 + 1.0 / (1.0 + n);
  }
  return 1.0;
}

db::Table TripsToTable(const std::vector<ais::Trip>& trips, int resolution) {
  db::Schema schema{{"trip_id", db::DataType::kInt64},
                    {"mmsi", db::DataType::kInt64},
                    {"ts", db::DataType::kInt64},
                    {"lon", db::DataType::kDouble},
                    {"lat", db::DataType::kDouble},
                    {"sog", db::DataType::kDouble},
                    {"cog", db::DataType::kDouble},
                    {"cell", db::DataType::kInt64}};
  db::Table table(schema);
  for (const ais::Trip& trip : trips) {
    for (const ais::AisRecord& r : trip.points) {
      const hex::CellId cell = hex::LatLngToCell(r.pos, resolution);
      table.column(0).AppendInt(trip.trip_id);
      table.column(1).AppendInt(r.mmsi);
      table.column(2).AppendInt(r.ts);
      table.column(3).AppendDouble(r.pos.lng);
      table.column(4).AppendDouble(r.pos.lat);
      table.column(5).AppendDouble(r.sog);
      table.column(6).AppendDouble(r.cog);
      table.column(7).AppendInt(static_cast<int64_t>(cell));
    }
  }
  return table;
}

Result<db::Table> ComputeCellStats(const db::Table& ais_table,
                                   const HabitConfig& config) {
  // SELECT cell, count(*), approx_count_distinct(mmsi),
  //        median(lon), median(lat), median(sog), median(cog)
  // FROM ais GROUP BY cell
  HABIT_ASSIGN_OR_RETURN(
      const db::Column* cell,
      RequireColumn(ais_table, "cell", db::DataType::kInt64));
  HABIT_ASSIGN_OR_RETURN(
      const db::Column* mmsi,
      RequireColumn(ais_table, "mmsi", db::DataType::kInt64));
  std::vector<const db::Column*> median_inputs;
  for (const char* name : {"lon", "lat", "sog", "cog"}) {
    HABIT_ASSIGN_OR_RETURN(
        const db::Column* col,
        RequireColumn(ais_table, name, db::DataType::kDouble));
    median_inputs.push_back(col);
  }

  const Groups cells = GroupRows<int64_t>(
      ais_table.num_rows(), [&](size_t r) { return cell->GetInt(r); });
  db::Table out(db::Schema{{"cell", db::DataType::kInt64},
                           {"cnt", db::DataType::kInt64},
                           {"vessels", db::DataType::kInt64},
                           {"med_lon", db::DataType::kDouble},
                           {"med_lat", db::DataType::kDouble},
                           {"med_sog", db::DataType::kDouble},
                           {"med_cog", db::DataType::kDouble}});
  std::vector<uint64_t> hashes(cells.order.size());
  for (size_t i = 0; i < hashes.size(); ++i) {
    hashes[i] = sketch::HyperLogLog::Hash64(
        static_cast<uint64_t>(mmsi->GetInt(cells.order[i])));
  }
  for (size_t g = 0; g < cells.size(); ++g) {
    out.column(0).AppendInt(cell->GetInt(cells.order[cells.offsets[g]]));
    out.column(1).AppendInt(
        static_cast<int64_t>(cells.offsets[g + 1] - cells.offsets[g]));
    out.column(2).AppendInt(ApproxCountDistinct(
        cells.Slice(hashes, g), config.hll_precision));
  }
  // Each group's values in input row order, as ExactMedian would hold them.
  std::vector<double> values(cells.order.size());
  for (size_t c = 0; c < median_inputs.size(); ++c) {
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = median_inputs[c]->GetDouble(cells.order[i]);
    }
    for (size_t g = 0; g < cells.size(); ++g) {
      out.column(3 + c).AppendDouble(sketch::MedianInPlace(
          cells.Slice(values, g)));
    }
  }
  return out;
}

Result<db::Table> ComputeTransitionStats(const db::Table& ais_table,
                                         const HabitConfig& config) {
  // WITH lagged AS (SELECT *, LAG(cell) OVER (PARTITION BY trip_id
  //                                           ORDER BY ts) AS lag_cell ...)
  // SELECT lag_cell, cell, approx_count_distinct(trip_id) AS transitions
  // FROM lagged WHERE lag_cell IS NOT NULL AND lag_cell <> cell
  // GROUP BY lag_cell, cell
  HABIT_ASSIGN_OR_RETURN(
      const db::Column* trip,
      RequireColumn(ais_table, "trip_id", db::DataType::kInt64));
  HABIT_ASSIGN_OR_RETURN(
      const db::Column* ts,
      RequireColumn(ais_table, "ts", db::DataType::kInt64));
  HABIT_ASSIGN_OR_RETURN(
      const db::Column* cell,
      RequireColumn(ais_table, "cell", db::DataType::kInt64));

  // Partitions in first-appearance order, each stably sorted by ts; the
  // (lag_cell, cell) pairs come out in the order the window emits rows.
  Groups trips = GroupRows<int64_t>(
      ais_table.num_rows(), [&](size_t r) { return trip->GetInt(r); });
  std::vector<std::pair<int64_t, int64_t>> pairs;
  std::vector<uint64_t> pair_trips;
  for (size_t g = 0; g < trips.size(); ++g) {
    const std::span<size_t> rows = trips.Slice(trips.order, g);
    std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      return ts->GetInt(a) < ts->GetInt(b);
    });
    for (size_t i = 1; i < rows.size(); ++i) {
      const int64_t lag = cell->GetInt(rows[i - 1]);
      const int64_t to = cell->GetInt(rows[i]);
      if (lag == to) continue;
      pairs.emplace_back(lag, to);
      pair_trips.push_back(static_cast<uint64_t>(trip->GetInt(rows[i])));
    }
  }

  const Groups edges = GroupRows<std::pair<int64_t, int64_t>, PairHash>(
      pairs.size(), [&](size_t i) { return pairs[i]; });
  std::vector<uint64_t> hashes(edges.order.size());
  for (size_t i = 0; i < hashes.size(); ++i) {
    hashes[i] = sketch::HyperLogLog::Hash64(pair_trips[edges.order[i]]);
  }
  // grid_distance is h3_grid_distance(lag_cl, cl) in the paper.
  db::Table out(db::Schema{{"lag_cell", db::DataType::kInt64},
                           {"cell", db::DataType::kInt64},
                           {"transitions", db::DataType::kInt64},
                           {"grid_distance", db::DataType::kInt64}});
  for (size_t g = 0; g < edges.size(); ++g) {
    const auto [lag, to] = pairs[edges.order[edges.offsets[g]]];
    out.column(0).AppendInt(lag);
    out.column(1).AppendInt(to);
    out.column(2).AppendInt(ApproxCountDistinct(
        edges.Slice(hashes, g), config.hll_precision));
    const auto dist = hex::GridDistance(static_cast<hex::CellId>(lag),
                                        static_cast<hex::CellId>(to));
    if (dist.ok()) {
      out.column(3).AppendInt(dist.value());
    } else {
      out.column(3).AppendNull();
    }
  }
  return out;
}

namespace {

// The transition graph in sorted form, shared by both graph builds: node
// ids ascending with aligned attribute columns, and edges ascending by
// (src, dst) with their transition counts summed.
struct GraphParts {
  std::vector<graph::NodeId> node_ids;
  graph::NodeColumns nodes;
  std::vector<graph::CsrEdge> edges;
};

Result<GraphParts> BuildGraphParts(const db::Table& cell_stats,
                                   const db::Table& transition_stats,
                                   const HabitConfig& config) {
  HABIT_ASSIGN_OR_RETURN(const db::Column* cell_col,
                         cell_stats.GetColumn("cell"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* cnt_col, cell_stats.GetColumn("cnt"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* vessels_col,
                         cell_stats.GetColumn("vessels"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* lon_col,
                         cell_stats.GetColumn("med_lon"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* lat_col,
                         cell_stats.GetColumn("med_lat"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* sog_col,
                         cell_stats.GetColumn("med_sog"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* cog_col,
                         cell_stats.GetColumn("med_cog"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* lag_col,
                         transition_stats.GetColumn("lag_cell"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* to_col,
                         transition_stats.GetColumn("cell"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* trans_col,
                         transition_stats.GetColumn("transitions"));
  HABIT_ASSIGN_OR_RETURN(const db::Column* dist_col,
                         transition_stats.GetColumn("grid_distance"));

  // One (src, dst, transitions) entry per directed cell pair a row names.
  // With expand_transitions, a jump of grid distance g > 1 contributes its
  // count to every consecutive pair along the hex grid path between the
  // two cells (the discretization skipped those cells, not the vessel).
  struct Pair {
    hex::CellId src;
    hex::CellId dst;
    int64_t transitions;
  };
  std::vector<Pair> pairs;
  pairs.reserve(transition_stats.num_rows());
  for (size_t r = 0; r < transition_stats.num_rows(); ++r) {
    const auto u = static_cast<hex::CellId>(lag_col->GetInt(r));
    const auto v = static_cast<hex::CellId>(to_col->GetInt(r));
    const int64_t transitions = trans_col->GetInt(r);
    const int64_t grid_dist =
        dist_col->IsValid(r) ? dist_col->GetInt(r) : 1;
    if (config.expand_transitions && grid_dist > 1) {
      auto path = hex::GridPathCells(u, v);
      if (path.ok() && path.value().size() >= 2) {
        const auto& cells = path.value();
        for (size_t i = 1; i < cells.size(); ++i) {
          pairs.push_back({cells[i - 1], cells[i], transitions});
        }
        continue;
      }
    }
    pairs.push_back({u, v, transitions});
  }

  // Sort once by (src, dst); each run of equal pairs becomes one edge
  // carrying the run's total.
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  const auto same_pair = [](const Pair& a, const Pair& b) {
    return a.src == b.src && a.dst == b.dst;
  };
  size_t runs = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || !same_pair(pairs[i - 1], pairs[i])) ++runs;
  }
  GraphParts parts;
  std::vector<graph::CsrEdge>& edges = parts.edges;
  edges.reserve(runs);
  for (size_t i = 0; i < pairs.size();) {
    graph::CsrEdge edge{pairs[i].src, pairs[i].dst, {}};
    edge.attrs.transitions = pairs[i].transitions;
    for (++i; i < pairs.size() && same_pair(pairs[i - 1], pairs[i]); ++i) {
      edge.attrs.transitions += pairs[i].transitions;
    }
    const auto dist = hex::GridDistance(edge.src, edge.dst);
    edge.attrs.grid_distance = dist.ok() ? dist.value() : 1;
    edge.attrs.weight =
        EdgeCost(config.edge_cost, edge.attrs.transitions) *
        static_cast<double>(std::max<int64_t>(1, edge.attrs.grid_distance));
    edges.push_back(edge);
  }
  pairs = {};

  // Statistics rows by cell; for a cell listed twice the first row wins.
  std::vector<std::pair<graph::NodeId, size_t>> stats_rows(
      cell_stats.num_rows());
  for (size_t r = 0; r < stats_rows.size(); ++r) {
    stats_rows[r] = {static_cast<graph::NodeId>(cell_col->GetInt(r)), r};
  }
  std::sort(stats_rows.begin(), stats_rows.end());

  // Nodes: the statistics cells plus every edge endpoint. The cells and
  // the sources (edges come in source runs) are already ascending; only
  // the targets need a sort before the three lists merge.
  std::vector<graph::NodeId> targets(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) targets[e] = edges[e].dst;
  std::sort(targets.begin(), targets.end());
  std::vector<graph::NodeId> cells_and_sources;
  cells_and_sources.reserve(stats_rows.size() + edges.size());
  for (const auto& [cell, row] : stats_rows) cells_and_sources.push_back(cell);
  for (size_t e = 0; e < edges.size(); ++e) {
    if (e == 0 || edges[e - 1].src != edges[e].src) {
      cells_and_sources.push_back(edges[e].src);
    }
  }
  std::inplace_merge(cells_and_sources.begin(),
                     cells_and_sources.begin() + stats_rows.size(),
                     cells_and_sources.end());
  std::vector<graph::NodeId>& ids = parts.node_ids;
  ids.resize(cells_and_sources.size() + targets.size());
  std::merge(cells_and_sources.begin(), cells_and_sources.end(),
             targets.begin(), targets.end(), ids.begin());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  ids.shrink_to_fit();  // the graph keeps this vector

  parts.nodes.Reserve(ids.size());
  size_t s = 0;
  for (const graph::NodeId id : ids) {
    graph::NodeAttrs attrs;
    attrs.center_pos = hex::CellToLatLng(static_cast<hex::CellId>(id));
    if (s < stats_rows.size() && stats_rows[s].first == id) {
      const size_t r = stats_rows[s].second;
      attrs.median_pos =
          geo::LatLng{lat_col->GetDouble(r), lon_col->GetDouble(r)};
      attrs.message_count = cnt_col->GetInt(r);
      attrs.distinct_vessels = vessels_col->GetInt(r);
      attrs.median_sog = sog_col->GetDouble(r);
      attrs.median_cog = cog_col->GetDouble(r);
      while (s < stats_rows.size() && stats_rows[s].first == id) ++s;
    } else {
      // Intermediate cells materialized by the expansion carry no AIS
      // statistics; give them their geometric center as the median
      // position so the inverse projection stays well-defined.
      attrs.median_pos = attrs.center_pos;
    }
    parts.nodes.Append(attrs);
  }
  return parts;
}

}  // namespace

Result<graph::CompactGraph> BuildCompactTransitionGraph(
    const db::Table& cell_stats, const db::Table& transition_stats,
    const HabitConfig& config) {
  HABIT_ASSIGN_OR_RETURN(
      GraphParts parts,
      BuildGraphParts(cell_stats, transition_stats, config));
  return graph::AssembleCsr(std::move(parts.node_ids), std::move(parts.nodes),
                            parts.edges);
}

Result<graph::Digraph> BuildTransitionGraph(const db::Table& cell_stats,
                                            const db::Table& transition_stats,
                                            const HabitConfig& config) {
  HABIT_ASSIGN_OR_RETURN(
      const GraphParts parts,
      BuildGraphParts(cell_stats, transition_stats, config));
  graph::Digraph g;
  for (size_t i = 0; i < parts.node_ids.size(); ++i) {
    g.AddNode(parts.node_ids[i], parts.nodes.At(i));
  }
  for (const graph::CsrEdge& edge : parts.edges) {
    g.AddEdge(edge.src, edge.dst, edge.attrs);
  }
  return g;
}

Result<graph::CompactGraph> BuildGraphFromTrips(
    const std::vector<ais::Trip>& trips, const HabitConfig& config) {
  if (config.resolution < 0 || config.resolution > hex::kMaxResolution) {
    return Status::InvalidArgument("resolution out of range");
  }
  db::Table cell_stats;
  db::Table transition_stats;
  {
    // Scoped so the AIS table is freed before the assembly allocates: the
    // two never need to be resident together.
    const db::Table ais_table = TripsToTable(trips, config.resolution);
    HABIT_ASSIGN_OR_RETURN(cell_stats, ComputeCellStats(ais_table, config));
    HABIT_ASSIGN_OR_RETURN(transition_stats,
                           ComputeTransitionStats(ais_table, config));
  }
  return BuildCompactTransitionGraph(cell_stats, transition_stats, config);
}

}  // namespace habit::core
