// Tests for Section 3.2 graph generation. The statistics kernel
// (ComputeCellStats, ComputeTransitionStats): bitwise equality with a
// brute-force reference of the paper's query on seeded worlds and
// hand-built edge cases, and the input validation that keeps the kernel's
// raw column reads in bounds. The graph assembly: the direct CSR build
// equals BuildTransitionGraph(...).Freeze() and a reference that
// accumulates pairs in a map, array by array, with weights compared
// bitwise.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "eval/harness.h"
#include "habit/graph_builder.h"
#include "hexgrid/hexgrid.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantile.h"

namespace habit::core {
namespace {

// --- brute-force reference ------------------------------------------------
// The query evaluated literally: std::map group-by with groups kept in
// first-appearance order, one dense HyperLogLog and one ExactMedian per
// aggregate per group.

int64_t Distinct(const sketch::HyperLogLog& hll) {
  return static_cast<int64_t>(std::llround(hll.Estimate()));
}

db::Table ReferenceCellStats(const db::Table& t, int precision) {
  const db::Column& cell = *t.GetColumn("cell").value();
  const db::Column& mmsi = *t.GetColumn("mmsi").value();
  const std::array<const db::Column*, 4> inputs = {
      t.GetColumn("lon").value(), t.GetColumn("lat").value(),
      t.GetColumn("sog").value(), t.GetColumn("cog").value()};
  struct Group {
    int64_t cell;
    int64_t count;
    sketch::HyperLogLog vessels;
    std::array<sketch::ExactMedian, 4> medians;
  };
  std::map<int64_t, size_t> index;
  std::vector<Group> groups;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const auto [it, inserted] = index.emplace(cell.GetInt(r), groups.size());
    if (inserted) {
      groups.push_back({cell.GetInt(r), 0, sketch::HyperLogLog(precision), {}});
    }
    Group& g = groups[it->second];
    ++g.count;
    g.vessels.AddInt(static_cast<uint64_t>(mmsi.GetInt(r)));
    for (size_t c = 0; c < inputs.size(); ++c) {
      g.medians[c].Add(inputs[c]->GetDouble(r));
    }
  }
  db::Table out(db::Schema{{"cell", db::DataType::kInt64},
                           {"cnt", db::DataType::kInt64},
                           {"vessels", db::DataType::kInt64},
                           {"med_lon", db::DataType::kDouble},
                           {"med_lat", db::DataType::kDouble},
                           {"med_sog", db::DataType::kDouble},
                           {"med_cog", db::DataType::kDouble}});
  for (const Group& g : groups) {
    out.column(0).AppendInt(g.cell);
    out.column(1).AppendInt(g.count);
    out.column(2).AppendInt(Distinct(g.vessels));
    for (size_t c = 0; c < g.medians.size(); ++c) {
      out.column(3 + c).AppendDouble(g.medians[c].Median());
    }
  }
  return out;
}

db::Table ReferenceTransitionStats(const db::Table& t, int precision) {
  const db::Column& trip = *t.GetColumn("trip_id").value();
  const db::Column& ts = *t.GetColumn("ts").value();
  const db::Column& cell = *t.GetColumn("cell").value();
  // LAG(cell) OVER (PARTITION BY trip_id ORDER BY ts).
  std::map<int64_t, size_t> trip_index;
  std::vector<std::vector<size_t>> partitions;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    const auto [it, inserted] =
        trip_index.emplace(trip.GetInt(r), partitions.size());
    if (inserted) partitions.emplace_back();
    partitions[it->second].push_back(r);
  }
  struct Group {
    int64_t lag, cell;
    sketch::HyperLogLog trips;
  };
  std::map<std::pair<int64_t, int64_t>, size_t> index;
  std::vector<Group> groups;
  for (std::vector<size_t>& rows : partitions) {
    std::stable_sort(rows.begin(), rows.end(), [&](size_t a, size_t b) {
      return ts.GetInt(a) < ts.GetInt(b);
    });
    for (size_t i = 1; i < rows.size(); ++i) {
      const int64_t lag = cell.GetInt(rows[i - 1]);
      const int64_t to = cell.GetInt(rows[i]);
      if (lag == to) continue;
      const auto [it, inserted] = index.emplace(std::make_pair(lag, to),
                                                groups.size());
      if (inserted) {
        groups.push_back({lag, to, sketch::HyperLogLog(precision)});
      }
      groups[it->second].trips.AddInt(
          static_cast<uint64_t>(trip.GetInt(rows[i])));
    }
  }
  db::Table out(db::Schema{{"lag_cell", db::DataType::kInt64},
                           {"cell", db::DataType::kInt64},
                           {"transitions", db::DataType::kInt64},
                           {"grid_distance", db::DataType::kInt64}});
  for (const Group& g : groups) {
    out.column(0).AppendInt(g.lag);
    out.column(1).AppendInt(g.cell);
    out.column(2).AppendInt(Distinct(g.trips));
    const auto dist = hex::GridDistance(static_cast<hex::CellId>(g.lag),
                                        static_cast<hex::CellId>(g.cell));
    if (dist.ok()) {
      out.column(3).AppendInt(dist.value());
    } else {
      out.column(3).AppendNull();
    }
  }
  return out;
}

void ExpectBitwiseEqual(const db::Table& got, const db::Table& want) {
  ASSERT_TRUE(got.schema() == want.schema());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const db::Column& g = got.column(c);
    const db::Column& w = want.column(c);
    ASSERT_EQ(g.size(), w.size());
    for (size_t r = 0; r < w.size(); ++r) {
      const std::string where =
          want.schema().name(c) + " row " + std::to_string(r);
      ASSERT_EQ(g.IsValid(r), w.IsValid(r)) << where;
      if (!w.IsValid(r)) continue;
      if (w.type() == db::DataType::kDouble) {
        ASSERT_EQ(std::bit_cast<uint64_t>(g.GetDouble(r)),
                  std::bit_cast<uint64_t>(w.GetDouble(r)))
            << where;
      } else {
        ASSERT_EQ(g.GetInt(r), w.GetInt(r)) << where;
      }
    }
  }
}

void ExpectKernelMatchesReference(const db::Table& table, int precision) {
  HabitConfig config;
  config.hll_precision = precision;
  const auto cells = ComputeCellStats(table, config);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  ExpectBitwiseEqual(cells.value(), ReferenceCellStats(table, precision));
  const auto transitions = ComputeTransitionStats(table, config);
  ASSERT_TRUE(transitions.ok()) << transitions.status().ToString();
  ExpectBitwiseEqual(transitions.value(),
                     ReferenceTransitionStats(table, precision));
}

// The graph assembly evaluated literally: transition counts accumulated per
// expanded cell pair in a map, stats cells then endpoint-only cells added
// to a Digraph (first insert wins), and the result frozen.
graph::CompactGraph ReferenceGraph(const db::Table& cell_stats,
                                   const db::Table& transition_stats,
                                   const HabitConfig& config) {
  graph::Digraph g;
  const db::Column& cell = *cell_stats.GetColumn("cell").value();
  const db::Column& cnt = *cell_stats.GetColumn("cnt").value();
  const db::Column& vessels = *cell_stats.GetColumn("vessels").value();
  const db::Column& lon = *cell_stats.GetColumn("med_lon").value();
  const db::Column& lat = *cell_stats.GetColumn("med_lat").value();
  const db::Column& sog = *cell_stats.GetColumn("med_sog").value();
  const db::Column& cog = *cell_stats.GetColumn("med_cog").value();
  for (size_t r = 0; r < cell_stats.num_rows(); ++r) {
    const auto id = static_cast<hex::CellId>(cell.GetInt(r));
    graph::NodeAttrs attrs;
    attrs.median_pos = geo::LatLng{lat.GetDouble(r), lon.GetDouble(r)};
    attrs.center_pos = hex::CellToLatLng(id);
    attrs.message_count = cnt.GetInt(r);
    attrs.distinct_vessels = vessels.GetInt(r);
    attrs.median_sog = sog.GetDouble(r);
    attrs.median_cog = cog.GetDouble(r);
    g.AddNode(id, attrs);
  }
  const db::Column& lag = *transition_stats.GetColumn("lag_cell").value();
  const db::Column& to = *transition_stats.GetColumn("cell").value();
  const db::Column& trans = *transition_stats.GetColumn("transitions").value();
  const db::Column& dist = *transition_stats.GetColumn("grid_distance").value();
  std::map<std::pair<uint64_t, uint64_t>, int64_t> accum;
  for (size_t r = 0; r < transition_stats.num_rows(); ++r) {
    const auto u = static_cast<hex::CellId>(lag.GetInt(r));
    const auto v = static_cast<hex::CellId>(to.GetInt(r));
    const int64_t grid_dist = dist.IsValid(r) ? dist.GetInt(r) : 1;
    if (config.expand_transitions && grid_dist > 1) {
      const auto path = hex::GridPathCells(u, v);
      if (path.ok() && path.value().size() >= 2) {
        for (size_t i = 1; i < path.value().size(); ++i) {
          accum[{path.value()[i - 1], path.value()[i]}] += trans.GetInt(r);
        }
        continue;
      }
    }
    accum[{u, v}] += trans.GetInt(r);
  }
  for (const auto& [pair, transitions] : accum) {
    for (const uint64_t id : {pair.first, pair.second}) {
      if (g.HasNode(id)) continue;
      graph::NodeAttrs attrs;
      attrs.center_pos = hex::CellToLatLng(id);
      attrs.median_pos = attrs.center_pos;
      g.AddNode(id, attrs);
    }
    const auto d = hex::GridDistance(pair.first, pair.second);
    graph::EdgeAttrs attrs;
    attrs.transitions = transitions;
    attrs.grid_distance = d.ok() ? d.value() : 1;
    attrs.weight = EdgeCost(config.edge_cost, transitions) *
                   static_cast<double>(std::max<int64_t>(1, attrs.grid_distance));
    g.AddEdge(pair.first, pair.second, attrs);
  }
  return g.Freeze();
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectSameCsr(const graph::CompactGraph& got,
                   const graph::CompactGraph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  ASSERT_EQ(got.num_edges(), want.num_edges());
  ASSERT_EQ(got.has_attrs(), want.has_attrs());
  size_t edge = 0;
  for (graph::NodeIndex u = 0; u < want.num_nodes(); ++u) {
    const std::string where = "node " + std::to_string(u);
    ASSERT_EQ(got.IdOf(u), want.IdOf(u)) << where;
    ASSERT_EQ(got.OutDegree(u), want.OutDegree(u)) << where;
    ASSERT_EQ(got.InDegree(u), want.InDegree(u)) << where;
    for (uint32_t k = 0; k < want.OutDegree(u); ++k, ++edge) {
      ASSERT_EQ(got.OutNeighbors(u)[k], want.OutNeighbors(u)[k]) << where;
      const graph::EdgeAttrs g = got.EdgeAttrsAt(edge);
      const graph::EdgeAttrs w = want.EdgeAttrsAt(edge);
      ASSERT_EQ(Bits(g.weight), Bits(w.weight)) << where;
      ASSERT_EQ(g.transitions, w.transitions) << where;
      ASSERT_EQ(g.grid_distance, w.grid_distance) << where;
    }
    const graph::NodeAttrs g = got.NodeAttrsAt(u);
    const graph::NodeAttrs w = want.NodeAttrsAt(u);
    for (const auto& [a, b] :
         {std::pair{g.median_pos.lat, w.median_pos.lat},
          std::pair{g.median_pos.lng, w.median_pos.lng},
          std::pair{g.center_pos.lat, w.center_pos.lat},
          std::pair{g.center_pos.lng, w.center_pos.lng},
          std::pair{g.median_sog, w.median_sog},
          std::pair{g.median_cog, w.median_cog}}) {
      ASSERT_EQ(Bits(a), Bits(b)) << where;
    }
    ASSERT_EQ(g.message_count, w.message_count) << where;
    ASSERT_EQ(g.distinct_vessels, w.distinct_vessels) << where;
  }
}

// The direct CSR build against the Digraph sink frozen, and against the
// reference.
void ExpectGraphBuildsAgree(const db::Table& cell_stats,
                            const db::Table& transition_stats,
                            const HabitConfig& config) {
  const auto direct =
      BuildCompactTransitionGraph(cell_stats, transition_stats, config);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  const auto sink = BuildTransitionGraph(cell_stats, transition_stats, config);
  ASSERT_TRUE(sink.ok()) << sink.status().ToString();
  {
    SCOPED_TRACE("vs BuildTransitionGraph(...).Freeze()");
    ExpectSameCsr(direct.value(), sink.value().Freeze());
  }
  {
    SCOPED_TRACE("vs the accumulator reference");
    ExpectSameCsr(direct.value(),
                  ReferenceGraph(cell_stats, transition_stats, config));
  }
}

// --- seeded worlds ----------------------------------------------------------

class SeededWorldTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST_P(SeededWorldTest, KernelMatchesReferenceBitwise) {
  const auto [dataset, resolution] = GetParam();
  eval::ExperimentOptions options;
  options.scale = 0.2;
  options.seed = 7;
  auto exp = eval::PrepareExperiment(dataset, options);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  const db::Table table = TripsToTable(exp.value().train_trips, resolution);
  ASSERT_GT(table.num_rows(), 1000u);
  ExpectKernelMatchesReference(table, HabitConfig().hll_precision);
}

TEST_P(SeededWorldTest, DirectCsrBuildMatchesFrozenDigraph) {
  const auto [dataset, resolution] = GetParam();
  eval::ExperimentOptions options;
  options.scale = 0.2;
  options.seed = 7;
  auto exp = eval::PrepareExperiment(dataset, options);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  HabitConfig config;
  config.resolution = resolution;
  const db::Table table = TripsToTable(exp.value().train_trips, resolution);
  const auto cells = ComputeCellStats(table, config);
  const auto transitions = ComputeTransitionStats(table, config);
  ASSERT_TRUE(cells.ok() && transitions.ok());
  ASSERT_GT(transitions.value().num_rows(), 1000u);
  ExpectGraphBuildsAgree(cells.value(), transitions.value(), config);
  // BuildGraphFromTrips is the same pipeline end to end.
  const auto from_trips =
      BuildGraphFromTrips(exp.value().train_trips, config);
  ASSERT_TRUE(from_trips.ok());
  ExpectSameCsr(from_trips.value(),
                ReferenceGraph(cells.value(), transitions.value(), config));
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, SeededWorldTest,
    ::testing::Values(std::make_pair("KIEL", 9), std::make_pair("KIEL", 10),
                      std::make_pair("SAR", 9), std::make_pair("SAR", 10)),
    [](const auto& info) {
      return std::string(info.param.first) + "_r" +
             std::to_string(info.param.second);
    });

// --- hand-built tables ------------------------------------------------------

struct Row {
  int64_t trip, mmsi, ts, cell;
  double lon, lat, sog, cog;
};

db::Table MakeTable(const std::vector<Row>& rows) {
  db::Table t(db::Schema{{"trip_id", db::DataType::kInt64},
                         {"mmsi", db::DataType::kInt64},
                         {"ts", db::DataType::kInt64},
                         {"lon", db::DataType::kDouble},
                         {"lat", db::DataType::kDouble},
                         {"sog", db::DataType::kDouble},
                         {"cog", db::DataType::kDouble},
                         {"cell", db::DataType::kInt64}});
  for (const Row& r : rows) {
    t.column(0).AppendInt(r.trip);
    t.column(1).AppendInt(r.mmsi);
    t.column(2).AppendInt(r.ts);
    t.column(3).AppendDouble(r.lon);
    t.column(4).AppendDouble(r.lat);
    t.column(5).AppendDouble(r.sog);
    t.column(6).AppendDouble(r.cog);
    t.column(7).AppendInt(r.cell);
  }
  return t;
}

// Real neighbouring cells, so grid_distance is defined; plus ids with the
// high bit set, which must group and compare as exact int64 values.
const int64_t kA = static_cast<int64_t>(hex::LatLngToCell({55.00, 11.00}, 9));
const int64_t kB = static_cast<int64_t>(hex::LatLngToCell({55.01, 11.00}, 9));
const int64_t kC = static_cast<int64_t>(hex::LatLngToCell({55.02, 11.00}, 9));
const int64_t kHigh = static_cast<int64_t>(0x9000000000000001ULL);
const int64_t kHigher = static_cast<int64_t>(0x9000000000000002ULL);

std::vector<db::Table> HandBuiltTables() {
  std::vector<db::Table> tables;
  // Interleaved trips, with rows out of ts order inside each trip.
  tables.push_back(MakeTable({{1, 10, 300, kC, 11.0, 55.02, 9.0, 10.0},
                              {2, 20, 100, kB, 11.1, 55.01, 8.0, 20.0},
                              {1, 10, 100, kA, 11.2, 55.00, 7.0, 30.0},
                              {2, 20, 200, kA, 11.3, 55.00, 6.0, 40.0},
                              {1, 10, 200, kB, 11.4, 55.01, 5.0, 50.0},
                              {3, 10, 50, kA, 11.5, 55.00, 4.0, 60.0},
                              {2, 20, 300, kC, 11.6, 55.02, 3.0, 70.0},
                              {3, 10, 60, kB, 11.7, 55.01, 2.0, 80.0}}));
  // Duplicate ts within a trip: ties keep input order (A,B then C,A). Trip
  // 4 is long enough (past insertion-sort sizes) that an unstable sort
  // would reorder its ties.
  std::vector<Row> ties = {{1, 1, 100, kA, 1.0, 2.0, 3.0, 4.0},
                           {1, 1, 100, kB, 1.5, 2.5, 3.5, 4.5},
                           {1, 1, 200, kC, 1.0, 2.0, 3.0, 4.0},
                           {1, 1, 200, kA, 1.0, 2.0, 3.0, 4.0},
                           {2, 2, 7, kB, 0.0, 0.0, 0.0, 0.0},
                           {2, 2, 7, kA, 0.0, 0.0, 0.0, 0.0},
                           {2, 2, 7, kB, 0.0, 0.0, 0.0, 0.0}};
  const int64_t cycle[] = {kA, kB, kC, kHigh, kHigher};
  for (int64_t i = 0; i < 200; ++i) {
    ties.push_back({4, 3, (200 - i) % 7, cycle[(i * i) % 5], 0.5, 0.5, 0.5,
                    static_cast<double>(i)});
  }
  tables.push_back(MakeTable(ties));
  // Consecutive rows in one cell (no self transitions), single-row trips,
  // high-bit cell ids, and signed zeros whose median bits must match.
  tables.push_back(MakeTable({{5, 1, 1, kHigh, -0.0, 0.0, 0.0, -0.0},
                              {5, 1, 2, kHigh, 0.0, -0.0, 0.0, 0.0},
                              {5, 1, 3, kHigh, -0.0, 0.0, -0.0, 0.0},
                              {5, 1, 4, kHigher, 1.0, 1.0, 1.0, 1.0},
                              {6, 2, 9, kHigher, 2.0, 2.0, 2.0, 2.0},
                              {7, 3, 9, kA, 3.0, 3.0, 3.0, 3.0},
                              {5, 1, 5, kHigher, 1.0, 1.0, 1.0, 1.0},
                              {5, 1, 6, kHigh, 1.0, 1.0, 1.0, 1.0}}));
  // Many distinct vessels and trips on the same cells and transitions, so
  // low precisions collide in the registers.
  std::vector<Row> busy;
  for (int64_t t = 0; t < 3000; ++t) {
    const double x = static_cast<double>(t % 97) * 0.25;
    busy.push_back({t, 1000 + t % 1500, 0, kA, x, -x, x * 2, 360 - x});
    busy.push_back({t, 1000 + t % 1500, 60, t % 3 ? kB : kC, -x, x, x, x});
    busy.push_back({t, 1000 + t % 1500, 120, kA, x, x, -x, x});
  }
  tables.push_back(MakeTable(busy));
  return tables;
}

class HandBuiltTableTest : public ::testing::TestWithParam<int> {};

TEST_P(HandBuiltTableTest, KernelMatchesReferenceBitwise) {
  const std::vector<db::Table> tables = HandBuiltTables();
  for (size_t i = 0; i < tables.size(); ++i) {
    SCOPED_TRACE("table " + std::to_string(i));
    ExpectKernelMatchesReference(tables[i], GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, HandBuiltTableTest,
                         ::testing::Values(4, 14, 18));

TEST(HandBuiltTableTest, TiesAndLagFollowTheWindowOrder) {
  HabitConfig config;
  const auto stats = ComputeTransitionStats(HandBuiltTables()[1], config);
  ASSERT_TRUE(stats.ok());
  const db::Table& s = stats.value();
  // Trip 1 in ts order with stable ties: A B C A -> (A,B) (B,C) (C,A).
  // Trip 2: B A B -> (B,A) (A,B, already seen).
  const std::vector<std::pair<int64_t, int64_t>> want = {
      {kA, kB}, {kB, kC}, {kC, kA}, {kB, kA}};
  ASSERT_GE(s.num_rows(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(s.column(0).GetInt(r), want[r].first) << r;
    EXPECT_EQ(s.column(1).GetInt(r), want[r].second) << r;
  }
  EXPECT_EQ(s.column(2).GetInt(0), 2);  // (A,B) made by trips 1 and 2
}

TEST(HandBuiltTableTest, EmptyTableGivesEmptyStatistics) {
  HabitConfig config;
  const db::Table empty = MakeTable({});
  const auto cells = ComputeCellStats(empty, config);
  ASSERT_TRUE(cells.ok());
  EXPECT_EQ(cells.value().num_rows(), 0u);
  EXPECT_EQ(cells.value().num_columns(), 7u);
  const auto transitions = ComputeTransitionStats(empty, config);
  ASSERT_TRUE(transitions.ok());
  EXPECT_EQ(transitions.value().num_rows(), 0u);
  EXPECT_EQ(transitions.value().num_columns(), 4u);
}

// --- hand-built statistics tables -------------------------------------------

struct CellStatsRow {
  int64_t cell, cnt, vessels;
  double lon, lat, sog, cog;
};

struct TransitionRow {
  int64_t lag, cell, transitions;
  std::optional<int64_t> grid_distance;
};

db::Table MakeCellStats(const std::vector<CellStatsRow>& rows) {
  db::Table t(db::Schema{{"cell", db::DataType::kInt64},
                         {"cnt", db::DataType::kInt64},
                         {"vessels", db::DataType::kInt64},
                         {"med_lon", db::DataType::kDouble},
                         {"med_lat", db::DataType::kDouble},
                         {"med_sog", db::DataType::kDouble},
                         {"med_cog", db::DataType::kDouble}});
  for (const CellStatsRow& r : rows) {
    t.column(0).AppendInt(r.cell);
    t.column(1).AppendInt(r.cnt);
    t.column(2).AppendInt(r.vessels);
    t.column(3).AppendDouble(r.lon);
    t.column(4).AppendDouble(r.lat);
    t.column(5).AppendDouble(r.sog);
    t.column(6).AppendDouble(r.cog);
  }
  return t;
}

db::Table MakeTransitionStats(const std::vector<TransitionRow>& rows) {
  db::Table t(db::Schema{{"lag_cell", db::DataType::kInt64},
                         {"cell", db::DataType::kInt64},
                         {"transitions", db::DataType::kInt64},
                         {"grid_distance", db::DataType::kInt64}});
  for (const TransitionRow& r : rows) {
    t.column(0).AppendInt(r.lag);
    t.column(1).AppendInt(r.cell);
    t.column(2).AppendInt(r.transitions);
    if (r.grid_distance.has_value()) {
      t.column(3).AppendInt(*r.grid_distance);
    } else {
      t.column(3).AppendNull();
    }
  }
  return t;
}

// A straight run of five neighbouring res-9 cells, p[0] .. p[4].
std::vector<int64_t> CellRun() {
  const hex::CellId far = hex::GridRing(static_cast<hex::CellId>(kA), 4)[0];
  const auto path = hex::GridPathCells(static_cast<hex::CellId>(kA), far);
  std::vector<int64_t> run;
  for (const hex::CellId c : path.value()) run.push_back(static_cast<int64_t>(c));
  return run;
}

struct HandBuiltStats {
  db::Table cells;
  db::Table transitions;
};

std::vector<HandBuiltStats> HandBuiltStatsTables() {
  const std::vector<int64_t> p = CellRun();
  // A stats cell with no edges, an endpoint-only cell off the run, and a
  // res-8 cell whose grid path and distance to a res-9 cell are undefined.
  const int64_t lone = static_cast<int64_t>(hex::GridRing(p[0], 9)[3]);
  const int64_t off = static_cast<int64_t>(hex::GridRing(p[0], 6)[1]);
  const int64_t coarse =
      static_cast<int64_t>(hex::LatLngToCell({55.1, 11.1}, 8));
  // p[0] is listed twice (the first row wins); p[1], p[2], p[3] and `off`
  // are endpoints only.
  const db::Table cells =
      MakeCellStats({{p[0], 5, 2, 11.01, 55.01, 7.5, 90.0},
                     {p[4], 3, 1, 11.02, 55.02, 8.5, 180.0},
                     {lone, 1, 1, 11.03, 55.03, 0.0, -0.0},
                     {p[0], 99, 99, 0.0, 0.0, 0.0, 0.0},
                     {coarse, 2, 2, 11.1, 55.1, 1.0, 2.0}});
  const db::Table transitions = MakeTransitionStats({
      {p[0], p[4], 3, 4},      // expands over all four pairs
      {p[1], p[3], 2, 2},      // overlaps (p1,p2), (p2,p3)
      {p[0], p[1], 5, 1},      // overlaps (p0,p1)
      {p[4], p[0], 1, 4},      // the reverse direction
      {p[0], p[1], 4, 1},      // the same pair listed again
      {p[2], off, 6, std::nullopt},  // null distance: never expanded
      {p[3], coarse, 2, 3},    // path undefined: kept as one pair
      {p[4], p[4], 2, 0},      // a self pair still costs one hop
  });
  std::vector<HandBuiltStats> out;
  out.push_back({cells, transitions});
  out.push_back({cells, MakeTransitionStats({})});
  out.push_back({MakeCellStats({}), MakeTransitionStats({})});
  out.push_back({MakeCellStats({}), transitions});
  return out;
}

class HandBuiltGraphTest
    : public ::testing::TestWithParam<std::pair<EdgeCostPolicy, bool>> {};

TEST_P(HandBuiltGraphTest, DirectCsrBuildMatchesFrozenDigraph) {
  HabitConfig config;
  config.edge_cost = GetParam().first;
  config.expand_transitions = GetParam().second;
  const std::vector<HandBuiltStats> tables = HandBuiltStatsTables();
  for (size_t i = 0; i < tables.size(); ++i) {
    SCOPED_TRACE("tables " + std::to_string(i));
    ExpectGraphBuildsAgree(tables[i].cells, tables[i].transitions, config);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HandBuiltGraphTest,
    ::testing::Values(
        std::make_pair(EdgeCostPolicy::kHops, true),
        std::make_pair(EdgeCostPolicy::kInverseFrequency, true),
        std::make_pair(EdgeCostPolicy::kHopsThenFrequency, true),
        std::make_pair(EdgeCostPolicy::kHops, false),
        std::make_pair(EdgeCostPolicy::kInverseFrequency, false),
        std::make_pair(EdgeCostPolicy::kHopsThenFrequency, false)),
    [](const auto& info) {
      return std::string(EdgeCostPolicyToString(info.param.first)) +
             (info.param.second ? "_expanded" : "_direct");
    });

TEST(HandBuiltGraphTest, RunsSumAndNodesFollowTheBuildRules) {
  const std::vector<int64_t> p = CellRun();
  const HandBuiltStats stats = HandBuiltStatsTables()[0];
  HabitConfig config;
  config.edge_cost = EdgeCostPolicy::kInverseFrequency;
  const auto built =
      BuildCompactTransitionGraph(stats.cells, stats.transitions, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const graph::CompactGraph& g = built.value();
  // Five run cells, the edgeless, off-run and coarse cells.
  EXPECT_EQ(g.num_nodes(), 8u);

  // (p0,p1) sums the expansion (3) and both direct rows (5 + 4); (p1,p2)
  // the expansion (3) and the overlapping one (2).
  const auto p01 = g.GetEdge(p[0], p[1]);
  ASSERT_TRUE(p01.ok());
  EXPECT_EQ(p01.value().transitions, 12);
  EXPECT_EQ(p01.value().grid_distance, 1);
  EXPECT_EQ(Bits(p01.value().weight),
            Bits(EdgeCost(EdgeCostPolicy::kInverseFrequency, 12)));
  EXPECT_EQ(g.GetEdge(p[1], p[2]).value().transitions, 5);
  EXPECT_EQ(g.GetEdge(p[4], p[3]).value().transitions, 1);
  EXPECT_FALSE(g.GetEdge(p[0], p[4]).ok());  // expanded away
  // A pair with no defined grid distance is weighted as one hop.
  const auto to_coarse = g.GetEdge(p[3], stats.cells.column(0).GetInt(4));
  ASSERT_TRUE(to_coarse.ok());
  EXPECT_EQ(to_coarse.value().grid_distance, 1);
  const auto self = g.GetEdge(p[4], p[4]);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value().grid_distance, 0);
  EXPECT_EQ(Bits(self.value().weight),
            Bits(EdgeCost(EdgeCostPolicy::kInverseFrequency, 2)));

  // First row wins for a repeated stats cell.
  const graph::NodeAttrs first = g.GetNode(p[0]).value();
  EXPECT_EQ(first.message_count, 5);
  EXPECT_EQ(first.median_pos, (geo::LatLng{55.01, 11.01}));
  // An endpoint-only cell sits at its center with empty statistics.
  const graph::NodeAttrs mid = g.GetNode(p[2]).value();
  EXPECT_EQ(mid.median_pos, hex::CellToLatLng(p[2]));
  EXPECT_EQ(mid.center_pos, mid.median_pos);
  EXPECT_EQ(mid.message_count, 0);
  // A stats cell without transitions is an isolated node.
  const graph::NodeIndex lone = g.IndexOf(stats.cells.column(0).GetInt(2));
  ASSERT_NE(lone, graph::kInvalidNodeIndex);
  EXPECT_EQ(g.OutDegree(lone) + g.InDegree(lone), 0u);
  EXPECT_EQ(g.NodeAttrsAt(lone).message_count, 1);
  // A null grid distance is never expanded, whatever the cells' distance.
  const graph::NodeIndex off = g.IndexOf(hex::GridRing(p[0], 6)[1]);
  ASSERT_NE(off, graph::kInvalidNodeIndex);
  EXPECT_EQ(g.InDegree(off), 1u);
  EXPECT_TRUE(g.GetEdge(p[2], g.IdOf(off)).ok());  // p[2] is 4+ cells away
  EXPECT_EQ(g.NodeAttrsAt(off).median_pos, hex::CellToLatLng(g.IdOf(off)));
}

TEST(HandBuiltGraphTest, MissingStatisticsColumnIsNotFound) {
  const HandBuiltStats stats = HandBuiltStatsTables()[0];
  const db::Table no_columns;
  EXPECT_EQ(BuildCompactTransitionGraph(no_columns, stats.transitions,
                                        HabitConfig())
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      BuildCompactTransitionGraph(stats.cells, no_columns, HabitConfig())
          .status()
          .code(),
      StatusCode::kNotFound);
}

// --- input validation ------------------------------------------------------

// A two-row AIS table with column `name` replaced by `column`.
db::Table WithColumn(const std::string& name, db::Column column) {
  const db::Table base = MakeTable({{1, 1, 1, kA, 1.0, 2.0, 3.0, 4.0},
                                    {1, 1, 2, kB, 1.0, 2.0, 3.0, 4.0}});
  db::Schema schema;
  for (size_t c = 0; c < base.num_columns(); ++c) {
    schema.AddField(base.schema().name(c), base.schema().name(c) == name
                                               ? column.type()
                                               : base.schema().type(c));
  }
  db::Table out(schema);
  for (size_t c = 0; c < base.num_columns(); ++c) {
    out.column(c) = base.schema().name(c) == name ? column : base.column(c);
  }
  return out;
}

db::Table WithoutColumn(const std::string& name) {
  const db::Table base = MakeTable({{1, 1, 1, kA, 1.0, 2.0, 3.0, 4.0}});
  db::Schema schema;
  for (size_t c = 0; c < base.num_columns(); ++c) {
    if (base.schema().name(c) != name) {
      schema.AddField(base.schema().name(c), base.schema().type(c));
    }
  }
  db::Table out(schema);
  for (size_t c = 0, o = 0; c < base.num_columns(); ++c) {
    if (base.schema().name(c) != name) out.column(o++) = base.column(c);
  }
  return out;
}

db::Column IntColumn(std::vector<int64_t> values, bool null_last = false) {
  db::Column col(db::DataType::kInt64);
  for (const int64_t v : values) col.AppendInt(v);
  if (null_last) col.AppendNull();
  return col;
}

db::Column DoubleColumn(std::vector<double> values, bool null_last = false) {
  db::Column col(db::DataType::kDouble);
  for (const double v : values) col.AppendDouble(v);
  if (null_last) col.AppendNull();
  return col;
}

StatusCode CellStatsCode(const db::Table& t) {
  return ComputeCellStats(t, HabitConfig()).status().code();
}

StatusCode TransitionStatsCode(const db::Table& t) {
  return ComputeTransitionStats(t, HabitConfig()).status().code();
}

TEST(KernelValidationTest, MissingColumnIsNotFound) {
  for (const char* name : {"cell", "mmsi", "lon", "lat", "sog", "cog"}) {
    EXPECT_EQ(CellStatsCode(WithoutColumn(name)), StatusCode::kNotFound)
        << name;
  }
  for (const char* name : {"trip_id", "ts", "cell"}) {
    EXPECT_EQ(TransitionStatsCode(WithoutColumn(name)), StatusCode::kNotFound)
        << name;
  }
  EXPECT_EQ(CellStatsCode(db::Table()), StatusCode::kNotFound);
  EXPECT_EQ(TransitionStatsCode(db::Table()), StatusCode::kNotFound);
}

TEST(KernelValidationTest, WrongColumnTypeIsInvalidArgument) {
  const db::Table double_cell = WithColumn("cell", DoubleColumn({1.0, 2.0}));
  EXPECT_EQ(CellStatsCode(double_cell), StatusCode::kInvalidArgument);
  EXPECT_EQ(TransitionStatsCode(double_cell), StatusCode::kInvalidArgument);
  EXPECT_EQ(CellStatsCode(WithColumn("mmsi", DoubleColumn({1.0, 1.0}))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CellStatsCode(WithColumn("lon", IntColumn({1, 1}))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TransitionStatsCode(WithColumn("ts", DoubleColumn({1.0, 2.0}))),
            StatusCode::kInvalidArgument);
  db::Column text(db::DataType::kString);
  text.AppendString("a");
  text.AppendString("b");
  EXPECT_EQ(TransitionStatsCode(WithColumn("trip_id", text)),
            StatusCode::kInvalidArgument);
}

TEST(KernelValidationTest, NullInKeyOrAggregatedColumnIsInvalidArgument) {
  // Each replacement column holds one value and a null: two rows, as the
  // table's other columns.
  EXPECT_EQ(CellStatsCode(WithColumn("cell", IntColumn({kA}, true))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CellStatsCode(WithColumn("mmsi", IntColumn({1}, true))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CellStatsCode(WithColumn("cog", DoubleColumn({1.0}, true))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TransitionStatsCode(WithColumn("cell", IntColumn({kA}, true))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TransitionStatsCode(WithColumn("trip_id", IntColumn({1}, true))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TransitionStatsCode(WithColumn("ts", IntColumn({1}, true))),
            StatusCode::kInvalidArgument);
}

TEST(KernelValidationTest, ColumnShorterThanTableIsInvalidArgument) {
  // num_rows() is the first column's length; a shorter later column would
  // be read past its end.
  EXPECT_EQ(CellStatsCode(WithColumn("sog", DoubleColumn({1.0}))),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TransitionStatsCode(WithColumn("cell", IntColumn({kA}))),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace habit::core
