// Tests for the Section 3.2 statistics kernel (ComputeCellStats,
// ComputeTransitionStats): bitwise equality with a brute-force reference of
// the paper's query on seeded worlds and hand-built edge cases, and the
// input validation that keeps the kernel's raw column reads in bounds.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <map>
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
