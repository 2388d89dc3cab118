// Corridor search suite: RunSearchCorridor guided by the hex-lattice bound
// must return EXACTLY what plain Dijkstra (RunSearch with a zero
// heuristic) returns — reachability, target, cost and the full parent
// chain — on tie-heavy random lattice graphs, with many seeds and targets,
// a seed that is itself a target, and unreachable target sets. The bucket
// replay gets its own cases: seed costs spread past the largest edge,
// targets sharing one bucket (exact `expanded`), and a run without target
// checked node by node against RunSearch's distances and parents. Also pins
// the bound's admissibility and consistency, the validity scan that
// switches it off (an edge cheaper than its grid distance, a node at
// another resolution), a differential over seeded KIEL gaps snapped
// through Imputer::SnapCandidates, and the landmark corridor the imputer
// runs where the bound fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/rng.h"
#include "eval/harness.h"
#include "graph/digraph.h"
#include "graph/search.h"
#include "habit/framework.h"
#include "habit/imputer.h"
#include "hexgrid/hexgrid.h"
#include "sim/gaps.h"

namespace habit {
namespace {

using graph::CompactGraph;
using graph::CsrSearch;
using graph::NodeIndex;
using graph::SearchScratch;
using graph::SearchSeed;

constexpr int kRes = 9;
const auto kZero = [](NodeIndex) { return 0.0; };

struct Query {
  std::vector<SearchSeed> seeds;
  std::vector<NodeIndex> targets;  // sorted, unique
  hex::CellId center = hex::kInvalidCell;
};

// A random graph over a patch of the res-9 lattice: ~70% of a grid disk,
// each node with a few out-edges to cells up to 3 steps away. Every edge
// costs max(1, grid distance) times a factor: exactly 1 when `tie_heavy`
// (equal-cost paths everywhere), else uniform in [1, 2].
CompactGraph MakeLatticeGraph(uint64_t seed, bool tie_heavy) {
  Rng rng(seed);
  const hex::CellId origin =
      hex::LatLngToCell({54.5 + rng.Uniform(0, 0.5), 10.5}, kRes);
  std::vector<hex::CellId> cells;
  for (const hex::CellId c : hex::GridDisk(origin, 9)) {
    if (rng.Uniform(0, 1) < 0.7) cells.push_back(c);
  }
  const std::set<hex::CellId> present(cells.begin(), cells.end());
  graph::Digraph g;
  for (const hex::CellId c : cells) g.AddNode(c);
  for (const hex::CellId u : cells) {
    const std::vector<hex::CellId> near = hex::GridDisk(u, 3);
    for (int k = 0; k < 4; ++k) {
      const hex::CellId v = near[rng.UniformInt(1, near.size() - 1)];
      if (!present.contains(v) || g.HasEdge(u, v)) continue;
      graph::EdgeAttrs attrs;
      attrs.grid_distance = hex::GridDistance(u, v).value();
      attrs.weight = static_cast<double>(attrs.grid_distance) *
                     (tie_heavy ? 1.0 : rng.Uniform(1.0, 2.0));
      g.AddEdge(u, v, attrs);
    }
  }
  return g.Freeze(/*keep_attrs=*/false);
}

NodeIndex RandomNode(const CompactGraph& g, Rng& rng) {
  return static_cast<NodeIndex>(rng.UniformInt(0, g.num_nodes() - 1));
}

// Up to `max_seeds` seeds and up to `max_targets` targets clustered
// around a random center node. The first seed costs 0; about a quarter of
// the others repeat an earlier seed's cost, the rest draw from
// [0, max_seed_cost).
Query RandomQuery(const CompactGraph& g, Rng& rng, int max_seeds,
                  int max_targets, double max_seed_cost = 2.0) {
  Query q;
  const int num_seeds = static_cast<int>(rng.UniformInt(1, max_seeds));
  for (int i = 0; i < num_seeds; ++i) {
    double cost = 0.0;
    if (i > 0) {
      cost = rng.Uniform(0, 1) < 0.25
                 ? q.seeds[rng.UniformInt(0, i - 1)].cost
                 : rng.Uniform(0.0, max_seed_cost);
    }
    q.seeds.push_back({RandomNode(g, rng), cost});
  }
  const NodeIndex center = RandomNode(g, rng);
  q.center = g.IdOf(center);
  q.targets.push_back(center);
  const int num_targets = static_cast<int>(rng.UniformInt(1, max_targets));
  for (int i = 1; i < num_targets; ++i) {
    const hex::CellId c = hex::GridDisk(q.center, 2)[rng.UniformInt(0, 18)];
    const NodeIndex t = g.IndexOf(c);
    if (t != graph::kInvalidNodeIndex) q.targets.push_back(t);
  }
  std::sort(q.targets.begin(), q.targets.end());
  q.targets.erase(std::unique(q.targets.begin(), q.targets.end()),
                  q.targets.end());
  return q;
}

struct Compared {
  size_t plain_expanded = 0;
  size_t corridor_expanded = 0;
  std::vector<hex::CellId> cells;  ///< the path, empty when unreachable
};

// Runs plain Dijkstra and the lattice corridor on `q` and asserts they
// agree on everything but effort. `w_min` is the graph's ScanLattice value.
Compared ExpectCorridorMatchesPlain(const CompactGraph& g, const Query& q,
                                    double w_min) {
  const auto is_target = [&](NodeIndex u) {
    return std::binary_search(q.targets.begin(), q.targets.end(), u);
  };
  SearchScratch plain_scratch, corridor_scratch;
  const CsrSearch want =
      graph::RunSearch(g, q.seeds, is_target, kZero, plain_scratch);
  const core::LatticeBound bound(g, q.center, q.targets);
  const CsrSearch got = graph::RunSearchCorridor(g, q.seeds, is_target,
                                                 bound, w_min,
                                                 corridor_scratch);
  EXPECT_EQ(want.found, got.found);
  if (want.found && got.found) {
    EXPECT_EQ(want.reached, got.reached);
    EXPECT_EQ(want.cost, got.cost);
    EXPECT_EQ(graph::ReconstructPath(plain_scratch, want.reached),
              graph::ReconstructPath(corridor_scratch, got.reached));
    EXPECT_LE(got.expanded, want.expanded);
  }
  Compared out{want.expanded, got.expanded, {}};
  if (want.found) {
    for (const NodeIndex i : graph::ReconstructPath(plain_scratch,
                                                    want.reached)) {
      out.cells.push_back(g.IdOf(i));
    }
  }
  return out;
}

TEST(LatticeCorridorTest, RandomLatticeGraphsMatchPlainDijkstra) {
  for (const bool tie_heavy : {true, false}) {
    for (const uint64_t seed : {3u, 5u, 8u}) {
      const CompactGraph g = MakeLatticeGraph(seed, tie_heavy);
      const core::LatticeScan scan = core::ScanLattice(g, kRes);
      ASSERT_TRUE(scan.holds);
      Rng rng(seed * 31 + (tie_heavy ? 1 : 0));
      size_t plain = 0, corridor = 0;
      for (int trial = 0; trial < 80; ++trial) {
        const Compared c = ExpectCorridorMatchesPlain(
            g, RandomQuery(g, rng, 6, 20), scan.w_min);
        plain += c.plain_expanded;
        corridor += c.corridor_expanded;
      }
      // The bound must actually prune on these graphs, or the equality
      // above proves nothing about the corridor.
      EXPECT_LT(corridor, plain) << "seed " << seed;
    }
  }
}

TEST(LatticeCorridorTest, SeedThatIsATargetAndUnreachableTargets) {
  const CompactGraph g = MakeLatticeGraph(13, /*tie_heavy=*/true);
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    // One seed sits on a target, at a nonzero seed cost so that another
    // seed may still win.
    Query q = RandomQuery(g, rng, 4, 8);
    q.seeds.push_back({q.targets.back(), rng.Uniform(0.0, 3.0)});
    ExpectCorridorMatchesPlain(g, q, core::ScanLattice(g, kRes).w_min);
  }

  // Targets that nothing enters: a node appended with no edges at all.
  graph::Digraph with_island;
  const hex::CellId island = hex::AxialToCell(kRes, {1000, 1000});
  with_island.AddNode(island);
  with_island.AddNode(hex::AxialToCell(kRes, {0, 0}));
  with_island.AddNode(hex::AxialToCell(kRes, {1, 0}));
  graph::EdgeAttrs unit;
  with_island.AddEdge(hex::AxialToCell(kRes, {0, 0}),
                      hex::AxialToCell(kRes, {1, 0}), unit);
  const CompactGraph h = with_island.Freeze(/*keep_attrs=*/false);
  ASSERT_TRUE(core::ScanLattice(h, kRes).holds);
  Query q;
  q.seeds = {{h.IndexOf(hex::AxialToCell(kRes, {0, 0})), 0.0}};
  q.targets = {h.IndexOf(island)};
  q.center = island;
  EXPECT_TRUE(ExpectCorridorMatchesPlain(h, q, 1.0).cells.empty());
}

// Seed costs spread up to 12 — past the largest edge weight (3 on the
// tie-heavy graphs, 6 on the uniform ones), with repeated costs among
// them: a bucket ring sized by the edge weights alone would alias seeds
// into the wrong buckets.
TEST(LatticeCorridorTest, SeedCostsSpreadPastTheLargestEdge) {
  for (const bool tie_heavy : {true, false}) {
    for (const uint64_t seed : {29u, 31u}) {
      const CompactGraph g = MakeLatticeGraph(seed, tie_heavy);
      const core::LatticeScan scan = core::ScanLattice(g, kRes);
      ASSERT_TRUE(scan.holds);
      Rng rng(seed * 7 + (tie_heavy ? 1 : 0));
      for (int trial = 0; trial < 80; ++trial) {
        ExpectCorridorMatchesPlain(g, RandomQuery(g, rng, 12, 20, 12.0),
                                   scan.w_min);
      }
    }
  }
}

const auto kNever = [](NodeIndex) { return false; };

// Plain Dijkstra to exhaustion from `seeds`: the reference state.
SearchScratch ExhaustPlain(const CompactGraph& g,
                           std::span<const SearchSeed> seeds) {
  SearchScratch plain;
  graph::RunSearch(g, seeds, kNever, kZero, plain);
  return plain;
}

// Every target shares one replay bucket (distances within one width,
// w_min / 2, of each other). The replay scans a bucket unsorted, so its
// answer must still be the smallest (dist, node) target, and `expanded`
// exactly the corridor nodes that RunSearch settles up to that target.
TEST(LatticeCorridorTest, TargetsSettlingInOneBucket) {
  for (const bool tie_heavy : {true, false}) {
    for (const uint64_t seed : {37u, 41u}) {
      const CompactGraph g = MakeLatticeGraph(seed, tie_heavy);
      const core::LatticeScan scan = core::ScanLattice(g, kRes);
      ASSERT_TRUE(scan.holds);
      const double width = scan.w_min / 2;
      Rng rng(seed * 11 + (tie_heavy ? 1 : 0));
      int shared = 0;
      for (int trial = 0; trial < 60; ++trial) {
        Query q = RandomQuery(g, rng, 6, 1, 12.0);
        const SearchScratch plain = ExhaustPlain(g, q.seeds);
        const NodeIndex pick = RandomNode(g, rng);
        if (!plain.Settled(pick)) continue;
        const auto bucket = [&](NodeIndex v) {
          return static_cast<size_t>(plain.dist[v] / width);
        };
        q.targets.clear();
        for (NodeIndex v = 0; v < g.num_nodes(); ++v) {
          if (plain.Settled(v) && bucket(v) == bucket(pick)) {
            q.targets.push_back(v);
          }
        }
        q.center = g.IdOf(q.targets[rng.UniformInt(0, q.targets.size() - 1)]);
        if (q.targets.size() > 1) ++shared;
        ExpectCorridorMatchesPlain(g, q, scan.w_min);

        // The replay alone, at a limit a few hops past the targets.
        const core::LatticeBound bound(g, q.center, q.targets);
        const auto is_target = [&](NodeIndex u) {
          return std::binary_search(q.targets.begin(), q.targets.end(), u);
        };
        const double limit = plain.dist[pick] + 3.0;
        SearchScratch replay;
        // lint: corridor-home(the replay is compared with RunSearch itself)
        const CsrSearch got = graph::RunSearchPruned(
            g, q.seeds, is_target, bound, limit, scan.w_min, replay);
        NodeIndex want = q.targets.front();
        for (const NodeIndex t : q.targets) {
          if (plain.dist[t] < plain.dist[want]) want = t;
        }
        size_t want_expanded = 0;
        for (NodeIndex v = 0; v < g.num_nodes(); ++v) {
          if (!plain.Settled(v) || plain.dist[v] + bound(v) > limit) continue;
          if (plain.dist[v] < plain.dist[want] ||
              (plain.dist[v] == plain.dist[want] && v <= want)) {
            ++want_expanded;
          }
        }
        ASSERT_TRUE(got.found);
        EXPECT_EQ(got.reached, want);
        EXPECT_EQ(got.cost, plain.dist[want]);
        EXPECT_EQ(got.expanded, want_expanded);
        EXPECT_EQ(graph::ReconstructPath(replay, got.reached),
                  graph::ReconstructPath(plain, want));
      }
      // Most picks must share their bucket, or this proves little.
      EXPECT_GT(shared, 20) << "seed " << seed;
    }
  }
}

// With no target the replay settles every node it records, which must
// be its whole corridor, { v : dist(v) + bound(v) <= limit }, each at
// RunSearch's distance and with RunSearch's parent. Under a zero bound and
// a limit past every distance, that is the full plain Dijkstra state.
TEST(LatticeCorridorTest, ExhaustiveReplayMatchesPlainDistancesAndParents) {
  for (const bool tie_heavy : {true, false}) {
    for (const uint64_t seed : {43u, 47u}) {
      const CompactGraph g = MakeLatticeGraph(seed, tie_heavy);
      const core::LatticeScan scan = core::ScanLattice(g, kRes);
      ASSERT_TRUE(scan.holds);
      Rng rng(seed * 13 + (tie_heavy ? 1 : 0));
      for (int trial = 0; trial < 20; ++trial) {
        Query q = RandomQuery(g, rng, 6, 20, 12.0);
        // One more seed costs exactly its node's path cost. RunSearch
        // keeps such a node a seed (no parent) on the tie; so must the
        // replay.
        const SearchScratch unseeded = ExhaustPlain(g, q.seeds);
        const NodeIndex tied = RandomNode(g, rng);
        if (unseeded.Settled(tied)) {
          q.seeds.push_back({tied, unseeded.dist[tied]});
        }
        const SearchScratch plain = ExhaustPlain(g, q.seeds);
        double farthest = 0.0;
        size_t reachable = 0;
        for (NodeIndex v = 0; v < g.num_nodes(); ++v) {
          if (!plain.Settled(v)) continue;
          farthest = std::max(farthest, plain.dist[v]);
          ++reachable;
        }
        const core::LatticeBound lattice(g, q.center, q.targets);
        for (const bool zero_bound : {true, false}) {
          const auto bound = [&](NodeIndex v) {
            return zero_bound ? 0.0 : lattice(v);
          };
          const double limit = zero_bound ? farthest + 1.0 : farthest / 2;
          SearchScratch replay;
          // lint: corridor-home(the replay is compared with RunSearch itself)
          const CsrSearch got = graph::RunSearchPruned(
              g, q.seeds, kNever, bound, limit, scan.w_min, replay);
          EXPECT_FALSE(got.found);
          size_t corridor = 0;
          for (NodeIndex v = 0; v < g.num_nodes(); ++v) {
            const bool in = plain.Settled(v) &&
                            plain.dist[v] + bound(v) <= limit;
            ASSERT_EQ(replay.Visited(v), in) << "node " << v;
            if (!in) continue;
            ++corridor;
            EXPECT_EQ(replay.dist[v], plain.dist[v]) << "node " << v;
            EXPECT_EQ(replay.parent[v], plain.parent[v]) << "node " << v;
          }
          EXPECT_EQ(got.expanded, corridor);
          if (zero_bound) {
            EXPECT_EQ(corridor, reachable);
          }
        }
      }
    }
  }
}

TEST(LatticeBoundTest, NeverExceedsTheDistanceToTheTargetSet) {
  const CompactGraph g = MakeLatticeGraph(21, /*tie_heavy=*/false);
  Rng rng(23);
  SearchScratch scratch;
  for (int trial = 0; trial < 10; ++trial) {
    const Query q = RandomQuery(g, rng, 1, 20);
    const core::LatticeBound bound(g, q.center, q.targets);
    const auto is_target = [&](NodeIndex u) {
      return std::binary_search(q.targets.begin(), q.targets.end(), u);
    };
    for (NodeIndex u = 0; u < g.num_nodes(); ++u) {
      // Admissible: at most the plain distance from u to the set.
      const SearchSeed seed{u, 0.0};
      const CsrSearch run =
          graph::RunSearch(g, {&seed, 1}, is_target, kZero, scratch);
      if (run.found) EXPECT_LE(bound(u), run.cost);
      if (is_target(u)) EXPECT_EQ(bound(u), 0.0);
      // Consistent: it drops by at most an edge's cost along the edge.
      const auto neighbors = g.OutNeighbors(u);
      const auto weights = g.OutWeights(u);
      for (size_t e = 0; e < neighbors.size(); ++e) {
        EXPECT_LE(bound(u), weights[e] + bound(neighbors[e]));
      }
    }
  }
}

// Cell k of a row of the res-9 lattice.
hex::CellId RowCell(int k) {
  const hex::Axial start =
      hex::CellToAxial(hex::LatLngToCell({54.5, 10.3}, kRes));
  return hex::AxialToCell(kRes, {start.i + k, start.j});
}
constexpr int kRowLength = 60;

// A valid lattice graph: a path along one row with unit steps and, every
// fourth cell, a 3-step jump costing exactly 3.
graph::Digraph MakeRowGraph() {
  graph::Digraph g;
  for (int k = 0; k < kRowLength; ++k) g.AddNode(RowCell(k));
  for (int k = 0; k + 1 < kRowLength; ++k) {
    graph::EdgeAttrs step;
    step.weight = 1.0;
    step.grid_distance = 1;
    g.AddEdge(RowCell(k), RowCell(k + 1), step);
    if (k % 4 == 0 && k + 3 < kRowLength) {
      graph::EdgeAttrs jump;
      jump.weight = 3.0;
      jump.grid_distance = 3;
      g.AddEdge(RowCell(k), RowCell(k + 3), jump);
    }
  }
  return g;
}

// The search the imputer issues for a gap, rebuilt from the public
// SnapCandidates with the imputer's seed-cost rule (snap displacement in
// cell pitches).
std::optional<Query> ImputerQuery(const core::Imputer& imputer,
                                  const CompactGraph& g, int res,
                                  const geo::LatLng& a, const geo::LatLng& b) {
  const double pitch = hex::EdgeLengthMeters(res) * 1.7320508;
  Query q;
  for (const hex::CellId c :
       imputer.SnapCandidates(a, core::Imputer::SnapRole::kSource)) {
    q.seeds.push_back(
        {g.IndexOf(c), geo::HaversineMeters(a, hex::CellToLatLng(c)) / pitch});
  }
  const std::vector<hex::CellId> dst =
      imputer.SnapCandidates(b, core::Imputer::SnapRole::kTarget);
  if (q.seeds.empty() || dst.empty()) return std::nullopt;
  q.center = dst.front();
  for (const hex::CellId c : dst) q.targets.push_back(g.IndexOf(c));
  std::sort(q.targets.begin(), q.targets.end());
  return q;
}

// Imputes the gap between the row's ends: the imputer must return plain
// Dijkstra's cells whether or not the lattice bound holds — with less
// effort than plain Dijkstra when it holds, and the same effort when not.
void ExpectImputerReturnsPlain(const CompactGraph& g, bool bound_on) {
  core::HabitConfig config;
  config.resolution = kRes;
  EXPECT_EQ(core::ScanLattice(g, config.resolution).holds, bound_on);
  const core::Imputer imputer(&g, config);
  const geo::LatLng a = hex::CellToLatLng(RowCell(0));
  const geo::LatLng b = hex::CellToLatLng(RowCell(kRowLength - 1));
  const std::optional<Query> q = ImputerQuery(imputer, g, kRes, a, b);
  ASSERT_TRUE(q.has_value());
  const auto is_target = [&](NodeIndex u) {
    return std::binary_search(q->targets.begin(), q->targets.end(), u);
  };
  SearchScratch scratch;
  const CsrSearch want =
      graph::RunSearch(g, q->seeds, is_target, kZero, scratch);
  ASSERT_TRUE(want.found);
  std::vector<hex::CellId> want_cells;
  for (const NodeIndex i : graph::ReconstructPath(scratch, want.reached)) {
    want_cells.push_back(g.IdOf(i));
  }
  auto got = imputer.Impute(a, b, 0, 3600);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().cells, want_cells);
  if (bound_on) {
    EXPECT_LT(got.value().expanded, want.expanded);
  } else {
    EXPECT_EQ(got.value().expanded, want.expanded);
  }
}

TEST(LatticeBoundTest, ValidGraphEnablesTheBound) {
  const CompactGraph g = MakeRowGraph().Freeze(/*keep_attrs=*/false);
  EXPECT_TRUE(core::ScanLattice(g, kRes).holds);
  ExpectImputerReturnsPlain(g, /*bound_on=*/true);
  // The graph is valid at its own resolution only.
  EXPECT_FALSE(core::ScanLattice(g, kRes + 1).holds);
}

TEST(LatticeBoundTest, EdgeBelowItsGridDistanceDisablesTheBound) {
  // One long edge far cheaper than its 48 grid steps: plain Dijkstra takes
  // it, and the lattice bound would overestimate every node before it.
  graph::Digraph shortcut = MakeRowGraph();
  graph::EdgeAttrs cheap;
  cheap.weight = 2.0;
  shortcut.AddEdge(RowCell(2), RowCell(50), cheap);
  const CompactGraph g = shortcut.Freeze(/*keep_attrs=*/false);
  EXPECT_FALSE(core::ScanLattice(g, kRes).holds);
  ExpectImputerReturnsPlain(g, /*bound_on=*/false);

  // So does a single unit step below 1 (the invfreq cost policy's range).
  graph::Digraph below_one = MakeRowGraph();
  cheap.weight = 0.9;
  below_one.AddEdge(RowCell(1), RowCell(2), cheap);
  EXPECT_FALSE(core::ScanLattice(below_one.Freeze(false), kRes).holds);
}

TEST(LatticeBoundTest, MixedResolutionDisablesTheBound) {
  graph::Digraph mixed = MakeRowGraph();
  mixed.AddNode(hex::LatLngToCell({54.6, 10.5}, kRes - 1));
  const CompactGraph g = mixed.Freeze(/*keep_attrs=*/false);
  EXPECT_FALSE(core::ScanLattice(g, kRes).holds);
  ExpectImputerReturnsPlain(g, /*bound_on=*/false);
}

// The differential over the real graph shape: seeded KIEL gaps at r=10,
// each query snapped exactly as the imputer snaps it.
TEST(LatticeCorridorTest, KielGapsMatchPlainDijkstra) {
  eval::ExperimentOptions options;
  options.scale = 0.3;
  options.seed = 42;
  auto exp = eval::PrepareExperiment("KIEL", options);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  core::HabitConfig config;
  config.resolution = 10;
  auto fw = core::HabitFramework::Build(exp.value().train_trips, config);
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();
  const CompactGraph& g = fw.value()->graph();
  const core::Imputer& imputer = fw.value()->imputer();
  const core::LatticeScan scan = core::ScanLattice(g, config.resolution);
  ASSERT_TRUE(scan.holds);

  Rng rng(7);
  size_t queries = 0, found = 0, plain = 0, corridor = 0;
  for (int round = 0; queries < 600 && round < 50; ++round) {
    for (const ais::Trip& trip : exp.value().test_trips) {
      for (const int minutes : {15, 60, 240}) {
        sim::GapOptions gap_options;
        gap_options.gap_seconds = int64_t{minutes} * 60;
        const std::optional<sim::GapCase> gap =
            sim::InjectGap(trip, gap_options, &rng);
        if (!gap) continue;
        const std::optional<Query> q = ImputerQuery(
            imputer, g, config.resolution, gap->gap_start.pos,
            gap->gap_end.pos);
        if (!q) continue;
        ++queries;
        const Compared c = ExpectCorridorMatchesPlain(g, *q, scan.w_min);
        plain += c.plain_expanded;
        corridor += c.corridor_expanded;
        // The served answer is plain Dijkstra's path with the corridor's
        // effort (a gap inside one cell skips the search: expanded 0).
        auto served = imputer.Impute(gap->gap_start.pos, gap->gap_end.pos,
                                     gap->gap_start.ts, gap->gap_end.ts);
        ASSERT_EQ(served.ok(), !c.cells.empty());
        if (!served.ok() || served.value().expanded == 0) continue;
        ++found;
        EXPECT_EQ(served.value().cells, c.cells);
        EXPECT_EQ(served.value().expanded, c.corridor_expanded);
      }
    }
  }
  EXPECT_GE(queries, 500u);
  EXPECT_GT(found, queries / 2);
  EXPECT_LT(corridor, plain);
  // `expanded` is on the wire: the totals are pinned to the heap-based
  // replay's, which the bucket replay must reproduce node for node.
  EXPECT_EQ(queries, 611u);
  EXPECT_EQ(plain, 4648807u);
  EXPECT_EQ(corridor, 2699502u);
}

// Where the lattice bound fails (cost=invfreq: steps cost less than 1)
// the imputer runs plain Dijkstra, or with landmarks on the ALT corridor:
// the same cells from fewer settled nodes.
TEST(LatticeCorridorTest, LandmarksGuideTheSearchWhereTheBoundFails) {
  eval::ExperimentOptions options;
  options.scale = 0.3;
  options.seed = 42;
  auto exp = eval::PrepareExperiment("KIEL", options);
  ASSERT_TRUE(exp.ok()) << exp.status().ToString();
  core::HabitConfig config;
  config.resolution = 9;
  config.edge_cost = core::EdgeCostPolicy::kInverseFrequency;
  auto fw = core::HabitFramework::Build(exp.value().train_trips, config);
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();
  core::HabitFramework& model = *fw.value();
  ASSERT_FALSE(core::ScanLattice(model.graph(), config.resolution).holds);
  ASSERT_TRUE(model.PrecomputeLandmarks(8).ok());

  Rng rng(3);
  size_t found = 0, plain = 0, alt = 0;
  for (int round = 0; round < 10; ++round) {
    for (const ais::Trip& trip : exp.value().test_trips) {
      sim::GapOptions gap_options;
      gap_options.gap_seconds = 120 * 60;
      const std::optional<sim::GapCase> gap =
          sim::InjectGap(trip, gap_options, &rng);
      if (!gap) continue;
      model.set_use_landmarks(false);
      auto want = model.Impute(gap->gap_start.pos, gap->gap_end.pos);
      model.set_use_landmarks(true);
      auto got = model.Impute(gap->gap_start.pos, gap->gap_end.pos);
      ASSERT_EQ(want.ok(), got.ok());
      if (!want.ok()) continue;
      ++found;
      EXPECT_EQ(got.value().cells, want.value().cells);
      EXPECT_LE(got.value().expanded, want.value().expanded);
      plain += want.value().expanded;
      alt += got.value().expanded;
    }
  }
  EXPECT_GE(found, 20u);
  EXPECT_LT(alt, plain);
}

}  // namespace
}  // namespace habit
