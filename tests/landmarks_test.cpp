// ALT landmark suite: precomputation properties (farthest-point selection,
// column shape, validation), the admissibility of the triangle-inequality
// bound, and the load-bearing contract of this subsystem — RunSearchAlt /
// DijkstraAlt return EXACTLY what the zero-heuristic baseline returns
// (same cost, same node sequence, same parent chain), landmarks only cut
// the explored corridor. Also covers the snapshot v3 landmark section:
// round-trip through both load paths, v2 back-compat (zero landmarks),
// and loud rejection of tampered or truncated landmark data.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <vector>

#include "core/rng.h"
#include "graph/digraph.h"
#include "graph/landmarks.h"
#include "graph/shortest_path.h"
#include "graph/snapshot.h"

namespace habit::graph {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// A lower bound on every MakeRandomGraph weight: DijkstraAlt's `w_min`.
constexpr double kMinWeight = 0.1;

std::string SnapshotPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// A random weighted digraph over sparse ids. `tie_heavy` collapses every
// weight to 1.0, which floods the graph with equal-cost paths — the regime
// where a naive "swap in a different heuristic" approach would return a
// different (equally optimal) path and break byte-identity.
Digraph MakeRandomGraph(uint64_t seed, int num_nodes, int edges_per_node,
                        bool tie_heavy = false) {
  Rng rng(seed);
  std::vector<NodeId> ids;
  std::set<NodeId> used;
  while (static_cast<int>(ids.size()) < num_nodes) {
    const NodeId id = rng.UniformInt(1, 1'000'000'000);
    if (used.insert(id).second) ids.push_back(id);
  }
  Digraph g;
  for (const NodeId id : ids) g.AddNode(id);
  for (const NodeId u : ids) {
    for (int k = 0; k < edges_per_node; ++k) {
      const NodeId v = ids[rng.UniformInt(0, num_nodes - 1)];
      if (v == u) continue;
      EdgeAttrs attrs;
      attrs.weight = tie_heavy ? 1.0 : rng.Uniform(0.1, 5.0);
      g.AddEdge(u, v, attrs);
    }
  }
  return g;
}

std::vector<NodeId> AllIds(const Digraph& g) {
  std::vector<NodeId> ids;
  g.ForEachNode([&](NodeId id, const NodeAttrs&) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

CompactGraph FreezeWithLandmarks(const Digraph& g, size_t k) {
  CompactGraph frozen = g.Freeze(/*keep_attrs=*/false);
  auto set = ComputeLandmarks(frozen, k);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_TRUE(frozen.AttachLandmarks(set.MoveValue()).ok());
  return frozen;
}

TEST(ComputeLandmarksTest, ColumnsAreWellFormed) {
  const CompactGraph g =
      MakeRandomGraph(7, 80, 3).Freeze(/*keep_attrs=*/false);
  auto set = ComputeLandmarks(g, 6);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const LandmarkSet& lm = set.value();
  const size_t k = lm.nodes.size();
  ASSERT_GE(k, 1u);
  ASSERT_LE(k, 6u);
  EXPECT_EQ(lm.from.size(), k * g.num_nodes());
  EXPECT_EQ(lm.to.size(), k * g.num_nodes());
  // Landmarks are distinct, in range, and at zero distance from
  // themselves in both directions.
  std::set<NodeIndex> distinct(lm.nodes.begin(), lm.nodes.end());
  EXPECT_EQ(distinct.size(), k);
  for (size_t l = 0; l < k; ++l) {
    ASSERT_LT(lm.nodes[l], g.num_nodes());
    EXPECT_EQ(lm.from[static_cast<size_t>(lm.nodes[l]) * k + l], 0.0);
    EXPECT_EQ(lm.to[static_cast<size_t>(lm.nodes[l]) * k + l], 0.0);
  }
  for (const double d : lm.from) EXPECT_TRUE(!std::isnan(d) && d >= 0.0);
  for (const double d : lm.to) EXPECT_TRUE(!std::isnan(d) && d >= 0.0);
}

TEST(ComputeLandmarksTest, ColumnsMatchDijkstraDistances) {
  const Digraph mutable_g = MakeRandomGraph(11, 50, 2);
  const CompactGraph g = mutable_g.Freeze(/*keep_attrs=*/false);
  auto set = ComputeLandmarks(g, 4);
  ASSERT_TRUE(set.ok());
  const LandmarkSet& lm = set.value();
  const size_t k = lm.nodes.size();
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const NodeIndex u =
        static_cast<NodeIndex>(rng.UniformInt(0, g.num_nodes() - 1));
    const size_t l = static_cast<size_t>(rng.UniformInt(0, k - 1));
    // from[l] = dist(L_l, u); to[l] = dist(u, L_l) — checked against the
    // id-domain Dijkstra, with +inf meaning unreachable.
    const auto from = Dijkstra(g, g.IdOf(lm.nodes[l]), g.IdOf(u));
    const double from_col = lm.from[static_cast<size_t>(u) * k + l];
    if (from.ok()) {
      EXPECT_EQ(from.value().cost, from_col);
    } else {
      EXPECT_EQ(from_col, kInf);
    }
    const auto to = Dijkstra(g, g.IdOf(u), g.IdOf(lm.nodes[l]));
    const double to_col = lm.to[static_cast<size_t>(u) * k + l];
    if (to.ok()) {
      // The to-column comes from the reversed graph, which sums the same
      // path weights in the opposite order — equal only up to rounding.
      EXPECT_NEAR(to.value().cost, to_col,
                  1e-12 * (std::abs(to.value().cost) + 1.0));
    } else {
      EXPECT_EQ(to_col, kInf);
    }
  }
}

TEST(ComputeLandmarksTest, RejectsBadArguments) {
  const CompactGraph g =
      MakeRandomGraph(13, 20, 2).Freeze(/*keep_attrs=*/false);
  EXPECT_FALSE(ComputeLandmarks(g, 0).ok());
  EXPECT_FALSE(ComputeLandmarks(g, kMaxLandmarks + 1).ok());
  const CompactGraph empty = Digraph().Freeze();
  EXPECT_FALSE(ComputeLandmarks(empty, 4).ok());
  // k larger than the node count is clamped, not rejected.
  const Digraph tiny_g = MakeRandomGraph(17, 3, 1);
  const CompactGraph tiny = tiny_g.Freeze(/*keep_attrs=*/false);
  auto set = ComputeLandmarks(tiny, 8);
  ASSERT_TRUE(set.ok());
  EXPECT_LE(set.value().nodes.size(), tiny.num_nodes());
}

TEST(AttachLandmarksTest, ValidatesStructure) {
  CompactGraph g = MakeRandomGraph(19, 10, 2).Freeze(/*keep_attrs=*/false);
  const size_t n = g.num_nodes();
  auto make = [&](size_t k) {
    LandmarkSet set;
    for (size_t l = 0; l < k; ++l) {
      set.nodes.push_back(static_cast<NodeIndex>(l));
    }
    set.from.assign(k * n, 1.0);
    set.to.assign(k * n, 1.0);
    return set;
  };
  EXPECT_TRUE(g.AttachLandmarks(make(2)).ok());
  EXPECT_EQ(g.num_landmarks(), 2u);

  LandmarkSet dup = make(2);
  dup.nodes[1] = dup.nodes[0];
  EXPECT_FALSE(g.AttachLandmarks(std::move(dup)).ok());

  LandmarkSet out_of_range = make(2);
  out_of_range.nodes[1] = static_cast<NodeIndex>(n);
  EXPECT_FALSE(g.AttachLandmarks(std::move(out_of_range)).ok());

  LandmarkSet wrong_size = make(2);
  wrong_size.from.pop_back();
  EXPECT_FALSE(g.AttachLandmarks(std::move(wrong_size)).ok());

  LandmarkSet nan_poisoned = make(2);
  nan_poisoned.to[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(g.AttachLandmarks(std::move(nan_poisoned)).ok());

  LandmarkSet negative = make(2);
  negative.from[1] = -0.5;
  EXPECT_FALSE(g.AttachLandmarks(std::move(negative)).ok());

  // +inf (unreachable) is a legal distance.
  LandmarkSet with_inf = make(2);
  with_inf.from[1] = kInf;
  EXPECT_TRUE(g.AttachLandmarks(std::move(with_inf)).ok());
}

TEST(LandmarkHeuristicTest, BoundIsAdmissible) {
  // For every sampled node u and target set T, the ALT bound must never
  // exceed min over t in T of dist(u, t) — otherwise the corridor could
  // discard a node on the optimal path.
  for (const uint64_t seed : {23u, 29u}) {
    const Digraph mutable_g = MakeRandomGraph(seed, 70, 3);
    const CompactGraph g = FreezeWithLandmarks(mutable_g, 6);
    Rng rng(seed + 1);
    SearchScratch scratch;
    for (int trial = 0; trial < 15; ++trial) {
      std::vector<NodeIndex> targets;
      const int num_targets = static_cast<int>(rng.UniformInt(1, 4));
      for (int t = 0; t < num_targets; ++t) {
        targets.push_back(
            static_cast<NodeIndex>(rng.UniformInt(0, g.num_nodes() - 1)));
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      const SearchSeed seed_node{
          static_cast<NodeIndex>(rng.UniformInt(0, g.num_nodes() - 1)),
          0.0};
      PrepareAltQuery(g, targets, {&seed_node, 1}, scratch);
      const LandmarkHeuristic bound(g, scratch);
      for (int s = 0; s < 25; ++s) {
        const NodeIndex u =
            static_cast<NodeIndex>(rng.UniformInt(0, g.num_nodes() - 1));
        double true_dist = kInf;
        for (const NodeIndex t : targets) {
          const auto path = Dijkstra(g, g.IdOf(u), g.IdOf(t));
          if (path.ok()) {
            true_dist = std::min(true_dist, path.value().cost);
          }
        }
        const double h = bound(u);
        EXPECT_FALSE(std::isnan(h));
        if (true_dist < kInf) {
          EXPECT_LE(h, true_dist + 1e-9)
              << "inadmissible bound at node " << u;
        }
      }
    }
  }
}

// The headline contract: DijkstraAlt(g, s, t) == Dijkstra(g, s, t) on
// every field — cost, node sequence, reachability verdict — including on
// tie-heavy unit-weight graphs where equal-cost paths abound.
TEST(RunSearchAltTest, SingleSourceMatchesDijkstraExactly) {
  for (const bool tie_heavy : {false, true}) {
    for (const uint64_t seed : {31u, 37u, 41u}) {
      const Digraph mutable_g =
          MakeRandomGraph(seed, 90, 3, tie_heavy);
      const CompactGraph g = FreezeWithLandmarks(mutable_g, 8);
      ASSERT_GT(g.num_landmarks(), 0u);
      const std::vector<NodeId> ids = AllIds(mutable_g);
      Rng rng(seed + 5);
      SearchScratch scratch_alt, scratch_base;
      for (int trial = 0; trial < 60; ++trial) {
        const NodeId s = ids[rng.UniformInt(0, ids.size() - 1)];
        const NodeId t = ids[rng.UniformInt(0, ids.size() - 1)];
        auto want = Dijkstra(g, s, t, &scratch_base);
        auto got = DijkstraAlt(g, s, t, kMinWeight, &scratch_alt);
        ASSERT_EQ(want.ok(), got.ok())
            << "reachability diverged for " << s << " -> " << t;
        if (!want.ok()) continue;
        EXPECT_EQ(want.value().cost, got.value().cost);
        EXPECT_EQ(want.value().nodes, got.value().nodes)
            << "path diverged for " << s << " -> " << t
            << (tie_heavy ? " (tie-heavy)" : "");
        // The corridor is a subset of the baseline's search ball, so the
        // accelerated search never does more work than the baseline.
        EXPECT_LE(got.value().expanded, want.value().expanded);
      }
    }
  }
}

// Multi-seed / multi-target with nonzero seed costs — the exact query
// shape the imputer issues (snap candidates with displacement penalties).
TEST(RunSearchAltTest, MultiSeedMultiTargetMatchesBaseline) {
  for (const uint64_t seed : {43u, 47u}) {
    const Digraph mutable_g = MakeRandomGraph(seed, 80, 3, seed == 47u);
    const CompactGraph g = FreezeWithLandmarks(mutable_g, 6);
    Rng rng(seed + 9);
    SearchScratch scratch_alt, scratch_base;
    const auto zero = [](NodeIndex) { return 0.0; };
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<SearchSeed> seeds;
      const int num_seeds = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < num_seeds; ++i) {
        seeds.push_back(
            {static_cast<NodeIndex>(rng.UniformInt(0, g.num_nodes() - 1)),
             rng.Uniform(0.0, 2.0)});
      }
      std::vector<NodeIndex> targets;
      const int num_targets = static_cast<int>(rng.UniformInt(1, 5));
      for (int i = 0; i < num_targets; ++i) {
        targets.push_back(
            static_cast<NodeIndex>(rng.UniformInt(0, g.num_nodes() - 1)));
      }
      std::sort(targets.begin(), targets.end());
      targets.erase(std::unique(targets.begin(), targets.end()),
                    targets.end());
      auto is_target = [&](NodeIndex u) {
        return std::binary_search(targets.begin(), targets.end(), u);
      };
      const CsrSearch want =
          RunSearch(g, seeds, is_target, zero, scratch_base);
      const CsrSearch got =
          RunSearchAlt(g, seeds, is_target, targets, kMinWeight, scratch_alt);
      ASSERT_EQ(want.found, got.found);
      if (!want.found) continue;
      EXPECT_EQ(want.reached, got.reached);
      EXPECT_EQ(want.cost, got.cost);
      EXPECT_EQ(ReconstructPath(scratch_base, want.reached),
                ReconstructPath(scratch_alt, got.reached));
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot v3: the landmark section must survive both load paths, degrade
// for legacy writers, and fail loudly when damaged.

TEST(LandmarkSnapshotTest, RoundTripsThroughBothLoadPaths) {
  const Digraph mutable_g = MakeRandomGraph(53, 120, 3);
  const CompactGraph frozen = FreezeWithLandmarks(mutable_g, 5);
  const size_t k = frozen.num_landmarks();
  ASSERT_GT(k, 0u);
  const std::string path = SnapshotPath("landmarks_roundtrip.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());

  auto copied = LoadGraphSnapshot(path);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  auto mapped = LoadGraphSnapshotMapped(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped.value().is_mapped());

  for (const CompactGraph* loaded :
       {&copied.value(), &mapped.value()}) {
    ASSERT_EQ(loaded->num_landmarks(), k);
    ASSERT_TRUE(std::equal(frozen.landmark_nodes().begin(),
                           frozen.landmark_nodes().end(),
                           loaded->landmark_nodes().begin(),
                           loaded->landmark_nodes().end()));
    for (NodeIndex u = 0; u < frozen.num_nodes(); ++u) {
      const auto want_from = frozen.LandmarkFrom(u);
      const auto got_from = loaded->LandmarkFrom(u);
      const auto want_to = frozen.LandmarkTo(u);
      const auto got_to = loaded->LandmarkTo(u);
      ASSERT_TRUE(std::equal(want_from.begin(), want_from.end(),
                             got_from.begin(), got_from.end()));
      ASSERT_TRUE(std::equal(want_to.begin(), want_to.end(),
                             got_to.begin(), got_to.end()));
    }
    // SizeBytes must count the landmark columns on every load path (the
    // ModelCache budgets against it).
    EXPECT_EQ(loaded->SizeBytes(), frozen.SizeBytes());
  }

  // The accelerated search over the mapped graph still equals the
  // baseline over the original.
  const std::vector<NodeId> ids = AllIds(mutable_g);
  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const NodeId s = ids[rng.UniformInt(0, ids.size() - 1)];
    const NodeId t = ids[rng.UniformInt(0, ids.size() - 1)];
    auto want = Dijkstra(frozen, s, t);
    auto got = DijkstraAlt(mapped.value(), s, t, kMinWeight);
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_EQ(want.value().cost, got.value().cost);
      EXPECT_EQ(want.value().nodes, got.value().nodes);
    }
  }
  std::remove(path.c_str());
}

TEST(LandmarkSnapshotTest, AttachGrowsSizeBytes) {
  const Digraph mutable_g = MakeRandomGraph(59, 60, 2);
  CompactGraph g = mutable_g.Freeze(/*keep_attrs=*/false);
  const size_t before = g.SizeBytes();
  auto set = ComputeLandmarks(g, 4);
  ASSERT_TRUE(set.ok());
  const size_t k = set.value().nodes.size();
  ASSERT_TRUE(g.AttachLandmarks(set.MoveValue()).ok());
  // nodes + two double columns of k * n each.
  EXPECT_EQ(g.SizeBytes(),
            before + k * sizeof(NodeIndex) +
                2 * k * g.num_nodes() * sizeof(double));
}

TEST(LandmarkSnapshotTest, LegacyV2FilesLoadWithZeroLandmarks) {
  // A writer pinned at version 2 produces a pre-landmark file; both load
  // paths must accept it and degrade to the zero-heuristic baseline.
  const CompactGraph frozen =
      MakeRandomGraph(61, 50, 2).Freeze(/*keep_attrs=*/false);
  const std::string path = SnapshotPath("landmarks_v2.snap");
  SnapshotWriter writer(/*version=*/2);
  AppendGraphSection(writer, frozen);
  ASSERT_TRUE(writer.WriteToFile(path, SnapshotKind::kCompactGraph).ok());
  auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().version, 2u);

  for (auto* load : {&LoadGraphSnapshot, &LoadGraphSnapshotMapped}) {
    auto loaded = (*load)(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().num_landmarks(), 0u);
    // RunSearchAlt on a landmark-less graph is the plain baseline.
    const NodeId s = frozen.IdOf(0);
    const NodeId t = frozen.IdOf(frozen.num_nodes() - 1);
    auto want = Dijkstra(loaded.value(), s, t);
    auto got = DijkstraAlt(loaded.value(), s, t, kMinWeight);
    ASSERT_EQ(want.ok(), got.ok());
    if (want.ok()) {
      EXPECT_EQ(want.value().cost, got.value().cost);
      EXPECT_EQ(want.value().nodes, got.value().nodes);
      EXPECT_EQ(want.value().expanded, got.value().expanded);
    }
  }
  std::remove(path.c_str());
}

TEST(LandmarkSnapshotTest, TamperedLandmarkSectionIsRejected) {
  // 0xFF-filling a chunk of the landmark `to` column turns its doubles
  // into NaNs. The copying loader rejects via the payload checksum; the
  // mapped loader skips the checksum by design, so the structural NaN
  // scan in ValidateLandmarks must be what refuses to serve the file.
  const Digraph mutable_g = MakeRandomGraph(67, 150, 3);
  const CompactGraph frozen = FreezeWithLandmarks(mutable_g, 4);
  ASSERT_GT(frozen.num_landmarks(), 0u);
  const std::string path = SnapshotPath("landmarks_tamper.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
  const auto file_size = std::filesystem::file_size(path);
  {
    // The `to` array is the last payload array; the trailer is the 8-byte
    // checksum. A 256-byte 0xFF splat ending 72 bytes before EOF lands
    // well inside it (k * n * 8 bytes >= 4 * 150 * 8 = 4800).
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(file_size) - 72 - 256);
    std::vector<char> junk(256, static_cast<char>(0xFF));
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_FALSE(LoadGraphSnapshot(path).ok());
  EXPECT_FALSE(LoadGraphSnapshotMapped(path).ok());
  std::remove(path.c_str());
}

TEST(LandmarkSnapshotTest, TruncatedV3FileIsRejected) {
  const Digraph mutable_g = MakeRandomGraph(71, 100, 3);
  const CompactGraph frozen = FreezeWithLandmarks(mutable_g, 4);
  const std::string path = SnapshotPath("landmarks_trunc.snap");
  ASSERT_TRUE(SaveGraphSnapshot(frozen, path).ok());
  // Cut inside the landmark block (the last few percent of the file).
  const auto file_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, file_size - file_size / 20);
  EXPECT_FALSE(LoadGraphSnapshot(path).ok());
  EXPECT_FALSE(LoadGraphSnapshotMapped(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace habit::graph
