#include "baselines/gti.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/digraph.h"
#include "graph/snapshot.h"

namespace habit::baselines {

namespace {

// Rebuilds the KD-tree over a loaded point store. KdTree::Build is
// deterministic for a fixed point order, so snapping — and therefore
// imputation output — matches the saved model exactly.
void BuildKdTree(const std::vector<geo::LatLng>& points,
                 graph::KdTree* kdtree) {
  std::vector<std::pair<geo::LatLng, uint64_t>> indexed;
  indexed.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    indexed.emplace_back(points[i], static_cast<uint64_t>(i));
  }
  kdtree->Build(indexed);
}

}  // namespace

Result<std::unique_ptr<GtiModel>> GtiModel::Build(
    const std::vector<ais::Trip>& trips, const GtiConfig& config) {
  if (trips.empty()) {
    return Status::NotFound("cannot build GTI from zero trips");
  }
  auto model = std::unique_ptr<GtiModel>(new GtiModel());
  model->config_ = config;

  // Collect (optionally thinned) points and the sequential edges.
  std::vector<std::pair<int32_t, int32_t>> seq_edges;
  for (const ais::Trip& trip : trips) {
    int32_t prev = -1;
    int64_t last_ts = 0;
    for (const ais::AisRecord& r : trip.points) {
      // prev < 0 means no point kept yet for this trip (guards the ts
      // difference against overflow on a sentinel).
      if (config.resample_seconds > 0 && prev >= 0 &&
          r.ts - last_ts < config.resample_seconds) {
        continue;
      }
      last_ts = r.ts;
      const int32_t idx = static_cast<int32_t>(model->points_.size());
      model->points_.push_back(r.pos);
      if (prev >= 0) seq_edges.emplace_back(prev, idx);
      prev = idx;
    }
  }

  // KD-tree over all points for candidate search and endpoint snapping.
  BuildKdTree(model->points_, &model->kdtree_);

  // Assemble the point graph mutably (node id == point index), then freeze
  // to the CSR form the shared search engine runs on. Digraph::AddEdge
  // replaces duplicates, so re-adding an edge is harmless.
  graph::Digraph builder;
  for (size_t i = 0; i < model->points_.size(); ++i) {
    builder.AddNode(static_cast<graph::NodeId>(i));
  }
  auto add_edge = [&](int32_t u, int32_t v) {
    if (u == v) return;
    const double d =
        geo::HaversineMeters(model->points_[u], model->points_[v]);
    builder.AddEdge(static_cast<graph::NodeId>(u),
                    static_cast<graph::NodeId>(v), {.weight = d});
    builder.AddEdge(static_cast<graph::NodeId>(v),
                    static_cast<graph::NodeId>(u), {.weight = d});
  };
  for (const auto& [u, v] : seq_edges) add_edge(u, v);

  // Candidate cross-trip edges: neighbors within rm meters AND within the
  // rd-degree box. The degree radius is GTI's dominant density/size knob.
  const double rd_m_equiv =
      config.rd_degrees * 111320.0;  // ~meters per degree latitude
  const double radius = std::min(config.rm_meters, rd_m_equiv);
  for (size_t i = 0; i < model->points_.size(); ++i) {
    const geo::LatLng& p = model->points_[i];
    for (const uint64_t j : model->kdtree_.WithinRadius(p, radius)) {
      if (j <= i) continue;
      const geo::LatLng& q = model->points_[j];
      if (std::fabs(p.lat - q.lat) > config.rd_degrees ||
          std::fabs(p.lng - q.lng) > config.rd_degrees) {
        continue;
      }
      add_edge(static_cast<int32_t>(i), static_cast<int32_t>(j));
    }
  }
  model->graph_ = builder.Freeze(/*keep_attrs=*/false);
  return model;
}

Result<geo::Polyline> GtiModel::Impute(const geo::LatLng& gap_start,
                                       const geo::LatLng& gap_end,
                                       graph::SearchScratch* scratch) const {
  if (points_.empty()) return Status::Internal("empty GTI model");
  uint64_t src_id = 0, dst_id = 0;
  kdtree_.Nearest(gap_start, &src_id);
  kdtree_.Nearest(gap_end, &dst_id);

  // Point ids are the dense 0..n-1 range, so id == index after freezing.
  const graph::NodeIndex src = graph_.IndexOf(src_id);
  const graph::NodeIndex dst = graph_.IndexOf(dst_id);

  graph::SearchScratch local;
  graph::SearchScratch& state = scratch != nullptr ? *scratch : local;
  const graph::SearchSeed seed{src, 0.0};
  const graph::CsrSearch run = graph::RunSearch(
      graph_, {&seed, 1}, [dst](graph::NodeIndex u) { return u == dst; },
      [](graph::NodeIndex) { return 0.0; }, state);
  if (!run.found) {
    return Status::Unreachable("GTI: endpoints not connected");
  }

  // Bracket the point path with the true endpoints.
  geo::Polyline out;
  out.push_back(gap_start);
  for (const graph::NodeIndex i : graph::ReconstructPath(state, run.reached)) {
    out.push_back(points_[graph_.IdOf(i)]);
  }
  out.push_back(gap_end);
  return out;
}

Status GtiModel::Save(const std::string& path) const {
  graph::SnapshotWriter writer;
  writer.F64(config_.rm_meters);
  writer.F64(config_.rd_degrees);
  writer.I64(config_.resample_seconds);
  writer.Array(points_);
  graph::AppendGraphSection(writer, graph_);
  return writer.WriteToFile(path, graph::SnapshotKind::kGti);
}

Result<std::unique_ptr<GtiModel>> GtiModel::Load(const std::string& path,
                                                 bool mapped) {
  HABIT_ASSIGN_OR_RETURN(
      graph::SnapshotReader reader,
      mapped
          ? graph::SnapshotReader::FromFileMapped(path,
                                                  graph::SnapshotKind::kGti)
          : graph::SnapshotReader::FromFile(path,
                                            graph::SnapshotKind::kGti));
  auto model = std::unique_ptr<GtiModel>(new GtiModel());
  HABIT_ASSIGN_OR_RETURN(model->config_.rm_meters, reader.F64());
  HABIT_ASSIGN_OR_RETURN(model->config_.rd_degrees, reader.F64());
  HABIT_ASSIGN_OR_RETURN(model->config_.resample_seconds, reader.I64());
  HABIT_RETURN_NOT_OK(reader.Array(&model->points_));
  HABIT_ASSIGN_OR_RETURN(model->graph_, graph::ReadGraphSection(reader));
  if (!reader.AtEnd()) {
    return Status::IoError("GTI snapshot '" + path + "' has trailing bytes");
  }
  // Node ids must be exactly the dense point-index range 0..n-1 (Impute
  // indexes points_ by IdOf). Ids are strictly ascending after the graph
  // section validation, so checking the count and the last id suffices.
  const size_t n = model->points_.size();
  if (model->graph_.num_nodes() != n ||
      (n > 0 && model->graph_.IdOf(static_cast<graph::NodeIndex>(n - 1)) !=
                    static_cast<graph::NodeId>(n - 1))) {
    return Status::IoError("GTI snapshot '" + path +
                           "': point graph does not cover the point store");
  }
  BuildKdTree(model->points_, &model->kdtree_);
  return model;
}

size_t GtiModel::SerializedSizeBytes() const {
  // Point row: lat + lng (16). Adjacency entry: neighbor index (4) +
  // length (4).
  return points_.size() * 16 + graph_.num_edges() * 8;
}

size_t GtiModel::SizeBytes() const {
  return points_.size() * sizeof(geo::LatLng) + graph_.SizeBytes() +
         kdtree_.SizeBytes();
}

}  // namespace habit::baselines
