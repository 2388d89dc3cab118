#include "habit/framework.h"

#include "graph/landmarks.h"
#include "habit/graph_builder.h"

namespace habit::core {

HabitFramework::HabitFramework(graph::CompactGraph graph,
                               const HabitConfig& config)
    : graph_(std::move(graph)), config_(config) {
  imputer_ = std::make_unique<Imputer>(&graph_, config_);
}

Result<std::unique_ptr<HabitFramework>> HabitFramework::Build(
    const std::vector<ais::Trip>& trips, const HabitConfig& config) {
  if (trips.empty()) {
    return Status::NotFound("cannot build HABIT from zero trips");
  }
  HABIT_ASSIGN_OR_RETURN(graph::CompactGraph g,
                         BuildGraphFromTrips(trips, config));
  return FromFrozen(std::move(g), config);
}

Result<std::unique_ptr<HabitFramework>> HabitFramework::FromFrozen(
    graph::CompactGraph graph, const HabitConfig& config) {
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot serve an empty graph");
  }
  if (!graph.has_attrs()) {
    return Status::InvalidArgument(
        "HABIT needs a graph frozen with attributes (node medians drive "
        "snapping and projection)");
  }
  return std::unique_ptr<HabitFramework>(
      new HabitFramework(std::move(graph), config));
}

Status HabitFramework::PrecomputeLandmarks(size_t k) {
  HABIT_ASSIGN_OR_RETURN(graph::LandmarkSet set,
                         graph::ComputeLandmarks(graph_, k));
  return graph_.AttachLandmarks(std::move(set));
}

Result<geo::Polyline> HabitFramework::ImputeTrip(
    const ais::Trip& trip, int64_t gap_threshold_s) const {
  geo::Polyline out;
  const auto& pts = trip.points;
  if (pts.empty()) return out;
  out.push_back(pts[0].pos);
  for (size_t i = 1; i < pts.size(); ++i) {
    const int64_t dt = pts[i].ts - pts[i - 1].ts;
    if (dt > gap_threshold_s) {
      auto fill = Impute(pts[i - 1].pos, pts[i].pos, pts[i - 1].ts, pts[i].ts);
      if (fill.ok()) {
        // Interior imputed points (path includes both boundary points).
        const geo::Polyline& path = fill.value().path;
        for (size_t k = 1; k + 1 < path.size(); ++k) out.push_back(path[k]);
      }
      // On unreachable gaps, fall through to the straight connection.
    }
    out.push_back(pts[i].pos);
  }
  return out;
}

}  // namespace habit::core
