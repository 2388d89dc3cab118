// HabitFramework: the end-to-end public facade. Build it once from
// historical trips (Sections 3.1-3.2) — construction assembles the
// transition graph straight into the CSR CompactGraph — then answer
// imputation queries (Sections 3.3-3.4) against the frozen graph.
//
//   habit::core::HabitConfig config;            // r, p, t, ...
//   auto fw = habit::core::HabitFramework::Build(trips, config);
//   auto fill = fw->Impute(gap_start, gap_end, t0, t1);
#pragma once

#include <memory>
#include <vector>

#include "ais/ais.h"
#include "core/status.h"
#include "graph/compact_graph.h"
#include "habit/config.h"
#include "habit/imputer.h"

namespace habit::core {

/// \brief A built HABIT model: frozen transition graph + imputer.
class HabitFramework {
 public:
  /// Builds the framework from preprocessed trips (the training split).
  static Result<std::unique_ptr<HabitFramework>> Build(
      const std::vector<ais::Trip>& trips, const HabitConfig& config);

  /// Wraps an already-frozen graph (e.g. loaded from a binary snapshot by
  /// graph::LoadGraphSnapshot, or from CSV by LoadGraphCsv and frozen) —
  /// the snapshot path is the O(read) cold start: no rebuild, no
  /// re-freeze. The caller's config must describe how the
  /// graph was built (resolution, projection); edge weights are served
  /// from the snapshot verbatim.
  static Result<std::unique_ptr<HabitFramework>> FromFrozen(
      graph::CompactGraph graph, const HabitConfig& config);

  /// Imputes the gap between two boundary reports (coordinates + times).
  Result<Imputation> Impute(const geo::LatLng& gap_start,
                            const geo::LatLng& gap_end, int64_t t_start = 0,
                            int64_t t_end = 0) const {
    return imputer_->Impute(gap_start, gap_end, t_start, t_end);
  }

  /// Same, reusing the caller's search scratch across a batch of queries.
  Result<Imputation> Impute(const geo::LatLng& gap_start,
                            const geo::LatLng& gap_end, int64_t t_start,
                            int64_t t_end,
                            Imputer::SearchScratch* scratch) const {
    return imputer_->Impute(gap_start, gap_end, t_start, t_end, scratch);
  }

  /// Imputes every gap in a degraded trip: consecutive reports more than
  /// `gap_threshold_s` apart are filled; returns the densified polyline of
  /// the full trip.
  Result<geo::Polyline> ImputeTrip(const ais::Trip& trip,
                                   int64_t gap_threshold_s = 30 * 60) const;

  /// The frozen transition graph all queries run against.
  const graph::CompactGraph& graph() const { return graph_; }
  const HabitConfig& config() const { return config_; }

  /// The underlying imputer, for callers that manage their own
  /// Imputer::SearchScratch across a batch of queries.
  const Imputer& imputer() const { return *imputer_; }

  /// \brief Computes `k` ALT landmarks over the frozen graph and attaches
  /// their distance columns (see graph/landmarks.h). Save-time work: the
  /// columns persist through SaveModelSnapshot into the v3 landmark
  /// section. O(k) full Dijkstras per direction.
  Status PrecomputeLandmarks(size_t k);

  /// Turns ALT acceleration on or off for subsequent queries; only
  /// effective when the graph carries landmark columns and the lattice
  /// bound does not hold (see Imputer). Either way,
  /// imputed outputs are identical — landmarks change search effort only.
  void set_use_landmarks(bool on) { imputer_->set_use_landmarks(on); }

  /// In-memory model footprint in bytes (the CSR arrays).
  size_t SizeBytes() const { return graph_.SizeBytes(); }

  /// Persisted-model footprint in bytes (Table 2's "framework storage
  /// size"): the node and edge statistic rows.
  size_t SerializedSizeBytes() const { return graph_.SerializedSizeBytes(); }

 private:
  HabitFramework(graph::CompactGraph graph, const HabitConfig& config);

  graph::CompactGraph graph_;
  HabitConfig config_;
  std::unique_ptr<Imputer> imputer_;
};

}  // namespace habit::core
