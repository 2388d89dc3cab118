// The unified imputation query surface. Every method in the repo — HABIT,
// its vessel-type-aware variant, and the GTI / PaLMTO / SLI baselines —
// is served behind one polymorphic ImputationModel, so benches, examples,
// tests, and (eventually) a serving frontend program against a single
// stable interface instead of per-method signatures.
//
//   auto model = habit::api::MakeModel("habit:r=9,p=w", train_trips);
//   habit::api::ImputeRequest req{gap_start, gap_end, t0, t1};
//   auto response = (*model)->Impute(req);
//
// Models are constructed by name through the ModelRegistry (registry.h);
// batch workloads go through ImputeBatch, which lets implementations
// amortize per-query state (HABIT reuses its A* search scratch).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ais/ais.h"
#include "core/status.h"
#include "geo/polyline.h"

namespace habit::api {

/// \brief One imputation query: a reporting gap to fill.
///
/// Subsumes every per-method signature: gap endpoints (all methods),
/// boundary timestamps (methods with a time model assign per-point times),
/// and an optional vessel type (routes type-aware models to the matching
/// per-type graph; typeless models ignore it).
struct ImputeRequest {
  geo::LatLng gap_start;  ///< last reported position before the gap
  geo::LatLng gap_end;    ///< first reported position after the gap
  int64_t t_start = 0;    ///< timestamp of gap_start, unix seconds
  int64_t t_end = 0;      ///< timestamp of gap_end, unix seconds
  /// Vessel type of the querying vessel, when known.
  std::optional<ais::VesselType> vessel_type;
  /// Identity (MMSI) of the querying vessel, when known. Metadata only:
  /// no model conditions on it — it feeds the serving layer's
  /// distinct-vessel HyperLogLog, so it must never affect imputation
  /// output (byte-identity across the router depends on that).
  std::optional<int64_t> vessel_id;
};

/// \brief Validates a request before it reaches any model.
///
/// kInvalidArgument when either endpoint is non-finite or outside valid
/// geographic bounds, or when the time span is negative (t_end < t_start;
/// an empty span t_end == t_start is legal — such requests carry no time
/// model and get no interpolated timestamps). Every adapter's Impute /
/// ImputeBatch applies this uniformly, and the serving frontend rejects
/// invalid requests before resolving a model, so garbage input never
/// reaches H3 indexing or timestamp interpolation — and never triggers a
/// multi-second snapshot load.
Status ValidateRequest(const ImputeRequest& request);

/// \brief One imputed gap fill.
struct ImputeResponse {
  /// The imputed path, starting at the gap start point and ending at the
  /// gap end point.
  geo::Polyline path;
  /// Timestamps assigned to `path` points by arc-length interpolation
  /// between the boundary times (same size as `path`; empty when the
  /// request carried no time span).
  std::vector<int64_t> timestamps;
  /// Search effort (settled nodes / generated tokens), 0 when the method
  /// does not search. For HABIT on a lattice-valid graph: the nodes the
  /// corridor replay settled (graph::RunSearchCorridor), probe excluded.
  size_t expanded = 0;
};

/// \brief Abstract imputation method: built once from training trips,
/// queried many times.
///
/// Implementations adapt the concrete frameworks (see adapters.h) and are
/// constructed through the ModelRegistry. All queries are const and safe
/// to issue repeatedly; per-query failures (unreachable endpoints, query
/// timeouts) surface as non-OK Results, never as exceptions.
class ImputationModel {
 public:
  virtual ~ImputationModel() = default;

  /// Display name of the method ("HABIT", "GTI", ...).
  virtual std::string Name() const = 0;

  /// Human-readable parameterization ("r=9 t=250 p=w"), stable per model.
  virtual std::string Configuration() const = 0;

  /// Answers one imputation query.
  virtual Result<ImputeResponse> Impute(const ImputeRequest& request) const = 0;

  /// \brief Answers a batch of queries; result i corresponds to request i.
  ///
  /// The default implementation loops over Impute. Overrides may amortize
  /// per-query overhead (HABIT reuses one A* search scratch across the
  /// whole batch). When `query_seconds` is non-null it receives the
  /// per-query wall time (one entry per request, including failed ones) —
  /// the latency the paper's Table 4 reports.
  virtual std::vector<Result<ImputeResponse>> ImputeBatch(
      std::span<const ImputeRequest> requests,
      std::vector<double>* query_seconds = nullptr) const;

  /// Wall-clock seconds the model took to build (0 for buildless methods).
  double BuildSeconds() const { return build_seconds_; }

  /// In-memory model footprint in bytes.
  virtual size_t SizeBytes() const = 0;

  /// Persisted-model footprint in bytes (Table 2's "storage size").
  /// Defaults to the in-memory footprint for methods without a dedicated
  /// serialization format.
  virtual size_t SerializedSizeBytes() const { return SizeBytes(); }

 protected:
  /// Set by factories after timing the build.
  double build_seconds_ = 0;
};

}  // namespace habit::api
