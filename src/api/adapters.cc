#include "api/adapters.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "baselines/sli.h"
#include "core/stopwatch.h"
#include "geo/latlng.h"
#include "graph/compact_graph.h"
#include "habit/serialize.h"
#include "hexgrid/hexgrid.h"

namespace habit::api {

namespace {

// Arc-length timestamp interpolation across the gap duration, shared by the
// baseline adapters (HABIT computes its own inside the imputer).
std::vector<int64_t> InterpolateTimestamps(const geo::Polyline& path,
                                           int64_t t_start, int64_t t_end) {
  std::vector<int64_t> out(path.size(), t_start);
  if (path.empty() || t_end <= t_start) return {};
  const double total = geo::PolylineLengthMeters(path);
  if (total <= 0) {
    out.back() = t_end;
    return out;
  }
  double acc = 0;
  for (size_t i = 1; i < path.size(); ++i) {
    acc += geo::HaversineMeters(path[i - 1], path[i]);
    out[i] = t_start + static_cast<int64_t>(std::llround(
                           (t_end - t_start) * (acc / total)));
  }
  return out;
}

ImputeResponse ResponseFromPath(geo::Polyline path,
                                const ImputeRequest& request) {
  ImputeResponse response;
  response.timestamps =
      InterpolateTimestamps(path, request.t_start, request.t_end);
  response.path = std::move(path);
  return response;
}

ImputeResponse ResponseFromImputation(core::Imputation imputation) {
  ImputeResponse response;
  response.path = std::move(imputation.path);
  response.timestamps = std::move(imputation.timestamps);
  response.expanded = imputation.expanded;
  return response;
}

// Shared HABIT parameter block ("habit" and "habit_typed").
const std::vector<std::string> kHabitKeys = {
    "r", "p", "t", "cost", "expand", "snap"};

// Persistence spec parameters, shared by every snapshot-capable method:
// "load=<path>" cold-starts the model from a binary snapshot (the trips
// argument may be empty), "save=<path>" writes one after the build. Both
// may be given to convert a freshly trained model into an artifact.
// "map=1" serves the snapshot zero-copy from an mmap'd view instead of
// heap copies (O(page-in) cold start); it is a serving parameter and only
// meaningful with load=.
const char kSaveKey[] = "save";
const char kLoadKey[] = "load";
const char kMapKey[] = "map";

// ALT landmark parameters (habit only): "landmarks=<k>" precomputes k
// landmark distance columns at save time (they persist in the snapshot v3
// landmark section), "alt=1" enables the landmark-accelerated search when
// serving a loaded snapshot whose graph the hex-lattice bound does not
// cover (habit/imputer.h; e.g. cost=invfreq). alt changes search effort,
// never output — imputed paths are identical with and without it.
const char kLandmarksKey[] = "landmarks";
const char kAltKey[] = "alt";

// map=1 without a snapshot is meaningless (a freshly built model is
// heap-resident by construction), so any map parameter requires load=.
Result<bool> ParseMapped(const MethodSpec& spec) {
  if (spec.params.contains(kMapKey) &&
      spec.GetString(kLoadKey, "").empty()) {
    return Status::InvalidArgument("parameter map= requires load= (only a "
                                   "snapshot can be memory-mapped)");
  }
  HABIT_ASSIGN_OR_RETURN(const int map, spec.GetInt(kMapKey, 0));
  return map != 0;
}

// Snapshots embed the build configuration, so build parameters alongside
// load= would be silently ignored — reject the combination instead so a
// spec never aliases two different models. `serving_keys` lists parameters
// that do NOT describe the build (e.g. map=) and stay legal.
Status RejectBuildParamsWithLoad(
    const MethodSpec& spec,
    const std::vector<std::string>& serving_keys = {}) {
  for (const auto& [key, value] : spec.params) {
    if (key == kSaveKey || key == kLoadKey) continue;
    if (std::find(serving_keys.begin(), serving_keys.end(), key) !=
        serving_keys.end()) {
      continue;
    }
    return Status::InvalidArgument(
        "parameter '" + key + "' conflicts with load= (the snapshot "
        "carries the build configuration)");
  }
  return Status::OK();
}

// Runs `impute_one(request, &scratch)` over every request, serially, with
// one flat SearchScratch for the whole batch (generation stamps make the
// per-query reset free). Per-query wall times land in `query_seconds`
// aligned with the requests. Parallelism is the caller's business: the
// server partitions a frame's batch across its WorkerPool, one call here
// per chunk.
//
// Batch-level locality: requests are processed in ascending H3-cell order
// of their gap start at the model's `resolution`. H3 indices order
// hierarchically (a child shares its parent's bit prefix), so the sorted
// sequence approximates a space-filling curve over the globe — successive
// searches keep revisiting the same CSR rows and landmark columns instead
// of striding the whole graph between queries. Responses and per-query
// times are still written at their original indices, so the output order
// is exactly the input order.
template <typename ImputeOneFn>
std::vector<Result<ImputeResponse>> RunImputeBatch(
    std::span<const ImputeRequest> requests, int resolution,
    std::vector<double>* query_seconds, const ImputeOneFn& impute_one) {
  const size_t n = requests.size();
  std::vector<Result<ImputeResponse>> responses(
      n, Result<ImputeResponse>(Status::Internal("request not processed")));
  std::vector<double> seconds(n, 0.0);
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  // stable_sort keeps the input order within a cell (and for the invalid
  // coordinates that map to kInvalidCell), so scheduling is deterministic.
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return hex::LatLngToCell(requests[a].gap_start, resolution) <
           hex::LatLngToCell(requests[b].gap_start, resolution);
  });
  core::Imputer::SearchScratch scratch;
  for (const uint32_t i : order) {
    Stopwatch sw;
    const Status valid = ValidateRequest(requests[i]);
    if (!valid.ok()) {
      responses[i] = valid;
      seconds[i] = sw.ElapsedSeconds();
      continue;
    }
    auto imputation = impute_one(requests[i], &scratch);
    if (imputation.ok()) {
      responses[i] = ResponseFromImputation(imputation.MoveValue());
    } else {
      responses[i] = imputation.status();
    }
    seconds[i] = sw.ElapsedSeconds();
  }
  if (query_seconds != nullptr) *query_seconds = std::move(seconds);
  return responses;
}

Result<core::HabitConfig> ParseHabitConfig(const MethodSpec& spec) {
  core::HabitConfig config;
  HABIT_ASSIGN_OR_RETURN(config.resolution,
                         spec.GetInt("r", config.resolution));
  // Checked here, not at build time: a build with zero trips stops before
  // the resolution is used, so an empty-base epoch pipeline would start
  // and fail only at its first rollover.
  if (config.resolution < 0 || config.resolution > hex::kMaxResolution) {
    return Status::InvalidArgument(
        "r=" + std::to_string(config.resolution) + " (expected 0.." +
        std::to_string(hex::kMaxResolution) + ")");
  }
  HABIT_ASSIGN_OR_RETURN(config.rdp_tolerance_m,
                         spec.GetDouble("t", config.rdp_tolerance_m));
  HABIT_ASSIGN_OR_RETURN(config.max_snap_ring,
                         spec.GetInt("snap", config.max_snap_ring));

  const std::string p = spec.GetString("p", "");
  if (p == "c") {
    config.projection = core::Projection::kCellCenter;
  } else if (p == "w") {
    config.projection = core::Projection::kDataMedian;
  } else if (!p.empty()) {
    return Status::InvalidArgument("projection p=" + p +
                                   " (expected c or w)");
  }

  const std::string cost = spec.GetString("cost", "");
  if (cost == "hops") {
    config.edge_cost = core::EdgeCostPolicy::kHops;
  } else if (cost == "invfreq") {
    config.edge_cost = core::EdgeCostPolicy::kInverseFrequency;
  } else if (cost == "hopsfreq") {
    config.edge_cost = core::EdgeCostPolicy::kHopsThenFrequency;
  } else if (!cost.empty()) {
    return Status::InvalidArgument(
        "cost=" + cost + " (expected hops, invfreq, or hopsfreq)");
  }

  HABIT_ASSIGN_OR_RETURN(const int expand, spec.GetInt("expand", 1));
  config.expand_transitions = expand != 0;
  return config;
}

std::string HabitConfigurationString(const core::HabitConfig& config) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "r=%d t=%d p=%s", config.resolution,
                static_cast<int>(config.rdp_tolerance_m),
                core::ProjectionToString(config.projection));
  return buf;
}

/// "gti": adapter over baselines::GtiModel.
class GtiAdapter : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
    HABIT_RETURN_NOT_OK(spec.CheckKnownKeys(
        {"rm", "rd", "resample", kSaveKey, kLoadKey, kMapKey}));
    HABIT_ASSIGN_OR_RETURN(const bool mapped, ParseMapped(spec));
    const std::string load_path = spec.GetString(kLoadKey, "");
    Stopwatch build_timer;
    std::unique_ptr<baselines::GtiModel> model;
    if (!load_path.empty()) {
      HABIT_RETURN_NOT_OK(RejectBuildParamsWithLoad(spec, {kMapKey}));
      HABIT_ASSIGN_OR_RETURN(model,
                             baselines::GtiModel::Load(load_path, mapped));
    } else {
      baselines::GtiConfig config;
      HABIT_ASSIGN_OR_RETURN(config.rm_meters,
                             spec.GetDouble("rm", config.rm_meters));
      HABIT_ASSIGN_OR_RETURN(config.rd_degrees,
                             spec.GetDouble("rd", config.rd_degrees));
      HABIT_ASSIGN_OR_RETURN(
          config.resample_seconds,
          spec.GetInt64("resample", config.resample_seconds));
      HABIT_ASSIGN_OR_RETURN(model, baselines::GtiModel::Build(trips, config));
    }
    const std::string save_path = spec.GetString(kSaveKey, "");
    if (!save_path.empty()) {
      HABIT_RETURN_NOT_OK(model->Save(save_path));
    }
    const baselines::GtiConfig config = model->config();
    auto adapter = std::unique_ptr<ImputationModel>(
        new GtiAdapter(std::move(model), config));
    static_cast<GtiAdapter*>(adapter.get())->build_seconds_ =
        build_timer.ElapsedSeconds();
    return adapter;
  }

  std::string Name() const override { return "GTI"; }
  std::string Configuration() const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "rm=%.0f rd=%.0e", config_.rm_meters,
                  config_.rd_degrees);
    return buf;
  }
  Result<ImputeResponse> Impute(const ImputeRequest& request) const override {
    HABIT_RETURN_NOT_OK(ValidateRequest(request));
    HABIT_ASSIGN_OR_RETURN(
        geo::Polyline path,
        model_->Impute(request.gap_start, request.gap_end));
    return ResponseFromPath(std::move(path), request);
  }
  std::vector<Result<ImputeResponse>> ImputeBatch(
      std::span<const ImputeRequest> requests,
      std::vector<double>* query_seconds) const override {
    // One search scratch for the whole batch (generation stamps make the
    // per-query reset free).
    std::vector<Result<ImputeResponse>> responses;
    responses.reserve(requests.size());
    if (query_seconds != nullptr) {
      query_seconds->clear();
      query_seconds->reserve(requests.size());
    }
    graph::SearchScratch scratch;
    for (const ImputeRequest& request : requests) {
      Stopwatch sw;
      auto response = [&]() -> Result<ImputeResponse> {
        HABIT_RETURN_NOT_OK(ValidateRequest(request));
        HABIT_ASSIGN_OR_RETURN(
            geo::Polyline path,
            model_->Impute(request.gap_start, request.gap_end, &scratch));
        return ResponseFromPath(std::move(path), request);
      }();
      responses.push_back(std::move(response));
      if (query_seconds != nullptr) {
        query_seconds->push_back(sw.ElapsedSeconds());
      }
    }
    return responses;
  }
  size_t SizeBytes() const override { return model_->SizeBytes(); }
  size_t SerializedSizeBytes() const override {
    return model_->SerializedSizeBytes();
  }

 private:
  GtiAdapter(std::unique_ptr<baselines::GtiModel> model,
             const baselines::GtiConfig& config)
      : model_(std::move(model)), config_(config) {}

  std::unique_ptr<baselines::GtiModel> model_;
  baselines::GtiConfig config_;
};

/// "palmto": adapter over baselines::PalmtoModel.
class PalmtoAdapter : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
    HABIT_RETURN_NOT_OK(spec.CheckKnownKeys({"r", "n", "timeout",
                                             "max_tokens", "seed", kSaveKey,
                                             kLoadKey, kMapKey}));
    HABIT_ASSIGN_OR_RETURN(const bool mapped, ParseMapped(spec));
    const std::string load_path = spec.GetString(kLoadKey, "");
    Stopwatch build_timer;
    std::unique_ptr<baselines::PalmtoModel> model;
    if (!load_path.empty()) {
      // timeout= and max_tokens= are per-query generation budgets, not
      // build configuration — they stay overridable on a loaded model.
      HABIT_RETURN_NOT_OK(
          RejectBuildParamsWithLoad(spec, {"timeout", "max_tokens", kMapKey}));
      HABIT_ASSIGN_OR_RETURN(
          model, baselines::PalmtoModel::Load(load_path, mapped));
      HABIT_ASSIGN_OR_RETURN(
          const double timeout,
          spec.GetDouble("timeout", model->config().timeout_seconds));
      HABIT_ASSIGN_OR_RETURN(
          const int max_tokens,
          spec.GetInt("max_tokens", model->config().max_tokens));
      model->set_timeout_seconds(timeout);
      model->set_max_tokens(max_tokens);
    } else {
      baselines::PalmtoConfig config;
      HABIT_ASSIGN_OR_RETURN(config.resolution,
                             spec.GetInt("r", config.resolution));
      HABIT_ASSIGN_OR_RETURN(config.n, spec.GetInt("n", config.n));
      HABIT_ASSIGN_OR_RETURN(
          config.timeout_seconds,
          spec.GetDouble("timeout", config.timeout_seconds));
      HABIT_ASSIGN_OR_RETURN(config.max_tokens,
                             spec.GetInt("max_tokens", config.max_tokens));
      HABIT_ASSIGN_OR_RETURN(
          const int64_t seed,
          spec.GetInt64("seed", static_cast<int64_t>(config.seed)));
      config.seed = static_cast<uint64_t>(seed);
      HABIT_ASSIGN_OR_RETURN(model,
                             baselines::PalmtoModel::Build(trips, config));
    }
    const std::string save_path = spec.GetString(kSaveKey, "");
    if (!save_path.empty()) {
      HABIT_RETURN_NOT_OK(model->Save(save_path));
    }
    const baselines::PalmtoConfig config = model->config();
    auto adapter = std::unique_ptr<ImputationModel>(
        new PalmtoAdapter(std::move(model), config));
    static_cast<PalmtoAdapter*>(adapter.get())->build_seconds_ =
        build_timer.ElapsedSeconds();
    return adapter;
  }

  std::string Name() const override { return "PaLMTO"; }
  std::string Configuration() const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "r=%d n=%d", config_.resolution,
                  config_.n);
    return buf;
  }
  Result<ImputeResponse> Impute(const ImputeRequest& request) const override {
    HABIT_RETURN_NOT_OK(ValidateRequest(request));
    HABIT_ASSIGN_OR_RETURN(
        geo::Polyline path,
        model_->Impute(request.gap_start, request.gap_end));
    return ResponseFromPath(std::move(path), request);
  }
  size_t SizeBytes() const override { return model_->SizeBytes(); }

 private:
  PalmtoAdapter(std::unique_ptr<baselines::PalmtoModel> model,
                const baselines::PalmtoConfig& config)
      : model_(std::move(model)), config_(config) {}

  std::unique_ptr<baselines::PalmtoModel> model_;
  baselines::PalmtoConfig config_;
};

/// "sli": the buildless straight-line baseline.
class SliAdapter : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
    (void)trips;  // SLI learns nothing from history
    HABIT_RETURN_NOT_OK(spec.CheckKnownKeys({"points"}));
    HABIT_ASSIGN_OR_RETURN(const int points, spec.GetInt("points", 0));
    if (points < 0) {
      return Status::InvalidArgument("points must be >= 0");
    }
    return std::unique_ptr<ImputationModel>(new SliAdapter(points));
  }

  std::string Name() const override { return "SLI"; }
  std::string Configuration() const override { return "-"; }
  Result<ImputeResponse> Impute(const ImputeRequest& request) const override {
    HABIT_RETURN_NOT_OK(ValidateRequest(request));
    return ResponseFromPath(
        baselines::StraightLineImpute(request.gap_start, request.gap_end,
                                      num_points_),
        request);
  }
  size_t SizeBytes() const override { return 0; }

 private:
  explicit SliAdapter(int num_points) : num_points_(num_points) {}

  int num_points_;
};

}  // namespace

Result<std::unique_ptr<ImputationModel>> HabitModel::Make(
    const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
  std::vector<std::string> keys = kHabitKeys;
  keys.insert(keys.end(), {kSaveKey, kLoadKey, kMapKey, kLandmarksKey,
                           kAltKey});
  HABIT_RETURN_NOT_OK(spec.CheckKnownKeys(keys));
  HABIT_ASSIGN_OR_RETURN(const bool mapped, ParseMapped(spec));
  const std::string load_path = spec.GetString(kLoadKey, "");
  const std::string save_path = spec.GetString(kSaveKey, "");
  // landmarks= is save-time precomputation: the columns only pay off when
  // they persist into a snapshot's v3 landmark section, so require save=.
  HABIT_ASSIGN_OR_RETURN(const int landmarks, spec.GetInt(kLandmarksKey, 0));
  if (spec.params.contains(kLandmarksKey)) {
    if (save_path.empty()) {
      return Status::InvalidArgument(
          "parameter landmarks= requires save= (landmark columns are "
          "precomputed into the snapshot)");
    }
    if (landmarks < 1 ||
        landmarks > static_cast<int>(graph::kMaxLandmarks)) {
      return Status::InvalidArgument(
          "landmarks must be in [1, " +
          std::to_string(graph::kMaxLandmarks) + "]");
    }
  }
  // alt=1 turns the landmark acceleration on at serve time; only a loaded
  // snapshot can carry landmark columns, so it requires load= (like map=).
  if (spec.params.contains(kAltKey) && load_path.empty()) {
    return Status::InvalidArgument(
        "parameter alt= requires load= (landmarks live in the snapshot)");
  }
  HABIT_ASSIGN_OR_RETURN(const int alt, spec.GetInt(kAltKey, 0));
  Stopwatch build_timer;
  std::unique_ptr<core::HabitFramework> framework;
  if (!load_path.empty()) {
    // O(read) cold start — O(page-in) with map=1, where the Imputer's
    // lattice-bound check pages in the id and edge arrays once. The
    // snapshot is self-describing (build config + frozen CSR arrays), so
    // build parameters alongside load= are rejected — a spec must never
    // serve a graph under a mismatched resolution or cost policy. map=
    // and alt= are serving parameters and stay legal.
    HABIT_RETURN_NOT_OK(RejectBuildParamsWithLoad(spec, {kMapKey, kAltKey}));
    HABIT_ASSIGN_OR_RETURN(framework,
                           core::LoadModelSnapshot(load_path, mapped));
  } else {
    HABIT_ASSIGN_OR_RETURN(const core::HabitConfig config,
                           ParseHabitConfig(spec));
    HABIT_ASSIGN_OR_RETURN(framework,
                           core::HabitFramework::Build(trips, config));
    if (landmarks > 0) {
      HABIT_RETURN_NOT_OK(
          framework->PrecomputeLandmarks(static_cast<size_t>(landmarks)));
    }
  }
  framework->set_use_landmarks(alt != 0);
  if (!save_path.empty()) {
    HABIT_RETURN_NOT_OK(core::SaveModelSnapshot(*framework, save_path));
  }
  auto model = std::unique_ptr<ImputationModel>(
      new HabitModel(std::move(framework)));
  static_cast<HabitModel*>(model.get())->build_seconds_ =
      build_timer.ElapsedSeconds();
  return model;
}

std::string HabitModel::Configuration() const {
  return HabitConfigurationString(framework_->config());
}

Result<ImputeResponse> HabitModel::Impute(const ImputeRequest& request) const {
  HABIT_RETURN_NOT_OK(ValidateRequest(request));
  HABIT_ASSIGN_OR_RETURN(
      core::Imputation imputation,
      framework_->Impute(request.gap_start, request.gap_end, request.t_start,
                         request.t_end));
  return ResponseFromImputation(std::move(imputation));
}

std::vector<Result<ImputeResponse>> HabitModel::ImputeBatch(
    std::span<const ImputeRequest> requests,
    std::vector<double>* query_seconds) const {
  const core::Imputer& imputer = framework_->imputer();
  return RunImputeBatch(
      requests, framework_->config().resolution, query_seconds,
      [&imputer](const ImputeRequest& request,
                 core::Imputer::SearchScratch* scratch) {
        return imputer.Impute(request.gap_start, request.gap_end,
                              request.t_start, request.t_end, scratch);
      });
}

Result<std::unique_ptr<ImputationModel>> TypedHabitModel::Make(
    const MethodSpec& spec, const std::vector<ais::Trip>& trips) {
  std::vector<std::string> keys = kHabitKeys;
  keys.push_back("min_trips");
  HABIT_RETURN_NOT_OK(spec.CheckKnownKeys(keys));
  HABIT_ASSIGN_OR_RETURN(const core::HabitConfig config,
                         ParseHabitConfig(spec));
  HABIT_ASSIGN_OR_RETURN(const int min_trips, spec.GetInt("min_trips", 8));
  if (min_trips < 1) {
    return Status::InvalidArgument("min_trips must be >= 1");
  }
  Stopwatch build_timer;
  HABIT_ASSIGN_OR_RETURN(
      auto framework,
      core::TypedHabitFramework::Build(trips, config,
                                       static_cast<size_t>(min_trips)));
  auto model = std::unique_ptr<ImputationModel>(new TypedHabitModel(
      std::move(framework), HabitConfigurationString(config)));
  static_cast<TypedHabitModel*>(model.get())->build_seconds_ =
      build_timer.ElapsedSeconds();
  return model;
}

std::string TypedHabitModel::Configuration() const { return configuration_; }

namespace {

// Routes one request to the per-type or combined graph, sharing the
// caller's A* scratch.
Result<core::Imputation> TypedImpute(const core::TypedHabitFramework& fw,
                                     const ImputeRequest& request,
                                     core::Imputer::SearchScratch* scratch) {
  if (request.vessel_type.has_value()) {
    return fw.Impute(*request.vessel_type, request.gap_start, request.gap_end,
                     request.t_start, request.t_end, scratch);
  }
  return fw.combined().Impute(request.gap_start, request.gap_end,
                              request.t_start, request.t_end, scratch);
}

}  // namespace

Result<ImputeResponse> TypedHabitModel::Impute(
    const ImputeRequest& request) const {
  HABIT_RETURN_NOT_OK(ValidateRequest(request));
  core::Imputer::SearchScratch scratch;
  auto imputation = TypedImpute(*framework_, request, &scratch);
  if (!imputation.ok()) return imputation.status();
  return ResponseFromImputation(imputation.MoveValue());
}

std::vector<Result<ImputeResponse>> TypedHabitModel::ImputeBatch(
    std::span<const ImputeRequest> requests,
    std::vector<double>* query_seconds) const {
  const core::TypedHabitFramework& fw = *framework_;
  return RunImputeBatch(
      requests, fw.combined().config().resolution, query_seconds,
      [&fw](const ImputeRequest& request,
            core::Imputer::SearchScratch* scratch) {
        return TypedImpute(fw, request, scratch);
      });
}

size_t TypedHabitModel::SizeBytes() const { return framework_->SizeBytes(); }

void RegisterBuiltinModels(ModelRegistry& registry) {
  // Registration of the built-ins cannot collide; assert via the Status.
  Status st;
  st = registry.Register(
      "habit",
      "HABIT transition-graph imputation (r, p, t, cost, expand, "
      "landmarks, save, load, map, alt)",
      HabitModel::Make);
  assert(st.ok());
  st = registry.Register(
      "habit_typed",
      "vessel-type-aware HABIT (habit params + min_trips per type)",
      TypedHabitModel::Make);
  assert(st.ok());
  st = registry.Register(
      "gti", "GTI point-graph baseline (rm, rd, resample, save, load, map)",
      GtiAdapter::Make);
  assert(st.ok());
  st = registry.Register(
      "palmto",
      "PaLMTO N-gram baseline (r, n, timeout, max_tokens, seed, save, "
      "load, map)",
      PalmtoAdapter::Make);
  assert(st.ok());
  st = registry.Register("sli", "straight-line interpolation (points)",
                         SliAdapter::Make);
  assert(st.ok());
  (void)st;
}

}  // namespace habit::api
