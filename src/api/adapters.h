// Adapters wrapping each concrete imputation framework behind the unified
// api::ImputationModel interface, plus the registration hook that installs
// them into a ModelRegistry under their string keys:
//
//   "habit"        HabitFramework        r, p, t, cost, expand, snap,
//                                        save, load
//   "habit_typed"  TypedHabitFramework   habit params + min_trips
//   "gti"          GtiModel              rm, rd, resample, save, load
//   "palmto"       PalmtoModel           r, n, timeout, max_tokens, seed,
//                                        save, load
//   "sli"          StraightLineImpute    points
//
// save=<path> writes a binary model snapshot after the build; load=<path>
// cold-starts the model from one in O(read) — MakeModel(spec, {}) with an
// empty trips vector serves a persisted model without retraining.
//
// Most callers never name these classes — they go through MakeModel. The
// HABIT adapters are exposed because persistence tooling (habit_cli) and
// trip-level helpers need the underlying framework.
#pragma once

#include <memory>

#include "api/registry.h"
#include "baselines/gti.h"
#include "baselines/palmto.h"
#include "habit/framework.h"
#include "habit/typed_framework.h"

namespace habit::api {

/// Installs every built-in method into `registry` (called once by
/// ModelRegistry::Global(); call it manually only on private registries).
void RegisterBuiltinModels(ModelRegistry& registry);

/// \brief "habit": adapter over core::HabitFramework.
///
/// ImputeBatch runs every query serially against the frozen CSR graph with
/// one flat search scratch, whose generation-stamped arrays make per-query
/// reuse free. Batches hold no shared mutable state, so a caller that
/// wants parallelism (the server's WorkerPool) splits the batch and calls
/// ImputeBatch once per chunk.
class HabitModel : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips);

  std::string Name() const override { return "HABIT"; }
  std::string Configuration() const override;
  Result<ImputeResponse> Impute(const ImputeRequest& request) const override;
  std::vector<Result<ImputeResponse>> ImputeBatch(
      std::span<const ImputeRequest> requests,
      std::vector<double>* query_seconds) const override;
  size_t SizeBytes() const override { return framework_->SizeBytes(); }
  size_t SerializedSizeBytes() const override {
    return framework_->SerializedSizeBytes();
  }

  /// The wrapped framework (graph access for persistence / trip helpers).
  const core::HabitFramework& framework() const { return *framework_; }

 private:
  explicit HabitModel(std::unique_ptr<core::HabitFramework> framework)
      : framework_(std::move(framework)) {}

  std::unique_ptr<core::HabitFramework> framework_;
};

/// \brief "habit_typed": adapter over core::TypedHabitFramework.
///
/// Requests carrying a vessel_type are routed to the matching per-type
/// graph (with transparent fallback to the combined graph); requests
/// without one query the combined graph directly.
class TypedHabitModel : public ImputationModel {
 public:
  static Result<std::unique_ptr<ImputationModel>> Make(
      const MethodSpec& spec, const std::vector<ais::Trip>& trips);

  std::string Name() const override { return "HABIT-T"; }
  std::string Configuration() const override;
  Result<ImputeResponse> Impute(const ImputeRequest& request) const override;
  std::vector<Result<ImputeResponse>> ImputeBatch(
      std::span<const ImputeRequest> requests,
      std::vector<double>* query_seconds) const override;
  size_t SizeBytes() const override;
  size_t SerializedSizeBytes() const override {
    return framework_->SerializedSizeBytes();
  }

  const core::TypedHabitFramework& framework() const { return *framework_; }

 private:
  TypedHabitModel(std::unique_ptr<core::TypedHabitFramework> framework,
                  std::string configuration)
      : framework_(std::move(framework)),
        configuration_(std::move(configuration)) {}

  std::unique_ptr<core::TypedHabitFramework> framework_;
  std::string configuration_;
};

}  // namespace habit::api
