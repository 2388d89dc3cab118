#include "api/epoch.h"

#ifdef __linux__
#include <pthread.h>
#include <sys/resource.h>
#endif

#include <algorithm>
#include <cerrno>
#include <unordered_set>
#include <utility>

namespace habit::api {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::nanoseconds SecondsToNanos(double seconds) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(seconds));
}

/// Names the calling thread "epoch-builder" (top -H, /proc) and lowers
/// its priority by `nice_increment`. Best effort: a refused change leaves
/// the thread at its inherited priority.
void BecomeBackgroundBuilder(int nice_increment) {
#ifdef __linux__
  (void)pthread_setname_np(pthread_self(), "epoch-builder");
  // PRIO_PROCESS with who = 0 is the calling thread on Linux.
  errno = 0;
  const int current = getpriority(PRIO_PROCESS, 0);
  if (errno != 0) return;
  (void)setpriority(PRIO_PROCESS, 0, std::min(current + nice_increment, 19));
#else
  (void)nice_increment;
#endif
}

}  // namespace

Result<std::unique_ptr<EpochPipeline>> EpochPipeline::Make(
    ModelCache* cache, Options options, std::vector<ais::Trip> base) {
  HABIT_ASSIGN_OR_RETURN(MethodSpec spec, MethodSpec::Parse(options.spec));
  // The live spec is built from the cumulative trip set, every epoch.
  // load= would ignore the trips (frozen artifact) and save= would rewrite
  // a file per epoch as a silent side effect, so both are refused here:
  // the pipeline builds on its own thread, not through the server's
  // request path.
  for (const char* banned : {"load", "save"}) {
    if (spec.params.contains(banned)) {
      return Status::InvalidArgument(
          std::string(banned) +
          "= is not allowed in an ingest spec (live epochs are rebuilt "
          "from the cumulative trip set)");
    }
  }
  // Every other check is the factory's own parsing, so a bad spec fails
  // at startup, not at the first rollover. With no base trips a valid
  // spec gets as far as the build, which refuses zero trips as NotFound.
  if (base.empty()) {
    auto probe = ModelRegistry::Global().Make(spec, {});
    if (!probe.ok() && probe.status().code() != StatusCode::kNotFound) {
      return probe.status();
    }
  }
  std::unique_ptr<EpochPipeline> pipeline(
      new EpochPipeline(cache, std::move(options), std::move(spec),
                        std::move(base)));
  {
    core::MutexLock lock(pipeline->mu_);
    if (!pipeline->trips_->empty()) {
      // Pre-warm epoch 0 so a bad spec fails at startup, not on the first
      // request, and the first query never pays the cold build.
      auto model = cache->Get(pipeline->spec_, *pipeline->trips_);
      if (!model.ok()) return model.status();
    }
  }
  return pipeline;
}

EpochPipeline::EpochPipeline(ModelCache* cache, Options options,
                             MethodSpec spec, std::vector<ais::Trip> base)
    : cache_(cache),
      options_(std::move(options)),
      spec_(std::move(spec)),
      spec_string_(spec_.ToString()) {
  core::MutexLock lock(mu_);
  delta_.NoteBaseTrips(base);
  trips_ = std::make_shared<const std::vector<ais::Trip>>(std::move(base));
  builder_ = std::thread([this] { BuilderMain(); });
}

EpochPipeline::~EpochPipeline() { Stop(); }

void EpochPipeline::Stop() {
  std::thread builder;
  {
    core::MutexLock lock(mu_);
    stop_ = true;
    builder.swap(builder_);
  }
  builder_cv_.NotifyAll();
  epoch_cv_.NotifyAll();
  if (builder.joinable()) builder.join();
}

Status EpochPipeline::Ingest(std::vector<ais::Trip> trips,
                             uint64_t* accepted, uint64_t* pending,
                             uint64_t* epoch) {
  if (trips.empty()) {
    return Status::InvalidArgument("\"trips\" must not be empty");
  }
  core::MutexLock lock(mu_);
  if (stop_) return Status::Internal("epoch pipeline is stopped");
  size_t batch_bytes = 0;
  for (const ais::Trip& trip : trips) {
    batch_bytes +=
        sizeof(ais::Trip) + trip.points.size() * sizeof(ais::AisRecord);
  }
  if (delta_.pending_bytes() + batch_bytes > options_.max_pending_bytes) {
    return Status::OutOfRange(
        "ingest backlog of " + std::to_string(delta_.pending_bytes()) +
        " bytes would exceed " + std::to_string(options_.max_pending_bytes) +
        " — roll over (or wait for the epoch trigger) first");
  }
  // All-or-nothing: validate the whole batch (including intra-batch
  // duplicate ids) before staging anything, the impute fail-fast idiom.
  std::unordered_set<int64_t> batch_ids;
  for (size_t i = 0; i < trips.size(); ++i) {
    Status valid = delta_.Validate(trips[i]);
    if (valid.ok() && !batch_ids.insert(trips[i].trip_id).second) {
      valid = Status::AlreadyExists("trip_id " +
                                    std::to_string(trips[i].trip_id) +
                                    " appears twice in this batch");
    }
    if (!valid.ok()) {
      return Status(valid.code(),
                    "trips[" + std::to_string(i) + "]: " + valid.message());
    }
  }
  const bool was_empty = delta_.pending_trips() == 0;
  for (ais::Trip& trip : trips) {
    // Validated above; Add re-validates but cannot fail now.
    const Status added = delta_.Add(std::move(trip));
    if (!added.ok()) return Status::Internal(added.message());
  }
  if (was_empty && options_.epoch_seconds > 0) {
    deadline_ = Clock::now() + SecondsToNanos(options_.epoch_seconds);
  }
  trigger_armed_ = true;
  if (accepted != nullptr) *accepted = trips.size();
  if (pending != nullptr) *pending = delta_.pending_trips();
  if (epoch != nullptr) *epoch = epoch_;
  builder_cv_.NotifyAll();
  return Status::OK();
}

Result<uint64_t> EpochPipeline::Rollover() {
  core::MutexLock lock(mu_);
  if (stop_) return Status::Internal("epoch pipeline is stopped");
  const uint64_t target = epoch_;
  const uint64_t failures_before = build_failures_;
  rollover_requested_ = true;
  trigger_armed_ = true;
  builder_cv_.NotifyAll();
  while (epoch_ <= target && build_failures_ == failures_before && !stop_) {
    epoch_cv_.Wait(mu_);
  }
  if (epoch_ > target) return epoch_;
  if (stop_) return Status::Internal("epoch pipeline is stopped");
  return Status::Internal("epoch build failed: " + last_error_);
}

Result<EpochedModel> EpochPipeline::Resolve(const MethodSpec& spec) {
  std::shared_ptr<const std::vector<ais::Trip>> trips;
  uint64_t epoch = 0;
  {
    core::MutexLock lock(mu_);
    trips = trips_;
    epoch = epoch_;
  }
  if (trips->empty()) {
    return Status::NotFound(
        "epoch " + std::to_string(epoch) +
        " has no training trips yet — ingest deltas and roll over first");
  }
  // The cache key carries this epoch's trips fingerprint, so concurrent
  // epochs are distinct entries and a mid-request swap cannot redirect
  // this resolution: the snapshot captured above IS the request's epoch.
  auto model = cache_->Get(spec, *trips);
  if (!model.ok()) return model.status();
  return EpochedModel{epoch, model.value()};
}

EpochPipeline::Stats EpochPipeline::stats() const {
  core::MutexLock lock(mu_);
  Stats stats;
  stats.epoch = epoch_;
  stats.pending_trips = delta_.pending_trips();
  stats.pending_points = delta_.pending_points();
  stats.ingested_trips = delta_.accepted_total();
  stats.rollovers = rollovers_;
  stats.epoch_trips = trips_->size();
  stats.building = building_;
  stats.last_build_seconds = last_build_seconds_;
  stats.last_error = last_error_;
  return stats;
}

void EpochPipeline::BuilderMain() {
  BecomeBackgroundBuilder(kBuilderNice);
  while (true) {
    std::vector<ais::Trip> delta;
    std::shared_ptr<const std::vector<ais::Trip>> base;
    {
      core::MutexLock lock(mu_);
      while (!stop_) {
        const bool has_pending = delta_.pending_trips() > 0;
        const bool count_due = options_.epoch_trips > 0 && trigger_armed_ &&
                               delta_.pending_trips() >= options_.epoch_trips;
        const bool timer_live =
            options_.epoch_seconds > 0 && trigger_armed_ && has_pending;
        const bool time_due = timer_live && Clock::now() >= deadline_;
        if (rollover_requested_ || count_due || time_due) break;
        if (timer_live) {
          builder_cv_.WaitFor(mu_, deadline_ - Clock::now());
        } else {
          builder_cv_.Wait(mu_);
        }
      }
      if (stop_) return;
      rollover_requested_ = false;
      building_ = true;
      delta = delta_.Drain();
      base = trips_;
    }

    // The freeze, unlocked: serving and ingest continue on the current
    // epoch while this runs. MergeEpochTrips copies `delta` so a failed
    // build can requeue it without losing ingest order.
    const auto started = Clock::now();
    Status built = Status::OK();
    std::shared_ptr<const std::vector<ais::Trip>> next = base;
    if (!delta.empty()) {
      auto merged = std::make_shared<std::vector<ais::Trip>>(
          graph::MergeEpochTrips(*base, delta));
      // Pre-warm the configured spec through the shared cache: the swap
      // publishes an epoch whose model is already resident, so the first
      // post-rollover request never pays the rebuild. Other specs resolve
      // lazily against the new trips via the same fingerprinted keys.
      auto model = cache_->Get(spec_, *merged);
      if (model.ok()) {
        next = std::move(merged);
      } else {
        built = model.status();
      }
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - started).count();

    const std::string old_suffix = ModelCache::TripsKeySuffix(*base);
    {
      core::MutexLock lock(mu_);
      building_ = false;
      last_build_seconds_ = seconds;
      if (built.ok()) {
        trips_ = next;
        ++epoch_;
        ++rollovers_;
        last_error_.clear();
        // Retire the superseded epoch's cache entries before the swap is
        // announced, so a Rollover() caller that wakes on epoch_cv_ sees
        // the eviction already done. Readers that resolved earlier hold
        // shared_ptr handles — eviction never invalidates an in-flight
        // request — and a reader racing this section at worst misses and
        // rebuilds the old epoch once. (Lock order: mu_ before the
        // cache's own mutex; the cache never calls back into the
        // pipeline, so the nesting cannot invert.)
        if (next != base) cache_->EraseKeysWithSuffix(old_suffix);
      } else {
        // Keep the data: the drained delta goes back at the front of the
        // pending queue, and auto-triggers disarm until the next ingest
        // or explicit rollover so a persistent failure cannot hot-loop.
        delta_.Requeue(std::move(delta));
        trigger_armed_ = false;
        ++build_failures_;
        last_error_ = built.ToString();
      }
      epoch_cv_.NotifyAll();
    }
  }
}

}  // namespace habit::api
