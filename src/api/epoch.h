// The epoch pipeline: live trip ingest behind a serving surface that
// never blocks on a rebuild.
//
// Shape (the LSM/transactional-store epoch handoff, not its code): one
// dedicated builder thread double-buffers model builds against the
// serving path. `Ingest` validates and stages trip deltas in a
// graph::GraphDelta (O(delta), under the pipeline mutex, never touching
// the served model); on an epoch boundary — a pending-count threshold, a
// time threshold, or an explicit `rollover` op — the builder drains the
// delta, merges it with the served epoch's cumulative trip set, rebuilds
// the configured spec through the shared ModelCache, and atomically swaps
// the published {epoch, trips} snapshot.
//
// Consistency model:
//   * A request resolves through `Resolve`, which captures one epoch's
//     trips snapshot and returns an EpochedModel — the request serves
//     from exactly one epoch, never a torn graph.
//   * Old-epoch readers are safe across the swap: both the trips vector
//     and the model travel as shared_ptr handles, so a reader that
//     resolved before the swap keeps a fully consistent old epoch until
//     it drops the handle.
//   * ModelCache's trips-fingerprint keys make each epoch a distinct
//     cache entry; after a swap the pipeline erases the superseded
//     epoch's entries (EraseKeysWithSuffix), and the entries' models die
//     once their readers drain.
//   * Post-rollover answers are byte-identical to a cold rebuild on the
//     same cumulative trip set: the builder rebuilds from the cumulative
//     set in ingest order (see graph/delta.h for why that is the
//     re-freeze entry point for group-by aggregates).
//
// All shared state is GUARDED_BY(mu_); the builds themselves run
// unlocked on the builder thread, so ingest and serving proceed while an
// epoch is being frozen. The builder runs at a lowered CPU priority
// (kBuilderNice, the background-compaction idiom): where it shares a CPU
// with request workers, a rebuild takes a small share plus the time the
// workers leave idle, instead of half of every request that overlaps
// it, so read latency does not depend on whether a rollover is running.
// With a free CPU the rebuild runs at full speed.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ais/ais.h"
#include "api/model_cache.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "graph/delta.h"

namespace habit::api {

/// \brief One epoch's resolution result: the model a request serves from
/// plus the epoch it belongs to. Capturing both together is the
/// reader-side consistency contract (one epoch per request).
struct EpochedModel {
  uint64_t epoch = 0;
  std::shared_ptr<const ImputationModel> model;
};

/// \brief The double-buffered build thread + epoch swap machinery.
class EpochPipeline {
 public:
  struct Options {
    /// The trips-built spec the builder pre-warms on every rollover
    /// (load=/save= are rejected — live epochs are built from trips, not
    /// artifacts). Other trips-built specs still resolve against the
    /// current epoch, lazily, through the same cache.
    std::string spec;
    /// Auto-rollover once this many trips are pending (0 = off).
    uint64_t epoch_trips = 0;
    /// Auto-rollover this many seconds after the first pending trip
    /// (0 = off). Explicit `rollover` ops work regardless.
    double epoch_seconds = 0.0;
    /// Ingest backlog cap: an Ingest that would stage more than this
    /// many pending bytes is refused until an epoch drains the backlog.
    size_t max_pending_bytes = 1ull << 30;
  };

  /// Nice increment the builder thread applies to itself (capped at 19).
  /// Linux keeps one nice value per thread, so only the builder is
  /// lowered; elsewhere the builder keeps its creator's priority. At 10,
  /// a rebuild competing with one busy request thread gets about a tenth
  /// of the CPU.
  static constexpr int kBuilderNice = 10;

  struct Stats {
    uint64_t epoch = 0;
    uint64_t pending_trips = 0;   ///< builder lag: accepted, not yet served
    uint64_t pending_points = 0;
    uint64_t ingested_trips = 0;  ///< accepted since startup
    uint64_t rollovers = 0;
    uint64_t epoch_trips = 0;     ///< trips in the served cumulative set
    bool building = false;        ///< a freeze is running right now
    double last_build_seconds = 0.0;
    std::string last_error;       ///< last failed build ("" when none)
  };

  /// Validates `options.spec`, registers `base` as epoch 0 (pre-warming
  /// the spec's model through `cache` unless `base` is empty), and starts
  /// the builder thread. `cache` must outlive the pipeline.
  static Result<std::unique_ptr<EpochPipeline>> Make(
      ModelCache* cache, Options options, std::vector<ais::Trip> base);

  ~EpochPipeline();
  EpochPipeline(const EpochPipeline&) = delete;
  EpochPipeline& operator=(const EpochPipeline&) = delete;

  /// Stages a batch of trip deltas, all-or-nothing: every trip is
  /// validated (graph::GraphDelta invariants + intra-batch duplicate ids)
  /// before any is accepted, and a bad trip rejects the whole batch with
  /// its index named. On success reports the accepted count, the pending
  /// backlog, and the epoch the batch will roll into (current + 1).
  Status Ingest(std::vector<ais::Trip> trips, uint64_t* accepted,
                uint64_t* pending, uint64_t* epoch) EXCLUDES(mu_);

  /// Forces an epoch boundary and blocks until the swap (or a failed
  /// build) — the caller observes `epoch > epoch-at-call` on success.
  /// Concurrent rollovers coalesce into one build. A rollover with no
  /// pending deltas still advances the epoch counter (the served set is
  /// unchanged, so the model handle — and its cache entry — survive).
  Result<uint64_t> Rollover() EXCLUDES(mu_);

  /// Resolves `spec` against the current epoch's cumulative trips via the
  /// shared cache. Fails while the cumulative set is empty (nothing has
  /// been ingested yet) instead of building a model from no data.
  Result<EpochedModel> Resolve(const MethodSpec& spec) EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

  /// The canonical configured spec (habit_serve logs and `stats`).
  const std::string& spec_string() const { return spec_string_; }

  /// Stops the builder thread (idempotent; the destructor calls it).
  /// In-flight Rollover waiters fail with kInternal.
  void Stop() EXCLUDES(mu_);

 private:
  EpochPipeline(ModelCache* cache, Options options, MethodSpec spec,
                std::vector<ais::Trip> base);

  void BuilderMain() EXCLUDES(mu_);

  ModelCache* const cache_;  ///< not owned; outlives the pipeline
  const Options options_;
  const MethodSpec spec_;          ///< parsed options_.spec
  const std::string spec_string_;  ///< canonical form

  mutable core::Mutex mu_;
  core::CondVar builder_cv_;  ///< wakes the builder: work or stop
  core::CondVar epoch_cv_;     ///< wakes Rollover waiters: swap or failure
  /// The published snapshot readers resolve against. Swapped whole on an
  /// epoch boundary; old readers keep their shared_ptr.
  std::shared_ptr<const std::vector<ais::Trip>> trips_ GUARDED_BY(mu_);
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  graph::GraphDelta delta_ GUARDED_BY(mu_);
  /// Deadline for the time trigger; meaningful while deltas are pending
  /// (armed by the first Ingest into an empty backlog).
  std::chrono::steady_clock::time_point deadline_ GUARDED_BY(mu_);
  bool rollover_requested_ GUARDED_BY(mu_) = false;
  /// Auto-triggers re-arm on Ingest/Rollover and disarm after a failed
  /// build, so a persistent build error cannot hot-loop the builder.
  bool trigger_armed_ GUARDED_BY(mu_) = true;
  bool building_ GUARDED_BY(mu_) = false;
  bool stop_ GUARDED_BY(mu_) = false;
  uint64_t rollovers_ GUARDED_BY(mu_) = 0;
  uint64_t build_failures_ GUARDED_BY(mu_) = 0;
  double last_build_seconds_ GUARDED_BY(mu_) = 0.0;
  std::string last_error_ GUARDED_BY(mu_);
  /// Joinable builder; swapped out (under mu_) by the first Stop so
  /// concurrent stops never double-join (the WorkerPool idiom).
  std::thread builder_ GUARDED_BY(mu_);
};

}  // namespace habit::api
