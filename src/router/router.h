// Online half of sharded serving (habit_route): a line-protocol frontend
// that owns no model — it owns a verified ShardManifest and a set of
// ShardBackends, maps each request's gap to a shard, fans sub-frames out
// over the backends, and reassembles responses in request order.
//
// Routing strategy per request (recorded in the response so operators and
// tests can see which path answered):
//   "shard"        both gap endpoints in one shard's core parent cell
//   "halo"         endpoints within halo_k parent rings of a shard's core
//                  — the overlap halo the shard trained with covers the
//                  gap, so the shard answers without the full graph
//   "fallback"     no single shard covers the gap; the designated
//                  full-graph shard answers
//   "degraded"     the planned shard's backend failed (down, timeout,
//                  refused) after its retries; the fallback answered
//   "unavailable"  the fallback failed too; the response carries a
//                  per-request error, the batch's other requests are
//                  unaffected
//
// The client surface is the habit_serve JSON protocol minus "model": the
// manifest picks models. Frames that DO name one are rejected — a model
// choice the router would silently override must not look honored.
//
// The router -> backend hop is HBTF: one impute_batch frame per shard
// group, each result rendered once by server::ImputeResultToJson (as in
// habit_serve's JSON path, so routed answers are byte-identical to
// monolithic serving). Every sub-frame is sent before any reply is read,
// on the calling thread: a slow shard costs the slowest wait, not the sum.
//
// Live ingest PROPAGATES, it does not terminate here — the router owns no
// model to rebuild. An `ingest` frame is split per backend: every trip
// forwards to the full-graph fallback (the authoritative cumulative set)
// plus every shard whose core parent cell contains at least one of the
// trip's points; `rollover` fans out to every distinct backend, sent the
// same way (rebuilds overlap). The ack aggregates conservatively: the
// minimum acked epoch, summed accepted/pending (a trip crossing shard
// boundaries stages once per backend it reaches). Backends cross epoch
// boundaries at slightly different times as a result; mixed epochs
// across the fleet are tolerated BY CONSTRUCTION, because each impute
// request is answered by exactly one backend — one epoch per answer,
// never a torn mix. The per-shard `epoch` column in `stats` shows the
// spread.
//
// Startup is fail-fast: the manifest's own checksum was verified at
// parse, and every shard snapshot's stored checksum is verified against
// the manifest (O(1) header probes) before the router accepts a frame —
// a swapped or truncated shard file is a startup error, not a
// mid-traffic surprise.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "router/backend.h"
#include "router/manifest.h"
#include "server/protocol.h"
#include "sketch/hyperloglog.h"
#include "sketch/quantile.h"

namespace habit::router {

/// \brief Router configuration.
struct RouterOptions {
  size_t max_batch = 4096;             ///< per-frame request cap
  size_t max_line_bytes = 4ull << 20;  ///< frame size cap
  /// Serve shard snapshots zero-copy from the mmap'd file (adds map=1 to
  /// every load spec) — per-shard RSS becomes O(touched pages).
  bool map_snapshots = false;
  /// Transport retries per sub-frame before degrading to the fallback.
  int retries = 1;
};

/// \brief The shard-routing frontend.
class Router {
 public:
  /// Validates the manifest against the snapshots on disk and binds
  /// shards to backends: shard i is served by backends[i % backends],
  /// the fallback by backends.back() (so a one-backend fleet serves
  /// everything, and the fallback never shares fate with shard 0 when
  /// there are at least two). `manifest_dir` anchors the manifest's
  /// relative snapshot paths.
  static Result<std::unique_ptr<Router>> Make(
      ShardManifest manifest, const std::string& manifest_dir,
      std::vector<std::shared_ptr<ShardBackend>> backends,
      const RouterOptions& options = {});

  /// The whole request path: one frame in, one response line out (no
  /// trailing newline). Thread-safe.
  std::string HandleLine(std::string_view line) EXCLUDES(stats_mu_);

  /// Response line for an unterminated oversized frame (LineTransport's
  /// oversize hook).
  std::string OversizeLine() EXCLUDES(stats_mu_);

  const ShardManifest& manifest() const { return manifest_; }

  /// The load spec shard `i` is served with ("habit:load=..."): the spec
  /// a single-process habit_serve would use for the same snapshot —
  /// equivalence tests route traffic both ways through it.
  const std::string& shard_spec(size_t i) const {
    return shards_[i].model_spec;
  }
  const std::string& fallback_spec() const { return fallback_.model_spec; }

 private:
  /// Immutable per-shard routing state, fixed by Make() before any frame
  /// is served — readable from every dispatch thread without a lock.
  struct ShardRuntime {
    ShardEntry entry;
    std::string model_spec;  ///< canonical "habit:load=<abs path>[,map=1]"
    ShardBackend* backend = nullptr;
  };

  /// Mutable per-shard observability, kept OUT of ShardRuntime so the
  /// whole parallel vector can carry one GUARDED_BY(stats_mu_) and the
  /// compiler rejects any unlocked counter/sketch access (a nested
  /// struct's fields cannot name the enclosing class's mutex).
  struct ShardStats {
    uint64_t requests = 0;
    uint64_t degraded = 0;
    /// Last epoch this shard's backend acked to a forwarded
    /// ingest/rollover (0 until the first ack) — the fleet's epoch
    /// spread, surfaced per shard row by `stats`.
    uint64_t epoch = 0;
    /// Sub-frame latency from its send to its reply being read. Replies
    /// are read in group order, so a group read after a slower one
    /// includes that wait.
    sketch::P2Quantile latency_p50{0.5};
    sketch::P2Quantile latency_p99{0.99};
  };

  /// Sentinel shard index meaning "the fallback shard".
  static constexpr size_t kFallback = static_cast<size_t>(-1);

  struct RouteDecision {
    size_t shard = kFallback;
    const char* strategy = "fallback";
  };

  using Results = std::vector<Result<api::ImputeResponse>>;

  /// One impute sub-frame sent to a shard's backend, reply not yet read.
  struct InFlight {
    const ShardRuntime* runtime = nullptr;
    size_t stats_index = 0;  ///< the shard_stats_ row charged for latency
    size_t expected = 0;     ///< results the reply must carry
    std::chrono::steady_clock::time_point sent;
    ShardBackend::Pending pending;
  };

  Router(ShardManifest manifest,
         std::vector<std::shared_ptr<ShardBackend>> backends,
         const RouterOptions& options);

  RouteDecision Decide(const api::ImputeRequest& request) const;
  std::string HandleImpute(const server::Request& request)
      EXCLUDES(stats_mu_);

  /// Fans an ingest/rollover frame out across the fleet (one sub-frame
  /// per distinct backend — shards may share one, and a duplicate forward
  /// would trip the delta's already-staged validation) and aggregates the
  /// acks. Forwards are NOT retried: after a transport failure a lost
  /// response is indistinguishable from a lost request, and blind
  /// re-sends turn into spurious duplicate-trip rejections. Forwards do
  /// not feed the latency percentiles either — those measure query
  /// latency, and a rollover ack can block on a full epoch rebuild.
  std::string HandleIngest(const server::Request& request)
      EXCLUDES(stats_mu_);
  std::string RejectFrame(const Status& status,
                          const server::Json& id = server::Json())
      EXCLUDES(stats_mu_);
  std::string StatsLine(const server::Json& id) EXCLUDES(stats_mu_);

  /// Sends `requests` as one impute_batch frame to the shard's backend.
  InFlight StartShard(size_t shard_index,
                      std::span<const api::ImputeRequest> requests);

  /// Reads the reply and charges its latency to the call's stats row.
  Result<Results> FinishShard(InFlight call) EXCLUDES(stats_mu_);

  /// Finishes a group whose first attempt, `first`, went to its planned
  /// shard: transport failures retry there, then degrade to the fallback;
  /// a fallback failure becomes per-request errors. Always returns
  /// `requests.size()` results plus the strategy used for the group.
  struct GroupOutcome {
    Results results;
    const char* strategy = nullptr;
  };
  GroupOutcome FinishGroup(size_t shard_index, const char* strategy,
                           std::span<const api::ImputeRequest> requests,
                           InFlight first) EXCLUDES(stats_mu_);

  /// The shard_stats_ row for a RouteDecision index (the fallback's
  /// kFallback sentinel maps to the trailing row).
  size_t StatsIndexFor(size_t shard_index) const {
    return shard_index == kFallback ? shards_.size() : shard_index;
  }

  ShardManifest manifest_;
  std::vector<std::shared_ptr<ShardBackend>> backends_;
  RouterOptions options_;
  std::vector<ShardRuntime> shards_;
  ShardRuntime fallback_;
  std::unordered_map<hex::CellId, size_t> shard_by_cell_;

  /// Guards every mutable counter/sketch below; concurrent frames write
  /// them per sub-frame while the `stats` op reads a snapshot.
  core::Mutex stats_mu_;
  /// Row i = shards_[i]; trailing row = the fallback (StatsIndexFor).
  std::vector<ShardStats> shard_stats_ GUARDED_BY(stats_mu_);
  uint64_t frames_total_ GUARDED_BY(stats_mu_) = 0;
  uint64_t frames_rejected_ GUARDED_BY(stats_mu_) = 0;
  sketch::HyperLogLog vessels_ GUARDED_BY(stats_mu_) =
      sketch::HyperLogLog(12);
};

}  // namespace habit::router
