#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <utility>

#include "api/registry.h"
#include "graph/snapshot.h"
#include "server/frame.h"

namespace habit::router {

using server::Json;
using server::Request;
using server::frame::FrameResponse;
using server::frame::ResponseTag;

namespace {

// The serving spec for one snapshot: method + load= (+ map=). Build
// parameters from the manifest's base spec are deliberately dropped — a
// snapshot is self-describing, and the registry rejects build params
// alongside load= precisely so a spec can never serve a snapshot under a
// mismatched configuration.
Result<std::string> LoadSpecFor(const std::string& base_spec,
                                const std::string& snapshot_path,
                                bool map_snapshots) {
  HABIT_ASSIGN_OR_RETURN(const api::MethodSpec base,
                         api::MethodSpec::Parse(base_spec));
  api::MethodSpec spec;
  spec.method = base.method;
  spec.params["load"] = snapshot_path;
  if (map_snapshots) spec.params["map"] = "1";
  return spec.ToString();
}

std::string AbsolutePath(const std::string& dir, const std::string& path) {
  if (!path.empty() && path.front() == '/') return path;
  return dir.empty() ? path : dir + "/" + path;
}

// Fail-fast snapshot verification: O(1) header/trailer probe, stored
// checksum compared against the manifest's. Catches a swapped, stale, or
// truncated shard file at startup; payload bit rot is caught at load by
// the snapshot reader itself.
Status VerifySnapshot(const ShardEntry& entry, const std::string& abs_path,
                      const std::string& what) {
  auto info = graph::ProbeSnapshot(abs_path);
  if (!info.ok()) {
    return Status(info.status().code(),
                  what + " snapshot " + abs_path + ": " +
                      info.status().message());
  }
  if (info.value().checksum != entry.snapshot_checksum) {
    return Status::InvalidArgument(
        what + " snapshot " + abs_path + " checksum " +
        CellToHex(info.value().checksum) + " does not match the manifest's " +
        CellToHex(entry.snapshot_checksum) +
        " — the shard directory and manifest are out of sync");
  }
  return Status::OK();
}

// Reads one sub-frame's reply, which must carry tag `want`. A transport
// failure keeps its status (kUnreachable drives the retry policy); any
// other bad answer is the backend's own failure, reported in its words.
// `what` names the sub-frame in that report ("sub-frame", "forward").
Result<FrameResponse> ReadReply(const ShardBackend& backend,
                                const ShardBackend::Pending& pending,
                                const char* what, ResponseTag want) {
  HABIT_ASSIGN_OR_RETURN(const std::string payload, pending());
  auto reply = server::frame::DecodeResponsePayload(payload);
  if (!reply.ok()) {
    return Status::Internal(backend.Describe() +
                            " answered with a non-protocol frame: " +
                            reply.status().message());
  }
  if (reply.value().tag == ResponseTag::kError) {
    // A backend started without --ingest-spec rejects a forward here
    // ("ingest is not enabled ..."); surface its own words.
    return Status::Internal(backend.Describe() + " rejected the " + what +
                            ": " + reply.value().error.message());
  }
  if (reply.value().tag != want) {
    return Status::Internal(backend.Describe() + " answered the " + what +
                            " with the wrong kind of frame");
  }
  return reply;
}

}  // namespace

Router::Router(ShardManifest manifest,
               std::vector<std::shared_ptr<ShardBackend>> backends,
               const RouterOptions& options)
    : manifest_(std::move(manifest)),
      backends_(std::move(backends)),
      options_(options) {}

Result<std::unique_ptr<Router>> Router::Make(
    ShardManifest manifest, const std::string& manifest_dir,
    std::vector<std::shared_ptr<ShardBackend>> backends,
    const RouterOptions& options) {
  if (backends.empty()) {
    return Status::InvalidArgument("router needs at least one backend");
  }
  if (manifest.shards.empty()) {
    return Status::InvalidArgument("manifest lists no shards");
  }
  auto router = std::unique_ptr<Router>(
      new Router(std::move(manifest), std::move(backends), options));
  const ShardManifest& m = router->manifest_;

  router->shards_.reserve(m.shards.size());
  for (size_t i = 0; i < m.shards.size(); ++i) {
    const ShardEntry& entry = m.shards[i];
    const std::string abs = AbsolutePath(manifest_dir, entry.snapshot_path);
    HABIT_RETURN_NOT_OK(
        VerifySnapshot(entry, abs, "shard " + CellToHex(entry.parent_cell)));
    ShardRuntime runtime;
    runtime.entry = entry;
    HABIT_ASSIGN_OR_RETURN(
        runtime.model_spec,
        LoadSpecFor(m.spec, abs, options.map_snapshots));
    runtime.backend = router->backends_[i % router->backends_.size()].get();
    router->shard_by_cell_[entry.parent_cell] = i;
    router->shards_.push_back(std::move(runtime));
  }

  const std::string fallback_abs =
      AbsolutePath(manifest_dir, m.fallback.snapshot_path);
  HABIT_RETURN_NOT_OK(VerifySnapshot(m.fallback, fallback_abs, "fallback"));
  router->fallback_.entry = m.fallback;
  HABIT_ASSIGN_OR_RETURN(
      router->fallback_.model_spec,
      LoadSpecFor(m.spec, fallback_abs, options.map_snapshots));
  router->fallback_.backend = router->backends_.back().get();
  {
    // Row per shard plus the trailing fallback row (StatsIndexFor). Make
    // is not a constructor, so the analysis holds it to the same locking
    // rules as any other function.
    core::MutexLock lock(router->stats_mu_);
    router->shard_stats_.resize(router->shards_.size() + 1);
  }
  return router;
}

Router::RouteDecision Router::Decide(const api::ImputeRequest& request) const {
  const auto parent_of = [&](const geo::LatLng& p) -> hex::CellId {
    const hex::CellId fine = hex::LatLngToCell(p, manifest_.resolution);
    if (fine == hex::kInvalidCell) return hex::kInvalidCell;
    auto parent = hex::CellToParent(fine, manifest_.parent_res);
    return parent.ok() ? parent.value() : hex::kInvalidCell;
  };
  const hex::CellId ps = parent_of(request.gap_start);
  const hex::CellId pe = parent_of(request.gap_end);
  if (ps == hex::kInvalidCell || pe == hex::kInvalidCell) return {};
  const auto it_s = shard_by_cell_.find(ps);
  const auto it_e = shard_by_cell_.find(pe);
  if (ps == pe) {
    if (it_s == shard_by_cell_.end()) return {};  // unseen region
    return {it_s->second, "shard"};
  }
  // Endpoints in different parent cells: a shard whose overlap halo spans
  // both can still answer alone. Prefer the start endpoint's shard — a
  // deterministic choice, so identical requests always route identically.
  if (it_s != shard_by_cell_.end() || it_e != shard_by_cell_.end()) {
    const auto distance = hex::GridDistance(ps, pe);
    if (distance.ok() && distance.value() <= manifest_.halo_k) {
      if (it_s != shard_by_cell_.end()) return {it_s->second, "halo"};
      return {it_e->second, "halo"};
    }
  }
  return {};
}

std::string Router::HandleLine(std::string_view line) {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_total_;
  }
  if (line.size() > options_.max_line_bytes) {
    return RejectFrame(Status::InvalidArgument(
        "frame of " + std::to_string(line.size()) +
        " bytes exceeds the limit of " +
        std::to_string(options_.max_line_bytes)));
  }
  auto parsed =
      server::ParseRequest(line, options_.max_batch, /*require_model=*/false);
  if (!parsed.ok()) return RejectFrame(parsed.status());
  const Request& request = parsed.value();
  switch (request.op) {
    case Request::Op::kPing: {
      Json frame = Json::Object();
      frame.Set("ok", Json::Bool(true));
      frame.Set("op", Json::String("ping"));
      if (!request.id.is_null()) frame.Set("id", request.id);
      return frame.Dump();
    }
    case Request::Op::kMethods:
      return RejectFrame(
          Status::InvalidArgument(
              "the router serves the manifest's shard models; 'methods' "
              "applies to habit_serve backends"),
          request.id);
    case Request::Op::kStats:
      return StatsLine(request.id);
    case Request::Op::kImpute:
    case Request::Op::kImputeBatch:
      if (!request.model.empty()) {
        return RejectFrame(
            Status::InvalidArgument(
                "the router picks the model per shard; drop the \"model\" "
                "field (to query one model directly, talk to habit_serve)"),
            request.id);
      }
      return HandleImpute(request);
    case Request::Op::kIngest:
    case Request::Op::kRollover:
      return HandleIngest(request);
  }
  return server::ErrorResponseLine(Status::Internal("unhandled op"));
}

std::string Router::OversizeLine() {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_total_;
  }
  return RejectFrame(Status::InvalidArgument(
      "frame exceeds " + std::to_string(options_.max_line_bytes) + " bytes"));
}

std::string Router::RejectFrame(const Status& status, const Json& id) {
  {
    core::MutexLock lock(stats_mu_);
    ++frames_rejected_;
  }
  return server::ErrorResponseLine(status, id);
}

Router::InFlight Router::StartShard(
    size_t shard_index, std::span<const api::ImputeRequest> requests) {
  const ShardRuntime& runtime =
      shard_index == kFallback ? fallback_ : shards_[shard_index];
  Request sub;
  sub.op = Request::Op::kImputeBatch;
  sub.model = runtime.model_spec;
  sub.requests.assign(requests.begin(), requests.end());
  // Braced members initialize in order, so `sent` is read before the send.
  return {&runtime, StatsIndexFor(shard_index), requests.size(),
          std::chrono::steady_clock::now(),
          runtime.backend->Start(server::frame::EncodeRequestFrame(sub))};
}

Result<Router::Results> Router::FinishShard(InFlight call) {
  auto reply = ReadReply(*call.runtime->backend, call.pending, "sub-frame",
                         ResponseTag::kResults);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - call.sent)
                        .count();
  {
    core::MutexLock lock(stats_mu_);
    shard_stats_[call.stats_index].latency_p50.Add(ms);
    shard_stats_[call.stats_index].latency_p99.Add(ms);
  }
  if (!reply.ok()) return reply.status();
  if (reply.value().results.size() != call.expected) {
    return Status::Internal(call.runtime->backend->Describe() +
                            " answered with a mismatched results frame");
  }
  return std::move(reply.value().results);
}

Router::GroupOutcome Router::FinishGroup(
    size_t shard_index, const char* strategy,
    std::span<const api::ImputeRequest> requests, InFlight first) {
  auto results = FinishShard(std::move(first));
  // Only transport failures retry: a protocol-level rejection is
  // deterministic (bad snapshot, bad spec), and retrying the same backend
  // cannot change the answer.
  for (int retry = 0; retry < options_.retries && !results.ok() &&
                      results.status().code() == StatusCode::kUnreachable;
       ++retry) {
    results = FinishShard(StartShard(shard_index, requests));
  }
  if (results.ok()) return {results.MoveValue(), strategy};
  Status failure = results.status();
  if (shard_index != kFallback) {
    // Degrade: the full-graph fallback can answer anything this shard
    // could. One attempt, no retry — the fallback failing too means the
    // fleet is down, and a third round trip just delays the error.
    {
      core::MutexLock lock(stats_mu_);
      shard_stats_[StatsIndexFor(shard_index)].degraded += requests.size();
      shard_stats_[StatsIndexFor(kFallback)].requests += requests.size();
    }
    auto degraded = FinishShard(StartShard(kFallback, requests));
    if (degraded.ok()) return {degraded.MoveValue(), "degraded"};
    failure = degraded.status();
  }
  // Per-request errors, rendered like a query-level failure — the rest of
  // the batch is unaffected.
  return {Results(requests.size(), failure), "unavailable"};
}

std::string Router::HandleIngest(const Request& request) {
  // One forward per DISTINCT backend, planned in first-seen shard order
  // (deterministic). Shards may share a backend, and the fallback usually
  // shares one with a shard — a trip must reach each backend exactly once
  // or the second copy trips the delta's duplicate-trip validation.
  struct Forward {
    ShardBackend* backend = nullptr;
    std::vector<size_t> stats_rows;    ///< every row behind backend
    std::vector<size_t> trip_indices;  ///< deduped, ingest only
  };
  std::vector<Forward> forwards;
  const auto forward_for = [&](const ShardRuntime& runtime,
                               size_t stats_row) -> Forward& {
    for (Forward& f : forwards) {
      if (f.backend == runtime.backend) {
        if (std::find(f.stats_rows.begin(), f.stats_rows.end(), stats_row) ==
            f.stats_rows.end()) {
          f.stats_rows.push_back(stats_row);
        }
        return f;
      }
    }
    forwards.push_back(Forward{runtime.backend, {stats_row}, {}});
    return forwards.back();
  };

  if (request.op == Request::Op::kRollover) {
    // Every backend crosses the epoch boundary (mixed epochs between the
    // acks are fine — see the header comment).
    for (size_t i = 0; i < shards_.size(); ++i) {
      forward_for(shards_[i], StatsIndexFor(i));
    }
    forward_for(fallback_, StatsIndexFor(kFallback));
  } else {
    for (size_t t = 0; t < request.trips.size(); ++t) {
      const ais::Trip& trip = request.trips[t];
      // The fallback first: it is the authoritative full-graph cumulative
      // set, every trip lands there.
      Forward& fb = forward_for(fallback_, StatsIndexFor(kFallback));
      fb.trip_indices.push_back(t);
      // Then every shard whose core parent cell contains one of the
      // trip's points — the shard keeps serving its region from fresh
      // data after its own rollover. Points in unsharded regions are
      // covered by the fallback alone.
      std::vector<size_t> owners;
      for (const ais::AisRecord& p : trip.points) {
        const hex::CellId fine =
            hex::LatLngToCell(p.pos, manifest_.resolution);
        if (fine == hex::kInvalidCell) continue;
        const auto parent = hex::CellToParent(fine, manifest_.parent_res);
        if (!parent.ok()) continue;
        const auto it = shard_by_cell_.find(parent.value());
        if (it == shard_by_cell_.end()) continue;
        if (std::find(owners.begin(), owners.end(), it->second) ==
            owners.end()) {
          owners.push_back(it->second);
        }
      }
      for (const size_t s : owners) {
        Forward& f = forward_for(shards_[s], StatsIndexFor(s));
        if (f.trip_indices.empty() || f.trip_indices.back() != t) {
          f.trip_indices.push_back(t);
        }
      }
    }
  }

  // Send every backend's sub-frame, then read the acks in order: a
  // rollover ack can block on a rebuild, and the backends rebuild in
  // parallel while this thread waits.
  std::vector<ShardBackend::Pending> sent;
  sent.reserve(forwards.size());
  for (const Forward& forward : forwards) {
    Request sub;
    sub.op = request.op;
    for (const size_t t : forward.trip_indices) {
      sub.trips.push_back(request.trips[t]);
    }
    sent.push_back(
        forward.backend->Start(server::frame::EncodeRequestFrame(sub)));
  }
  std::vector<Result<FrameResponse>> acks;
  acks.reserve(forwards.size());
  for (size_t g = 0; g < forwards.size(); ++g) {
    acks.push_back(ReadReply(*forwards[g].backend, sent[g], "forward",
                             ResponseTag::kAck));
  }

  // Record acked epochs before judging failures, so a partially-applied
  // frame still shows the true fleet spread in `stats`.
  {
    core::MutexLock lock(stats_mu_);
    for (size_t g = 0; g < forwards.size(); ++g) {
      if (!acks[g].ok()) continue;
      for (const size_t row : forwards[g].stats_rows) {
        shard_stats_[row].epoch = acks[g].value().epoch;
      }
    }
  }
  for (size_t g = 0; g < forwards.size(); ++g) {
    if (acks[g].ok()) continue;
    // Honest partial-failure report: backends that did ack keep their
    // staged deltas, so a blind client re-send of this exact frame gets
    // duplicate-trip rejections from them. The client reconciles via
    // `stats` (per-shard epoch) instead.
    return RejectFrame(
        Status(acks[g].status().code(),
               acks[g].status().message() +
                   (forwards.size() > 1
                        ? " (other backends acked and keep their staged "
                          "deltas — do not blindly re-send this frame)"
                        : "")),
        request.id);
  }
  uint64_t min_epoch = UINT64_MAX;
  uint64_t accepted = 0;
  uint64_t pending = 0;
  for (const Result<FrameResponse>& ack : acks) {
    min_epoch = std::min(min_epoch, ack.value().epoch);
    accepted += ack.value().accepted;
    pending += ack.value().pending;
  }
  return server::AckResponseLine(
      request.op == Request::Op::kIngest ? "ingest" : "rollover",
      min_epoch == UINT64_MAX ? 0 : min_epoch, accepted, pending,
      request.id);
}

std::string Router::HandleImpute(const Request& request) {
  for (size_t i = 0; i < request.requests.size(); ++i) {
    const Status valid = api::ValidateRequest(request.requests[i]);
    if (!valid.ok()) {
      const std::string field = request.op == Request::Op::kImpute
                                    ? "request"
                                    : "requests[" + std::to_string(i) + "]";
      return RejectFrame(
          Status::InvalidArgument(field + ": " + valid.message()),
          request.id);
    }
  }

  // Group requests by target shard (std::map: deterministic group order,
  // fallback's kFallback sentinel sorts last).
  struct Group {
    const char* strategy = nullptr;  ///< the first request's
    std::vector<size_t> indices;
    std::vector<api::ImputeRequest> requests;
    InFlight flight;
    GroupOutcome outcome;
  };
  std::map<size_t, Group> groups;
  for (size_t i = 0; i < request.requests.size(); ++i) {
    const RouteDecision decision = Decide(request.requests[i]);
    auto [it, inserted] = groups.try_emplace(decision.shard);
    if (inserted) it->second.strategy = decision.strategy;
    it->second.indices.push_back(i);
    it->second.requests.push_back(request.requests[i]);
  }

  {
    core::MutexLock lock(stats_mu_);
    for (const api::ImputeRequest& r : request.requests) {
      if (r.vessel_id.has_value()) {
        vessels_.AddInt(static_cast<uint64_t>(*r.vessel_id));
      }
    }
    for (const auto& [shard, group] : groups) {
      shard_stats_[StatsIndexFor(shard)].requests += group.indices.size();
    }
  }

  // Fan out without threads: send every group's sub-frame, then read the
  // replies in group order while the backends work in parallel.
  for (auto& [shard, group] : groups) {
    group.flight = StartShard(shard, group.requests);
  }
  // Reassemble in request order; each result is rendered once, below, by
  // the function habit_serve's JSON path renders it with.
  std::vector<const Result<api::ImputeResponse>*> results(
      request.requests.size());
  std::vector<const char*> routes(request.requests.size());
  for (auto& [shard, group] : groups) {
    group.outcome = FinishGroup(shard, group.strategy, group.requests,
                                std::move(group.flight));
    for (size_t k = 0; k < group.indices.size(); ++k) {
      results[group.indices[k]] = &group.outcome.results[k];
      routes[group.indices[k]] = group.outcome.strategy;
    }
  }

  if (request.op == Request::Op::kImpute) {
    // Same members a habit_serve single-impute response carries, plus the
    // route (appended after, so the shared prefix stays byte-comparable).
    Json frame = server::ImputeResultToJson(*results.front());
    frame.Set("route", Json::String(routes.front()));
    if (!request.id.is_null()) frame.Set("id", request.id);
    return frame.Dump();
  }
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(true));
  Json arr = Json::Array();
  for (const Result<api::ImputeResponse>* result : results) {
    arr.Append(server::ImputeResultToJson(*result));
  }
  frame.Set("results", std::move(arr));
  Json route_arr = Json::Array();
  for (const char* route : routes) route_arr.Append(Json::String(route));
  frame.Set("routes", std::move(route_arr));
  if (!request.id.is_null()) frame.Set("id", request.id);
  return frame.Dump();
}

std::string Router::StatsLine(const Json& id) {
  Json frame = Json::Object();
  frame.Set("ok", Json::Bool(true));
  frame.Set("parent_res", Json::Number(manifest_.parent_res));
  frame.Set("halo_k", Json::Number(manifest_.halo_k));
  frame.Set("resolution", Json::Number(manifest_.resolution));
  frame.Set("spec", Json::String(manifest_.spec));
  frame.Set("backends", Json::Number(static_cast<double>(backends_.size())));

  core::MutexLock lock(stats_mu_);
  frame.Set("frames", Json::Number(static_cast<double>(frames_total_)));
  frame.Set("frames_rejected",
            Json::Number(static_cast<double>(frames_rejected_)));
  // The guarded shard_stats_ rows are read at the call sites below, all
  // under the lock held for the rest of this function; the lambda only
  // formats the copies it is handed.
  const auto shard_json = [](const ShardRuntime& runtime,
                             const ShardStats& stats, Json cell) {
    Json entry = Json::Object();
    entry.Set("cell", std::move(cell));
    entry.Set("backend", Json::String(runtime.backend->Describe()));
    entry.Set("requests", Json::Number(static_cast<double>(stats.requests)));
    entry.Set("degraded", Json::Number(static_cast<double>(stats.degraded)));
    entry.Set("epoch", Json::Number(static_cast<double>(stats.epoch)));
    entry.Set("latency_count",
              Json::Number(static_cast<double>(stats.latency_p50.count())));
    if (stats.latency_p50.count() > 0) {
      entry.Set("latency_p50_ms", Json::Number(stats.latency_p50.Estimate()));
      entry.Set("latency_p99_ms", Json::Number(stats.latency_p99.Estimate()));
    }
    return entry;
  };
  Json shards = Json::Array();
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards.Append(shard_json(
        shards_[i], shard_stats_[i],
        Json::String(CellToHex(shards_[i].entry.parent_cell))));
  }
  shards.Append(shard_json(fallback_, shard_stats_[shards_.size()],
                           Json::String("fallback")));
  frame.Set("shards", std::move(shards));
  frame.Set("distinct_vessels", Json::Number(vessels_.Estimate()));
  if (!id.is_null()) frame.Set("id", id);
  return frame.Dump();
}

}  // namespace habit::router
