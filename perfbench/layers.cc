// Per-layer replays: the api, habit, graph and minidb layers timed from
// outside, one public call at a time, on the workload's own inputs.
#include <cstdio>

#include "api/adapters.h"
#include "bench.h"
#include "graph/digraph.h"
#include "habit/framework.h"
#include "habit/graph_builder.h"
#include "habit/serialize.h"
#include "server/frame.h"
#include "server/server.h"

namespace perfbench {

using namespace habit;

BatchReplay ReplayBatches(
    const api::ImputationModel& model,
    const std::vector<std::span<const api::ImputeRequest>>& frames,
    Tracer* tracer, bool time_snap) {
  const auto* habit_model = dynamic_cast<const api::HabitModel*>(&model);
  const core::Imputer* imputer =
      habit_model != nullptr ? &habit_model->framework().imputer() : nullptr;
  BatchReplay replay;
  replay.results.reserve(frames.size());
  for (size_t f = 0; f < frames.size(); ++f) {
    ScopedSpan frame(tracer, "replay_frame", -1, static_cast<int64_t>(f));
    std::vector<double> query_s;
    ScopedSpan batch(tracer, "batch", frame.id(), static_cast<int64_t>(f));
    replay.results.push_back(model.ImputeBatch(frames[f], &query_s));
    replay.batch_s.push_back(batch.Stop());
    replay.query_s.insert(replay.query_s.end(), query_s.begin(),
                          query_s.end());
    for (const Result<api::ImputeResponse>& r : replay.results.back()) {
      if (r.ok()) {
        replay.expanded.push_back(static_cast<double>(r.value().expanded));
      } else if (r.status().code() == StatusCode::kUnreachable) {
        ++replay.unreachable;
      }
    }
    if (!time_snap || imputer == nullptr) continue;
    for (const api::ImputeRequest& q : frames[f]) {
      ScopedSpan snap(tracer, "snap", frame.id(), static_cast<int64_t>(f));
      imputer->SnapCandidates(q.gap_start, core::Imputer::SnapRole::kSource);
      imputer->SnapCandidates(q.gap_end, core::Imputer::SnapRole::kTarget);
      replay.snap_s.push_back(snap.Stop());
    }
  }
  return replay;
}

std::vector<std::optional<geo::Polyline>> ReplayPaths(
    const BatchReplay& replay, size_t gaps) {
  std::vector<std::optional<geo::Polyline>> paths;
  paths.reserve(gaps);
  for (const auto& frame : replay.results) {
    for (const Result<api::ImputeResponse>& r : frame) {
      if (r.ok()) {
        paths.emplace_back(r.value().path);
      } else {
        paths.emplace_back(std::nullopt);
      }
    }
  }
  return paths;
}

void ReportQueryLayers(const BatchReplay& replay, double handle_ms,
                       Report* report) {
  char detail[160];
  const double batch_ms = Mean(replay.batch_s) * 1e3;
  double query_sum = 0;
  for (double s : replay.query_s) query_sum += s;
  double batch_sum = 0;
  for (double s : replay.batch_s) batch_sum += s;
  std::snprintf(detail, sizeof(detail),
                "mean of n=%zu frames; summed query time / batch time = %.4f",
                replay.batch_s.size(), query_sum / std::max(batch_sum, 1e-12));
  report->Add("api.batch_ms", batch_ms, "ms", Tier::kLayer, detail);
  std::snprintf(detail, sizeof(detail), "api.batch_ms / (%d x %.4f ms)",
                kServerWorkers, handle_ms);
  report->Add("api.pool_efficiency",
              batch_ms / (kServerWorkers * std::max(handle_ms, 1e-9)), "ratio",
              Tier::kLayer, detail);

  std::vector<double> query_us;
  for (double s : replay.query_s) query_us.push_back(s * 1e6);
  std::snprintf(detail, sizeof(detail), "n=%zu queries", query_us.size());
  report->Add("habit.query_us_p50", Median(query_us), "us", Tier::kLayer,
              detail);
  const Tail tail = TailPercentile(query_us);
  std::snprintf(detail, sizeof(detail), "p%.2f, n=%zu queries",
                tail.rank * 100, tail.n);
  report->Add("habit.query_us_p99", tail.value, "us", Tier::kLayer, detail);

  const double snap_us = Mean(replay.snap_s) * 1e6;
  std::snprintf(detail, sizeof(detail),
                "mean of n=%zu queries, source + target SnapCandidates",
                replay.snap_s.size());
  report->Add("habit.snap_us", snap_us, "us", Tier::kLayer, detail);
  report->Add("habit.search_path_us", Mean(query_us) - snap_us, "us",
              Tier::kLayer, "mean query - mean snap");
  std::snprintf(detail, sizeof(detail), "of n=%zu queries",
                replay.query_s.size());
  report->Add("habit.unreachable", static_cast<double>(replay.unreachable),
              "count", Tier::kLayer, detail);

  std::snprintf(detail, sizeof(detail), "n=%zu answered queries",
                replay.expanded.size());
  report->Add("graph.expanded_mean", Mean(replay.expanded), "count",
              Tier::kLayer, detail);
  const Tail expanded = TailPercentile(replay.expanded);
  std::snprintf(detail, sizeof(detail), "p%.2f, n=%zu answered queries",
                expanded.rank * 100, expanded.n);
  report->Add("graph.expanded_p99", expanded.value, "count", Tier::kLayer,
              detail);
}

double ReplayServer(server::Server& server, const std::vector<WireFrame>& wire,
                    const BatchReplay& reference, bool time_resolve,
                    Tracer* tracer, Report* report) {
  std::vector<double> decode_us, encode_us, handle_ms;
  size_t mismatched = 0;
  for (size_t f = 0; f < wire.size(); ++f) {
    const auto rid = static_cast<int64_t>(f);
    ScopedSpan frame(tracer, "server_frame", -1, rid);
    const std::string_view payload = FramePayload(wire[f].bytes);
    ScopedSpan decode(tracer, "decode", frame.id(), rid);
    auto decoded = server::frame::DecodeRequestPayload(
        payload, server.options().max_batch, /*require_model=*/true);
    decode_us.push_back(decode.Stop() * 1e6);
    if (!decoded.ok()) {
      report->Fail("decode: " + decoded.status().ToString());
      return 0;
    }
    if (time_resolve) {
      ScopedSpan resolve(tracer, "resolve", frame.id(), rid);
      auto spec = api::MethodSpec::Parse(decoded.value().request.model);
      if (!spec.ok() || !server.Resolve(spec.value()).ok()) {
        report->Fail("resolve failed for " + decoded.value().request.model);
        return 0;
      }
    }
    ScopedSpan handle(tracer, "handle", frame.id(), rid);
    const std::string answer = server.HandleFrame(payload);
    handle_ms.push_back(handle.Stop() * 1e3);
    if (Hash(FramePayload(answer)) != wire[f].expect) ++mismatched;
    ScopedSpan encode(tracer, "encode", frame.id(), rid);
    const std::string encoded = server::frame::EncodeResultsFrame(
        reference.results[f], server::Json(), /*batch=*/true);
    encode_us.push_back(encode.Stop() * 1e6);
  }
  if (mismatched > 0) {
    report->Fail("in-process HandleFrame: " + std::to_string(mismatched) +
                 " answers differ from the reference");
  }
  char detail[64];
  std::snprintf(detail, sizeof(detail), "mean of n=%zu frames", wire.size());
  report->Add("server.decode_us", Mean(decode_us), "us", Tier::kLayer,
              detail);
  report->Add("server.encode_us", Mean(encode_us), "us", Tier::kLayer,
              detail);
  const double handle = Mean(handle_ms);
  report->Add("server.handle_ms", handle, "ms", Tier::kLayer, detail);
  return handle;
}

Status ReplayBuild(const std::vector<ais::Trip>& trips, int resolution,
                   const std::string& snapshot_path, Tracer* tracer,
                   Report* report) {
  core::HabitConfig config;
  config.resolution = resolution;
  char detail[96];
  std::snprintf(detail, sizeof(detail), "%zu trips at r=%d", trips.size(),
                resolution);
  ScopedSpan build(tracer, "build_replay", -1, resolution);

  ScopedSpan table_span(tracer, "table", build.id());
  const db::Table table = core::TripsToTable(trips, resolution);
  report->Add("habit.build.table_s", table_span.Stop(), "s", Tier::kLayer,
              detail);

  ScopedSpan group_by(tracer, "group_by", build.id());
  ScopedSpan cell_span(tracer, "cell_stats", group_by.id());
  HABIT_ASSIGN_OR_RETURN(const db::Table cells,
                         core::ComputeCellStats(table, config));
  report->Add("habit.build.cell_stats_s", cell_span.Stop(), "s",
              Tier::kLayer, detail);
  ScopedSpan transition_span(tracer, "transition_stats", group_by.id());
  HABIT_ASSIGN_OR_RETURN(const db::Table transitions,
                         core::ComputeTransitionStats(table, config));
  report->Add("habit.build.transition_stats_s", transition_span.Stop(), "s",
              Tier::kLayer, detail);
  group_by.Stop();

  ScopedSpan graph_span(tracer, "graph", build.id());
  HABIT_ASSIGN_OR_RETURN(
      graph::Digraph digraph,
      core::BuildTransitionGraph(cells, transitions, config));
  report->Add("habit.build.graph_s", graph_span.Stop(), "s", Tier::kLayer,
              detail);

  ScopedSpan freeze_span(tracer, "freeze", build.id());
  graph::CompactGraph frozen = digraph.Freeze();
  report->Add("graph.freeze_s", freeze_span.Stop(), "s", Tier::kLayer,
              detail);
  HABIT_ASSIGN_OR_RETURN(
      std::unique_ptr<core::HabitFramework> framework,
      core::HabitFramework::FromFrozen(std::move(frozen), config));

  ScopedSpan write_span(tracer, "write", build.id());
  HABIT_RETURN_NOT_OK(core::SaveModelSnapshot(*framework, snapshot_path));
  report->Add("graph.snapshot_write_s", write_span.Stop(), "s", Tier::kLayer,
              detail);
  ScopedSpan load_span(tracer, "load", build.id());
  HABIT_ASSIGN_OR_RETURN(std::unique_ptr<core::HabitFramework> loaded,
                         core::LoadModelSnapshot(snapshot_path));
  report->Add("graph.snapshot_load_s", load_span.Stop(), "s", Tier::kLayer,
              detail);
  std::printf("info  build replay: %zu nodes; no landmarks (the specs "
              "served here carry none)\n",
              loaded->graph().num_nodes());
  return Status::OK();
}

void ReportCache(const api::ModelCache& cache, Report* report) {
  const api::ModelCache::Stats stats = cache.stats();
  report->Add("api.cache_hits", static_cast<double>(stats.hits), "count",
              Tier::kLayer);
  report->Add("api.cache_misses", static_cast<double>(stats.misses), "count",
              Tier::kLayer);
  report->Add("api.cache_coalesced", static_cast<double>(stats.coalesced),
              "count", Tier::kInfo);
}

void ReportSelfTimes(const Tracer& tracer) {
  for (const auto& [name, self] : tracer.SelfTimes()) {
    std::printf("self  %-24s %12.3f ms over %zu spans\n", name.c_str(),
                self.seconds * 1e3, self.count);
  }
}

}  // namespace perfbench
