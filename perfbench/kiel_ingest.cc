// kiel-ingest: one binary connection runs the KIEL gap set against the
// live habit:r=9 spec of a server::Server with ingest enabled (closed
// loop), while a second connection sends trip deltas, each followed by a
// `rollover`, back to back. The window lasts until the last rollover is
// acked, so every read competes with a full epoch rebuild (mostly minidb
// group-by). Answers of the final epoch are checked against a cold
// MakeModel on the cumulative trips.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "api/registry.h"
#include "bench.h"
#include "core/rng.h"
#include "eval/harness.h"
#include "server/frame.h"
#include "server/line_client.h"
#include "server/server.h"

namespace perfbench {

using namespace habit;

namespace {

// Reads share the CPU with a rebuild, so a frame's latency moves in steps
// of the scheduler's slice; 64 queries span several slices, where 16 gave
// run medians clustered at 9.2, 10.4 or 12.0 ms.
constexpr size_t kBatch = 64;
constexpr int kPerDuration = 30;  // x 5 durations = 150 per held-out trip
constexpr int kResolution = 9;
const std::vector<int> kMinutes = {15, 30, 60, 120, 240};
const char* const kSpec = "habit:r=9";
/// The deltas: the held-out trips plus a second, smaller KIEL world with
/// trip ids moved out of the first world's range.
constexpr double kSecondScale = 0.2;
constexpr uint64_t kSecondSeed = kWorldSeed + 1;
constexpr int64_t kSecondIdOffset = 1000000000;
/// Deltas for a window of about `seconds`: a rebuild sharing the CPU with
/// the reads takes about 5 s here. 1 to 3.
int DeltaCount(double seconds) {
  return std::clamp(static_cast<int>(seconds / 5 + 0.5), 1, 3);
}

struct State {
  eval::Experiment exp;
  GapSet gaps;
  std::vector<std::string> deltas;  ///< encoded ingest frames, send order
  std::unique_ptr<server::Server> server;
  std::thread serve;

  ~State() {
    if (server != nullptr) server->Shutdown();
    if (serve.joinable()) serve.join();
  }
};

Result<std::unique_ptr<State>> Setup(const Args& args, Tracer* tracer,
                                     int parent) {
  auto state = std::make_unique<State>();
  {
    ScopedSpan span(tracer, "generate", parent);
    eval::ExperimentOptions options;
    options.seed = kWorldSeed;
    HABIT_ASSIGN_OR_RETURN(state->exp,
                           eval::PrepareExperiment("KIEL", options));
    state->gaps =
        MakeGapSet(state->exp.test_trips, kMinutes, kPerDuration, args.seed);

    eval::ExperimentOptions second_options;
    second_options.seed = kSecondSeed;
    second_options.scale = kSecondScale;
    HABIT_ASSIGN_OR_RETURN(eval::Experiment second,
                           eval::PrepareExperiment("KIEL", second_options));
    std::vector<ais::Trip> pool = state->exp.test_trips;
    for (ais::Trip& trip : second.all_trips) {
      trip.trip_id += kSecondIdOffset;
      pool.push_back(std::move(trip));
    }
    Rng rng(args.seed ^ 0xD1B54A32D192ED03ULL);
    std::shuffle(pool.begin(), pool.end(), rng.engine());
    const size_t count = static_cast<size_t>(DeltaCount(args.seconds));
    for (size_t d = 0; d < count; ++d) {
      server::Request request;
      request.op = server::Request::Op::kIngest;
      for (size_t i = d; i < pool.size(); i += count) {
        request.trips.push_back(pool[i]);
      }
      state->deltas.push_back(server::frame::EncodeRequestFrame(request));
    }
  }
  {
    ScopedSpan span(tracer, "model_build", parent);  // epoch 0
    server::ServerOptions options;
    options.threads = kServerWorkers;
    state->server = std::make_unique<server::Server>(options);
    api::EpochPipeline::Options ingest;
    ingest.spec = kSpec;
    HABIT_RETURN_NOT_OK(
        state->server->EnableIngest(ingest, state->exp.train_trips));
  }
  {
    ScopedSpan span(tracer, "listen", parent);
    HABIT_RETURN_NOT_OK(state->server->Listen(0));
    server::Server* srv = state->server.get();
    state->serve = std::thread([srv] { (void)srv->Serve(); });
  }
  return state;
}

/// What the ingest connection saw, one entry per delta.
struct IngestLog {
  std::vector<double> ingest_ms;   ///< ingest frame -> ack
  std::vector<double> rollover_s;  ///< rollover frame -> ack
  std::vector<double> build_s;     ///< EpochPipeline last_build_seconds
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string problem;
};

// One ingest/rollover round trip; true when the ack names `op`.
bool Ack(server::LineClient& client, const std::string& frame_bytes,
         server::Request::Op op, uint64_t* epoch, std::string* problem) {
  server::frame::FrameResponse response;
  if (!client.CallBinary(frame_bytes, &response)) {
    *problem = client.last_error();
    return false;
  }
  if (response.tag != server::frame::ResponseTag::kAck ||
      response.ack_op != op) {
    *problem = server::frame::ResponseToJsonLine(response).substr(0, 200);
    return false;
  }
  *epoch = response.epoch;
  return true;
}

void RunIngestSchedule(const State& state, Tracer* tracer, IngestLog* log) {
  server::ClientOptions options;
  options.connect_timeout_ms = 5000;
  options.io_timeout_ms = 60000;
  options.binary = true;
  server::LineClient client(state.server->bound_port(), options);
  server::Request rollover;
  rollover.op = server::Request::Op::kRollover;
  const std::string rollover_frame =
      server::frame::EncodeRequestFrame(rollover);
  // Back to back: each delta is due the moment the previous rollover is
  // acked, so the schedule never runs late and no read sees an idle builder.
  for (size_t d = 0; d < state.deltas.size(); ++d) {
    const auto rid = static_cast<int64_t>(d);
    uint64_t epoch = 0;
    log->attempted += 2;
    ScopedSpan ingest(tracer, "ingest", -1, rid);
    if (!Ack(client, state.deltas[d], server::Request::Op::kIngest, &epoch,
             &log->problem)) {
      log->failed += 2;
      return;
    }
    log->ingest_ms.push_back(ingest.Stop() * 1e3);
    ScopedSpan roll(tracer, "rollover", -1, rid);
    if (!Ack(client, rollover_frame, server::Request::Op::kRollover, &epoch,
             &log->problem)) {
      log->failed += 1;
      return;
    }
    log->rollover_s.push_back(roll.Stop());
    log->build_s.push_back(
        state.server->epoch_pipeline()->stats().last_build_seconds);
    if (epoch != d + 1) {
      log->problem = "rollover " + std::to_string(d) + " acked epoch " +
                     std::to_string(epoch);
      log->failed += 1;
      return;
    }
  }
}

}  // namespace

Status RunKielIngest(const Args& args, Report* report, Tracer* tracer,
                     HostGauge* gauge) {
  HABIT_ASSIGN_OR_RETURN(
      std::unique_ptr<State> state,
      RepeatSetup<State>(report, tracer, gauge, [&](int parent) {
        return Setup(args, tracer, parent);
      }));
  LogPhase("set-up");
  const GapSet& gaps = state->gaps;
  const auto frames = CutFrames(gaps, kBatch);
  PrintGapSet(gaps, frames.size(), kBatch);
  std::printf("info  deltas=%zu, sent back to back\n", state->deltas.size());

  // Reads during the window cannot be checked (the epoch moves under
  // them); the final pass below is.
  std::vector<WireFrame> wire(frames.size());
  for (size_t f = 0; f < frames.size(); ++f) {
    server::Request request;
    request.op = server::Request::Op::kImputeBatch;
    request.model = kSpec;
    request.requests.assign(frames[f].begin(), frames[f].end());
    wire[f].bytes = server::frame::EncodeRequestFrame(request);
    wire[f].queries = frames[f].size();
  }
  LoopOptions options;
  options.port = state->server->bound_port();
  options.binary = true;
  options.connections = 1;
  CheckPass("warm-up", RunLoop(wire, options), report);
  LogPhase("warm-up");

  std::atomic<bool> hold{true};
  IngestLog log;
  std::thread ingest([&] {
    RunIngestSchedule(*state, tracer, &log);
    hold.store(false);
  });
  // The window is the ingest schedule: it closes when the last rollover is
  // acked (DeltaCount sizes the schedule to about --seconds).
  options.seconds = 1e-3;
  options.hold = &hold;
  options.tracer = tracer;
  options.gauge = gauge;
  const LoopStats window = RunLoop(wire, options);
  ingest.join();
  LogPhase("window");
  ReportLoop("window", window, report, Tier::kEndToEnd);
  report->CountFrames(log.attempted, log.failed);
  if (!log.problem.empty()) {
    report->Fail("ingest schedule: " + log.problem);
  }

  char detail[96];
  std::snprintf(detail, sizeof(detail), "median of n=%zu rollovers",
                log.rollover_s.size());
  report->Add("rollover_s", Median(log.rollover_s), "s", Tier::kInfo, detail);
  report->Add("api.build_s", Median(log.build_s), "s", Tier::kInfo, detail);
  std::vector<double> overhead;
  for (size_t i = 0; i < log.rollover_s.size() && i < log.build_s.size();
       ++i) {
    overhead.push_back(log.rollover_s[i] - log.build_s[i]);
  }
  report->Add("api.rollover_overhead_s", Median(overhead), "s", Tier::kInfo,
              "rollover_s - api.build_s, " + std::string(detail));
  report->Add("api.ingest_ms", Median(log.ingest_ms), "ms", Tier::kInfo,
              detail);

  // The reference: a cold MakeModel on the cumulative trips (epoch-0 base
  // followed by every delta as the server decoded it).
  std::vector<ais::Trip> cumulative = state->exp.train_trips;
  for (const std::string& delta : state->deltas) {
    HABIT_ASSIGN_OR_RETURN(
        server::frame::FrameRequest decoded,
        server::frame::DecodeRequestPayload(FramePayload(delta), 1u << 20,
                                            false));
    for (ais::Trip& trip : decoded.request.trips) {
      cumulative.push_back(std::move(trip));
    }
  }
  HABIT_ASSIGN_OR_RETURN(std::unique_ptr<api::ImputationModel> reference,
                         api::MakeModel(kSpec, cumulative));
  const BatchReplay replay =
      ReplayBatches(*reference, frames, tracer, args.trace);
  for (size_t f = 0; f < frames.size(); ++f) {
    wire[f].expect = Hash(FramePayload(server::frame::EncodeResultsFrame(
        replay.results[f], server::Json(), /*batch=*/true)));
  }
  options.seconds = 0;
  options.hold = nullptr;
  options.tracer = nullptr;
  CheckPass("final pass", RunLoop(wire, options), report);
  LogPhase("reference + final pass");
  ReportDtw(gaps, ReplayPaths(replay, gaps.requests.size()), "final epoch",
            report);

  if (args.trace) {
    std::printf("info  tracing overhead is not measured on this workload "
                "(one window: a second would roll more epochs)\n");
    const double handle_ms =
        ReplayServer(*state->server, wire, replay, /*time_resolve=*/false,
                     tracer, report);
    report->Add("server.wire_wait_ms", Median(window.latency_ms) - handle_ms,
                "ms", Tier::kLayer,
                "traced frame p50 during rollovers - in-process "
                "server.handle_ms after them");
    ReportQueryLayers(replay, handle_ms, report);
    ReportCache(state->server->cache(), report);
    HABIT_RETURN_NOT_OK(ReplayBuild(cumulative, kResolution,
                                    args.work_dir + "/replay.snap", tracer,
                                    report));
  }
  LogPhase("report");
  report->Add("peak_rss_mb", PeakRssMb(), "MB", Tier::kEndToEnd,
              "process peak RSS");
  return Status::OK();
}

}  // namespace perfbench
