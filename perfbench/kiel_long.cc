// kiel-r10-long: binary clients straight to an in-process server::Server
// holding a KIEL scale-1 habit:r=10 snapshot, over ~2,100 gaps of 15-240
// min (about half >= 20 km). The search does most of the work here; the
// router and the build sit idle once set-up is done.
#include <cstdio>
#include <filesystem>
#include <thread>

#include "api/registry.h"
#include "bench.h"
#include "eval/harness.h"
#include "server/frame.h"
#include "server/server.h"

namespace perfbench {

using namespace habit;

namespace {

constexpr int kConnections = 2;
constexpr size_t kBatch = 16;
constexpr int kPerDuration = 30;  // x 5 durations = 150 per held-out trip
constexpr int kResolution = 10;
const std::vector<int> kMinutes = {15, 30, 60, 120, 240};

struct State {
  eval::Experiment exp;
  GapSet gaps;
  std::string spec;  ///< habit:load=<snapshot>
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
  }
  const std::string snapshot = args.work_dir + "/kiel_r10.snap";
  {
    ScopedSpan span(tracer, "model_build", parent);  // + snapshot write
    api::MethodSpec spec;
    spec.method = "habit";
    spec.params = {{"r", std::to_string(kResolution)}, {"save", snapshot}};
    HABIT_ASSIGN_OR_RETURN(auto model,
                           api::MakeModel(spec, state->exp.train_trips));
  }
  api::MethodSpec load;
  load.method = "habit";
  load.params = {{"load", snapshot}};
  state->spec = load.ToString();
  {
    ScopedSpan span(tracer, "model_load", parent);
    server::ServerOptions options;
    options.threads = kServerWorkers;
    state->server = std::make_unique<server::Server>(options);
    HABIT_ASSIGN_OR_RETURN(auto model, state->server->Resolve(load));
  }
  {
    ScopedSpan span(tracer, "listen", parent);
    HABIT_RETURN_NOT_OK(state->server->Listen(0));
    server::Server* srv = state->server.get();
    state->serve = std::thread([srv] { (void)srv->Serve(); });
  }
  return state;
}

}  // namespace

Status RunKielLong(const Args& args, Report* report, Tracer* tracer,
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
  if (gaps.requests.size() < 2000 || gaps.long_gaps < 200) {
    report->Fail("gap set below 2,000 gaps / 200 long gaps");
  }

  // The reference: ImputeBatch per frame on the same snapshot, loaded
  // separately in-process. Its timings are the api/habit layer numbers.
  HABIT_ASSIGN_OR_RETURN(std::unique_ptr<api::ImputationModel> reference,
                         api::MakeModel(state->spec, {}));
  const BatchReplay replay =
      ReplayBatches(*reference, frames, tracer, args.trace);
  std::vector<WireFrame> wire(frames.size());
  for (size_t f = 0; f < frames.size(); ++f) {
    server::Request request;
    request.op = server::Request::Op::kImputeBatch;
    request.model = state->spec;
    request.requests.assign(frames[f].begin(), frames[f].end());
    wire[f].bytes = server::frame::EncodeRequestFrame(request);
    wire[f].expect = Hash(FramePayload(server::frame::EncodeResultsFrame(
        replay.results[f], server::Json(), /*batch=*/true)));
    wire[f].queries = frames[f].size();
  }

  LoopOptions options;
  options.port = state->server->bound_port();
  options.binary = true;
  options.connections = kConnections;
  LogPhase("reference");
  CheckPass("warm-up", RunLoop(wire, options), report);
  LogPhase("warm-up");
  options.gauge = gauge;
  const LoopStats window =
      MeasureWindows(wire, options, args, tracer, report);
  LogPhase("window");

  ReportDtw(gaps, ReplayPaths(replay, gaps.requests.size()), "served answers",
            report);
  if (args.trace) {
    const double handle_ms =
        ReplayServer(*state->server, wire, replay, /*time_resolve=*/true,
                     tracer, report);
    report->Add("server.wire_wait_ms", Median(window.latency_ms) - handle_ms,
                "ms", Tier::kLayer,
                "traced frame p50 - in-process server.handle_ms");
    ReportQueryLayers(replay, handle_ms, report);
    ReportCache(state->server->cache(), report);
    HABIT_RETURN_NOT_OK(ReplayBuild(state->exp.train_trips, kResolution,
                                    args.work_dir + "/replay.snap", tracer,
                                    report));
  }
  LogPhase("report");
  report->Add("peak_rss_mb", PeakRssMb(), "MB", Tier::kEndToEnd,
              "process peak RSS");
  return Status::OK();
}

}  // namespace perfbench
