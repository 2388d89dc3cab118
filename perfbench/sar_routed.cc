// sar-routed-short: JSON clients talk to a router::Router on a
// LineTransport, wired the way habit_route wires it, which forwards over a
// binary RemoteBackend to a server::Server holding the SAR scale-1 shard
// set (parent_res 4, halo 1). Only 15 and 30 min gaps, so queries are
// cheap and the time goes to codecs, router fan-out, transport and
// queueing rather than search.
#include <cstdio>
#include <filesystem>
#include <thread>

#include "api/registry.h"
#include "bench.h"
#include "eval/harness.h"
#include "router/backend.h"
#include "router/router.h"
#include "router/shard_builder.h"
#include "server/frame.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/transport.h"

namespace perfbench {

using namespace habit;

namespace {

constexpr int kConnections = 2;
constexpr size_t kBatch = 8;
constexpr int kPerDuration = 16;  // x 2 durations = 32 per held-out trip
const std::vector<int> kMinutes = {15, 30};

/// Forwards to another backend, counting every sub-frame and recording a
/// span per call (on an enabled tracer) under the parent set beforehand.
class TimedBackend : public router::ShardBackend {
 public:
  TimedBackend(std::shared_ptr<router::ShardBackend> inner, Tracer* tracer,
               std::string span_name)
      : inner_(std::move(inner)),
        tracer_(tracer),
        span_name_(std::move(span_name)) {}

  Result<std::string> Call(const std::string& line) override {
    calls_.fetch_add(1);
    ScopedSpan span(tracer_, span_name_, parent_.load());
    return inner_->Call(line);
  }
  std::string Describe() const override { return inner_->Describe(); }

  void set_parent(int span_id) { parent_.store(span_id); }
  uint64_t calls() const { return calls_.load(); }

 private:
  std::shared_ptr<router::ShardBackend> inner_;
  Tracer* tracer_;
  std::string span_name_;
  std::atomic<int> parent_{-1};
  std::atomic<uint64_t> calls_{0};
};

struct State {
  eval::Experiment exp;
  GapSet gaps;
  std::string shard_dir;
  router::ShardManifest manifest;
  std::unique_ptr<server::Server> backend;
  std::thread backend_serve;
  std::unique_ptr<router::Router> router;
  std::unique_ptr<server::WorkerPool> dispatch;
  std::unique_ptr<server::LineTransport> front;
  std::thread front_serve;

  // Front first (drains in-flight router frames), then the router's
  // dispatch pool, the router, and finally the backend it forwards to.
  ~State() {
    if (front != nullptr) front->Shutdown();
    if (front_serve.joinable()) front_serve.join();
    front.reset();
    if (dispatch != nullptr) dispatch->Shutdown();
    router.reset();
    if (backend != nullptr) backend->Shutdown();
    if (backend_serve.joinable()) backend_serve.join();
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
                           eval::PrepareExperiment("SAR", options));
    state->gaps =
        MakeGapSet(state->exp.test_trips, kMinutes, kPerDuration, args.seed);
  }
  {
    ScopedSpan span(tracer, "shard_build", parent);
    state->shard_dir = args.work_dir + "/shards";
    std::filesystem::remove_all(state->shard_dir);
    router::ShardBuildOptions options;
    options.parent_res = 4;
    options.halo_k = 1;
    options.spec = "habit:r=9";
    options.out_dir = state->shard_dir;
    HABIT_ASSIGN_OR_RETURN(state->manifest,
                           router::BuildShards(state->exp.train_trips, options));
  }
  {
    ScopedSpan span(tracer, "listen", parent);
    server::ServerOptions options;
    options.threads = kServerWorkers;
    state->backend = std::make_unique<server::Server>(options);
    HABIT_RETURN_NOT_OK(state->backend->Listen(0));
    server::Server* backend = state->backend.get();
    state->backend_serve = std::thread([backend] { (void)backend->Serve(); });

    server::ClientOptions client;
    client.connect_timeout_ms = 2000;
    client.io_timeout_ms = 30000;
    client.binary = true;
    std::shared_ptr<router::ShardBackend> remote =
        std::make_shared<router::RemoteBackend>(backend->bound_port(), client);
    if (tracer->enabled()) {
      remote = std::make_shared<TimedBackend>(remote, tracer, "backend_rtt");
    }
    HABIT_ASSIGN_OR_RETURN(
        state->router, router::Router::Make(state->manifest, state->shard_dir,
                                            {remote}, router::RouterOptions{}));
  }
  {
    ScopedSpan span(tracer, "model_load", parent);
    std::vector<std::string> specs = {state->router->fallback_spec()};
    for (size_t i = 0; i < state->manifest.shards.size(); ++i) {
      specs.push_back(state->router->shard_spec(i));
    }
    for (const std::string& text : specs) {
      HABIT_ASSIGN_OR_RETURN(const api::MethodSpec spec,
                             api::MethodSpec::Parse(text));
      HABIT_ASSIGN_OR_RETURN(auto model, state->backend->Resolve(spec));
    }
  }
  {
    ScopedSpan span(tracer, "listen", parent);
    router::Router* router = state->router.get();
    state->dispatch = std::make_unique<server::WorkerPool>(kServerWorkers);
    server::WorkerPool* dispatch = state->dispatch.get();
    server::TransportHooks hooks;
    hooks.handle = [router](std::string_view line) {
      return router->HandleLine(line);
    };
    hooks.oversize = [router] { return router->OversizeLine(); };
    hooks.submit = [dispatch](std::function<void()> work) {
      return dispatch->Submit(std::move(work));
    };
    state->front = std::make_unique<server::LineTransport>(
        router::RouterOptions{}.max_line_bytes, std::move(hooks));
    HABIT_RETURN_NOT_OK(state->front->Listen(0));
    server::LineTransport* front = state->front.get();
    state->front_serve = std::thread([front] { (void)front->Serve(); });
  }
  return state;
}

geo::Polyline ParsePath(const server::Json& result) {
  geo::Polyline path;
  const server::Json* points = result.Find("path");
  if (points == nullptr) return path;
  for (const server::Json& p : points->items()) {
    if (p.items().size() == 2) {
      path.push_back({p.items()[0].number_value(), p.items()[1].number_value()});
    }
  }
  return path;
}

}  // namespace

Status RunSarRouted(const Args& args, Report* report, Tracer* tracer,
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
  std::printf("info  shards=%zu + fallback\n", state->manifest.shards.size());

  // The reference: Router::HandleLine over a LocalBackend, in-process, on
  // the same shard set. Its per-frame time is router.handle_ms; the
  // sub-frames it sends are Server::HandleLine calls (server.handle_ms).
  server::ServerOptions ref_options;
  ref_options.threads = kServerWorkers;
  server::Server ref_server(ref_options);
  auto local = std::make_shared<TimedBackend>(
      std::make_shared<router::LocalBackend>(&ref_server), tracer,
      "backend_call");
  HABIT_ASSIGN_OR_RETURN(
      std::unique_ptr<router::Router> ref_router,
      router::Router::Make(state->manifest, state->shard_dir, {local}));

  std::vector<WireFrame> wire(frames.size());
  std::vector<std::optional<geo::Polyline>> paths;
  std::map<std::string, double> routes;
  std::vector<double> route_ms;
  std::vector<double> subframes;
  for (size_t f = 0; f < frames.size(); ++f) {
    wire[f].bytes = server::EncodeImputeBatchRequest("", frames[f]);
    wire[f].queries = frames[f].size();
    const uint64_t calls = local->calls();
    ScopedSpan route(tracer, "route", -1, static_cast<int64_t>(f));
    local->set_parent(route.id());
    const std::string expected = ref_router->HandleLine(wire[f].bytes);
    route_ms.push_back(route.Stop() * 1e3);
    subframes.push_back(static_cast<double>(local->calls() - calls));
    wire[f].expect = Hash(expected);

    auto parsed = server::Json::Parse(expected);
    const server::Json* ok = parsed.ok() ? parsed.value().Find("ok") : nullptr;
    if (ok == nullptr || !ok->bool_value()) {
      return Status::Internal("reference router rejected frame " +
                              std::to_string(f) + ": " + expected);
    }
    for (const server::Json& result :
         parsed.value().Find("results")->items()) {
      const server::Json* answered = result.Find("ok");
      if (answered != nullptr && answered->bool_value()) {
        paths.emplace_back(ParsePath(result));
      } else {
        paths.emplace_back(std::nullopt);
      }
    }
    for (const server::Json& r : parsed.value().Find("routes")->items()) {
      routes[r.string_value()] += 1;
    }
  }
  for (const char* route : {"shard", "halo", "fallback", "degraded"}) {
    report->Add(std::string("router.route.") + route, routes[route], "count",
                Tier::kInfo, "reference answers, one pass");
  }
  if (routes["degraded"] + routes["unavailable"] > 0) {
    report->Fail("router answers degraded or unavailable");
  }

  LoopOptions options;
  options.port = state->front->bound_port();
  options.binary = false;
  options.connections = kConnections;
  LogPhase("reference");
  CheckPass("warm-up", RunLoop(wire, options), report);
  LogPhase("warm-up");
  options.gauge = gauge;
  const LoopStats window =
      MeasureWindows(wire, options, args, tracer, report);
  LogPhase("window");
  ReportDtw(gaps, paths, "served answers", report);

  if (args.trace) {
    char detail[96];
    std::snprintf(detail, sizeof(detail), "mean of n=%zu frames",
                  route_ms.size());
    const double router_ms = Mean(route_ms);
    report->Add("router.handle_ms", router_ms, "ms", Tier::kInfo,
                std::string(detail) + ", Router::HandleLine over LocalBackend");
    report->Add("router.subframes", Mean(subframes), "count", Tier::kInfo,
                detail);
    const std::vector<double> rtt = tracer->Durations("backend_rtt");
    std::snprintf(detail, sizeof(detail),
                  "median of n=%zu RemoteBackend::Call, all live calls",
                  rtt.size());
    report->Add("router.backend_rtt_ms", Median(rtt) * 1e3, "ms",
                Tier::kInfo, detail);
    // Server::HandleLine per sub-frame, summed per frame.
    double handle_s = 0;
    for (double s : tracer->Durations("backend_call")) handle_s += s;
    const double handle_ms =
        handle_s * 1e3 / static_cast<double>(std::max<size_t>(frames.size(), 1));
    report->Add("server.handle_ms", handle_ms, "ms", Tier::kLayer,
                "summed in-process Server::HandleLine per frame");
    report->Add("server.wire_wait_ms", Median(window.latency_ms) -
                                           Median(route_ms),
                "ms", Tier::kLayer,
                "traced frame p50 - in-process router p50");

    // api/habit on the fallback (full-graph) model, and the codecs a
    // routed frame passes through: JSON at the router front, binary on the
    // router -> backend hop.
    HABIT_ASSIGN_OR_RETURN(const api::MethodSpec fallback,
                           api::MethodSpec::Parse(ref_router->fallback_spec()));
    HABIT_ASSIGN_OR_RETURN(auto model, ref_server.Resolve(fallback));
    const BatchReplay replay = ReplayBatches(*model, frames, tracer, true);
    std::vector<double> decode_us, encode_us;
    for (size_t f = 0; f < frames.size(); ++f) {
      const auto rid = static_cast<int64_t>(f);
      server::Request request;
      request.op = server::Request::Op::kImputeBatch;
      request.model = ref_router->fallback_spec();
      request.requests.assign(frames[f].begin(), frames[f].end());
      const std::string binary = server::frame::EncodeRequestFrame(request);
      ScopedSpan decode(tracer, "decode", -1, rid);
      const bool parsed =
          server::ParseRequest(wire[f].bytes, 4096, false).ok() &&
          server::frame::DecodeRequestPayload(FramePayload(binary), 4096, true)
              .ok();
      decode_us.push_back(decode.Stop() * 1e6);
      if (!parsed) report->Fail("codec replay could not decode a frame");
      ScopedSpan encode(tracer, "encode", -1, rid);
      server::BatchResponseLine(replay.results[f], server::Json());
      server::frame::EncodeResultsFrame(replay.results[f], server::Json(),
                                        true);
      encode_us.push_back(encode.Stop() * 1e6);
    }
    std::snprintf(detail, sizeof(detail),
                  "mean of n=%zu frames, JSON front + binary hop",
                  frames.size());
    report->Add("server.decode_us", Mean(decode_us), "us", Tier::kLayer,
                detail);
    report->Add("server.encode_us", Mean(encode_us), "us", Tier::kLayer,
                detail);
    ReportQueryLayers(replay, handle_ms, report);
    ReportCache(state->backend->cache(), report);
    HABIT_RETURN_NOT_OK(ReplayBuild(state->exp.train_trips, 9,
                                    args.work_dir + "/replay.snap", tracer,
                                    report));
  }
  LogPhase("report");
  report->Add("peak_rss_mb", PeakRssMb(), "MB", Tier::kEndToEnd,
              "process peak RSS");
  return Status::OK();
}

}  // namespace perfbench
