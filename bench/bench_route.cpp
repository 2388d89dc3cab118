// bench_route — sharded-serving throughput + per-shard memory bench.
//
// Builds an H3-sharded deployment from a synthetic KIEL feed (shard-build:
// one frozen HABIT snapshot per parent cell plus the full-graph fallback),
// then measures the two quantities the sharding design trades between:
//
//  * routed_qps — concurrent clients driving impute_batch frames through a
//    router::Router over a local backend, next to the same workload served
//    monolithically (serve_qps) so the routing overhead is one ratio;
//  * per-shard peak RSS — each shard snapshot loaded in isolation
//    (malloc_trim + VmHWM reset between loads, same probe as
//    bench_table2_storage), reported as the max across shards next to the
//    monolithic model's footprint. Sharding only earns its keep if
//    max_shard_peak_rss_kb stays strictly below the monolithic figure.
//
//   bench_route [scale] [clients] [frames_per_client] [batch] [parent_res]
//               [--backend local|binary]
//
//   --backend   what carries the router's shard fan-out: "local" (default)
//               calls the server in-process; "binary" stands up a real
//               TCP server on an ephemeral loopback port behind a
//               RemoteBackend, speaking HBTF frames — the router->backend
//               hop the sharded fleet deployment pays.
//
// Machine-readable results are emitted as `BENCH_METRIC {json}` lines
// (folded by bench/run_all.sh into the trajectory file).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "api/registry.h"
#include "core/parse.h"
#include "core/stopwatch.h"
#include "eval/harness.h"
#include "router/backend.h"
#include "router/router.h"
#include "router/shard_builder.h"
#include "server/protocol.h"
#include "server/server.h"

namespace {

using namespace habit;

long ReadProcStatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, std::strlen(field)) == 0) {
      std::sscanf(line + std::strlen(field), "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

long CurrentRssKb() { return ReadProcStatusKb("VmRSS:"); }
long PeakRssKb() { return ReadProcStatusKb("VmHWM:"); }

void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

// Peak-RSS delta of loading one snapshot spec, model dropped on return
// (the footprint a dedicated serving process for this shard would carry).
long MeasureLoadPeakKb(const std::string& spec, bool* ok) {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  ResetPeakRss();
  const long before = CurrentRssKb();
  auto model = api::MakeModel(spec, {});
  *ok = model.ok();
  if (!model.ok()) {
    std::fprintf(stderr, "error: load %s: %s\n", spec.c_str(),
                 model.status().ToString().c_str());
    return 0;
  }
  return PeakRssKb() - before;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Drives `frames` impute_batch round trips per client through `handle`
// and returns queries/second (0 on any client failure).
double DriveClients(int clients, int frames_per_client,
                    const std::string& frame_line, size_t batch,
                    const std::function<std::string(const std::string&)>&
                        handle) {
  std::vector<char> client_ok(static_cast<size_t>(clients), 0);
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int f = 0; f < frames_per_client; ++f) {
        const std::string response = handle(frame_line);
        if (response.rfind("{\"ok\":true", 0) != 0) return;
      }
      client_ok[static_cast<size_t>(c)] = 1;
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds = wall.ElapsedSeconds();
  for (int c = 0; c < clients; ++c) {
    if (!client_ok[static_cast<size_t>(c)]) return 0;
  }
  return static_cast<double>(clients) *
         static_cast<double>(frames_per_client) *
         static_cast<double>(batch) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  int clients = 4;
  int frames_per_client = 8;
  int batch = 32;
  int parent_res = 4;
  std::string backend_mode = "local";
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: bench_route [scale] [clients] "
                 "[frames_per_client] [batch] [parent_res]\n"
                 "                   [--backend local|binary]\n");
    return 2;
  };
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--backend") {
      if (i + 1 >= argc) return usage();
      backend_mode = argv[++i];
      if (backend_mode != "local" && backend_mode != "binary") {
        return usage();
      }
      continue;
    }
    ++positional;
    if (positional == 1) {
      const auto v = core::ParseDouble(argv[i]);
      if (!v.ok() || v.value() <= 0 || v.value() > 1000) return usage();
      scale = v.value();
      continue;
    }
    if (positional > 5) return usage();
    const auto v = core::ParseInt(argv[i]);
    if (!v.ok() || v.value() < 1 || v.value() > 1024) {
      std::fprintf(stderr, "bad integer argument '%s'\n", argv[i]);
      return 2;
    }
    if (positional == 2) clients = v.value();
    if (positional == 3) frames_per_client = v.value();
    if (positional == 4) batch = v.value();
    if (positional == 5) parent_res = v.value();
  }

  // ---- shard deployment: one build from a synthetic KIEL feed.
  std::printf("preparing KIEL (scale %.2f)...\n", scale);
  eval::ExperimentOptions exp_options;
  exp_options.scale = scale;
  auto exp = eval::PrepareExperiment("KIEL", exp_options);
  if (!exp.ok()) return Fail(exp.status());
  const std::string shard_dir =
      (std::filesystem::temp_directory_path() / "bench_route_shards")
          .string();
  std::filesystem::remove_all(shard_dir);
  router::ShardBuildOptions build_options;
  build_options.parent_res = parent_res;
  build_options.halo_k = 1;
  build_options.spec = "habit:r=9";
  build_options.out_dir = shard_dir;
  Stopwatch build_timer;
  auto manifest = router::BuildShards(exp.value().train_trips, build_options);
  if (!manifest.ok()) return Fail(manifest.status());
  const double build_seconds = build_timer.ElapsedSeconds();
  std::printf("built %zu shards + fallback (parent_res=%d) in %.2fs\n",
              manifest.value().shards.size(), parent_res, build_seconds);

  const std::vector<api::ImputeRequest> gap_requests =
      eval::GapRequests(exp.value());
  if (gap_requests.empty()) return Fail(Status::Internal("no gap cases"));
  std::vector<api::ImputeRequest> frame(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    frame[static_cast<size_t>(i)] =
        gap_requests[static_cast<size_t>(i) % gap_requests.size()];
  }

  // ---- routed path: Router over the selected backend, warmed. "local"
  // calls the server in-process; "binary" pays the real TCP hop a
  // sharded fleet pays, through RemoteBackend's pooled connections.
  server::ServerOptions server_options;
  server::Server server(server_options);
  std::thread serve_thread;
  std::vector<std::shared_ptr<router::ShardBackend>> backends;
  if (backend_mode == "local") {
    backends.push_back(std::make_shared<router::LocalBackend>(&server));
  } else {
    const Status listen = server.Listen(0);
    if (!listen.ok()) return Fail(listen);
    serve_thread = std::thread([&server] { (void)server.Serve(); });
    server::ClientOptions client_options;
    client_options.connect_timeout_ms = 2000;
    client_options.io_timeout_ms = 30000;
    backends.push_back(std::make_shared<router::RemoteBackend>(
        server.bound_port(), client_options));
  }
  auto made = router::Router::Make(
      manifest.value(), shard_dir, std::move(backends),
      router::RouterOptions{.max_batch = static_cast<size_t>(batch)});
  if (!made.ok()) return Fail(made.status());
  router::Router& router = *made.value();
  const std::string routed_line =
      server::EncodeImputeBatchRequest("", frame);
  if (router.HandleLine(routed_line).rfind("{\"ok\":true", 0) != 0) {
    return Fail(Status::Internal("routed warm-up frame failed"));
  }
  const double routed_qps =
      DriveClients(clients, frames_per_client, routed_line,
                   static_cast<size_t>(batch),
                   [&router](const std::string& line) {
                     return router.HandleLine(line);
                   });
  if (routed_qps == 0) return Fail(Status::Internal("routed client failed"));
  if (serve_thread.joinable()) {
    server.Shutdown();
    serve_thread.join();
  }

  // ---- monolithic reference: the same frames against the full-graph
  // snapshot on an identical fresh server.
  server::Server mono_server(server_options);
  const std::string mono_line =
      server::EncodeImputeBatchRequest(router.fallback_spec(), frame);
  if (mono_server.HandleLine(mono_line).rfind("{\"ok\":true", 0) != 0) {
    return Fail(Status::Internal("monolithic warm-up frame failed"));
  }
  const double serve_qps =
      DriveClients(clients, frames_per_client, mono_line,
                   static_cast<size_t>(batch),
                   [&mono_server](const std::string& line) {
                     return mono_server.HandleLine(line);
                   });
  if (serve_qps == 0) return Fail(Status::Internal("mono client failed"));

  std::printf(
      "routed %.0f q/s (%s backend) vs monolithic %.0f q/s (%d clients x "
      "%d frames x batch %d, overhead x%.2f)\n",
      routed_qps, backend_mode.c_str(), serve_qps, clients,
      frames_per_client, batch, serve_qps / routed_qps);

  // ---- memory: per-shard peak vs monolithic peak, loads in isolation.
  long max_shard_peak_kb = 0;
  std::string max_shard_cell;
  for (size_t i = 0; i < manifest.value().shards.size(); ++i) {
    bool ok = false;
    const long peak = MeasureLoadPeakKb(router.shard_spec(i), &ok);
    if (!ok) return 1;
    if (peak > max_shard_peak_kb) {
      max_shard_peak_kb = peak;
      max_shard_cell = router::CellToHex(
          manifest.value().shards[i].parent_cell);
    }
  }
  bool ok = false;
  const long mono_peak_kb = MeasureLoadPeakKb(router.fallback_spec(), &ok);
  if (!ok) return 1;
  std::printf(
      "peak RSS: largest shard %ld KB (cell %s) vs monolithic %ld KB "
      "(x%.2f smaller)\n",
      max_shard_peak_kb, max_shard_cell.c_str(), mono_peak_kb,
      max_shard_peak_kb > 0
          ? static_cast<double>(mono_peak_kb) /
                static_cast<double>(max_shard_peak_kb)
          : 0.0);

  std::printf(
      "BENCH_METRIC {\"metric\":\"routed_qps\",\"dataset\":\"KIEL\","
      "\"scale\":%.3f,\"clients\":%d,\"batch\":%d,\"parent_res\":%d,"
      "\"shards\":%zu,\"backend\":\"%s\",\"routed_qps\":%.1f,"
      "\"serve_qps\":%.1f,\"shard_build_seconds\":%.2f}\n",
      scale, clients, batch, parent_res, manifest.value().shards.size(),
      backend_mode.c_str(), routed_qps, serve_qps, build_seconds);
  std::printf(
      "BENCH_METRIC {\"metric\":\"shard_rss\",\"dataset\":\"KIEL\","
      "\"scale\":%.3f,\"parent_res\":%d,\"shards\":%zu,"
      "\"max_shard_peak_rss_kb\":%ld,\"monolithic_peak_rss_kb\":%ld}\n",
      scale, parent_res, manifest.value().shards.size(), max_shard_peak_kb,
      mono_peak_kb);

  std::filesystem::remove_all(shard_dir);
  return 0;
}
