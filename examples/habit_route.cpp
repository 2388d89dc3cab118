// habit_route — the shard-routing frontend for H3-sharded serving.
//
// Loads a checksummed shard manifest (written by `habit_cli shard-build`),
// verifies every shard snapshot against it, and serves the habit_serve
// line protocol minus the "model" field: the manifest maps each request's
// gap to a shard, sub-frames fan out to the backends, and responses
// reassemble in request order with the routing strategy recorded per
// response ("shard" / "halo" / "fallback" / "degraded"; see
// src/router/router.h).
//
// Two backend modes:
//   --backends P1,P2,...   a habit_serve fleet on loopback ports; shard i
//                          is served by port[i % N], the fallback by the
//                          last port. Sub-frames travel as binary HBTF
//                          frames on pooled LineClient connections with
//                          connect/IO timeouts; a backend that is down,
//                          or does not speak HBTF, degrades its shards
//                          to the fallback instead of erroring the batch.
//   --local                one in-process server::Server holds every
//                          shard model behind one ModelCache — no
//                          sockets, no fleet. Tests, CI, and
//                          single-machine deployments.
//
//   habit_route --manifest DIR/manifest.json (--local | --backends P,..)
//               [--port N | --stdin] [--map] [--retries N]
//               [--connect-timeout-ms N] [--io-timeout-ms N]
//               [--threads N] [--cache-bytes N] [--max-batch N]
//
//   --manifest PATH        the shard manifest (required)
//   --map                  serve shard snapshots zero-copy (mmap; load
//                          specs gain map=1)
//   --retries N            transport retries per sub-frame before
//                          degrading (default 1)
//   --connect-timeout-ms / --io-timeout-ms
//                          LineClient deadlines for --backends mode
//                          (default 2000 / 10000; 0 = blocking)
//   --threads / --cache-bytes
//                          the in-process server's pool and cache
//                          (--local mode; --threads also sizes the
//                          router's frame-dispatch pool)
//   --port N               TCP port (loopback; 0 = ephemeral, default
//                          7412); --stdin serves the pipe instead
//
// Example (two-shard local session):
//   $ habit_cli shard-build kiel.csv shards/ habit:r=8 4 1
//   $ habit_route --manifest shards/manifest.json --local --stdin <<'EOF'
//   {"op":"impute","request":{"gap_start":{"lat":54.4,"lng":10.22},
//    "gap_end":{"lat":54.41,"lng":10.24},"t_start":0,"t_end":3600}}
//   EOF
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/parse.h"
#include "router/backend.h"
#include "router/router.h"
#include "server/server.h"
#include "server/transport.h"

namespace {

using namespace habit;

// The transport's stop eventfd: write(2) is async-signal-safe and
// reliably wakes the epoll event loop.
volatile int g_stop_fd = -1;

void HandleSignal(int) {
  if (g_stop_fd >= 0) {
    const uint64_t one = 1;
    // lint: socket-io(async-signal-safe eventfd wake, not socket IO)
    [[maybe_unused]] auto n = ::write(g_stop_fd, &one, sizeof(one));
  }
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: habit_route --manifest PATH (--local | --backends P1,P2,...)\n"
      "                   [--port N | --stdin] [--map] [--retries N]\n"
      "                   [--connect-timeout-ms N] [--io-timeout-ms N]\n"
      "                   [--threads N] [--cache-bytes N] [--max-batch N]\n");
  return 2;
}

int BadFlag(const char* flag, const Status& status) {
  std::fprintf(stderr, "error: %s: %s\n", flag, status.ToString().c_str());
  return 2;
}

Result<std::vector<uint16_t>> ParsePorts(const std::string& list) {
  std::vector<uint16_t> ports;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const std::string item =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    HABIT_ASSIGN_OR_RETURN(const int64_t port, core::ParseInt64(item));
    if (port < 1 || port > 65535) {
      return Status::InvalidArgument("port " + item +
                                     " out of range [1, 65535]");
    }
    ports.push_back(static_cast<uint16_t>(port));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::vector<uint16_t> backend_ports;
  bool local = false;
  bool use_stdin = false;
  int64_t port = 7412;
  router::RouterOptions options;
  server::ClientOptions client_options;
  client_options.connect_timeout_ms = 2000;
  client_options.io_timeout_ms = 10000;
  server::ServerOptions local_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const auto int_flag = [&](const char* flag, int64_t min, int64_t max,
                              int64_t* out) -> int {
      const char* v = next(flag);
      if (v == nullptr) return Usage();
      const auto parsed = core::ParseInt64(v);
      if (!parsed.ok()) return BadFlag(flag, parsed.status());
      if (parsed.value() < min || parsed.value() > max) {
        std::fprintf(stderr, "error: %s %lld out of range [%lld, %lld]\n",
                     flag, static_cast<long long>(parsed.value()),
                     static_cast<long long>(min),
                     static_cast<long long>(max));
        return 2;
      }
      *out = parsed.value();
      return 0;
    };
    int64_t value = 0;
    if (arg == "--manifest") {
      const char* v = next("--manifest");
      if (v == nullptr) return Usage();
      manifest_path = v;
    } else if (arg == "--local") {
      local = true;
    } else if (arg == "--backends") {
      const char* v = next("--backends");
      if (v == nullptr) return Usage();
      auto ports = ParsePorts(v);
      if (!ports.ok()) return BadFlag("--backends", ports.status());
      backend_ports = ports.MoveValue();
    } else if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--map") {
      options.map_snapshots = true;
    } else if (arg == "--port") {
      if (const int rc = int_flag("--port", 0, 65535, &port); rc != 0) {
        return rc;
      }
    } else if (arg == "--retries") {
      if (const int rc = int_flag("--retries", 0, 16, &value); rc != 0) {
        return rc;
      }
      options.retries = static_cast<int>(value);
    } else if (arg == "--connect-timeout-ms") {
      if (const int rc =
              int_flag("--connect-timeout-ms", 0, 3600000, &value);
          rc != 0) {
        return rc;
      }
      client_options.connect_timeout_ms = static_cast<int>(value);
    } else if (arg == "--io-timeout-ms") {
      if (const int rc = int_flag("--io-timeout-ms", 0, 3600000, &value);
          rc != 0) {
        return rc;
      }
      client_options.io_timeout_ms = static_cast<int>(value);
    } else if (arg == "--threads") {
      if (const int rc = int_flag("--threads", 1, 1024, &value); rc != 0) {
        return rc;
      }
      local_options.threads = static_cast<int>(value);
    } else if (arg == "--cache-bytes") {
      if (const int rc =
              int_flag("--cache-bytes", 1, int64_t{1} << 62, &value);
          rc != 0) {
        return rc;
      }
      local_options.cache_bytes = static_cast<size_t>(value);
    } else if (arg == "--max-batch") {
      if (const int rc =
              int_flag("--max-batch", 1, int64_t{1} << 31, &value);
          rc != 0) {
        return rc;
      }
      options.max_batch = static_cast<size_t>(value);
      local_options.max_batch = options.max_batch;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (manifest_path.empty()) {
    std::fprintf(stderr, "error: --manifest is required\n");
    return Usage();
  }
  if (local != backend_ports.empty()) {
    // Exactly one of --local / --backends.
    std::fprintf(stderr,
                 "error: pass exactly one of --local or --backends\n");
    return Usage();
  }

  auto manifest = router::LoadManifest(manifest_path);
  if (!manifest.ok()) {
    std::fprintf(stderr, "error: %s\n", manifest.status().ToString().c_str());
    return 1;
  }
  const size_t slash = manifest_path.find_last_of('/');
  const std::string manifest_dir =
      slash == std::string::npos ? "." : manifest_path.substr(0, slash);

  // --local keeps one in-process Server (all shard models, one cache)
  // behind a single LocalBackend; --backends opens one RemoteBackend per
  // habit_serve port.
  std::unique_ptr<server::Server> local_server;
  std::vector<std::shared_ptr<router::ShardBackend>> backends;
  if (local) {
    local_server = std::make_unique<server::Server>(local_options);
    backends.push_back(
        std::make_shared<router::LocalBackend>(local_server.get()));
  } else {
    for (const uint16_t backend_port : backend_ports) {
      backends.push_back(std::make_shared<router::RemoteBackend>(
          backend_port, client_options));
    }
  }

  auto made = router::Router::Make(manifest.MoveValue(), manifest_dir,
                                   std::move(backends), options);
  if (!made.ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
    return 1;
  }
  router::Router& router = *made.value();
  std::fprintf(stderr,
               "habit_route: %zu shards + fallback (parent_res=%d, halo_k=%d,"
               " spec=%s, %s)\n",
               router.manifest().shards.size(), router.manifest().parent_res,
               router.manifest().halo_k, router.manifest().spec.c_str(),
               local ? "local" : "fleet");

  // Frame handling runs on a dispatch pool, not the event loop: a router
  // frame blocks on backend round trips, and the loop must keep serving
  // other connections meanwhile. The router's own frontend stays
  // JSON-only (routed responses carry "route"/"routes" members the
  // binary results frame cannot express); the binary protocol rides the
  // router->backend hop.
  server::WorkerPool dispatch(local_options.threads);
  server::LineTransport transport(
      options.max_line_bytes,
      server::TransportHooks{
          .handle = [&router](std::string_view line) {
            return router.HandleLine(line);
          },
          .oversize = [&router] { return router.OversizeLine(); },
          .submit = [&dispatch](std::function<void()> work) {
            return dispatch.Submit(std::move(work));
          },
      });

  if (use_stdin) {
    transport.ServeStream(std::cin, std::cout);
    return 0;
  }
  const Status listen = transport.Listen(static_cast<uint16_t>(port));
  if (!listen.ok()) {
    std::fprintf(stderr, "error: %s\n", listen.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "habit_route listening on 127.0.0.1:%u\n",
               transport.bound_port());
  g_stop_fd = transport.stop_fd();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const Status served = transport.Serve();
  transport.Shutdown();
  if (!served.ok()) {
    std::fprintf(stderr, "error: %s\n", served.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "habit_route: shut down\n");
  return 0;
}
