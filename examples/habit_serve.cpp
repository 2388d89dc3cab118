// habit_serve — the long-lived snapshot-serving frontend.
//
// Holds one process-wide api::ModelCache and answers the newline-delimited
// JSON line protocol (see src/server/protocol.h) over TCP, or over
// stdin/stdout with --stdin (no sockets — the mode tests and CI pipe
// through). Models are named per request by registry spec
// ("habit:load=/models/kiel.snap,map=1"), resolved through the cache
// (single-flight: concurrent cold requests pay one snapshot load), and
// batches partition across a shared worker pool (--threads) — one
// SearchScratch per worker against the frozen graph, shared by every
// concurrent client.
//
//   habit_serve [--port N] [--cache-bytes N] [--threads N]
//               [--max-batch N] [--preload SPEC]... [--stdin]
//               [--ingest-spec SPEC] [--ingest-base CSV]
//               [--epoch-trips N] [--epoch-seconds S]
//
//   --port N         TCP port to listen on (loopback; 0 = ephemeral,
//                    default 7411)
//   --stdin          serve stdin/stdout instead of TCP
//   --cache-bytes N  ModelCache byte budget (default 1 GiB)
//   --threads N      worker pool size (default: hardware concurrency)
//   --max-batch N    per-frame request cap (default 4096)
//   --preload SPEC   resolve SPEC at startup (warm the cache before the
//                    first request; repeatable)
//   --ingest-spec SPEC   enable live ingest: serve SPEC (a trips-built
//                        spec, e.g. "habit:r=9") from the epoch
//                        pipeline's cumulative trip set and accept the
//                        `ingest`/`rollover` ops (see api/epoch.h)
//   --ingest-base CSV    seed epoch 0 from an AIS CSV (cleaned and
//                        segmented exactly like the offline pipeline);
//                        without it the live spec has no data until the
//                        first ingest + rollover
//   --epoch-trips N      auto-rollover once N trips are pending
//   --epoch-seconds S    auto-rollover S seconds after the first pending
//                        trip (explicit `rollover` ops always work)
//
// Example session:
//   $ habit_serve --port 7411 --cache-bytes 2147483648 &
//   $ printf '%s\n' '{"op":"impute","model":"habit:load=kiel.snap",
//     "request":{"gap_start":{"lat":54.4,"lng":10.22},
//     "gap_end":{"lat":54.52,"lng":10.3},"t_start":0,"t_end":3600}}' | nc 127.0.0.1 7411
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "ais/io.h"
#include "ais/segment.h"
#include "core/parse.h"
#include "server/server.h"

namespace {

using namespace habit;

// The server's stop eventfd, for the signal handler: write(2) is
// async-signal-safe and reliably wakes the epoll event loop, which then
// exits cleanly (shutdown(2) on a listener does not wake epoll).
volatile int g_stop_fd = -1;

void HandleSignal(int) {
  if (g_stop_fd >= 0) {
    const uint64_t one = 1;
    // lint: socket-io(async-signal-safe eventfd wake, not socket IO)
    [[maybe_unused]] auto n = ::write(g_stop_fd, &one, sizeof(one));
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: habit_serve [--port N] [--cache-bytes N] "
               "[--threads N] [--max-batch N]\n"
               "                   [--preload SPEC]... [--stdin]\n"
               "                   [--ingest-spec SPEC] [--ingest-base CSV]\n"
               "                   [--epoch-trips N] [--epoch-seconds S]\n");
  return 2;
}

int BadFlag(const char* flag, const Status& status) {
  std::fprintf(stderr, "error: %s: %s\n", flag, status.ToString().c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  server::ServerOptions options;
  bool use_stdin = false;
  int64_t port = 7411;
  std::vector<std::string> preload;
  api::EpochPipeline::Options ingest;
  std::string ingest_base;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--stdin") {
      use_stdin = true;
    } else if (arg == "--port") {
      const char* v = next("--port");
      if (v == nullptr) return Usage();
      const auto parsed = core::ParseInt64(v);
      if (!parsed.ok()) return BadFlag("--port", parsed.status());
      if (parsed.value() < 0 || parsed.value() > 65535) {
        std::fprintf(stderr, "error: --port %lld out of range [0, 65535]\n",
                     static_cast<long long>(parsed.value()));
        return 2;
      }
      port = parsed.value();
    } else if (arg == "--cache-bytes") {
      const char* v = next("--cache-bytes");
      if (v == nullptr) return Usage();
      const auto parsed = core::ParseInt64(v);
      if (!parsed.ok() || parsed.value() <= 0) {
        return BadFlag("--cache-bytes",
                       parsed.ok() ? Status::InvalidArgument("must be > 0")
                                   : parsed.status());
      }
      options.cache_bytes = static_cast<size_t>(parsed.value());
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return Usage();
      const auto parsed = core::ParseInt(v);
      if (!parsed.ok() || parsed.value() < 1 || parsed.value() > 1024) {
        return BadFlag("--threads",
                       parsed.ok()
                           ? Status::InvalidArgument("must be in [1, 1024]")
                           : parsed.status());
      }
      options.threads = parsed.value();
    } else if (arg == "--max-batch") {
      const char* v = next("--max-batch");
      if (v == nullptr) return Usage();
      const auto parsed = core::ParseInt64(v);
      if (!parsed.ok() || parsed.value() < 1) {
        return BadFlag("--max-batch",
                       parsed.ok() ? Status::InvalidArgument("must be >= 1")
                                   : parsed.status());
      }
      options.max_batch = static_cast<size_t>(parsed.value());
    } else if (arg == "--preload") {
      const char* v = next("--preload");
      if (v == nullptr) return Usage();
      preload.push_back(v);
    } else if (arg == "--ingest-spec") {
      const char* v = next("--ingest-spec");
      if (v == nullptr) return Usage();
      ingest.spec = v;
    } else if (arg == "--ingest-base") {
      const char* v = next("--ingest-base");
      if (v == nullptr) return Usage();
      ingest_base = v;
    } else if (arg == "--epoch-trips") {
      const char* v = next("--epoch-trips");
      if (v == nullptr) return Usage();
      const auto parsed = core::ParseInt64(v);
      if (!parsed.ok() || parsed.value() < 1) {
        return BadFlag("--epoch-trips",
                       parsed.ok() ? Status::InvalidArgument("must be >= 1")
                                   : parsed.status());
      }
      ingest.epoch_trips = static_cast<uint64_t>(parsed.value());
    } else if (arg == "--epoch-seconds") {
      const char* v = next("--epoch-seconds");
      if (v == nullptr) return Usage();
      const auto parsed = core::ParseDouble(v);
      if (!parsed.ok() || parsed.value() <= 0) {
        return BadFlag("--epoch-seconds",
                       parsed.ok() ? Status::InvalidArgument("must be > 0")
                                   : parsed.status());
      }
      ingest.epoch_seconds = parsed.value();
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return Usage();
    }
  }

  if (ingest.spec.empty() &&
      (!ingest_base.empty() || ingest.epoch_trips > 0 ||
       ingest.epoch_seconds > 0)) {
    std::fprintf(stderr,
                 "error: --ingest-base/--epoch-trips/--epoch-seconds need "
                 "--ingest-spec\n");
    return 2;
  }

  server::Server server(options);

  if (!ingest.spec.empty()) {
    std::vector<ais::Trip> base;
    if (!ingest_base.empty()) {
      size_t skipped = 0;
      auto records = ais::ReadAisCsv(ingest_base, &skipped);
      if (!records.ok()) return BadFlag("--ingest-base", records.status());
      base = ais::PreprocessAndSegment(records.value());
      std::fprintf(stderr,
                   "ingest base: %zu trips from %zu records (%zu rows "
                   "skipped)\n",
                   base.size(), records.value().size(), skipped);
    }
    const size_t base_trips = base.size();
    const Status enabled = server.EnableIngest(ingest, std::move(base));
    if (!enabled.ok()) return BadFlag("--ingest-spec", enabled);
    std::fprintf(stderr,
                 "live ingest enabled: spec=%s epoch 0 has %zu trips\n",
                 server.epoch_pipeline()->spec_string().c_str(), base_trips);
  }

  for (const std::string& spec_str : preload) {
    auto spec = api::MethodSpec::Parse(spec_str);
    if (!spec.ok()) {
      std::fprintf(stderr, "error: --preload %s: %s\n", spec_str.c_str(),
                   spec.status().ToString().c_str());
      return 2;
    }
    // Same spec policy as the serving surface: preloading a spec every
    // client request would be refused for (or one with a save= side
    // effect that is never cached) is a misconfiguration, not a warmup.
    if (const Status policy = server::CheckServedSpec(spec.value());
        !policy.ok()) {
      std::fprintf(stderr, "error: --preload %s: %s\n", spec_str.c_str(),
                   policy.ToString().c_str());
      return 2;
    }
    auto model = server.Resolve(spec.value());
    if (!model.ok()) {
      std::fprintf(stderr, "error: --preload %s: %s\n", spec_str.c_str(),
                   model.status().ToString().c_str());
      return 2;
    }
    std::fprintf(stderr, "preloaded %s %s (%.1f MB)\n",
                 model.value()->Name().c_str(),
                 model.value()->Configuration().c_str(),
                 static_cast<double>(model.value()->SizeBytes()) / 1048576.0);
  }

  if (use_stdin) {
    server.ServeStream(std::cin, std::cout);
    return 0;
  }

  const Status listen = server.Listen(static_cast<uint16_t>(port));
  if (!listen.ok()) {
    std::fprintf(stderr, "error: %s\n", listen.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "habit_serve listening on 127.0.0.1:%u (workers=%d, "
               "cache=%.1f MB, max_batch=%zu)\n",
               server.bound_port(), server.workers(),
               static_cast<double>(options.cache_bytes) / 1048576.0,
               options.max_batch);

  // Publish the fd before installing handlers: a signal landing in
  // between must find the fd, or the terminate request is silently
  // swallowed and the supervisor escalates to SIGKILL.
  g_stop_fd = server.stop_fd();
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  const Status served = server.Serve();
  server.Shutdown();
  if (!served.ok()) {
    std::fprintf(stderr, "error: %s\n", served.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "habit_serve: shut down\n");
  return 0;
}
