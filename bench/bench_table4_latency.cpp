// Table 4 — Average and maximum query latency (seconds) for different
// configurations of HABIT (r, t) and GTI (rm, rd) on KIEL and SAR.
//
// Paper shape: HABIT answers in tens of milliseconds (rising with r), with
// sub-second maxima; GTI is consistently slower (hundreds of ms to
// seconds), worst on SAR.
//
// Also measures batch scaling of the server's worker pool (one binary
// impute_batch frame through an in-process server at 1, 2 and 4 workers,
// one flat search scratch per chunk against the shared frozen graph), and
// plain, lattice-bound and landmark-bound search on ~2,000 seeded gaps.
//
// Machine-readable results are emitted as `BENCH_METRIC {json}` lines,
// which bench/run_all.sh folds into its per-bench JSON output so latency
// trajectories can be diffed across runs.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/stopwatch.h"
#include "eval/harness.h"
#include "eval/report.h"
#include "geo/latlng.h"
#include "graph/landmarks.h"
#include "graph/search.h"
#include "habit/framework.h"
#include "habit/imputer.h"
#include "hexgrid/hexgrid.h"
#include "server/frame.h"
#include "server/server.h"
#include "sim/gaps.h"

namespace {

void EmitLatencyMetric(const char* dataset, const std::string& spec,
                       const habit::eval::MethodReport& report) {
  std::printf(
      "BENCH_METRIC {\"metric\":\"query_latency\",\"dataset\":\"%s\","
      "\"spec\":\"%s\",\"mean_s\":%.6f,\"max_s\":%.6f}\n",
      dataset, spec.c_str(), report.latency.Mean(), report.latency.Max());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
  return values[std::min(idx, values.size() - 1)];
}

// Gap-length buckets (haversine between the gap endpoints, km). The last
// edge is an open upper bound.
constexpr double kBucketEdgesKm[] = {0, 5, 10, 20, 40, 80, 1e9};
constexpr size_t kNumBuckets = std::size(kBucketEdgesKm) - 1;

std::string BucketLabel(size_t b) {
  if (b + 2 == std::size(kBucketEdgesKm)) {
    return std::to_string(static_cast<int>(kBucketEdgesKm[b])) + "+";
  }
  return std::to_string(static_cast<int>(kBucketEdgesKm[b])) + "-" +
         std::to_string(static_cast<int>(kBucketEdgesKm[b + 1]));
}

size_t BucketOf(const habit::api::ImputeRequest& request) {
  const double km = habit::geo::HaversineMeters(request.gap_start,
                                                request.gap_end) / 1000.0;
  size_t b = 0;
  while (b + 1 < kNumBuckets && km >= kBucketEdgesKm[b + 1]) ++b;
  return b;
}

// Batch scaling of the one batch scheduler: an in-process server whose
// worker pool has 1, 2 and 4 workers answers the same binary impute_batch
// frame (the eval gaps tiled to 8,192 queries). The server splits the
// frame into static contiguous chunks, one serial ImputeBatch per worker.
// A frame of 512 queries (~80 ms serial) was too short to show scaling on
// a shared host: 4 workers read anywhere from 0.9x to 3.2x run to run.
void RunBatchScalingSection(const habit::eval::Experiment& exp) {
  using namespace habit;
  const std::vector<api::ImputeRequest> gap_requests = eval::GapRequests(exp);
  if (gap_requests.empty()) {
    std::printf("\nno gaps prepared; skipping batch-scaling section\n");
    return;
  }
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "bench_table4_batch.snap")
          .string();
  if (auto built = api::MakeModel("habit:r=9,save=" + snapshot_path,
                                  exp.train_trips);
      !built.ok()) {
    std::printf("\nbatch-scaling section skipped (snapshot build): %s\n",
                built.status().ToString().c_str());
    return;
  }
  constexpr size_t kBatch = 8192;
  server::Request request;
  request.op = server::Request::Op::kImputeBatch;
  request.model = "habit:load=" + snapshot_path;
  for (size_t i = 0; i < kBatch; ++i) {
    request.requests.push_back(gap_requests[i % gap_requests.size()]);
  }
  const std::string frame = server::frame::EncodeRequestFrame(request);
  const std::string_view payload =
      std::string_view(frame).substr(server::frame::kHeaderBytes);

  // Wall time of one serial frame is ~1 s, so keep the fastest of a few
  // sends (the model is resolved before the first one).
  constexpr int kReps = 3;
  std::printf("\nBatch scaling (KIEL, one impute_batch frame of %zu "
              "queries, %s, in-process server; best of %d; %u hardware "
              "threads)\n", kBatch, request.model.c_str(), kReps,
              std::thread::hardware_concurrency());
  double serial_wall = 0.0;
  std::string serial_reply;
  for (const int workers : {1, 2, 4}) {
    server::ServerOptions options;
    options.threads = workers;
    options.max_batch = kBatch;  // above the 4,096 default cap
    server::Server server(options);
    api::MethodSpec spec = api::MethodSpec::Parse(request.model).MoveValue();
    if (auto model = server.Resolve(spec); !model.ok()) {
      std::printf("  %s failed: %s\n", request.model.c_str(),
                  model.status().ToString().c_str());
      break;
    }
    double wall = 1e300;
    std::string reply;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch sw;
      reply = server.HandleFrame(payload);
      wall = std::min(wall, sw.ElapsedSeconds());
    }
    auto decoded = server::frame::DecodeResponsePayload(
        std::string_view(reply).substr(server::frame::kHeaderBytes));
    if (!decoded.ok() ||
        decoded.value().tag != server::frame::ResponseTag::kResults) {
      std::printf("  workers=%d: the frame was not answered with results\n",
                  workers);
      break;
    }
    if (workers == 1) {
      serial_wall = wall;
      serial_reply = reply;
    }
    const double speedup = wall > 0 ? serial_wall / wall : 0.0;
    std::printf("  workers=%d  wall=%.3fs  %.0f queries/s  speedup=%.2fx  "
                "reply %s\n", workers, wall,
                static_cast<double>(kBatch) / wall, speedup,
                reply == serial_reply ? "identical" : "DIFFERS");
    std::printf(
        "BENCH_METRIC {\"metric\":\"batch_scaling\",\"dataset\":\"KIEL\","
        "\"spec\":\"%s\",\"threads\":%d,\"hw_threads\":%u,\"n\":%zu,"
        "\"reps\":%d,\"wall_s\":%.4f,\"speedup\":%.3f}\n",
        request.model.c_str(), workers, std::thread::hardware_concurrency(),
        kBatch, kReps, wall, speedup);
  }
  std::remove(snapshot_path.c_str());
}

// Gaps for the long-gap section, drawn like the repo benchmark's
// kiel-r10-long workload: 30 seeded placements per held-out trip at each
// of the paper's gap durations (Fig. 7).
std::vector<habit::api::ImputeRequest> DrawLongGapRequests(
    const habit::eval::Experiment& exp, uint64_t seed) {
  using namespace habit;
  constexpr int kPlacements = 30;
  Rng rng(seed);
  std::vector<api::ImputeRequest> requests;
  for (const ais::Trip& trip : exp.test_trips) {
    for (const int minutes : {15, 30, 60, 120, 240}) {
      sim::GapOptions options;
      options.gap_seconds = int64_t{minutes} * 60;
      for (int k = 0; k < kPlacements; ++k) {
        const std::optional<sim::GapCase> gap =
            sim::InjectGap(trip, options, &rng);
        if (!gap) continue;
        api::ImputeRequest request;
        request.gap_start = gap->gap_start.pos;
        request.gap_end = gap->gap_end.pos;
        request.t_start = gap->gap_start.ts;
        request.t_end = gap->gap_end.ts;
        request.vessel_type = trip.type;
        requests.push_back(request);
      }
    }
  }
  return requests;
}

// The search the imputer issues for a gap: source and target candidates
// from the public SnapCandidates, each seed costed by its snap
// displacement in cell pitches (habit/imputer.cc).
struct GapSearch {
  std::vector<habit::graph::SearchSeed> seeds;
  std::vector<habit::graph::NodeIndex> targets;  // sorted
  habit::hex::CellId center = habit::hex::kInvalidCell;
};

std::optional<GapSearch> SnapGap(const habit::core::HabitFramework& model,
                                 const habit::api::ImputeRequest& request) {
  using namespace habit;
  using Role = core::Imputer::SnapRole;
  const graph::CompactGraph& g = model.graph();
  const double pitch =
      hex::EdgeLengthMeters(model.config().resolution) * 1.7320508;
  GapSearch q;
  for (const hex::CellId c :
       model.imputer().SnapCandidates(request.gap_start, Role::kSource)) {
    q.seeds.push_back(
        {g.IndexOf(c),
         geo::HaversineMeters(request.gap_start, hex::CellToLatLng(c)) /
             pitch});
  }
  const std::vector<hex::CellId> dst =
      model.imputer().SnapCandidates(request.gap_end, Role::kTarget);
  if (q.seeds.empty() || dst.empty()) return std::nullopt;
  q.center = dst.front();
  for (const hex::CellId c : dst) q.targets.push_back(g.IndexOf(c));
  std::sort(q.targets.begin(), q.targets.end());
  return q;
}

// Per-gap-distance search time of plain Dijkstra and of the corridor
// search under its two bounds, on one KIEL r=10 graph with 8 landmarks:
// the hex-lattice bound every hop-cost HABIT query runs on, and the ALT
// landmark bound that alt=1 uses where the lattice bound does not hold
// (habit/imputer.h). All three return the same target, cost and parent
// chain (checked below); this section measures what each bound removes,
// bucketed by gap length — the paper's long-gap regime is where a bound
// has room to pay off. Only the search is timed, from the imputer's own
// snap candidates.
//
// Host drift between two back-to-back blocks moves a block-vs-block
// ratio by tens of percent, so the modes take turns on every repetition
// (which one runs first rotates too) and each query keeps its fastest
// time per mode.
void RunLongGapSection(const habit::eval::Experiment& exp) {
  using namespace habit;
  constexpr uint64_t kGapSeed = 11;
  const std::vector<api::ImputeRequest> requests =
      DrawLongGapRequests(exp, kGapSeed);
  if (requests.empty()) {
    std::printf("\nno gaps prepared; skipping long-gap section\n");
    return;
  }

  // r=10: the fine-resolution graph is where long gaps hurt — search
  // balls of tens of thousands of nodes — and therefore where a bound has
  // room to pay. Eight landmarks cut expansions as much as sixteen at a
  // lower per-node bound cost.
  constexpr int kLandmarks = 8;
  core::HabitConfig config;
  config.resolution = 10;
  auto built = core::HabitFramework::Build(exp.train_trips, config);
  if (built.ok()) {
    if (Status s = built.value()->PrecomputeLandmarks(kLandmarks); !s.ok()) {
      built = s;
    }
  }
  if (!built.ok()) {
    std::printf("\nlong-gap section skipped (graph build): %s\n",
                built.status().ToString().c_str());
    return;
  }
  const core::HabitFramework& model = *built.value();
  const graph::CompactGraph& g = model.graph();
  const core::LatticeScan scan = core::ScanLattice(g, config.resolution);
  if (!scan.holds) {
    std::printf("\nlong-gap section skipped: the lattice bound does not "
                "hold on the r=10 graph\n");
    return;
  }

  std::vector<api::ImputeRequest> gaps;
  std::vector<GapSearch> searches;
  for (const api::ImputeRequest& request : requests) {
    if (std::optional<GapSearch> q = SnapGap(model, request)) {
      gaps.push_back(request);
      searches.push_back(std::move(*q));
    }
  }

  constexpr int kModes = 3;
  const char* const kModeNames[kModes] = {"plain", "lattice", "landmark"};
  constexpr int kReps = 6;
  const size_t n = gaps.size();
  graph::SearchScratch scratch;
  const auto run = [&](int mode, const GapSearch& q) {
    const auto is_target = [&](graph::NodeIndex u) {
      return std::binary_search(q.targets.begin(), q.targets.end(), u);
    };
    switch (mode) {
      case 1:
        return graph::RunSearchCorridor(
            g, q.seeds, is_target, core::LatticeBound(g, q.center, q.targets),
            scan.w_min, scratch);
      case 2:
        return graph::RunSearchAlt(g, q.seeds, is_target, q.targets,
                                   scan.w_min, scratch);
      default:
        return graph::RunSearch(
            g, q.seeds, is_target, [](graph::NodeIndex) { return 0.0; },
            scratch);
    }
  };
  std::vector<double> best_seconds[kModes];
  std::vector<size_t> expanded_of[kModes];
  std::vector<bool> found(n, false);
  std::vector<std::vector<graph::NodeIndex>> plain_paths(n);
  size_t mismatches = 0;
  for (int mode = 0; mode < kModes; ++mode) {
    best_seconds[mode].assign(n, 1e300);
    expanded_of[mode].assign(n, 0);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (int k = 0; k < kModes; ++k) {
      const int mode = (rep + k) % kModes;
      for (size_t i = 0; i < n; ++i) {
        Stopwatch sw;
        const graph::CsrSearch result = run(mode, searches[i]);
        best_seconds[mode][i] =
            std::min(best_seconds[mode][i], sw.ElapsedSeconds());
        if (rep > 0) continue;
        expanded_of[mode][i] = result.expanded;
        std::vector<graph::NodeIndex> path =
            result.found ? graph::ReconstructPath(scratch, result.reached)
                         : std::vector<graph::NodeIndex>{};
        if (mode == 0) {
          found[i] = result.found;
          plain_paths[i] = std::move(path);
        } else if (result.found != found[i] || path != plain_paths[i]) {
          ++mismatches;
        }
      }
    }
  }

  size_t bucket_n[kNumBuckets] = {};
  size_t long_gaps = 0;
  for (const api::ImputeRequest& request : gaps) {
    const size_t b = BucketOf(request);
    ++bucket_n[b];
    if (kBucketEdgesKm[b] >= 20) ++long_gaps;
  }
  std::printf("\nLong-gap search time by gap length (KIEL, %zu gaps, %zu "
              "of them >=20 km, r=10, landmarks=%d, gap seed %llu): plain "
              "Dijkstra vs the corridor on the lattice bound vs on the "
              "landmark bound, interleaved, best of %d; paths %s (%zu "
              "differ)\n",
              n, long_gaps, kLandmarks,
              static_cast<unsigned long long>(kGapSeed), kReps,
              mismatches == 0 ? "identical" : "DIFFER", mismatches);
  // p50 and mean expansions per bucket per mode: [mode][bucket].
  double p50[kModes][kNumBuckets] = {};
  double expanded[kModes][kNumBuckets] = {};
  for (int mode = 0; mode < kModes; ++mode) {
    std::vector<std::vector<double>> bucket_seconds(kNumBuckets);
    std::vector<size_t> bucket_found(kNumBuckets, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t b = BucketOf(gaps[i]);
      bucket_seconds[b].push_back(best_seconds[mode][i]);
      if (found[i]) {
        expanded[mode][b] += static_cast<double>(expanded_of[mode][i]);
        ++bucket_found[b];
      }
    }
    std::printf("  %-8s %-9s %6s %10s %10s %14s\n", kModeNames[mode],
                "bucket_km", "gaps", "p50_ms", "p99_ms", "mean_expanded");
    for (size_t b = 0; b < kNumBuckets; ++b) {
      if (bucket_seconds[b].empty()) continue;
      const double p50_s = Percentile(bucket_seconds[b], 0.50);
      const double p99_s = Percentile(bucket_seconds[b], 0.99);
      if (bucket_found[b] > 0) expanded[mode][b] /= bucket_found[b];
      p50[mode][b] = p50_s;
      std::printf("           %-9s %6zu %10.3f %10.3f %14.0f\n",
                  BucketLabel(b).c_str(), bucket_n[b], p50_s * 1e3,
                  p99_s * 1e3, expanded[mode][b]);
      std::printf(
          "BENCH_METRIC {\"metric\":\"long_gap_latency\",\"dataset\":"
          "\"KIEL\",\"search\":\"%s\",\"bucket_km\":\"%s\",\"n\":%zu,"
          "\"p50_s\":%.6f,\"p99_s\":%.6f,\"mean_expanded\":%.0f}\n",
          kModeNames[mode], BucketLabel(b).c_str(), bucket_n[b], p50_s,
          p99_s, expanded[mode][b]);
    }
  }
  // Each bound against the search it would replace: the lattice corridor
  // against plain Dijkstra, the landmark corridor against the lattice one
  // (keeping landmarks needs >= 1.3x in a >= 20 km bucket; ROADMAP 3b).
  std::printf("  speedup per bucket (p50 wall, mean expansions)\n");
  for (const auto [mode, over] : {std::pair{1, 0}, std::pair{2, 1}}) {
    for (size_t b = 0; b < kNumBuckets; ++b) {
      if (p50[mode][b] <= 0 || p50[over][b] <= 0) continue;
      const double speedup = p50[over][b] / p50[mode][b];
      const double expansion_ratio =
          expanded[mode][b] > 0 ? expanded[over][b] / expanded[mode][b]
                                : 0.0;
      std::printf("  %-8s over %-7s %-9s %.2fx wall, %.2fx expansions\n",
                  kModeNames[mode], kModeNames[over], BucketLabel(b).c_str(),
                  speedup, expansion_ratio);
      std::printf(
          "BENCH_METRIC {\"metric\":\"long_gap_speedup\",\"dataset\":"
          "\"KIEL\",\"search\":\"%s\",\"over\":\"%s\",\"bucket_km\":\"%s\","
          "\"n\":%zu,\"p50_speedup\":%.3f,\"expansion_ratio\":%.3f}\n",
          kModeNames[mode], kModeNames[over], BucketLabel(b).c_str(),
          bucket_n[b], speedup, expansion_ratio);
    }
  }
}

}  // namespace

int main() {
  using namespace habit;
  std::printf("Table 4: Average and maximum query latency (sec)\n");

  std::vector<std::string> specs;
  for (int r : {9, 10}) {
    for (int t : {100, 250}) {
      specs.push_back("habit:r=" + std::to_string(r) +
                      ",t=" + std::to_string(t));
    }
  }
  for (const char* rd : {"1e-4", "5e-4", "1e-3"}) {
    specs.push_back(std::string("gti:rm=250,rd=") + rd);
  }

  for (const char* dataset : {"KIEL", "SAR"}) {
    eval::ExperimentOptions options;
    options.scale = 1.0;
    options.seed = 42;
    options.sampler.report_interval_s = 10.0;  // class-A density
    auto exp = eval::PrepareExperiment(dataset, options).MoveValue();
    std::printf("%s (%zu gaps)\n", dataset, exp.gaps.size());
    std::printf("  %s\n", eval::FormatLatencyHeader().c_str());
    for (const std::string& spec : specs) {
      auto report = eval::RunMethod(exp, spec);
      if (!report.ok()) continue;
      std::printf("  %s\n", eval::FormatLatencyRow(report.value()).c_str());
      EmitLatencyMetric(dataset, spec, report.value());
    }
  }

  {
    eval::ExperimentOptions options;
    options.scale = 1.0;
    options.seed = 42;
    options.sampler.report_interval_s = 10.0;
    auto prepared = eval::PrepareExperiment("KIEL", options);
    if (prepared.ok()) {
      RunBatchScalingSection(prepared.value());
      RunLongGapSection(prepared.value());
    } else {
      std::printf("\nbatch-scaling and long-gap sections skipped: %s\n",
                  prepared.status().ToString().c_str());
    }
  }

  std::printf("\npaper reference (KIEL): HABIT avg 0.019-0.071s; GTI avg "
              "0.26-0.40s. (SAR): HABIT 0.031-0.139s; GTI 0.49-1.22s\n");
  std::printf("expected shape: HABIT subsecond and faster than GTI; both "
              "slower on SAR; HABIT latency rises with r\n");
  return 0;
}
