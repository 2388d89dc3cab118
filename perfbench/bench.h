// perfbench: the repository benchmark. Shared pieces every workload uses:
// the seeded gap-set generator, the closed-loop load generator with its
// output check, in-memory span tracing, percentile rules, and the metric
// report whose last line is the one-object JSON result.
//
// Everything here sits OUTSIDE the program under test: spans are recorded
// around calls into the library's public functions, never inside src/.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ais/ais.h"
#include "api/imputation_model.h"
#include "api/model_cache.h"
#include "core/status.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "sim/gaps.h"

namespace habit::server {
class Server;
}  // namespace habit::server

namespace perfbench {

using habit::Result;
using habit::Status;

/// Command-line arguments (perfbench/run.py forwards its own flags
/// and adds the two directories, both inside the checkout).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    ///< snapshots, shard sets; removed at exit
  std::string trace_path;  ///< spans are written here at exit (trace runs)
};

/// The synthetic worlds are fixed (seed 42, the repo's baseline); the run
/// seed varies only what the workload draws from them: gap placements,
/// frame order, and the ingest delta split.
inline constexpr uint64_t kWorldSeed = 42;
/// Gaps whose endpoints lie at least this far apart count as long.
inline constexpr double kLongGapMeters = 20000.0;
/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;
/// Server worker pool size (and the router's dispatch pool).
inline constexpr int kServerWorkers = 2;

// ------------------------------------------------------------ host gauge

/// The time one HostGauge dose takes on the development VM when its
/// host is quiet (see README.md, "Host gauge"): the unit of slowness.
inline constexpr double kGaugeReferenceSeconds = 0.020;
/// A timed window pauses its load and samples the gauge this often.
inline constexpr double kGaugeEverySeconds = 0.5;

/// \brief How fast the host runs right now. One dose is a fixed amount of
/// the benchmark's own work, no repository code, in the proportions the
/// workloads spend their time on: dependent loads over a working set
/// larger than the cache (graph search), a binary heap (the search
/// frontier), number formatting and parsing (the codecs) and small pipe
/// round trips (the transports). A sample is the dose's wall time less
/// the CPU time the process's other threads took meanwhile: on the one
/// pinned CPU that counts time the host took the CPU away, but not time
/// the program's own threads (a rebuild) held it.
class HostGauge {
 public:
  HostGauge();
  ~HostGauge();
  HostGauge(const HostGauge&) = delete;
  HostGauge& operator=(const HostGauge&) = delete;

  /// Runs one dose, at real-time priority where the process may take it;
  /// returns its time in seconds.
  double Sample();

  /// Whether the last dose ran at real-time priority.
  bool realtime() const { return realtime_; }

 private:
  std::vector<uint32_t> chase_;  ///< one random cycle through every slot
  int pipe_[2] = {-1, -1};
  uint64_t sink_ = 0;  ///< keeps the dose's results alive
  bool realtime_ = false;
};

/// How much slower than the reference the host ran while `samples` were
/// taken: their median over kGaugeReferenceSeconds (1 when empty).
double Slowness(const std::vector<double>& samples);

// ---------------------------------------------------------------- tracing

/// \brief In-memory span store: name, start, end, parent and request id.
/// Spans are kept until the run ends and written as JSON lines at exit.
/// Disabled tracers record nothing (Begin returns -1).
class Tracer {
 public:
  struct SelfTime {
    double seconds = 0;  ///< summed self time over every span of a name
    size_t count = 0;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span starting now; returns its id (-1 when disabled). A
  /// child names its parent by this id.
  int Begin(std::string name, int parent, int64_t rid) EXCLUDES(mu_);

  /// Closes span `id` now (no-op for -1).
  void End(int id) EXCLUDES(mu_);

  /// Durations in seconds of every span called `name`, in record order.
  std::vector<double> Durations(std::string_view name) const EXCLUDES(mu_);

  /// Self time per span name: a span's duration minus the part of it its
  /// child spans cover.
  std::map<std::string, SelfTime> SelfTimes() const EXCLUDES(mu_);

  /// Writes one JSON object per span:
  /// {"id","name","start_us","end_us","parent","rid"}.
  Status Write(const std::string& path) const EXCLUDES(mu_);

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t rid = -1;
  };

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable habit::core::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// \brief Times one interval. The duration is measured whether or not
/// tracing is on (callers read it from Stop()); the span is recorded only
/// on an enabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int parent = -1,
             int64_t rid = -1);
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The span id children pass as their parent (-1 when not traced).
  int id() const { return id_; }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double Stop();

 private:
  Tracer* tracer_;
  int id_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
  double seconds_ = 0;
};

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// \brief A tail percentile with its sample count: the highest rank at or
/// below `want` that leaves at least ten samples beyond it (p99 needs
/// n >= 1000), nearest-rank.
struct Tail {
  double value = 0;
  double rank = 0;  ///< the percentile actually used, in (0, 1)
  size_t n = 0;
};
Tail TailPercentile(std::vector<double> values, double want = 0.99);

// ---------------------------------------------------------------- report

enum class Tier {
  kEndToEnd,  ///< BENCHMARK.json end_to_end: the --trace 0 result
  kLayer,     ///< BENCHMARK.json per_layer: the --trace 1 result
  kInfo,      ///< printed by name only (not measured on every workload)
};

/// \brief Collects named metrics (each printed as it is added) and the
/// output-check verdict, and renders the final JSON result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           Tier tier, const std::string& detail = "");

  /// Records an output-check failure (the run then fails).
  void Fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  /// Frames the load generator sent / that failed, were refused or lost.
  void CountFrames(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// {"correct","attempted","failed","metrics"}: the end-to-end tier on
  /// untraced runs, the per-layer tier on traced runs.
  std::string ResultJson(bool trace) const;

 private:
  struct Metric {
    double value;
    std::string unit;
    Tier tier;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ----------------------------------------------------------------- inputs

/// \brief The seeded gap workload: K `sim::InjectGap` placements per
/// held-out trip for each gap duration, shuffled so every frame mixes
/// durations. Ground truth is kept for DTW; the degraded trip copies are
/// dropped.
struct GapSet {
  std::vector<habit::api::ImputeRequest> requests;
  std::vector<habit::sim::GapCase> cases;  ///< aligned with requests
  size_t long_gaps = 0;                    ///< endpoints >= 20 km apart
};

GapSet MakeGapSet(const std::vector<habit::ais::Trip>& held_out,
                  const std::vector<int>& minutes, int per_duration,
                  uint64_t seed);

/// Cuts the gap set into consecutive frames of at most `batch` requests.
std::vector<std::span<const habit::api::ImputeRequest>> CutFrames(
    const GapSet& gaps, size_t batch);

/// Reports the DTW (meters) of the answered gaps against their ground
/// truth: dtw_iqm_m (end-to-end), dtw_mean_m and dtw_median_m (by name).
/// `paths` is aligned with `gaps.cases` (nullopt = no path answered).
void ReportDtw(const GapSet& gaps,
               const std::vector<std::optional<habit::geo::Polyline>>& paths,
               const std::string& what, Report* report);

/// Prints the gap-set summary line (n, long count, frames).
void PrintGapSet(const GapSet& gaps, size_t frames, size_t batch);

// ------------------------------------------------------ load + the check

/// FNV-1a 64 of `bytes`, never 0 (0 means "not checked").
uint64_t Hash(std::string_view bytes);

/// The payload of a complete HBTF frame (header stripped).
std::string_view FramePayload(std::string_view frame_bytes);

/// \brief One request frame as the client sends it, with the hash of the
/// reference response it must receive.
struct WireFrame {
  std::string bytes;    ///< an HBTF frame (binary) or a JSON line
  uint64_t expect = 0;  ///< reference response hash; 0 = unchecked
  size_t queries = 0;
};

struct LoopOptions {
  uint16_t port = 0;
  bool binary = true;
  int connections = 1;
  /// Timed window length; 0 runs exactly one pass over the frames (each
  /// connection takes frames c, c+C, c+2C, ...) with no deadline.
  double seconds = 0;
  /// While set, a timed loop keeps running past its deadline (the ingest
  /// workload holds reads open until its last rollover is acked).
  const std::atomic<bool>* hold = nullptr;
  Tracer* tracer = nullptr;  ///< records one "frame" span per round trip
  /// When set, a timed loop samples it every kGaugeEverySeconds: every
  /// connection parks between frames, the dose runs, and the load resumes.
  HostGauge* gauge = nullptr;
};

struct LoopStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< error responses, transport failures
  uint64_t mismatched = 0;  ///< answers that differ from the reference
  uint64_t queries = 0;     ///< queries in frames answered without error
  std::vector<double> latency_ms;  ///< per answered frame
  /// Per answered frame: completion time since the window opened (s) and
  /// its query count — the per-slice throughput.
  std::vector<std::pair<double, size_t>> done;
  double elapsed_s = 0;  ///< the window, less the time the load was parked
  std::vector<double> gauge_s;  ///< HostGauge samples taken in the window
  std::string first_problem;
};

/// The closed-loop load generator: `connections` threads, each on its own
/// connection, sending its next frame only after the previous answer.
LoopStats RunLoop(const std::vector<WireFrame>& frames,
                  const LoopOptions& options);

/// Checks a timed loop (CheckPass), adds its qps / frame_p50_ms /
/// frame_p99_ms plus error_rate by name, and prints its throughput per
/// one-second slice of the window. The three timings are given at the
/// reference host speed (scaled by the window's Slowness); the raw figures
/// are printed by name as raw.<metric>.
void ReportLoop(const std::string& what, const LoopStats& stats,
                Report* report, Tier tier, const std::string& prefix = "");

/// The timed window. Untraced runs measure one window and report it as the
/// end-to-end tier. Traced runs then measure a second, traced window,
/// report it by name (traced.*) with the tracing overhead (traced minus
/// untraced), and return it; otherwise the untraced window is returned.
LoopStats MeasureWindows(const std::vector<WireFrame>& frames,
                         LoopOptions options, const Args& args,
                         Tracer* tracer, Report* report);

/// Counts a loop's frames into the report and fails it on any answer that
/// differs from the reference.
void CheckPass(const std::string& what, const LoopStats& stats,
               Report* report);

// ---------------------------------------------------- per-layer replays

/// \brief The api/habit layers replayed in-process, single thread: one
/// `ImputationModel::ImputeBatch` per frame (this is also the reference
/// the served answers are checked against), plus, on traced runs, the
/// source + target `Imputer::SnapCandidates` of every query.
struct BatchReplay {
  std::vector<std::vector<Result<habit::api::ImputeResponse>>> results;
  std::vector<double> batch_s;   ///< per frame: ImputeBatch wall time
  std::vector<double> query_s;   ///< per query: ImputeBatch's own clock
  std::vector<double> snap_s;    ///< per query (traced runs only)
  std::vector<double> expanded;  ///< per answered query
  size_t unreachable = 0;        ///< queries answered Unreachable
};

BatchReplay ReplayBatches(
    const habit::api::ImputationModel& model,
    const std::vector<std::span<const habit::api::ImputeRequest>>& frames,
    Tracer* tracer, bool time_snap);

/// Paths of a replay, aligned with the gap set (frames are consecutive).
std::vector<std::optional<habit::geo::Polyline>> ReplayPaths(
    const BatchReplay& replay, size_t gaps);

/// Reports api.batch_ms, api.pool_efficiency, habit.query_us_p50/p99,
/// habit.snap_us, habit.search_path_us, habit.unreachable and
/// graph.expanded_mean/p99. `handle_ms` is the mean in-process
/// Server::HandleFrame time per frame.
void ReportQueryLayers(const BatchReplay& replay, double handle_ms,
                       Report* report);

/// Replays the binary server path in-process, no socket, per frame:
/// frame::DecodeRequestPayload, Server::Resolve (when `time_resolve`;
/// live ingest specs resolve through the epoch pipeline, which has no
/// public non-const entry), Server::HandleFrame (checked against the
/// reference) and frame::EncodeResultsFrame on the reference results.
/// Reports server.decode_us / server.encode_us / server.handle_ms and
/// returns the mean handle time in ms.
double ReplayServer(habit::server::Server& server,
                    const std::vector<WireFrame>& wire,
                    const BatchReplay& reference, bool time_resolve,
                    Tracer* tracer, Report* report);

/// Replays the HABIT build stage by stage on `trips` (TripsToTable,
/// ComputeCellStats, ComputeTransitionStats, BuildTransitionGraph,
/// Digraph::Freeze, SaveModelSnapshot, LoadModelSnapshot) and reports
/// habit.build.* and graph.freeze_s / snapshot_write_s / snapshot_load_s.
Status ReplayBuild(const std::vector<habit::ais::Trip>& trips,
                   int resolution, const std::string& snapshot_path,
                   Tracer* tracer, Report* report);

/// Reports the ModelCache counters as api.cache_hits / misses / coalesced.
void ReportCache(const habit::api::ModelCache& cache, Report* report);

/// Prints the self time of every span name (total ms and span count).
void ReportSelfTimes(const Tracer& tracer);

// ----------------------------------------------------------------- misc

/// Pins the calling thread, and every thread it starts afterwards, to one
/// CPU of those this process may use (the highest-numbered). Returns it.
int PinToOneCpu();

/// Lets the calling thread run on every CPU the process started with
/// (post-window work that need not be timed, such as DTW).
void UnpinThread();

/// Prints "time  <what> done at <t> s" (seconds since the process began),
/// so a run shows where its wall time went.
void LogPhase(const std::string& what);

/// Peak resident set of this process (getrusage ru_maxrss), MB.
double PeakRssMb();

/// Runs `make` kSetupReps times (tearing the previous state down, untimed,
/// before each repetition), keeps the last state, and reports setup_s as
/// the median of the repetitions, each at the reference host speed: its
/// time over the Slowness of kSetupGaugeSamples gauge samples taken right
/// before and after it.
inline constexpr int kSetupGaugeSamples = 3;
template <typename State>
Result<std::unique_ptr<State>> RepeatSetup(
    Report* report, Tracer* tracer, HostGauge* gauge,
    const std::function<Result<std::unique_ptr<State>>(int parent)>& make) {
  std::vector<double> raw;
  std::vector<double> scaled;
  std::unique_ptr<State> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    std::vector<double> samples;
    for (int i = 0; i < kSetupGaugeSamples; ++i) {
      samples.push_back(gauge->Sample());
    }
    ScopedSpan span(tracer, "setup", -1, rep);
    auto made = make(span.id());
    if (!made.ok()) return made.status();
    state = made.MoveValue();
    raw.push_back(span.Stop());
    for (int i = 0; i < kSetupGaugeSamples; ++i) {
      samples.push_back(gauge->Sample());
    }
    scaled.push_back(raw.back() / Slowness(samples));
  }
  std::string detail = "median of";
  for (double s : scaled) detail += " " + std::to_string(s);
  report->Add("setup_s", Median(scaled), "s", Tier::kEndToEnd, detail);
  report->Add("raw.setup_s", Median(raw), "s", Tier::kInfo,
              "as measured, not scaled");
  return state;
}

// ------------------------------------------------------------ workloads

Status RunKielLong(const Args& args, Report* report, Tracer* tracer,
                   HostGauge* gauge);
Status RunSarRouted(const Args& args, Report* report, Tracer* tracer,
                    HostGauge* gauge);
Status RunKielIngest(const Args& args, Report* report, Tracer* tracer,
                     HostGauge* gauge);

}  // namespace perfbench
