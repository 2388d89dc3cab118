#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <numeric>
#include <queue>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "bench.h"
#include "core/rng.h"
#include "eval/metrics.h"
#include "geo/latlng.h"
#include "server/frame.h"
#include "server/line_client.h"

namespace perfbench {

using namespace habit;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- tracing

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Begin(std::string name, int parent, int64_t rid) {
  if (!enabled_) return -1;
  const int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  core::MutexLock lock(mu_);
  spans_.push_back(Span{std::move(name), now, now, parent, rid});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  core::MutexLock lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<double> Tracer::Durations(std::string_view name) const {
  core::MutexLock lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  core::MutexLock lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t c : children[i]) {
      cover.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                         std::min(spans_[c].end_ns, s.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [begin, end] : cover) {
      const int64_t from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    SelfTime& self = out[s.name];
    self.seconds += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
    ++self.count;
  }
  return out;
}

Status Tracer::Write(const std::string& path) const {
  core::MutexLock lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write spans to " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"rid\":%lld}\n",
                  i, s.name.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns) * 1e-3, s.parent,
                  static_cast<long long>(s.rid));
    out << line;
  }
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, int parent,
                       int64_t rid)
    : tracer_(tracer),
      id_(tracer != nullptr ? tracer->Begin(std::move(name), parent, rid)
                            : -1),
      start_(Clock::now()) {}

double ScopedSpan::Stop() {
  if (!stopped_) {
    stopped_ = true;
    seconds_ = std::chrono::duration<double>(Clock::now() - start_).count();
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  return seconds_;
}

// ------------------------------------------------------------ host gauge

namespace {

// One dose: about 5 ms of each part on the development VM.
constexpr size_t kChaseSlots = size_t{1} << 23;  // 32 MB of uint32
constexpr int kChaseSteps = 45000;
constexpr int kHeapPushes = 100000;
constexpr size_t kHeapCap = 4096;
constexpr int kNumbers = 7000;
constexpr int kPipeTrips = 8000;
constexpr uint64_t kGaugeSeed = 7;

uint64_t NextLcg(uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

double ClockSeconds(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

// The time this thread could have run: wall time less the CPU time the
// process's other threads took from the (single, pinned) CPU. Unlike
// thread CPU time it counts the time the host took the CPU away.
double OwnSeconds() {
  return ClockSeconds(CLOCK_MONOTONIC) -
         (ClockSeconds(CLOCK_PROCESS_CPUTIME_ID) -
          ClockSeconds(CLOCK_THREAD_CPUTIME_ID));
}

}  // namespace

HostGauge::HostGauge() : chase_(kChaseSlots) {
  // Sattolo's shuffle: a single cycle, so the chase visits every slot.
  std::iota(chase_.begin(), chase_.end(), 0u);
  Rng rng(kGaugeSeed);
  for (size_t i = chase_.size() - 1; i > 0; --i) {
    const auto j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(chase_[i], chase_[j]);
  }
  if (pipe(pipe_) != 0) pipe_[0] = pipe_[1] = -1;
}

HostGauge::~HostGauge() {
  for (const int fd : pipe_) {
    if (fd >= 0) close(fd);
  }
}

double HostGauge::Sample() {
  // Real-time priority, where the process may take it, for the length of
  // the dose: no thread of the program (a rebuild) preempts it halfway.
  sched_param priority{};
  priority.sched_priority = 1;
  realtime_ =
      pthread_setschedparam(pthread_self(), SCHED_FIFO, &priority) == 0;
  const double start = OwnSeconds();
  uint32_t at = 0;
  for (int i = 0; i < kChaseSteps; ++i) at = chase_[at];

  std::priority_queue<uint64_t> heap;
  uint64_t x = at + 1;
  for (int i = 0; i < kHeapPushes; ++i) {
    x = NextLcg(x);
    heap.push(x >> 11);
    if (heap.size() > kHeapCap) heap.pop();
  }

  char text[32];
  double sum = 0;
  for (int i = 0; i < kNumbers; ++i) {
    x = NextLcg(x);
    std::snprintf(text, sizeof(text), "%.6f",
                  static_cast<double>(x >> 40) * 1e-3);
    sum += std::strtod(text, nullptr);
  }

  char bytes[64] = {};
  for (int i = 0; i < kPipeTrips && pipe_[0] >= 0; ++i) {
    if (write(pipe_[1], bytes, sizeof(bytes)) != sizeof(bytes) ||
        read(pipe_[0], bytes, sizeof(bytes)) != sizeof(bytes)) {
      break;
    }
  }
  sink_ += at + heap.top() + static_cast<uint64_t>(sum) + bytes[0];
  const double seconds = OwnSeconds() - start;
  if (realtime_) {
    priority.sched_priority = 0;
    pthread_setschedparam(pthread_self(), SCHED_OTHER, &priority);
  }
  return seconds;
}

double Slowness(const std::vector<double>& samples) {
  if (samples.empty()) return 1;
  return Median(samples) / kGaugeReferenceSeconds;
}

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail TailPercentile(std::vector<double> values, double want) {
  Tail tail;
  tail.n = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  // Nearest rank: index ceil(q*n)-1 leaves n-1-index samples beyond it,
  // so q = (n-10)/n is the highest rank with ten beyond.
  tail.rank = std::min(want, (n - 10) / n);
  if (tail.rank <= 0) {
    tail.rank = 1;
    tail.value = values.back();
    return tail;
  }
  const size_t index = static_cast<size_t>(std::ceil(tail.rank * n)) - 1;
  tail.value = values[std::min(index, values.size() - 1)];
  return tail;
}

// ---------------------------------------------------------------- report

void Report::Add(const std::string& name, double value,
                 const std::string& unit, Tier tier,
                 const std::string& detail) {
  metrics_[name] = Metric{value, unit, tier};
  const char* tag = tier == Tier::kEndToEnd ? "e2e"
                    : tier == Tier::kLayer  ? "layer"
                                            : "info";
  std::printf("%-5s %-32s %14.6f %-9s %s\n", tag, name.c_str(), value,
              unit.c_str(), detail.c_str());
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
}

void Report::Fail(const std::string& why) {
  std::printf("CHECK FAILED: %s\n", why.c_str());
  failures_.push_back(why);
}

std::string Report::ResultJson(bool trace) const {
  const Tier wanted = trace ? Tier::kLayer : Tier::kEndToEnd;
  std::string metrics;
  for (const auto& [name, m] : metrics_) {
    if (m.tier != wanted) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1)) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         metrics + "}}";
}

// ----------------------------------------------------------------- inputs

GapSet MakeGapSet(const std::vector<ais::Trip>& held_out,
                  const std::vector<int>& minutes, int per_duration,
                  uint64_t seed) {
  Rng rng(seed);
  std::vector<sim::GapCase> cases;
  for (const ais::Trip& trip : held_out) {
    for (const int m : minutes) {
      sim::GapOptions options;
      options.gap_seconds = int64_t{m} * 60;
      for (int k = 0; k < per_duration; ++k) {
        std::optional<sim::GapCase> gap = sim::InjectGap(trip, options, &rng);
        if (!gap) continue;
        gap->degraded.points = {};  // only the ground truth is needed
        cases.push_back(std::move(*gap));
      }
    }
  }
  Rng order(seed ^ 0x9E3779B97F4A7C15ULL);
  std::shuffle(cases.begin(), cases.end(), order.engine());

  GapSet set;
  set.requests.reserve(cases.size());
  for (const sim::GapCase& gc : cases) {
    api::ImputeRequest request;
    request.gap_start = gc.gap_start.pos;
    request.gap_end = gc.gap_end.pos;
    request.t_start = gc.gap_start.ts;
    request.t_end = gc.gap_end.ts;
    request.vessel_type = gc.degraded.type;
    if (geo::HaversineMeters(request.gap_start, request.gap_end) >=
        kLongGapMeters) {
      ++set.long_gaps;
    }
    set.requests.push_back(request);
  }
  set.cases = std::move(cases);
  return set;
}

std::vector<std::span<const api::ImputeRequest>> CutFrames(
    const GapSet& gaps, size_t batch) {
  std::vector<std::span<const api::ImputeRequest>> frames;
  const std::span<const api::ImputeRequest> all(gaps.requests);
  for (size_t begin = 0; begin < all.size(); begin += batch) {
    frames.push_back(all.subspan(begin, std::min(batch, all.size() - begin)));
  }
  return frames;
}

void ReportDtw(const GapSet& gaps,
               const std::vector<std::optional<geo::Polyline>>& paths,
               const std::string& what, Report* report) {
  // DTW is quadratic per gap and runs after the timed window, so it may
  // use every CPU.
  constexpr size_t kThreads = 4;
  const size_t n = std::min(paths.size(), gaps.cases.size());
  std::vector<double> dtw(n, -1);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      UnpinThread();
      for (size_t i = t; i < n; i += kThreads) {
        if (paths[i]) dtw[i] = eval::GapDtw(*paths[i], gaps.cases[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::erase_if(dtw, [](double d) { return d < 0; });
  std::sort(dtw.begin(), dtw.end());
  const std::string detail =
      what + ", n=" + std::to_string(dtw.size()) + " answered gaps";
  // The interquartile mean (mean of the middle half) is the location that
  // stays put across seeds: KIEL's DTW is bimodal, so its median jumps,
  // and SAR's has a heavy tail, so its mean does.
  const auto quarter = static_cast<std::ptrdiff_t>(dtw.size() / 4);
  report->Add("dtw_iqm_m",
              Mean(std::vector<double>(dtw.begin() + quarter,
                                       dtw.end() - quarter)),
              "m", Tier::kEndToEnd, detail + ", middle half");
  report->Add("dtw_mean_m", Mean(dtw), "m", Tier::kInfo, detail);
  report->Add("dtw_median_m", Median(dtw), "m", Tier::kInfo, detail);
}

void PrintGapSet(const GapSet& gaps, size_t frames, size_t batch) {
  std::printf("gaps  n=%zu long(>=20km)=%zu frames=%zu batch=%zu\n",
              gaps.requests.size(), gaps.long_gaps, frames, batch);
}

// ------------------------------------------------------ load + the check

uint64_t Hash(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;
}

std::string_view FramePayload(std::string_view frame_bytes) {
  return frame_bytes.substr(std::min(frame_bytes.size(),
                                     server::frame::kHeaderBytes));
}

namespace {

server::ClientOptions ClientOptionsFor(bool binary) {
  server::ClientOptions options;
  options.connect_timeout_ms = 5000;
  options.io_timeout_ms = 60000;
  options.binary = binary;
  return options;
}

// One round trip. Returns false on a transport failure; otherwise sets
// *failed for an error response and *answer to the bytes to check.
bool RoundTrip(server::LineClient& client, const WireFrame& frame,
               bool binary, std::string* answer, bool* failed) {
  if (binary) {
    if (!client.SendRaw(frame.bytes) || !client.ReadFrame(answer)) {
      return false;
    }
    uint32_t tag = 0;
    if (answer->size() >= sizeof(tag)) {
      std::memcpy(&tag, answer->data(), sizeof(tag));
    }
    *failed = tag == static_cast<uint32_t>(server::frame::ResponseTag::kError);
    return true;
  }
  if (!client.Send(frame.bytes) || !client.ReadLine(answer)) return false;
  *failed = answer->rfind("{\"ok\":false", 0) == 0;
  return true;
}

/// Parks the load generator's connections between frames while the host
/// gauge runs, so no frame is in flight while the dose holds the CPU.
class Pauser {
 public:
  explicit Pauser(size_t connections) : active_(connections) {}

  /// A connection, between frames: blocks while a pause is on.
  void Checkpoint() EXCLUDES(mu_) {
    if (!pausing_.load(std::memory_order_acquire)) return;
    core::MutexLock lock(mu_);
    if (!paused_) return;
    ++parked_;
    changed_.NotifyAll();
    while (paused_) changed_.Wait(mu_);
    --parked_;
  }

  /// A connection that has sent its last frame.
  void Leave() EXCLUDES(mu_) {
    core::MutexLock lock(mu_);
    --active_;
    changed_.NotifyAll();
  }

  /// Waits until `until`; false when every connection left first.
  bool WaitUntil(Clock::time_point until) EXCLUDES(mu_) {
    core::MutexLock lock(mu_);
    while (active_ > 0 && Clock::now() < until) {
      changed_.WaitFor(mu_, until - Clock::now());
    }
    return active_ > 0;
  }

  /// Starts a pause and waits until every remaining connection is parked.
  void Hold() EXCLUDES(mu_) {
    core::MutexLock lock(mu_);
    paused_ = true;
    pausing_.store(true, std::memory_order_release);
    while (parked_ < active_) changed_.Wait(mu_);
  }

  void Release() EXCLUDES(mu_) {
    core::MutexLock lock(mu_);
    paused_ = false;
    pausing_.store(false, std::memory_order_release);
    changed_.NotifyAll();
  }

 private:
  std::atomic<bool> pausing_{false};  ///< fast path for Checkpoint
  core::Mutex mu_;
  core::CondVar changed_;
  bool paused_ GUARDED_BY(mu_) = false;
  size_t parked_ GUARDED_BY(mu_) = 0;
  size_t active_ GUARDED_BY(mu_);
};

}  // namespace

LoopStats RunLoop(const std::vector<WireFrame>& frames,
                  const LoopOptions& options) {
  if (frames.empty()) return LoopStats{};
  const size_t connections = static_cast<size_t>(options.connections);
  std::vector<LoopStats> per(connections);
  std::vector<std::unique_ptr<server::LineClient>> clients;
  for (size_t c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<server::LineClient>(
        options.port, ClientOptionsFor(options.binary)));
  }
  const bool one_pass = options.seconds <= 0;
  Pauser pauser(connections);
  // Time the load spent parked for the gauge; it is left out of the
  // window, which is extended by as much.
  std::atomic<Clock::duration::rep> parked{0};
  const auto parked_for = [&parked] {
    return Clock::duration(parked.load(std::memory_order_acquire));
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::vector<Clock::time_point> last_done(connections, start);

  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& stats = per[c];
      std::unique_ptr<server::LineClient>& client = clients[c];
      std::string answer;
      for (size_t seq = 0, f = c;; ++seq, f += connections) {
        pauser.Checkpoint();
        if (one_pass) {
          if (f >= frames.size()) break;
        } else if (Clock::now() >= deadline + parked_for() &&
                   (options.hold == nullptr || !options.hold->load())) {
          break;
        }
        if (!client->connected()) {
          ++stats.attempted;
          ++stats.failed;
          if (stats.first_problem.empty()) {
            stats.first_problem = "connect: " + client->last_error();
          }
          break;
        }
        const WireFrame& frame = frames[f % frames.size()];
        const int64_t rid = static_cast<int64_t>(c << 32 | seq);
        ScopedSpan span(options.tracer, "frame", -1, rid);
        bool failed = false;
        ++stats.attempted;
        if (!RoundTrip(*client, frame, options.binary, &answer, &failed)) {
          ++stats.failed;
          if (stats.first_problem.empty()) {
            stats.first_problem = "transport: " + client->last_error();
          }
          // The stream position is lost; continue on a fresh connection.
          client = std::make_unique<server::LineClient>(
              options.port, ClientOptionsFor(options.binary));
          continue;
        }
        stats.latency_ms.push_back(span.Stop() * 1e3);
        last_done[c] = Clock::now() - parked_for();
        stats.done.emplace_back(
            std::chrono::duration<double>(last_done[c] - start).count(),
            failed ? 0 : frame.queries);
        if (failed) {
          ++stats.failed;
          if (stats.first_problem.empty()) {
            stats.first_problem = "error response: " + answer.substr(0, 200);
          }
          continue;
        }
        stats.queries += frame.queries;
        if (frame.expect != 0 && Hash(answer) != frame.expect) {
          ++stats.mismatched;
          if (stats.first_problem.empty()) {
            stats.first_problem =
                "frame " + std::to_string(f % frames.size()) +
                " answer differs from the reference";
          }
        }
      }
      pauser.Leave();
    });
  }
  LoopStats total;
  if (options.gauge != nullptr && !one_pass) {
    const auto every = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kGaugeEverySeconds));
    for (Clock::time_point next = start + every; pauser.WaitUntil(next);
         next += every) {
      pauser.Hold();
      const Clock::time_point from = Clock::now();
      total.gauge_s.push_back(options.gauge->Sample());
      parked.fetch_add((Clock::now() - from).count(),
                       std::memory_order_release);
      pauser.Release();
    }
  }
  for (std::thread& t : threads) t.join();

  for (size_t c = 0; c < connections; ++c) {
    const LoopStats& s = per[c];
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.mismatched += s.mismatched;
    total.queries += s.queries;
    total.latency_ms.insert(total.latency_ms.end(), s.latency_ms.begin(),
                            s.latency_ms.end());
    total.done.insert(total.done.end(), s.done.begin(), s.done.end());
    if (total.first_problem.empty()) total.first_problem = s.first_problem;
    total.elapsed_s = std::max(
        total.elapsed_s,
        std::chrono::duration<double>(last_done[c] - start).count());
  }
  return total;
}

void ReportLoop(const std::string& what, const LoopStats& stats,
                Report* report, Tier tier, const std::string& prefix) {
  CheckPass(what, stats, report);
  const double elapsed = std::max(stats.elapsed_s, 1e-9);
  const double slowness = Slowness(stats.gauge_s);
  char detail[160];
  std::snprintf(detail, sizeof(detail), "%s: n=%zu samples, median %.3f ms",
                what.c_str(), stats.gauge_s.size(),
                Median(stats.gauge_s) * 1e3);
  report->Add(prefix + "host.slowness", slowness, "ratio", Tier::kInfo, detail);
  const double qps = static_cast<double>(stats.queries) / elapsed;
  std::snprintf(detail, sizeof(detail), "%s: n=%llu queries, %zu frames, %.3f s",
                what.c_str(), static_cast<unsigned long long>(stats.queries),
                stats.latency_ms.size(), elapsed);
  report->Add(prefix + "qps", qps * slowness, "queries/s", tier, detail);
  report->Add(prefix + "raw.qps", qps, "queries/s", Tier::kInfo, "not scaled");
  std::vector<double> slices(static_cast<size_t>(std::ceil(elapsed)), 0);
  for (const auto& [t, q] : stats.done) {
    slices[std::min(slices.size() - 1, static_cast<size_t>(t))] += q;
  }
  std::printf("slice %s q/s:", what.c_str());
  for (double q : slices) std::printf(" %.0f", q);
  std::printf("\n");
  std::snprintf(detail, sizeof(detail), "n=%zu frames",
                stats.latency_ms.size());
  const double p50 = Median(stats.latency_ms);
  report->Add(prefix + "frame_p50_ms", p50 / slowness, "ms", tier, detail);
  report->Add(prefix + "raw.frame_p50_ms", p50, "ms", Tier::kInfo,
              "not scaled");
  const Tail tail = TailPercentile(stats.latency_ms);
  std::snprintf(detail, sizeof(detail), "p%.2f, n=%zu frames",
                tail.rank * 100, tail.n);
  report->Add(prefix + "frame_p99_ms", tail.value / slowness, "ms", tier,
              detail);
  report->Add(prefix + "raw.frame_p99_ms", tail.value, "ms", Tier::kInfo,
              "not scaled");
  std::snprintf(detail, sizeof(detail), "%s: %llu of %llu frames", what.c_str(),
                static_cast<unsigned long long>(stats.failed),
                static_cast<unsigned long long>(stats.attempted));
  report->Add(prefix + "error_rate",
              static_cast<double>(stats.failed) /
                  static_cast<double>(std::max<uint64_t>(stats.attempted, 1)),
              "ratio", Tier::kInfo, detail);
}

LoopStats MeasureWindows(const std::vector<WireFrame>& frames,
                         LoopOptions options, const Args& args,
                         Tracer* tracer, Report* report) {
  options.seconds = args.seconds;
  options.tracer = nullptr;
  LoopStats plain = RunLoop(frames, options);
  ReportLoop("window", plain, report, Tier::kEndToEnd);
  if (!args.trace) return plain;
  options.tracer = tracer;
  LoopStats traced = RunLoop(frames, options);
  ReportLoop("traced window", traced, report, Tier::kInfo, "traced.");
  const double plain_qps =
      static_cast<double>(plain.queries) / std::max(plain.elapsed_s, 1e-9);
  const double traced_qps =
      static_cast<double>(traced.queries) / std::max(traced.elapsed_s, 1e-9);
  report->Add("trace.overhead_qps_pct",
              (plain_qps - traced_qps) / std::max(plain_qps, 1e-9) * 100, "%",
              Tier::kInfo,
              "untraced minus traced raw qps, share of untraced");
  report->Add("trace.overhead_p50_ms",
              Median(traced.latency_ms) - Median(plain.latency_ms), "ms",
              Tier::kInfo, "traced minus untraced raw frame p50");
  return traced;
}

void CheckPass(const std::string& what, const LoopStats& stats,
               Report* report) {
  report->CountFrames(stats.attempted, stats.failed);
  if (stats.mismatched > 0) {
    report->Fail(what + ": " + std::to_string(stats.mismatched) +
                 " answers differ from the reference (" +
                 stats.first_problem + ")");
  }
  if (!stats.first_problem.empty()) {
    std::printf("note  %s: %s\n", what.c_str(), stats.first_problem.c_str());
  }
}

// ----------------------------------------------------------------- misc

namespace {

// The CPUs the process was allowed at start-up (before PinToOneCpu).
cpu_set_t& StartupCpus() {
  static cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  return cpus;
}

}  // namespace

int PinToOneCpu() {
  const cpu_set_t& allowed = StartupCpus();
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void UnpinThread() {
  sched_setaffinity(0, sizeof(cpu_set_t), &StartupCpus());
}

void LogPhase(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  std::printf("time  %-28s done at %8.3f s\n", what.c_str(),
              std::chrono::duration<double>(Clock::now() - start).count());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace perfbench
