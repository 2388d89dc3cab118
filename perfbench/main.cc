// perfbench — the repository benchmark. One command, three workloads:
//
//   perfbench --workload <kiel-r10-long|sar-routed-short|kiel-ingest>
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out FILE]
//
// Prints one line per metric while it runs and, as its last line, one
// JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1 (which also
// writes every recorded span to --trace-out). Exits 1 when any served
// answer differs from the in-process reference. perfbench/run.py builds
// this binary and forwards the flags; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"
#include "core/parse.h"

namespace {

using namespace perfbench;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload kiel-r10-long|sar-routed-short|"
               "kiel-ingest --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const auto seed = habit::core::ParseInt64(value);
      if (!seed.ok() || seed.value() < 0) return Usage("bad --seed");
      args.seed = static_cast<uint64_t>(seed.value());
    } else if (flag == "--seconds") {
      const auto seconds = habit::core::ParseDouble(value);
      if (!seconds.ok() || seconds.value() <= 0 || seconds.value() > 600) {
        return Usage("bad --seconds");
      }
      args.seconds = seconds.value();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_path = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (args.work_dir.empty()) return Usage("--work-dir is required");

  Status (*run)(const Args&, Report*, Tracer*, HostGauge*) = nullptr;
  if (args.workload == "kiel-r10-long") run = RunKielLong;
  if (args.workload == "sar-routed-short") run = RunSarRouted;
  if (args.workload == "kiel-ingest") run = RunKielIngest;
  if (run == nullptr) return Usage("unknown --workload");

  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) return Usage(("cannot create " + args.work_dir).c_str());
  std::printf("run   workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // One CPU for the whole run: on a shared host whose other CPUs are
  // taken away under load, a single pinned CPU gives repeatable figures
  // (see README.md, "Why one CPU").
  const int cpu = PinToOneCpu();
  std::printf("run   pinned to cpu %d\n", cpu);
  LogPhase("start");
  Tracer tracer(args.trace);
  Report report;
  HostGauge gauge;  // allocated here, before any set-up is timed
  const Status status = run(args, &report, &tracer, &gauge);
  std::printf("run   host gauge doses at real-time priority: %s\n",
              gauge.realtime() ? "yes" : "no");
  std::filesystem::remove_all(args.work_dir, ec);
  if (!status.ok()) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
    return 1;
  }
  if (args.trace) {
    ReportSelfTimes(tracer);
    if (!args.trace_path.empty()) {
      const Status written = tracer.Write(args.trace_path);
      if (!written.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", written.ToString().c_str());
        return 1;
      }
      std::printf("spans written to %s\n", args.trace_path.c_str());
    }
  }
  std::printf("%s\n", report.ResultJson(args.trace).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
