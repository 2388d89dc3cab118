// Ablation study over HABIT's design choices (not a paper table; supports
// the design discussion in Sections 3.2-3.3):
//
//  (a) edge-cost policy — pure hop count vs inverse frequency vs the
//      default hops-then-frequency tie-breaking;
//  (b) transition expansion — materializing the cells skipped by sparse
//      reporting vs keeping only raw (lag_cl, cl) jumps.
#include <cstdio>
#include <string>

#include "eval/harness.h"

namespace {

using namespace habit;

void Report(const char* label, const Result<eval::MethodReport>& r) {
  if (!r.ok()) {
    std::printf("  %-34s failed: %s\n", label, r.status().ToString().c_str());
    return;
  }
  std::printf("  %-34s DTW med %8.1f  mean %8.1f  fail %zu  lat avg %7.4fs\n",
              label, r.value().accuracy.median, r.value().accuracy.mean,
              r.value().accuracy.failures, r.value().latency.Mean());
}

}  // namespace

int main() {
  eval::ExperimentOptions options;
  options.scale = 1.0;
  options.seed = 42;
  options.sampler.report_interval_s = 10.0;
  auto exp = eval::PrepareExperiment("KIEL", options).MoveValue();
  std::printf("Ablations [KIEL, %zu gaps]\n", exp.gaps.size());

  std::printf("(a) edge-cost policy:\n");
  for (const char* cost : {"hops", "invfreq", "hopsfreq"}) {
    Report(cost, eval::RunMethod(exp, std::string("habit:cost=") + cost));
  }

  std::printf("(b) transition expansion:\n");
  for (const bool expand : {true, false}) {
    Report(expand ? "expand skipped cells (default)" : "raw jumps only",
           eval::RunMethod(
               exp, std::string("habit:expand=") + (expand ? "1" : "0")));
  }

  std::printf("\nexpected: hops-then-frequency ~= hops, both more stable "
              "than inverse-frequency; disabling expansion raises failures "
              "on sparse data\n");
  return 0;
}
