// perfbench — runs one named workload against the dppr serving stack and
// prints its metrics as the last line of standard output:
//
//   perfbench --workload ingest|reads|mixed --seed N --seconds S
//             --trace 0|1 [--scratch DIR]
//
// The untraced run (--trace 0) reports the end-to-end metrics; the traced
// run (--trace 1) runs the same workload with spans recorded, then the
// layer probes, and reports the per-layer metrics. Every run prints the
// operations it attempted and failed and checks its outputs against the
// benchmark's own oracle; a violated check makes the exit code 1.
// perfbench/run.py builds this binary and is the usual entry point.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common.h"
#include "trace.h"

using namespace perfbench;  // NOLINT

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ingest|reads|mixed "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n",
               why);
  return 2;
}

void PrintMetrics(const std::map<std::string, Metric>& metrics,
                  const char* prefix) {
  for (const auto& [name, metric] : metrics) {
    std::printf("%s%-40s %.6g %s\n", prefix, name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.scratch_dir = ".bench_build/perfbench-scratch";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      // The feed is sized from --seconds; the stream holds a few minutes.
      if (*end != '\0' || !(config.seconds > 0 && config.seconds <= 120)) {
        return Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--scratch") {
      config.scratch_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  WorkloadResult (*run)(const RunConfig&, const Inputs&, Checks*) = nullptr;
  double batches_per_second = 0;
  InputSpec spec;
  if (config.workload == "ingest") {
    run = RunIngest;
    batches_per_second = kIngestBatchesPerSecond;
    spec.slide_edges = kIngestSlideEdges;
  } else if (config.workload == "reads") {
    run = RunReads;
    batches_per_second = kReadsBatchesPerSecond;
  } else if (config.workload == "mixed") {
    run = RunMixed;
    batches_per_second = kMixedBatchesPerSecond;
  } else {
    return Usage("unknown --workload");
  }
  spec.batches = std::max(
      1, static_cast<int>(std::lround(config.seconds * batches_per_second)));

  config.scratch_dir += "/" + config.workload + "-" + std::to_string(::getpid());
  ResetDir(config.scratch_dir);
  if (config.trace) trace::Enable();

  const Clock::time_point t0 = Clock::now();
  const Inputs inputs = MakeInputs(config.seed, spec);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("inputs: |V|=%d window=%lld edges, %zu batches of %d-edge "
              "slides, %zu hubs, generated in %.2f s\n",
              inputs.num_vertices, static_cast<long long>(inputs.window_edges),
              inputs.batches.size(), inputs.spec.slide_edges,
              inputs.hubs.size(), SecondsSince(t0));
  std::fflush(stdout);

  Checks checks;
  WorkloadResult result = run(config, inputs, &checks);
  if (config.trace) {
    MeasureLayers(config, inputs, result.feed_batches, &checks, &result);
    const std::string trace_path = config.scratch_dir + ".trace.jsonl";
    if (trace::WriteJsonLines(trace_path)) {
      std::printf("spans written to %s (%lld past the per-thread cap not "
                  "recorded)\n",
                  trace_path.c_str(), static_cast<long long>(trace::Dropped()));
    }
  }
  result.metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("ops: attempted=%lld failed=%lld; checks: run=%lld "
              "violated=%lld\n",
              static_cast<long long>(checks.attempted()),
              static_cast<long long>(checks.failed()),
              static_cast<long long>(checks.checks_run()),
              static_cast<long long>(checks.violations()));
  if (config.trace) PrintMetrics(result.metrics, "traced end-to-end: ");
  PrintMetrics(config.trace ? result.layer_metrics : result.metrics, "");
  RemoveDir(config.scratch_dir);

  const auto& reported = config.trace ? result.layer_metrics : result.metrics;
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %lld, "
                         "\"failed\": %lld, \"metrics\": {",
                         checks.correct() ? "true" : "false",
                         static_cast<long long>(checks.attempted()),
                         static_cast<long long>(checks.failed()));
  bool first = true;
  for (const auto& [name, metric] : reported) {
    json += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return checks.correct() ? 0 : 1;
}
