// Repository benchmark binary. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--trace_out <path>]
//
// Builds the named workload's system from its seed through public APIs,
// warms up, measures for --seconds, verifies the outputs and prints one
// report line (fingerprint, sample counts, supporting figures) followed
// by the result line: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs print the end-to-end metrics, traced runs the per-layer
// ones (perfbench/README.md lists both).

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using namespace awmoe::perfbench;

int Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "search_fresh|paging_repeat|rerank_two_stage|train_epoch "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--trace_out PATH]\n",
               error);
  return 2;
}

bool ParseNumber(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    double number = 0.0;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &number) || number < 0) {
        return Usage("bad --seed");
      }
      config.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseNumber(value, &number) || number <= 0) {
        return Usage("bad --seconds");
      }
      config.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return Usage("bad --size");
      config.tiny = value == "tiny";
    } else if (flag == "--trace_out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  using Runner = RunResult (*)(const RunConfig&);
  const std::map<std::string, Runner> workloads = {
      {"search_fresh", &RunSearchFresh},
      {"paging_repeat", &RunPagingRepeat},
      {"rerank_two_stage", &RunRerankTwoStage},
      {"train_epoch", &RunTrainEpoch},
  };
  auto it = workloads.find(config.workload);
  if (it == workloads.end()) return Usage("unknown workload");

  RunResult result = it->second(config);

  JsonObject report;
  report.Add("workload", config.workload)
      .Add("seed", static_cast<int64_t>(config.seed))
      .Add("seconds", config.seconds)
      .Add("trace", config.trace)
      .Add("size", config.tiny ? "tiny" : "full")
      .Add("fingerprint", Fingerprint(result.threads))
      .Add("detail", result.report);
  std::printf("report %s\n", report.str().c_str());

  JsonObject metrics;
  const auto& specs = config.trace ? PerLayerSpecs() : EndToEndSpecs();
  const auto& values = config.trace ? result.per_layer : result.end_to_end;
  for (const MetricSpec& spec : specs) {
    auto value = values.find(spec.name);
    // A per-layer metric a workload's path never reaches reads 0.
    const double v = value == values.end() ? 0.0 : value->second;
    JsonObject metric;
    metric.Add("value", v).Add("unit", spec.unit);
    metrics.Add(spec.name, metric);
  }
  JsonObject line;
  line.Add("correct", result.correct)
      .Add("attempted", result.attempted)
      .Add("failed", result.failed)
      .Add("metrics", metrics);
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return 0;
}
