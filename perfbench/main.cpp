// Request benchmark: one workload, one seed, one run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--result-file <path>]
//
// Prints, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 the per-layer ones from a traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunOutcome;

/// Linear-interpolated percentile (q in [0, 1]) of `samples`.
double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const RunOutcome& out) {
  return {
      {"setup_s", out.setup_s, "s"},
      {"requests_per_s",
       out.timed_s > 0 ? static_cast<double>(out.completed) / out.timed_s : 0,
       "1/s"},
      {"deploy_ms_p50", percentile(out.deploy_ms, 0.5), "ms"},
      {"deploy_ms_p90", percentile(out.deploy_ms, 0.9), "ms"},
      {"remove_ms_p50", percentile(out.remove_ms, 0.5), "ms"},
      {"sim_deploy_ms_p50", percentile(out.sim_deploy_ms, 0.5), "ms"},
      {"peak_rss_mb", out.peak_rss_mb, "MB"},
  };
}

std::string unit_of(const std::string& per_layer_name) {
  if (per_layer_name.find("_ms_") != std::string::npos ||
      per_layer_name.find(".ms_") != std::string::npos) {
    return "ms";
  }
  if (per_layer_name.find("bytes") != std::string::npos) return "B";
  return "count";
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(value) ? value : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>] "
               "[--result-file <path>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start_ns = perfbench::now_ns();
  RunOptions options;
  std::string result_file;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-file") {
      options.trace_path = value;
    } else if (flag == "--result-file") {
      result_file = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!(options.seconds > 0)) usage("--seconds must be positive");

  const RunOutcome out = perfbench::run_workload(options, start_ns);
  if (!out.correct) {
    std::fprintf(stderr, "check failed: %s\n", out.error.c_str());
  }

  std::vector<Metric> layer;
  for (const auto& [name, value] : out.per_layer) {
    layer.push_back({name, value, unit_of(name)});
  }
  const std::vector<Metric> e2e = end_to_end(out);
  const std::string head = std::string("{\"correct\": ") +
                           (out.correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(out.attempted) +
                           ", \"failed\": " + std::to_string(out.failed);
  if (!result_file.empty()) {
    std::ofstream file(result_file);
    file << head << ", \"workload\": \"" << options.workload
         << "\", \"seed\": " << options.seed
         << ", \"trace\": " << (options.trace ? 1 : 0)
         << ", \"samples\": {\"deploy\": " << out.deploy_ms.size()
         << ", \"remove\": " << out.remove_ms.size()
         << ", \"sim_deploy\": " << out.sim_deploy_ms.size()
         << "}, \"timed_s\": " << number(out.timed_s)
         << ", \"timed_raw_s\": " << number(out.timed_raw_s)
         << ", \"setup_raw_s\": " << number(out.setup_raw_s)
         << ", \"max_path_delay_ms\": " << number(out.max_path_delay_ms)
         << ", \"kernel_ms\": {\"probes\": " << out.kernel_ms.size()
         << ", \"p10\": " << number(percentile(out.kernel_ms, 0.1))
         << ", \"p50\": " << number(percentile(out.kernel_ms, 0.5))
         << ", \"p90\": " << number(percentile(out.kernel_ms, 0.9)) << "}"
         << ", \"deploy_ms_p50_raw_estimate\": "
         << number(percentile(out.deploy_ms, 0.5) * out.timed_raw_s /
                   (out.timed_s > 0 ? out.timed_s : 1))
         << ", \"end_to_end\": " << metrics_json(e2e)
         << ", \"per_layer\": " << metrics_json(layer) << "}\n";
  }
  std::printf("%s, \"metrics\": %s}\n", head.c_str(),
              metrics_json(options.trace ? layer : e2e).c_str());
  return 0;
}
