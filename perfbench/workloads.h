// The four workloads of the request benchmark. Each builds its stack,
// reaches its starting population (the set-up), drives closed-loop service
// requests for the requested host time, checks the outputs (checks.h) and
// reports per-request samples plus, in traced runs, per-layer figures.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where a traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

struct RunOutcome {
  bool correct = true;
  std::string error;  ///< the first failed check
  /// Deploy and removal operations from set-up through the timed phase.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Host times below are normalized to the reference host speed
  /// (timebase.h); the *_raw_s twins are plain wall time.
  double setup_s = 0;
  double setup_raw_s = 0;
  double timed_s = 0;  ///< length of the timed phase
  double timed_raw_s = 0;
  std::vector<double> kernel_ms;  ///< every host-speed probe, in ms
  /// Deploys plus removals that succeeded in the timed phase.
  std::uint64_t completed = 0;
  std::vector<double> deploy_ms;      ///< host time per deployed request
  std::vector<double> remove_ms;      ///< host time per teardown
  std::vector<double> sim_deploy_ms;  ///< simulated arrival -> deployed
  double peak_rss_mb = 0;
  /// large_substrate: the largest requirement delay the delay check
  /// recomputed, in ms.
  double max_path_delay_ms = 0;
  /// Traced runs only: (name, value) per per-layer metric.
  std::vector<std::pair<std::string, double>> per_layer;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; `process_start_ns` (now_ns() at entry to main) is
/// where the set-up clock starts.
[[nodiscard]] RunOutcome run_workload(const RunOptions& options,
                                      std::int64_t process_start_ns);

}  // namespace perfbench
