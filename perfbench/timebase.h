// Host-speed normalized time for the benchmark's host-time metrics.
//
// On a shared virtual machine the speed of a vCPU drifts by up to 2x over
// stretches of 10-60 s, so raw wall times of two 20-second runs of the same
// binary can differ by a third. Hardware cycle counters are not exposed
// there. Instead the benchmark re-measures the host's current speed every
// kProbePeriodNs with a fixed calibration kernel (calibration.cpp: plain
// std::map/std::string/sort work, no library code, so no change to the
// program can move it) and scales every host time measured in between by
// kReferenceKernelMs / (kernel time). A normalized millisecond is what the
// measured interval would have taken with the kernel running at
// kReferenceKernelMs, i.e. on the reference host in its uncontended state.
// Probe time itself is excluded from every interval.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Calibration kernel time on the reference host (4 vCPUs at 2 GHz, g++
/// 12, RelWithDebInfo) in its fast state, in ms.
inline constexpr double kReferenceKernelMs = 1.2;
/// How often the host speed is re-measured.
inline constexpr std::int64_t kProbePeriodNs = 200'000'000;

/// Runs the calibration kernel three times and returns the fastest, in ms.
[[nodiscard]] double probe_host_speed();

class TimeBase {
 public:
  /// Probes once and opens the first window at the probe's end; time from
  /// `origin_ns` up to then is counted in that first window.
  explicit TimeBase(std::int64_t origin_ns);

  /// Queues a raw host duration; it is scaled into `out` when its window
  /// closes.
  void sample(double raw_ms, std::vector<double>& out);
  /// Closes the current window when it is older than kProbePeriodNs.
  void checkpoint();
  /// Probes, closes the current window and opens the next.
  void close_window();

  /// Starts a new accounting interval (normalized and raw) at the next
  /// window boundary; call right after close_window().
  void restart_interval();
  /// Normalized and raw seconds of the current interval (closed windows).
  [[nodiscard]] double interval_s() const noexcept { return interval_s_; }
  [[nodiscard]] double interval_raw_s() const noexcept {
    return interval_raw_s_;
  }
  /// Every probe result so far, in ms.
  [[nodiscard]] const std::vector<double>& probes() const noexcept {
    return probes_;
  }

 private:
  std::int64_t window_start_ns_;
  double last_kernel_ms_;
  double interval_s_ = 0;
  double interval_raw_s_ = 0;
  std::vector<std::pair<double, std::vector<double>*>> pending_;
  std::vector<double> probes_;
};

}  // namespace perfbench
