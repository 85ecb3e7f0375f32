#include "timebase.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "trace.h"

namespace perfbench {
namespace {

/// Fixed work resembling the control plane's hot paths (allocation,
/// ordered-map inserts keyed by formatted strings, string building, a
/// sort), written without any library code. Its working set stays in the
/// private caches: a variant that also chased pointers through 16 MB
/// tracked the host's speed worse and inflated the measured RSS.
double calibration_kernel_ms() {
  const std::int64_t start = now_ns();
  std::map<std::string, std::vector<int>> table;
  std::uint64_t x = 88172645463325252ULL;
  char key[32];
  for (int i = 0; i < 3000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::snprintf(key, sizeof key, "k%llu",
                  static_cast<unsigned long long>(x % 100000));
    table[key].push_back(i);
  }
  std::vector<double> weights;
  std::string joined;
  for (const auto& [name, hits] : table) {
    weights.push_back(static_cast<double>(name.size() * 31 + hits.size()));
    joined += name;
    joined += ',';
  }
  std::sort(weights.begin(), weights.end());
  volatile std::size_t sink = joined.size() + weights.size();
  (void)sink;
  return static_cast<double>(now_ns() - start) / 1e6;
}

}  // namespace

double probe_host_speed() {
  double best = calibration_kernel_ms();
  for (int i = 0; i < 2; ++i) best = std::min(best, calibration_kernel_ms());
  return best;
}

TimeBase::TimeBase(std::int64_t origin_ns) : window_start_ns_(origin_ns) {
  const std::int64_t probe_start = now_ns();
  last_kernel_ms_ = probe_host_speed();
  probes_.push_back(last_kernel_ms_);
  // The first window runs from the origin; the probe itself is left out.
  window_start_ns_ += now_ns() - probe_start;
}

void TimeBase::sample(double raw_ms, std::vector<double>& out) {
  pending_.emplace_back(raw_ms, &out);
}

void TimeBase::checkpoint() {
  if (now_ns() - window_start_ns_ >= kProbePeriodNs) close_window();
}

void TimeBase::close_window() {
  const std::int64_t window_end = now_ns();
  const double kernel_ms = probe_host_speed();
  probes_.push_back(kernel_ms);
  const double scale =
      kReferenceKernelMs / ((last_kernel_ms_ + kernel_ms) / 2);
  for (const auto& [raw_ms, out] : pending_) out->push_back(raw_ms * scale);
  pending_.clear();
  const double raw_s = static_cast<double>(window_end - window_start_ns_) / 1e9;
  interval_raw_s_ += raw_s;
  interval_s_ += raw_s * scale;
  last_kernel_ms_ = kernel_ms;
  window_start_ns_ = now_ns();
}

void TimeBase::restart_interval() {
  interval_s_ = 0;
  interval_raw_s_ = 0;
}

}  // namespace perfbench
