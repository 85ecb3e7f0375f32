// In-memory span recorder for the request benchmark's traced runs.
//
// Spans are opened and closed by the benchmark's own wrappers around the
// calls into each layer (layers.h); nothing inside the library is
// instrumented. Each span carries its layer, host start/end, the span that
// was open around it and the id of the operation it belongs to. Spans stay
// in memory until the run ends and are then written out as JSON lines.
// With tracing off a ScopedSpan costs one relaxed load and a branch, so the
// untraced runs that produce the end-to-end metrics pay nothing else.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Layer boundaries the wrappers can see. kServer is the Unify server side
/// of the northbound channel: frame decode, Virtualizer::edit_config and
/// the resource orchestrator below it.
enum class Layer : std::uint8_t { kService, kNorth, kServer, kMapping, kSouth };
inline constexpr int kLayerCount = 5;

struct SpanRecord {
  Layer layer = Layer::kService;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint64_t op = 0;      ///< benchmark operation (request or wave) id
};

/// Per-layer totals derived from the recorded spans.
struct LayerTotals {
  std::uint64_t spans = 0;
  double total_ms = 0;  ///< summed span durations
  double self_ms = 0;   ///< durations minus the union of child intervals
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Tags every span opened from now on with operation `op`.
  void set_operation(std::uint64_t op) noexcept {
    op_.store(op, std::memory_order_relaxed);
  }

  /// Opens a span; the innermost open service/north/server span is its
  /// parent. Returns the span index.
  std::int64_t open(Layer layer);
  void close(std::int64_t index);

  [[nodiscard]] std::vector<SpanRecord> spans() const;
  [[nodiscard]] std::vector<LayerTotals> totals() const;
  /// Writes one JSON object per span to `path`.
  bool write_jsonl(const std::string& path) const;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> op_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;      // guarded by mutex_
  std::vector<std::int64_t> nesting_;  // open service/north/server spans
};

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer)
      : index_(Tracer::instance().enabled() ? Tracer::instance().open(layer)
                                            : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::instance().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t index_;
};

/// Host monotonic time in nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

}  // namespace perfbench
