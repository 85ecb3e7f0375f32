#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>

namespace perfbench {
namespace {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kService: return "service";
    case Layer::kNorth: return "north";
    case Layer::kServer: return "server";
    case Layer::kMapping: return "mapping";
    case Layer::kSouth: return "south";
  }
  return "?";
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(Layer layer) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord record;
  record.layer = layer;
  record.start_ns = start;
  record.parent = nesting_.empty() ? -1 : nesting_.back();
  record.op = op_.load(std::memory_order_relaxed);
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(record);
  // Mapping and southbound spans are leaves (and may run on pool
  // workers); only the strictly nested caller-side layers become parents.
  if (layer == Layer::kService || layer == Layer::kNorth ||
      layer == Layer::kServer) {
    nesting_.push_back(index);
  }
  return index;
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
  const auto it = std::find(nesting_.rbegin(), nesting_.rend(), index);
  if (it != nesting_.rend()) nesting_.erase(std::next(it).base());
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<LayerTotals> Tracer::totals() const {
  const std::vector<SpanRecord> all = spans();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      all.size());
  for (const SpanRecord& span : all) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<LayerTotals> out(kLayerCount);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& span = all[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    // Union of the child intervals clipped to this span: overlapping
    // children (parallel pushes) are counted once.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, cursor);
      const std::int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    LayerTotals& totals = out[static_cast<std::size_t>(span.layer)];
    ++totals.spans;
    totals.total_ms += static_cast<double>(duration) / 1e6;
    totals.self_ms += static_cast<double>(duration - covered) / 1e6;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanRecord> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& span = all[i];
    out << "{\"id\":" << i << ",\"layer\":\"" << layer_name(span.layer)
        << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"op\":" << span.op << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
