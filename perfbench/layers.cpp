#include "layers.h"

#include <utility>

namespace perfbench {
namespace {

/// Simulated latency ranges of an accept-all domain: one API round trip
/// per push, one instance start per NF the push adds.
constexpr unify::SimTime kApiMinUs = 300;
constexpr unify::SimTime kApiMaxUs = 700;
constexpr unify::SimTime kStartMinUs = 1000;
constexpr unify::SimTime kStartMaxUs = 3000;

std::size_t count_nfs(const unify::model::Nffg& nffg) {
  std::size_t n = 0;
  for (const auto& [id, bb] : nffg.bisbis()) n += bb.nfs.size();
  return n;
}

}  // namespace

using unify::Result;

Result<unify::mapping::Mapping> TracedMapper::map(
    const unify::sg::ServiceGraph& sg,
    const unify::mapping::SubstrateView& substrate,
    const unify::catalog::NfCatalog& catalog) const {
  ScopedSpan span(Layer::kMapping);
  calls_.fetch_add(1, std::memory_order_relaxed);
  return inner_->map(sg, substrate, catalog);
}

TracedAdapter::TracedAdapter(
    std::unique_ptr<unify::adapters::DomainAdapter> inner, Layer layer,
    bool keep_slices)
    : inner_(std::move(inner)), layer_(layer), keep_slices_(keep_slices) {}

Result<unify::model::Nffg> TracedAdapter::fetch_view() {
  return inner_->fetch_view();
}

Result<unify::adapters::PushTicket> TracedAdapter::begin_apply(
    const unify::model::Nffg& desired) {
  ++pushes_;
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) open_span_ = tracer.open(layer_);
  if (keep_slices_) pending_slice_ = desired;
  return inner_->begin_apply(desired);
}

Result<void> TracedAdapter::await(const unify::adapters::PushTicket& ticket) {
  Result<void> result = inner_->await(ticket);
  if (open_span_ >= 0) {
    Tracer::instance().close(open_span_);
    open_span_ = -1;
  }
  if (pending_slice_.has_value()) {
    if (result.ok()) last_slice_ = std::move(*pending_slice_);
    pending_slice_.reset();
  }
  return result;
}

Result<void> TracedAdapter::apply(const unify::model::Nffg& desired) {
  UNIFY_ASSIGN_OR_RETURN(const unify::adapters::PushTicket ticket,
                         begin_apply(desired));
  return await(ticket);
}

void TracedTransport::on_receive(ReceiveFn fn) {
  inner_->on_receive([tap = tap_, fn = std::move(fn)](std::string_view bytes) {
    const bool tracing = Tracer::instance().enabled();
    if (tracing) {
      ++tap->deliveries;
      tap->bytes += bytes.size();
      if (tap->deliveries % WireTap::kSampleEvery == 0 &&
          tap->samples.size() < WireTap::kMaxSamples) {
        tap->samples.emplace_back(bytes);
      }
    }
    ScopedSpan span(Layer::kServer);
    fn(bytes);
  });
}

AcceptAllDomain::AcceptAllDomain(std::string name, unify::model::Nffg view,
                                 unify::SimClock& clock, std::uint64_t seed)
    : name_(std::move(name)),
      view_(std::move(view)),
      clock_(&clock),
      rng_(seed) {}

Result<void> AcceptAllDomain::apply(const unify::model::Nffg& desired) {
  const std::size_t placed = count_nfs(desired);
  unify::SimTime cost = rng_.next_int(kApiMinUs, kApiMaxUs);
  for (std::size_t i = placed_nfs_; i < placed; ++i) {
    cost += rng_.next_int(kStartMinUs, kStartMaxUs);
  }
  native_ops_ += 1 + (placed > placed_nfs_ ? placed - placed_nfs_
                                           : placed_nfs_ - placed);
  placed_nfs_ = placed;
  clock_->advance(cost);
  return Result<void>::success();
}

}  // namespace perfbench
