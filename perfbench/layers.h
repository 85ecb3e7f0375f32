// The benchmark's handles on the layers it can inject into the Fig. 1
// stack: the mapper, every domain adapter, the service layer's northbound
// client adapter and the server end of the Unify channel. Each wrapper
// forwards to the library's own object, counts the calls that cross it and
// opens a trace span around them (trace.h). An accept-all domain with a
// seeded simulated configuration latency stands in for technology domains
// with ample headroom.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapters/domain_adapter.h"
#include "mapping/mapper.h"
#include "model/nffg.h"
#include "proto/transport.h"
#include "trace.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace perfbench {

/// Counts and spans every Mapper::map call.
class TracedMapper final : public unify::mapping::Mapper {
 public:
  explicit TracedMapper(std::shared_ptr<const unify::mapping::Mapper> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] unify::Result<unify::mapping::Mapping> map(
      const unify::sg::ServiceGraph& sg,
      const unify::mapping::SubstrateView& substrate,
      const unify::catalog::NfCatalog& catalog) const override;

  [[nodiscard]] std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const unify::mapping::Mapper> inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// Forwards to a domain adapter (southbound) or to the service layer's
/// Unify client (northbound), spanning each push from begin_apply() to
/// await(). With `keep_slices` the last acknowledged config is kept for
/// the benchmark's correctness checks.
class TracedAdapter final : public unify::adapters::DomainAdapter {
 public:
  TracedAdapter(std::unique_ptr<unify::adapters::DomainAdapter> inner,
                Layer layer, bool keep_slices);

  [[nodiscard]] const std::string& domain() const noexcept override {
    return inner_->domain();
  }
  [[nodiscard]] unify::Result<unify::model::Nffg> fetch_view() override;
  unify::Result<unify::adapters::PushTicket> begin_apply(
      const unify::model::Nffg& desired) override;
  unify::Result<void> await(const unify::adapters::PushTicket& ticket) override;
  [[nodiscard]] bool push_in_flight() const noexcept override {
    return inner_->push_in_flight();
  }
  unify::Result<void> probe() override { return inner_->probe(); }
  [[nodiscard]] std::uint64_t view_epoch() const noexcept override {
    return inner_->view_epoch() + DomainAdapter::view_epoch();
  }
  [[nodiscard]] const void* exclusion_key() const noexcept override {
    return inner_->exclusion_key();
  }
  unify::Result<void> apply(const unify::model::Nffg& desired) override;
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return inner_->native_operations();
  }

  [[nodiscard]] std::uint64_t pushes() const noexcept { return pushes_; }
  /// Last config the domain acknowledged (empty before the first push).
  [[nodiscard]] const unify::model::Nffg& last_slice() const noexcept {
    return last_slice_;
  }

 private:
  std::unique_ptr<unify::adapters::DomainAdapter> inner_;
  Layer layer_;
  bool keep_slices_;
  std::int64_t open_span_ = -1;
  std::optional<unify::model::Nffg> pending_slice_;
  unify::model::Nffg last_slice_;
  std::uint64_t pushes_ = 0;
};

/// What crossed the server end of the Unify channel.
struct WireTap {
  std::uint64_t deliveries = 0;
  std::uint64_t bytes = 0;
  /// Raw deliveries kept for re-timing the codec: one in every
  /// kSampleEvery, at most kMaxSamples, and only while tracing.
  std::vector<std::string> samples;
  static constexpr std::uint64_t kSampleEvery = 4;
  static constexpr std::size_t kMaxSamples = 48;
};

/// Server-side decorator of the Unify channel: spans everything the
/// server does with a delivery (frame decode, Virtualizer::edit_config and
/// the orchestration below it, reply encode) as Layer::kServer.
class TracedTransport final : public unify::proto::Transport {
 public:
  TracedTransport(std::shared_ptr<unify::proto::Transport> inner,
                  std::shared_ptr<WireTap> tap)
      : inner_(std::move(inner)), tap_(std::move(tap)) {}

  unify::Result<void> send(std::string bytes) override {
    return inner_->send(std::move(bytes));
  }
  void on_receive(ReceiveFn fn) override;
  void on_close(CloseFn fn) override { inner_->on_close(std::move(fn)); }
  void disconnect() override { inner_->disconnect(); }
  [[nodiscard]] bool connected() const noexcept override {
    return inner_->connected();
  }
  [[nodiscard]] const unify::proto::TransportCounters& counters()
      const noexcept override {
    return inner_->counters();
  }
  [[nodiscard]] unify::proto::Driver& driver() noexcept override {
    return inner_->driver();
  }

 private:
  std::shared_ptr<unify::proto::Transport> inner_;
  std::shared_ptr<WireTap> tap_;
};

/// A technology domain that accepts every config and advertises a fixed
/// view. Every push advances the shared SimClock by one API round trip
/// plus one instance start per NF the push adds, each drawn with the
/// domain's seeded generator, so all such domains on one clock share one
/// exclusion key.
class AcceptAllDomain final : public unify::adapters::DomainAdapter {
 public:
  AcceptAllDomain(std::string name, unify::model::Nffg view,
                  unify::SimClock& clock, std::uint64_t seed);

  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] unify::Result<unify::model::Nffg> fetch_view() override {
    return view_;
  }
  unify::Result<void> apply(const unify::model::Nffg& desired) override;
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return native_ops_;
  }
  [[nodiscard]] const void* exclusion_key() const noexcept override {
    return clock_;
  }

 private:
  std::string name_;
  unify::model::Nffg view_;
  unify::SimClock* clock_;
  unify::Rng rng_;
  std::size_t placed_nfs_ = 0;
  std::uint64_t native_ops_ = 0;
};

}  // namespace perfbench
