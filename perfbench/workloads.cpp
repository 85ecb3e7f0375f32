#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "catalog/nf_catalog.h"
#include "checks.h"
#include "infra/churn.h"
#include "json/json.h"
#include "model/nffg_json.h"
#include "proto/framing.h"
#include "sg/service_graph.h"
#include "stacks.h"
#include "timebase.h"
#include "trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using unify::Result;
using unify::Rng;
using unify::SimTime;

/// NF types without decomposition rules: what the accept-all workloads
/// request, so the expected placement is exactly the requested types.
const std::vector<std::string> kAtomicTypes{
    "nat", "fw-lite", "dpi", "monitor", "compressor", "parental-filter"};

/// fig1_domains mixes in "firewall", which the catalog decomposes into
/// fw-lite + fw-stateful; all types are light enough that an 8-NF chain
/// fits the Fig. 1 domains.
const std::vector<std::string> kFig1Types{
    "firewall", "fw-lite", "nat", "monitor", "parental-filter", "compressor"};

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// Peak resident set size of this process so far (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

struct Chain {
  unify::sg::ServiceGraph graph;
  std::vector<RequestedNf> nfs;
  std::string dst;
};

Chain make_request(const std::string& id, const std::string& src,
                   const std::vector<std::string>& types,
                   const std::string& dst, double bandwidth,
                   double max_delay) {
  Chain chain;
  chain.graph = unify::sg::make_chain(id, src, types, dst, bandwidth,
                                      max_delay);
  for (const auto& [nf_id, nf] : chain.graph.nfs()) {
    chain.nfs.push_back({nf_id, nf.type});
  }
  chain.dst = dst;
  return chain;
}

/// NF types for the `index`-th chain of a closed loop: its length cycles
/// through min_len..max_len (so every run holds the same mix of lengths,
/// whatever its seed and however many chains it gets through), the types
/// are drawn from `pool` with the seeded generator.
std::vector<std::string> chain_types(Rng& rng,
                                     const std::vector<std::string>& pool,
                                     std::uint64_t index, int min_len,
                                     int max_len) {
  std::vector<std::string> types;
  const auto n = static_cast<std::uint64_t>(min_len) +
                 index % static_cast<std::uint64_t>(max_len - min_len + 1);
  for (std::uint64_t i = 0; i < n; ++i) {
    types.push_back(pool[rng.next_below(pool.size())]);
  }
  return types;
}

/// Counters of the layers below, read at the start and end of the timed
/// phase.
struct LayerMark {
  std::uint64_t north_pushes = 0;
  std::uint64_t mapping_calls = 0;
  std::uint64_t south_applies = 0;
  std::uint64_t native_ops = 0;
  std::uint64_t skipped_clean = 0;
  std::uint64_t noop_skips = 0;
};

LayerMark mark(Stack& stack) {
  LayerMark m;
  m.north_pushes = stack.north->pushes();
  m.mapping_calls = stack.mapper->calls();
  for (const TracedAdapter* domain : stack.domains) {
    m.south_applies += domain->pushes();
    m.native_ops += domain->native_operations();
  }
  m.skipped_clean = stack.fig1.ro->metrics().counter("ro.push.skipped_clean");
  m.noop_skips = stack.fig1.ro->metrics().counter("virt.edit.noop_skips");
  return m;
}

struct CodecTimes {
  double encode_ms = 0;
  double decode_ms = 0;
};

/// Re-times the northbound codec on the edit-config frames the server
/// received: json::parse + model::nffg_from_json to decode,
/// model::to_json + json::dump to encode, each repeated and averaged.
CodecTimes retime_codec(const WireTap& tap) {
  constexpr int kRepeats = 3;
  CodecTimes out;
  std::size_t frames = 0;
  for (const std::string& delivery : tap.samples) {
    unify::proto::FrameDecoder decoder;
    std::vector<std::string> payloads;
    if (!decoder.feed(delivery, payloads).ok()) continue;
    for (const std::string& payload : payloads) {
      const auto message = unify::json::parse(payload);
      if (!message.ok() || message->get_string("method") != "edit-config") {
        continue;
      }
      const unify::json::Value* params = message->get("params");
      if (params == nullptr || params->get("config") == nullptr) continue;
      const auto config = unify::model::nffg_from_json(*params->get("config"));
      if (!config.ok()) continue;
      ++frames;
      for (int r = 0; r < kRepeats; ++r) {
        const std::int64_t t0 = now_ns();
        const auto parsed = unify::json::parse(payload);
        const auto decoded = unify::model::nffg_from_json(
            *parsed->get("params")->get("config"));
        const std::int64_t t1 = now_ns();
        const std::string encoded = unify::model::to_json(*decoded).dump();
        const std::int64_t t2 = now_ns();
        if (encoded.empty()) return out;
        out.decode_ms += ms_between(t0, t1);
        out.encode_ms += ms_between(t1, t2);
      }
    }
  }
  if (frames > 0) {
    out.decode_ms /= static_cast<double>(frames * kRepeats);
    out.encode_ms /= static_cast<double>(frames * kRepeats);
  }
  return out;
}

double per(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

/// Shared state of one run: the stack, the outcome being filled,
/// the benchmark's own record of live services, and the timed phase.
class Run {
 public:
  Run(const RunOptions& options, std::int64_t process_start_ns,
      RunOutcome& out)
      : options_(options), out_(out), time_(process_start_ns) {}

  void attach(std::unique_ptr<Stack> stack) { stack_ = std::move(stack); }
  Stack& stack() { return *stack_; }
  LiveRecord& live() { return live_; }
  std::deque<std::string>& order() { return order_; }
  [[nodiscard]] bool timed() const noexcept { return timed_; }

  /// Opens a service-layer operation: counts it and tags its spans.
  void begin_op(std::uint64_t count) {
    out_.attempted += count;
    Tracer::instance().set_operation(++op_);
  }
  void fail_ops(std::uint64_t count, const unify::Error& error) {
    out_.failed += count;
    if (first_error_.empty()) first_error_ = error.to_string();
  }

  /// submit() one chain; returns false when it failed.
  bool deploy(const Chain& chain) {
    begin_op(1);
    const SimTime sim0 = stack_->fig1.clock.now();
    const std::int64_t t0 = now_ns();
    Result<std::string> result = [&] {
      ScopedSpan span(Layer::kService);
      return stack_->fig1.service_layer->submit(chain.graph);
    }();
    const double host = ms_between(t0, now_ns());
    if (!result.ok()) {
      fail_ops(1, result.error());
      return false;
    }
    note_deploys(1);
    live_[chain.graph.id()] = chain.nfs;
    order_.push_back(chain.graph.id());
    last_sim_start_ = sim0;
    record_deploy(host);
    return true;
  }

  /// Simulated time since the last timed deploy started, as a sample.
  void record_sim_deploy() {
    if (timed_) {
      out_.sim_deploy_ms.push_back(
          static_cast<double>(stack_->fig1.clock.now() - last_sim_start_) / 1e3);
    }
  }

  bool remove_oldest() {
    const std::string id = order_.front();
    order_.pop_front();
    begin_op(1);
    const std::int64_t t0 = now_ns();
    Result<void> result = [&] {
      ScopedSpan span(Layer::kService);
      return stack_->fig1.service_layer->remove(id);
    }();
    const double host = ms_between(t0, now_ns());
    if (!result.ok()) {
      fail_ops(1, result.error());
      return false;
    }
    note_removals(1);
    live_.erase(id);
    record_remove(host);
    return true;
  }

  /// Host time of one deployed request / one teardown, in raw ms; kept
  /// (host-speed normalized) only in the timed phase.
  void record_deploy(double host_ms) {
    if (!timed_) return;
    time_.sample(host_ms, out_.deploy_ms);
    ++out_.completed;
  }
  void record_remove(double host_ms) {
    if (!timed_) return;
    time_.sample(host_ms, out_.remove_ms);
    ++out_.completed;
  }
  /// Re-measures the host speed when due; call between operations.
  void tick() { time_.checkpoint(); }

  /// Timed-phase counts of the per-layer ratios.
  void note_deploys(std::uint64_t n) {
    if (timed_) deploys_ += n;
  }
  void note_removals(std::uint64_t n) {
    if (timed_) removals_ += n;
  }
  void note_wave() {
    if (timed_) ++waves_;
  }

  /// A failed correctness check ends the run's verdict (first one wins).
  void fail_check(const CheckFailure& failure, const char* what) {
    if (failure.has_value() && out_.correct) {
      out_.correct = false;
      out_.error = std::string(what) + ": " + *failure;
    }
  }

  void check_live() {
    fail_check(check_live_nfs(live_, slices(), stack_->fig1.ro->catalog()),
               "live NFs");
    fail_check(check_capacity(slices(), stack_->fig1.ro->global_view(),
                              stack_->initial_view, stack_->fig1.ro->catalog()),
               "capacity");
  }

  /// Removes every live service in one batch and checks that everything
  /// advertised is free again.
  void teardown() {
    std::vector<std::string> ids;
    for (const auto& [id, nfs] : live_) ids.push_back(id);
    if (!ids.empty()) {
      const auto results = stack_->fig1.service_layer->remove_batch(ids);
      for (std::size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok()) {
          fail_check(CheckFailure{ids[i] + ": " + results[i].error().to_string()},
                     "teardown");
        }
      }
    }
    live_.clear();
    order_.clear();
    fail_check(check_teardown(slices(), stack_->fig1.ro->global_view(),
                              stack_->initial_view),
               "teardown");
  }

  /// Ends the set-up and starts the timed phase.
  void start_timed() {
    time_.close_window();
    out_.setup_s = time_.interval_s();
    out_.setup_raw_s = time_.interval_raw_s();
    check_live();
    before_ = mark(*stack_);
    time_.close_window();  // leaves the checks out of the timed phase
    time_.restart_interval();
    Tracer::instance().set_enabled(options_.trace);
    timed_ = true;
    deadline_ns_ = now_ns() + static_cast<std::int64_t>(options_.seconds * 1e9);
  }
  [[nodiscard]] bool time_left() const { return now_ns() < deadline_ns_; }

  /// Ends the timed phase: its length, peak RSS and layer counters.
  void stop_timed() {
    time_.close_window();
    out_.timed_s = time_.interval_s();
    out_.timed_raw_s = time_.interval_raw_s();
    out_.kernel_ms = time_.probes();
    Tracer::instance().set_enabled(false);
    timed_ = false;
    out_.peak_rss_mb = peak_rss_mb();
    after_ = mark(*stack_);
    held_ = stack_->fig1.service_layer->requests().size();
  }

  /// Ends the timed phase if still open, then checks, tears down and
  /// fills the per-layer figures.
  void finish() {
    if (timed_) stop_timed();
    check_live();
    teardown();
    if (!first_error_.empty()) {
      std::fprintf(stderr, "first failed operation: %s\n",
                   first_error_.c_str());
    }
    if (options_.trace) per_layer();
  }

 private:
  std::vector<DomainSlice> slices() const {
    std::vector<DomainSlice> out;
    for (const TracedAdapter* domain : stack_->domains) {
      out.push_back({domain->domain(), &domain->last_slice()});
    }
    return out;
  }

  void per_layer() {
    const LayerMark& after = after_;
    const std::vector<LayerTotals> totals = Tracer::instance().totals();
    const auto layer = [&](Layer l) -> const LayerTotals& {
      return totals[static_cast<std::size_t>(l)];
    };
    const double requests = static_cast<double>(deploys_ + removals_);
    const double pushes =
        static_cast<double>(after.north_pushes - before_.north_pushes);
    const double calls =
        static_cast<double>(after.mapping_calls - before_.mapping_calls);
    const double applies =
        static_cast<double>(after.south_applies - before_.south_applies);
    const CodecTimes codec = retime_codec(*stack_->tap);
    // Layer times get the timed phase's mean host-speed normalization.
    const double speed = per(out_.timed_s, out_.timed_raw_s);
    auto& m = out_.per_layer;
    m.emplace_back("service.self_ms_per_request",
                   speed * per(layer(Layer::kService).self_ms, requests));
    m.emplace_back("service.requests_held", static_cast<double>(held_));
    m.emplace_back("admission.requests_per_wave",
                   per(static_cast<double>(deploys_),
                       static_cast<double>(waves_)));
    m.emplace_back("north.pushes_per_request", per(pushes, requests));
    m.emplace_back("north.ms_per_push",
                   speed * per(layer(Layer::kNorth).total_ms, pushes));
    m.emplace_back("north.bytes_per_push",
                   per(static_cast<double>(stack_->tap->bytes), pushes));
    m.emplace_back("codec.encode_ms_per_push", speed * codec.encode_ms);
    m.emplace_back("codec.decode_ms_per_push", speed * codec.decode_ms);
    m.emplace_back("core.self_ms_per_push",
                   speed * std::max(0.0, per(layer(Layer::kServer).self_ms,
                                             pushes) -
                                         codec.decode_ms));
    m.emplace_back("core.skipped_clean_per_push",
                   per(static_cast<double>(after.skipped_clean -
                                           before_.skipped_clean),
                       pushes));
    m.emplace_back("core.noop_skips_per_push",
                   per(static_cast<double>(after.noop_skips -
                                           before_.noop_skips),
                       pushes));
    m.emplace_back("mapping.calls_per_request", per(calls, requests));
    m.emplace_back("mapping.ms_per_call",
                   speed * per(layer(Layer::kMapping).total_ms, calls));
    m.emplace_back("south.applies_per_request", per(applies, requests));
    m.emplace_back("south.ms_per_apply",
                   speed * per(layer(Layer::kSouth).total_ms, applies));
    m.emplace_back("infra.native_ops_per_request",
                   per(static_cast<double>(after.native_ops -
                                           before_.native_ops),
                       requests));
    if (!options_.trace_path.empty() &&
        !Tracer::instance().write_jsonl(options_.trace_path)) {
      std::fprintf(stderr, "could not write %s\n",
                   options_.trace_path.c_str());
    }
  }

  const RunOptions& options_;
  RunOutcome& out_;
  TimeBase time_;
  std::unique_ptr<Stack> stack_;
  LiveRecord live_;
  std::deque<std::string> order_;
  bool timed_ = false;
  std::int64_t deadline_ns_ = 0;
  SimTime last_sim_start_ = 0;
  std::uint64_t op_ = 0;
  std::uint64_t deploys_ = 0;
  std::uint64_t removals_ = 0;
  std::uint64_t waves_ = 0;
  LayerMark before_;
  LayerMark after_;
  std::size_t held_ = 0;
  std::string first_error_;
};

/// Aborts the run when the stack cannot be assembled.
bool attach_or_fail(Run& run, RunOutcome& out,
                    Result<std::unique_ptr<Stack>> stack) {
  if (!stack.ok()) {
    out.correct = false;
    out.error = "stack assembly: " + stack.error().to_string();
    return false;
  }
  run.attach(std::move(*stack));
  return true;
}

// ---- steady_population -----------------------------------------------------

/// Closed loop at a constant live population: submit() one chain, remove()
/// the oldest. Four accept-all domains in a line; chains of 1-3 atomic NFs
/// between two distinct customer SAPs.
void steady_population(Run& run, RunOutcome& out, std::uint64_t seed) {
  constexpr int kDomains = 4;
  constexpr int kPopulation = 300;
  if (!attach_or_fail(run, out, make_line_stack(kDomains, seed))) return;
  Rng rng(seed);
  std::uint64_t next = 0;
  const auto request = [&] {
    const auto src = static_cast<int>(rng.next_below(kDomains));
    const auto dst = static_cast<int>(
        (static_cast<std::uint64_t>(src) + 1 + rng.next_below(kDomains - 1)) %
        kDomains);
    const std::vector<std::string> types =
        chain_types(rng, kAtomicTypes, next, 1, 3);
    const double bandwidth = rng.next_double(1, 10);
    return make_request("s" + std::to_string(next++),
                        "sap" + std::to_string(src), types,
                        "sap" + std::to_string(dst), bandwidth, 100);
  };
  for (int i = 0; i < kPopulation; ++i) {
    run.deploy(request());
    run.tick();
  }
  run.start_timed();
  while (run.time_left()) {
    if (run.deploy(request())) run.record_sim_deploy();
    run.note_wave();
    if (!run.order().empty()) run.remove_oldest();
    run.tick();
  }
  run.finish();
}

// ---- large_substrate -------------------------------------------------------

/// The same closed loop over a seeded ~1000-node multi-domain substrate,
/// holding a small population so that mapping dominates.
void large_substrate(Run& run, RunOutcome& out, std::uint64_t seed) {
  constexpr int kDomains = 8;
  constexpr int kNodesPerDomain = 125;
  constexpr int kComputePerDomain = 4;
  constexpr int kSaps = 16;
  constexpr int kPopulation = 16;
  // About twice the largest requirement delay seen on this substrate
  // (9-12 ms over seeds 11-22), so that the delay check has a bound that
  // a mapper ignoring delays could break. The chain-DP mapper rejects a
  // chain whose min-cost delay is over the bound instead of rerouting it,
  // so a bound that binds would turn into failed requests.
  constexpr double kMaxDelayMs = 25;
  unify::model::Nffg substrate;
  if (!attach_or_fail(run, out,
                      make_substrate_stack(kDomains, kNodesPerDomain,
                                           kComputePerDomain, kSaps, seed,
                                           substrate))) {
    return;
  }
  std::vector<std::string> saps;
  for (const auto& [id, sap] : run.stack().initial_view.saps()) {
    if (id.rfind("sap", 0) == 0) saps.push_back(id);
  }
  Rng rng(seed ^ 0x5bd1e995ULL);
  std::uint64_t next = 0;
  const auto request = [&] {
    const std::size_t src = rng.next_below(saps.size());
    const std::size_t dst =
        (src + 1 + rng.next_below(saps.size() - 1)) % saps.size();
    const std::vector<std::string> types =
        chain_types(rng, kAtomicTypes, next, 2, 4);
    const double bandwidth = rng.next_double(1, 5);
    return make_request("s" + std::to_string(next++), saps[src], types,
                        saps[dst], bandwidth, kMaxDelayMs);
  };
  // Every deployment's delays are re-checked after each deploy, outside
  // the deploy's host time.
  const auto check_delays_now = [&] {
    run.fail_check(check_delays(run.stack().fig1.ro->deployments(),
                                run.stack().initial_view,
                                &out.max_path_delay_ms),
                   "delay");
  };
  for (int i = 0; i < kPopulation; ++i) {
    run.deploy(request());
    check_delays_now();
    run.tick();
  }
  run.start_timed();
  while (run.time_left()) {
    if (run.deploy(request())) run.record_sim_deploy();
    check_delays_now();
    run.note_wave();
    if (!run.order().empty()) run.remove_oldest();
    run.tick();
  }
  run.finish();
}

// ---- fig1_domains ----------------------------------------------------------

/// One chain at a time through the four heterogeneous Fig. 1 domains:
/// remove the previous chain, deploy the next, drain the simulated events
/// (VM boots, container and Click starts), trace the data plane.
void fig1_domains(Run& run, RunOutcome& out, std::uint64_t seed) {
  constexpr std::uint64_t kTenants = 64;
  if (!attach_or_fail(run, out, make_fig1_domains_stack(seed))) return;
  Rng rng(seed);
  std::uint64_t next = 0;
  const auto request = [&] {
    const std::string dst = rng.next_bool(0.5) ? "sap2" : "sap3";
    const std::vector<std::string> types = chain_types(rng, kFig1Types, next, 1, 8);
    // 64 tenants take turns (the service layer lets a removed id be
    // reused), so requests() stays at 64 entries and the adapters and
    // infra carry the cost; with a fresh id per chain the walk over every
    // removed request the service layer keeps dominates within seconds
    // (see FOUND in CHANGES.md; steady_population and churn_waves keep
    // fresh ids and show that growth).
    const std::string tenant = "c" + std::to_string(next++ % kTenants);
    return make_request(tenant, "sap1", types, dst, 10, 200);
  };
  run.start_timed();
  while (run.time_left()) {
    if (!run.order().empty()) run.remove_oldest();
    const Chain chain = request();
    run.note_wave();
    if (!run.deploy(chain)) continue;
    run.stack().fig1.clock.run_until_idle();
    run.record_sim_deploy();
    run.fail_check(
        check_trace(unify::service::end_to_end_trace(run.stack().fig1,
                                                     "sap1", chain.dst),
                    chain.dst),
        "data plane");
    run.tick();
  }
  run.finish();
}

// ---- churn_waves -----------------------------------------------------------

/// The event stream of churn_waves. Its warm-up comes from a churn engine
/// of fixed seed whose arrivals stop at `warmup_us`, so reaching the
/// starting population is the same work whatever the run's seed; those
/// services still depart on their own schedule. The run's seeded engine
/// takes over the arrivals from `warmup_us` on, its events shifted to
/// start there. Warm-up ids get a "w" prefix to keep the two apart.
class ChurnStream {
 public:
  using Event = unify::infra::churn::Event;
  using EventKind = unify::infra::churn::EventKind;

  ChurnStream(unify::infra::churn::ScenarioSpec spec, std::uint64_t seed,
              SimTime warmup_us)
      : warm_(warm_spec(spec, warmup_us), kWarmupSeed),
        timed_(spec, seed),
        warmup_us_(warmup_us) {
    warm_next_ = pull_warm();
    timed_next_ = pull_timed();
  }

  /// The next event at or before `until`, in time order.
  std::optional<Event> next(SimTime until) {
    std::optional<Event>* first = &warm_next_;
    if (!warm_next_.has_value() ||
        (timed_next_.has_value() && timed_next_->at < warm_next_->at)) {
      first = &timed_next_;
    }
    if (!first->has_value() || (*first)->at > until) return std::nullopt;
    std::optional<Event> event = std::move(*first);
    *first = first == &warm_next_ ? pull_warm() : pull_timed();
    return event;
  }

 private:
  static constexpr std::uint64_t kWarmupSeed = 0x9e3779b97f4a7c15ULL;

  /// The warm-up engine stops once every warm-up service has departed.
  static unify::infra::churn::ScenarioSpec warm_spec(
      unify::infra::churn::ScenarioSpec spec, SimTime warmup_us) {
    spec.horizon_us =
        warmup_us + static_cast<SimTime>(spec.lifetime_cap_s * 1e6) + 1;
    return spec;
  }

  std::optional<Event> pull_warm() {
    for (std::optional<Event> event = warm_.next(); event.has_value();
         event = warm_.next()) {
      if (event->kind == EventKind::kArrival) {
        if (event->at > warmup_us_) continue;
        admitted_.insert(event->service_id);
      } else if (admitted_.erase(event->service_id) == 0) {
        continue;  // the departure of an arrival after the warm-up
      }
      event->service_id = "w" + event->service_id;
      return event;
    }
    return std::nullopt;
  }

  std::optional<Event> pull_timed() {
    std::optional<Event> event = timed_.next();
    if (event.has_value()) {
      event->at += warmup_us_;
      if (event->deadline != 0) event->deadline += warmup_us_;
    }
    return event;
  }

  unify::infra::churn::ChurnEngine warm_;
  unify::infra::churn::ChurnEngine timed_;
  SimTime warmup_us_;
  std::set<std::string> admitted_;
  std::optional<Event> warm_next_;
  std::optional<Event> timed_next_;
};

/// A seeded infra::churn stream through enqueue()/pump()/remove_batch().
/// Every second of simulated time the queued arrivals go out in full waves
/// of max_wave requests, one pump() each, and right before each wave the
/// departures since the last wave leave in one remove_batch(). Tied to the
/// waves, remove_ms_p50 spread half as much over five seeds as with
/// departures batched every 4 s on their own clock (0.10 against 0.19).
/// An arrival that has waited kMaxWaitUs goes out in a partial wave,
/// so that no service is still queued when its lifetime (at least 10 s)
/// ends; with one deadline for all, the queue is FIFO and a full wave is
/// due about every 4 s, well before that.
void churn_waves(Run& run, RunOutcome& out, std::uint64_t seed) {
  constexpr int kDomains = 4;
  constexpr std::size_t kWave = 64;
  constexpr SimTime kTickUs = 1'000'000;
  constexpr SimTime kMaxWaitUs = 8'000'000;
  constexpr SimTime kWarmupUs = 40'000'000;  // the longest lifetime
  if (!attach_or_fail(run, out, make_line_stack(kDomains, seed))) return;
  Stack& stack = run.stack();
  unify::service::ServiceLayer& layer = *stack.fig1.service_layer;
  unify::SimClock& clock = stack.fig1.clock;
  unify::service::AdmissionPolicy policy;
  policy.queue_capacity = 4096;
  policy.max_wave = kWave;
  layer.set_admission_policy(policy);

  unify::infra::churn::ScenarioSpec spec;
  spec.horizon_us = std::numeric_limits<SimTime>::max() / 4;
  spec.arrival_rate_hz = 16;
  spec.lifetime_min_s = 10;
  spec.lifetime_alpha = 1.4;
  spec.lifetime_cap_s = 40;
  spec.deadline_min_s = 45;
  spec.deadline_max_s = 45;
  spec.nf_pool = static_cast<int>(kAtomicTypes.size());
  spec.chain_min = 1;
  spec.chain_max = 3;
  spec.bandwidth_min = 1;
  spec.bandwidth_max = 10;
  spec.max_delay_ms = 100;
  spec.n_saps = kDomains;
  spec.n_domains = kDomains;
  ChurnStream stream(spec, seed, kWarmupUs);

  std::size_t arrivals = 0;
  std::size_t departures = 0;
  std::size_t deployed = 0;
  std::vector<std::string> leaving;
  // Queued arrivals: (id, arrival sim-time, requested NFs).
  struct Pending {
    std::string id;
    SimTime at;
    std::vector<RequestedNf> nfs;
  };
  std::vector<Pending> pending;
  SimTime next_tick = kTickUs;

  const auto admit = [&](const ChurnStream::Event& event) {
    std::vector<std::string> types;
    for (const int t : event.chain.nf_types) {
      types.push_back(
          kAtomicTypes[static_cast<std::size_t>(t) % kAtomicTypes.size()]);
    }
    const auto sap = [](int index) {
      return "sap" + std::to_string(index % kDomains);
    };
    const Chain chain =
        make_request(event.service_id, sap(event.chain.src_sap), types,
                     sap(event.chain.dst_sap), event.chain.bandwidth,
                     event.chain.max_delay_ms);
    ++arrivals;
    unify::service::AdmissionOptions admission;
    admission.deadline = event.deadline;
    run.begin_op(1);
    const auto queued = layer.enqueue(chain.graph, event.at, admission);
    if (queued.ok()) {
      pending.push_back({event.service_id, event.at, chain.nfs});
    } else {
      run.fail_ops(1, queued.error());
    }
  };

  // One remove_batch of every departure since the last one.
  const auto depart = [&] {
    run.begin_op(leaving.size());
    const std::int64_t t0 = now_ns();
    const std::vector<Result<void>> removed = [&] {
      ScopedSpan span(Layer::kService);
      return layer.remove_batch(leaving);
    }();
    const double host = ms_between(t0, now_ns());
    for (std::size_t i = 0; i < removed.size(); ++i) {
      if (!removed[i].ok()) {
        run.fail_ops(1, removed[i].error());
        continue;
      }
      ++departures;
      run.live().erase(leaving[i]);
      run.note_removals(1);
      run.record_remove(host);
    }
    leaving.clear();
  };

  // One pump; every request it deployed is charged the pump's host time.
  const auto pump = [&] {
    const std::int64_t t0 = now_ns();
    const unify::service::PumpReport report = [&] {
      ScopedSpan span(Layer::kService);
      return layer.pump(clock.now());
    }();
    const double host = ms_between(t0, now_ns());
    if (report.dispatched > 0) run.note_wave();
    const auto& requests = layer.requests();
    std::vector<Pending> still_queued;
    for (Pending& p : pending) {
      const auto it = requests.find(p.id);
      if (it == requests.end() ||
          it->second.state == unify::service::RequestState::kQueued) {
        still_queued.push_back(std::move(p));
        continue;
      }
      if (it->second.state != unify::service::RequestState::kDeployed) {
        run.fail_ops(1, unify::Error{unify::ErrorCode::kRejected,
                                     p.id + " ended " +
                                         unify::service::to_string(
                                             it->second.state) +
                                         ": " + it->second.error});
        continue;
      }
      ++deployed;
      run.note_deploys(1);
      run.live()[p.id] = std::move(p.nfs);
      run.record_deploy(host);
      if (run.timed()) {
        out.sim_deploy_ms.push_back(
            static_cast<double>(clock.now() - p.at) / 1e3);
      }
    }
    pending = std::move(still_queued);
  };

  const auto tick = [&] {
    while (std::optional<ChurnStream::Event> event = stream.next(next_tick)) {
      if (event->kind == ChurnStream::EventKind::kArrival) {
        admit(*event);
      } else if (event->kind == ChurnStream::EventKind::kDeparture) {
        leaving.push_back(event->service_id);
      }
    }
    if (clock.now() < next_tick) clock.advance(next_tick - clock.now());
    while (pending.size() >= kWave ||
           (!pending.empty() && pending.front().at + kMaxWaitUs <= next_tick)) {
      if (!leaving.empty()) depart();
      pump();
    }
    next_tick += kTickUs;
    run.tick();
  };

  while (next_tick <= kWarmupUs) tick();
  run.start_timed();
  while (run.time_left()) tick();
  run.stop_timed();
  // The last, partial wave goes out untimed, so that every arrival is
  // deployed when the counts are checked.
  if (!pending.empty()) pump();
  std::size_t live_below = 0;
  for (const auto& [id, request] : layer.requests()) {
    if (request.state == unify::service::RequestState::kDeployed) {
      ++live_below;
    }
  }
  run.fail_check(check_counts(arrivals, deployed, departures, live_below),
                 "counts");
  run.finish();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{
      "steady_population", "churn_waves", "fig1_domains", "large_substrate"};
  return kNames;
}

RunOutcome run_workload(const RunOptions& options,
                        std::int64_t process_start_ns) {
  RunOutcome out;
  Run run(options, process_start_ns, out);
  if (options.workload == "steady_population") {
    steady_population(run, out, options.seed);
  } else if (options.workload == "churn_waves") {
    churn_waves(run, out, options.seed);
  } else if (options.workload == "fig1_domains") {
    fig1_domains(run, out, options.seed);
  } else if (options.workload == "large_substrate") {
    large_substrate(run, out, options.seed);
  } else {
    out.correct = false;
    out.error = "unknown workload " + options.workload;
  }
  return out;
}

}  // namespace perfbench
