// Assembly of the benchmark's Fig. 1 stacks from the library's public
// parts: service layer -> Unify client -> in-memory Unify channel ->
// UnifyServer -> single-BiS-BiS virtualizer -> resource orchestrator ->
// domain adapters, with the benchmark's wrappers (layers.h) spliced in at
// every boundary it can inject, and a private orchestration pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/resource_orchestrator.h"
#include "core/virtualizer.h"
#include "layers.h"
#include "model/nffg.h"
#include "service/fig1.h"
#include "service/service_layer.h"
#include "util/orchestration_pool.h"
#include "util/sim_clock.h"

namespace perfbench {

/// Width of the benchmark's own orchestration pool. One worker: the
/// calling thread runs every batch inline, which was both faster and
/// steadier than two on a 4-core host, and never touches the
/// hardware-sized process pool.
inline constexpr std::size_t kPoolWorkers = 1;

/// Northbound Unify channel one-way latency (simulated).
inline constexpr unify::SimTime kUnifyChannelLatencyUs = 200;

struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // Members are destroyed in reverse order: the Fig1Stack (service layer,
  // virtualizer, RO, infrastructures, clock, in that order) goes before
  // the pool its RO and service layer run on.
  unify::util::OrchestrationPool pool{kPoolWorkers};
  std::shared_ptr<TracedMapper> mapper;
  std::shared_ptr<WireTap> tap = std::make_shared<WireTap>();
  /// Every stack: clock, RO, virtualizer and service layer. The emulated
  /// network, SDN, cloud and Universal Node (and the endpoint registry of
  /// the data-plane tracer) are set only in make_fig1_domains_stack.
  unify::service::Fig1Stack fig1;

  TracedAdapter* north = nullptr;       ///< owned by the service layer
  std::vector<TracedAdapter*> domains;  ///< owned by the RO
  /// The RO's global view right after initialize(): the advertised
  /// capacities the teardown check compares against.
  unify::model::Nffg initial_view;
};

/// `n` accept-all domains in a line: domain i is one BiS-BiS "bb<i>" with
/// customer SAP "sap<i>" and stitching SAPs "x<i-1>"/"x<i>" to its
/// neighbours. Capacities and link bandwidths leave ample headroom for a
/// few hundred live chains.
[[nodiscard]] unify::Result<std::unique_ptr<Stack>> make_line_stack(
    int n_domains, std::uint64_t seed);

/// The paper's four heterogeneous Fig. 1 domains (emulated network,
/// POX-controlled SDN over RPC, cloud, Universal Node), wired exactly as
/// service::make_fig1_stack does, but with traced adapters and mapper. The
/// domains' simulated latencies (flow-mods, API calls, VM boots, container
/// and Click starts) are drawn per `seed` within a few percent of the
/// library defaults.
[[nodiscard]] unify::Result<std::unique_ptr<Stack>> make_fig1_domains_stack(
    std::uint64_t seed);

/// A seeded infra::topo::multi_domain substrate of `domains` x
/// `nodes_per_domain` BiS-BiS, each domain served by an accept-all
/// adapter over its slice. `substrate` receives the generated graph.
[[nodiscard]] unify::Result<std::unique_ptr<Stack>> make_substrate_stack(
    int domains, int nodes_per_domain, int compute_per_domain, int n_saps,
    std::uint64_t seed,
    unify::model::Nffg& substrate);

}  // namespace perfbench
