#include "stacks.h"

#include "adapters/cloud_adapter.h"
#include "adapters/emu_adapter.h"
#include "adapters/pox_controller.h"
#include "adapters/remote_sdn_adapter.h"
#include "adapters/un_adapter.h"
#include "catalog/nf_catalog.h"
#include "core/unify_api.h"
#include "infra/topologies.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_merge.h"
#include "proto/channel.h"

namespace perfbench {
namespace {

using unify::Error;
using unify::ErrorCode;
using unify::Result;
using unify::model::Resources;

/// A stack with its traced chain-DP mapper and an RO on the private pool;
/// the domains are added next, then finish_stack().
std::unique_ptr<Stack> new_stack() {
  auto stack = std::make_unique<Stack>();
  stack->mapper = std::make_shared<TracedMapper>(
      std::make_shared<unify::mapping::ChainDpMapper>());
  unify::core::RoOptions options;
  options.pool = &stack->pool;
  stack->fig1.ro = std::make_unique<unify::core::ResourceOrchestrator>(
      "ro", stack->mapper, unify::catalog::default_catalog(), options);
  return stack;
}

/// Wraps `adapter` for tracing, records the wrapper and hands it to the RO.
Result<void> add_traced_domain(
    Stack& stack, std::unique_ptr<unify::adapters::DomainAdapter> adapter) {
  auto traced = std::make_unique<TracedAdapter>(std::move(adapter),
                                                Layer::kSouth, true);
  stack.domains.push_back(traced.get());
  return stack.fig1.ro->add_domain(std::move(traced));
}

/// RO -> virtualizer -> service layer over the already added domains. The
/// northbound half is a Unify client for the service layer, talking over
/// an in-memory channel to a UnifyServer in front of the virtualizer: the
/// wiring of core::make_unify_link, with the server end tapped.
Result<void> finish_stack(Stack& stack) {
  unify::service::Fig1Stack& fig1 = stack.fig1;
  UNIFY_RETURN_IF_ERROR(fig1.ro->initialize());
  stack.initial_view = fig1.ro->global_view();
  fig1.virtualizer = std::make_unique<unify::core::Virtualizer>(
      *fig1.ro, unify::core::ViewPolicy::kSingleBisBis);
  auto [north, south] =
      unify::proto::make_channel_pair(fig1.clock, kUnifyChannelLatencyUs);
  auto server = std::make_shared<unify::core::UnifyServer>(
      *fig1.virtualizer, std::make_shared<TracedTransport>(south, stack.tap),
      "ro-north-unify-server");
  auto client =
      std::make_unique<unify::core::UnifyClientAdapter>("ro-north", north);
  client->keep_alive(std::move(server));
  auto traced = std::make_unique<TracedAdapter>(std::move(client),
                                                Layer::kNorth, false);
  stack.north = traced.get();
  fig1.service_layer = std::make_unique<unify::service::ServiceLayer>(
      std::move(traced), &stack.pool);
  return Result<void>::success();
}

unify::model::Nffg line_domain_view(int i, int n) {
  const std::string bb = "bb" + std::to_string(i);
  unify::model::Nffg g{bb + "-view"};
  (void)g.add_bisbis(
      unify::model::make_bisbis(bb, {4096, 4194304, 65536}, 6));
  const unify::model::LinkAttrs edge{1e6, 0.1};
  const unify::model::LinkAttrs stitch{1e6, 0.5};
  unify::model::attach_sap(g, "sap" + std::to_string(i), bb, 0, edge);
  if (i > 0) {
    unify::model::attach_sap(g, "x" + std::to_string(i - 1), bb, 1, stitch);
  }
  if (i + 1 < n) {
    unify::model::attach_sap(g, "x" + std::to_string(i), bb, 2, stitch);
  }
  return g;
}

/// Per-domain views of a multi_domain substrate. slice_for_domain drops
/// the cross-domain gateway links, so each one is re-advertised the ESCAPE
/// way: as a stitching SAP "gw-<a>-<b>" that both domains attach to the
/// gateway node's port, with half the link delay on each side.
unify::model::Nffg gateway_view(const unify::model::Nffg& substrate,
                                const std::string& domain) {
  unify::model::Nffg view = unify::model::slice_for_domain(substrate, domain);
  for (const auto& [id, link] : substrate.links()) {
    const unify::model::BisBis* from = substrate.find_bisbis(link.from.node);
    const unify::model::BisBis* to = substrate.find_bisbis(link.to.node);
    if (from == nullptr || to == nullptr || from->domain == to->domain) {
      continue;
    }
    // Each gateway is a pair of directed links; take the one whose source
    // sorts first and attach whichever end lies in this domain.
    if (link.to.node < link.from.node) continue;
    const std::string sap = "gw-" + link.from.node + "-" + link.to.node;
    const unify::model::LinkAttrs half{link.attrs.bandwidth,
                                       link.attrs.delay / 2};
    if (from->domain == domain) {
      unify::model::attach_sap(view, sap, link.from.node, link.from.port,
                               half);
    } else if (to->domain == domain) {
      unify::model::attach_sap(view, sap, link.to.node, link.to.port, half);
    }
  }
  return view;
}

void register_endpoint(unify::service::Fig1Stack& stack, const std::string& sap,
                       unify::infra::Fabric* fabric,
                       const std::string& endpoint) {
  stack.sap_endpoints[sap].emplace_back(fabric, endpoint);
  stack.endpoint_saps[{fabric, endpoint}] = sap;
}

}  // namespace

Result<std::unique_ptr<Stack>> make_line_stack(int n_domains,
                                               std::uint64_t seed) {
  auto stack = new_stack();
  for (int i = 0; i < n_domains; ++i) {
    UNIFY_RETURN_IF_ERROR(add_traced_domain(
        *stack, std::make_unique<AcceptAllDomain>(
                    "d" + std::to_string(i), line_domain_view(i, n_domains),
                    stack->fig1.clock,
                    seed * 1000003ULL + static_cast<std::uint64_t>(i))));
  }
  UNIFY_RETURN_IF_ERROR(finish_stack(*stack));
  return stack;
}

Result<std::unique_ptr<Stack>> make_fig1_domains_stack(std::uint64_t seed) {
  namespace infra = unify::infra;
  namespace adapters = unify::adapters;
  auto stack = new_stack();
  unify::service::Fig1Stack& fig1 = stack->fig1;
  unify::SimClock& clock = fig1.clock;

  // Per-seed simulated latencies: control round trips within 10% of the
  // library defaults, NF start-ups (VM boots, containers, Click) within 2%.
  unify::Rng rng(seed);
  const auto jitter = [&rng](unify::SimTime base, double spread) {
    return static_cast<unify::SimTime>(static_cast<double>(base) *
                                       rng.next_double(1 - spread, 1 + spread));
  };
  infra::EmuConfig emu_config;
  emu_config.flow_mod_latency_us = jitter(emu_config.flow_mod_latency_us, 0.1);
  emu_config.click_start_us = jitter(emu_config.click_start_us, 0.02);
  emu_config.click_stop_us = jitter(emu_config.click_stop_us, 0.02);
  infra::SdnConfig sdn_config;
  sdn_config.flow_mod_latency_us = jitter(sdn_config.flow_mod_latency_us, 0.1);
  infra::CloudConfig cloud_config;
  cloud_config.api_latency_us = jitter(cloud_config.api_latency_us, 0.1);
  cloud_config.vm_boot_us = jitter(cloud_config.vm_boot_us, 0.02);
  cloud_config.flow_install_us = jitter(cloud_config.flow_install_us, 0.1);
  infra::UnConfig un_config;
  un_config.lsi_flow_mod_us = jitter(un_config.lsi_flow_mod_us, 0.1);
  un_config.container_start_us = jitter(un_config.container_start_us, 0.02);
  un_config.container_stop_us = jitter(un_config.container_stop_us, 0.02);

  fig1.emu = std::make_unique<infra::EmuNetwork>(clock, "emu", emu_config);
  infra::EmuNetwork& emu = *fig1.emu;
  UNIFY_RETURN_IF_ERROR(emu.add_switch("s1", 4, Resources{4, 4096, 50}));
  UNIFY_RETURN_IF_ERROR(emu.add_switch("s2", 4, Resources{4, 4096, 50}));
  UNIFY_RETURN_IF_ERROR(emu.connect("s1", 1, "s2", 1, {1000, 0.5}));
  UNIFY_RETURN_IF_ERROR(emu.attach_sap("sap1", "s1", 0, {1000, 0.1}));
  UNIFY_RETURN_IF_ERROR(emu.attach_sap("xp-emu-sdn", "s2", 2, {1000, 0.2}));

  fig1.sdn = std::make_unique<infra::SdnNetwork>(clock, "sdn", sdn_config);
  infra::SdnNetwork& sdn = *fig1.sdn;
  for (const char* sw : {"t1", "t2", "t3"}) {
    UNIFY_RETURN_IF_ERROR(sdn.add_switch(sw, 4));
  }
  UNIFY_RETURN_IF_ERROR(sdn.connect("t1", 1, "t2", 1, {10000, 0.8}));
  UNIFY_RETURN_IF_ERROR(sdn.connect("t2", 2, "t3", 1, {10000, 0.8}));
  UNIFY_RETURN_IF_ERROR(sdn.attach_sap("xp-emu-sdn", "t1", 0, {1000, 0.2}));
  UNIFY_RETURN_IF_ERROR(sdn.attach_sap("xp-sdn-dc", "t2", 0, {10000, 0.3}));
  UNIFY_RETURN_IF_ERROR(sdn.attach_sap("xp-sdn-un", "t3", 0, {10000, 0.2}));

  fig1.cloud = std::make_unique<infra::Cloud>(clock, "dc", cloud_config);
  infra::Cloud& cloud = *fig1.cloud;
  UNIFY_RETURN_IF_ERROR(cloud.add_hypervisor("hv1", {16, 16384, 200}));
  UNIFY_RETURN_IF_ERROR(cloud.add_hypervisor("hv2", {16, 16384, 200}));

  fig1.un = std::make_unique<infra::UniversalNode>(clock, "un",
                                                   Resources{8, 8192, 100},
                                                   un_config);

  auto [north, south] = unify::proto::make_channel_pair(clock, 150);
  auto controller = std::make_shared<adapters::PoxController>(sdn, south);
  auto remote_sdn = std::make_unique<adapters::RemoteSdnAdapter>("sdn", north);
  remote_sdn->keep_alive(std::move(controller));
  auto cloud_adapter = std::make_unique<adapters::CloudAdapter>(cloud);
  cloud_adapter->map_sap(0, "xp-sdn-dc", {10000, 0.3});
  cloud_adapter->map_sap(1, "sap2", {10000, 0.1});
  auto un_adapter = std::make_unique<adapters::UnAdapter>(*fig1.un);
  un_adapter->map_sap(0, "xp-sdn-un", {10000, 0.2});
  un_adapter->map_sap(1, "sap3", {10000, 0.1});

  UNIFY_RETURN_IF_ERROR(
      add_traced_domain(*stack, std::make_unique<adapters::EmuAdapter>(emu)));
  UNIFY_RETURN_IF_ERROR(add_traced_domain(*stack, std::move(remote_sdn)));
  UNIFY_RETURN_IF_ERROR(add_traced_domain(*stack, std::move(cloud_adapter)));
  UNIFY_RETURN_IF_ERROR(add_traced_domain(*stack, std::move(un_adapter)));
  UNIFY_RETURN_IF_ERROR(finish_stack(*stack));

  register_endpoint(fig1, "sap1", &emu.fabric(), "sap1");
  register_endpoint(fig1, "xp-emu-sdn", &emu.fabric(), "xp-emu-sdn");
  register_endpoint(fig1, "xp-emu-sdn", &sdn.fabric(), "xp-emu-sdn");
  register_endpoint(fig1, "xp-sdn-dc", &sdn.fabric(), "xp-sdn-dc");
  register_endpoint(fig1, "xp-sdn-un", &sdn.fabric(), "xp-sdn-un");
  register_endpoint(fig1, "xp-sdn-dc", &cloud.fabric(), "ext0");
  register_endpoint(fig1, "sap2", &cloud.fabric(), "ext1");
  register_endpoint(fig1, "xp-sdn-un", &fig1.un->fabric(), "ext0");
  register_endpoint(fig1, "sap3", &fig1.un->fabric(), "ext1");
  return stack;
}

Result<std::unique_ptr<Stack>> make_substrate_stack(
    int domains, int nodes_per_domain, int compute_per_domain, int n_saps,
    std::uint64_t seed,
    unify::model::Nffg& substrate) {
  unify::Rng rng(seed);
  substrate = unify::infra::topo::multi_domain(domains, nodes_per_domain, 3.0,
                                               n_saps, rng);
  // As in bench_scale: only the first few nodes of each domain host NFs
  // (the rest advertise a type nothing requests), so routing still crosses
  // whole domains while the candidate hosts stay few.
  for (auto& [id, bb] : substrate.bisbis()) {
    const int index = std::stoi(id.substr(id.rfind("-bb") + 3));
    if (index < 1 || index > compute_per_domain) bb.nf_types = {"switch-only"};
  }
  auto stack = new_stack();
  for (int d = 0; d < domains; ++d) {
    const std::string name = "d" + std::to_string(d);
    UNIFY_RETURN_IF_ERROR(add_traced_domain(
        *stack, std::make_unique<AcceptAllDomain>(
                    name, gateway_view(substrate, name), stack->fig1.clock,
                    seed * 1000003ULL + static_cast<std::uint64_t>(d))));
  }
  UNIFY_RETURN_IF_ERROR(finish_stack(*stack));
  if (stack->initial_view.bisbis().size() !=
      substrate.bisbis().size()) {
    return Error{ErrorCode::kInternal,
                 "merged view lost BiS-BiS nodes of the substrate"};
  }
  return stack;
}

}  // namespace perfbench
