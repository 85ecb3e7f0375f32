// Self-test of the benchmark's correctness checks: every check must pass
// on a right answer and fail on each wrong one (a missing or retyped NF, a
// capacity off by one unit, a leftover reservation, a delay over its
// bound, a trace that exits at the wrong SAP, a count off by one).
//
// Run: perfbench_selftest   (exit code 0 = every check behaved)
#include <cstdio>
#include <string>

#include "checks.h"
#include "model/nffg_builder.h"
#include "sg/service_graph.h"

namespace {

using perfbench::CheckFailure;
using unify::model::Nffg;

int failures = 0;

void expect(bool should_fail, const char* name, const CheckFailure& result) {
  const bool failed = result.has_value();
  if (failed != should_fail) {
    ++failures;
    std::printf("FAIL %s: expected %s, got %s\n", name,
                should_fail ? "a failure" : "a pass",
                failed ? result->c_str() : "a pass");
  } else {
    std::printf("ok   %s%s%s\n", name, failed ? " -> " : "",
                failed ? result->c_str() : "");
  }
}

unify::model::NfInstance nf(const std::string& id, const std::string& type,
                            unify::model::Resources need = {1, 512, 1}) {
  return unify::model::make_nf(id, type, need);
}

/// One BiS-BiS "bb0" (cpu 4, mem 4096) in domain d0 between sapA and sapB;
/// every link has 1 ms delay, the node 0.5 ms internal delay.
Nffg substrate() {
  Nffg g{"sub"};
  auto bb = unify::model::make_bisbis("bb0", {4, 4096, 50}, 4, 0.5);
  bb.domain = "d0";
  (void)g.add_bisbis(bb);
  unify::model::attach_sap(g, "sapA", "bb0", 0, {100, 1});
  unify::model::attach_sap(g, "sapB", "bb0", 1, {100, 1});
  return g;
}

Nffg with_nfs(std::initializer_list<unify::model::NfInstance> nfs) {
  Nffg g = substrate();
  for (const auto& instance : nfs) {
    (void)g.place_nf("bb0", instance, /*force=*/true);
  }
  return g;
}

void live_nfs() {
  const auto& catalog = unify::catalog::default_catalog();
  const perfbench::LiveRecord live{
      {"s1", {{"nat0", "nat"}, {"dpi1", "dpi"}}},
      {"s3", {{"firewall0", "firewall"}}}};
  const auto run = [&](const char* name, bool should_fail, const Nffg& slice) {
    expect(should_fail, name,
           perfbench::check_live_nfs(live, {{"d0", &slice}}, catalog));
  };
  // firewall decomposes into acl (fw-lite) + state (fw-stateful).
  run("live: exact match", false,
      with_nfs({nf("s1.nat0", "nat"), nf("s1.dpi1", "dpi"),
                nf("s3.firewall0.acl", "fw-lite"),
                nf("s3.firewall0.state", "fw-stateful")}));
  run("live: undecomposed NF", false,
      with_nfs({nf("s1.nat0", "nat"), nf("s1.dpi1", "dpi"),
                nf("s3.firewall0", "firewall")}));
  run("live: one NF missing", true,
      with_nfs({nf("s1.nat0", "nat"), nf("s3.firewall0", "firewall")}));
  run("live: wrong NF type", true,
      with_nfs({nf("s1.nat0", "nat"), nf("s1.dpi1", "nat"),
                nf("s3.firewall0", "firewall")}));
  run("live: half a decomposition", true,
      with_nfs({nf("s1.nat0", "nat"), nf("s1.dpi1", "dpi"),
                nf("s3.firewall0.acl", "fw-lite")}));
  run("live: NF of a removed service", true,
      with_nfs({nf("s1.nat0", "nat"), nf("s1.dpi1", "dpi"),
                nf("s3.firewall0", "firewall"), nf("s2.nat0", "nat")}));
}

void capacity() {
  const auto& catalog = unify::catalog::default_catalog();
  const Nffg advertised = substrate();
  // Catalog: nat needs cpu 1, mem 512.
  const Nffg slice = with_nfs({nf("s1.nat0", "nat")});
  const auto run = [&](const char* name, bool should_fail, const Nffg& s,
                       const Nffg& view) {
    expect(should_fail, name,
           perfbench::check_capacity({{"d0", &s}}, view, advertised, catalog));
  };
  run("capacity: reserved == demand", false, slice,
      with_nfs({nf("s1.nat0", "nat", {1, 512, 1})}));
  run("capacity: cpu off by one", true, slice,
      with_nfs({nf("s1.nat0", "nat", {2, 512, 1})}));
  run("capacity: mem off by one", true, slice,
      with_nfs({nf("s1.nat0", "nat", {1, 513, 1})}));
  const Nffg crowded =
      with_nfs({nf("a.n0", "nat"), nf("a.n1", "nat"), nf("a.n2", "nat"),
                nf("a.n3", "nat"), nf("a.n4", "nat")});
  run("capacity: demand over capacity", true, crowded, crowded);
}

void teardown() {
  const Nffg advertised = substrate();
  const Nffg empty = substrate();
  const auto run = [&](const char* name, bool should_fail, const Nffg& slice,
                       const Nffg& view) {
    expect(should_fail, name,
           perfbench::check_teardown({{"d0", &slice}}, view, advertised));
  };
  run("teardown: all released", false, empty, empty);
  run("teardown: NF left in the view", true, empty,
      with_nfs({nf("s1.nat0", "nat")}));
  run("teardown: NF left in a slice", true, with_nfs({nf("s1.nat0", "nat")}),
      empty);
  Nffg shrunk = substrate();
  shrunk.find_bisbis("bb0")->capacity.cpu -= 1;
  run("teardown: residual cpu off by one", true, empty, shrunk);
  Nffg reserved = substrate();
  reserved.find_link("l-sapA")->reserved = 1;
  run("teardown: bandwidth still reserved", true, empty, reserved);
}

void delays() {
  const Nffg advertised = substrate();
  unify::core::ResourceOrchestrator::Deployment deployment;
  deployment.expanded = unify::sg::make_chain("r", "sapA", {"nat"}, "sapB", 1,
                                              /*max_delay=*/2.5);
  // make_chain names the NF "nat0" and the links after their endpoints;
  // route the ingress link over l-sapA and the egress one over
  // l-sapB-back (1 ms each, no transited node): 2 ms in total.
  const auto& links = deployment.expanded.links();
  deployment.mapping.nf_host["nat0"] = "bb0";
  deployment.mapping.link_paths[links[0].id] = {{"l-sapA"}, 1};
  deployment.mapping.link_paths[links[1].id] = {{"l-sapB-back"}, 1};
  const auto run = [&](const char* name, bool should_fail,
                       const unify::core::ResourceOrchestrator::Deployment& d) {
    expect(should_fail, name,
           perfbench::check_delays({{"r", d}}, advertised));
  };
  run("delay: within max_delay", false, deployment);
  double largest = 0;
  (void)perfbench::check_delays({{"r", deployment}}, advertised, &largest);
  expect(false, "delay: largest recomputed delay reported",
         largest == 2.0 ? perfbench::CheckFailure{}
                        : perfbench::CheckFailure{"largest delay " +
                                                  std::to_string(largest)});
  auto tight = deployment;
  tight.expanded = unify::sg::make_chain("r", "sapA", {"nat"}, "sapB", 1, 1.5);
  run("delay: over max_delay", true, tight);
  // Routing the ingress link sapA -> bb0 -> sapB transits bb0: 1 + 0.5 + 1
  // ms, plus 1 ms egress = 3.5 ms, over a 3.2 ms bound that the same links
  // without the transit (3 ms) would meet.
  auto transit = deployment;
  transit.expanded = unify::sg::make_chain("r", "sapA", {"nat"}, "sapB", 1, 3.2);
  transit.mapping.link_paths[links[0].id] = {{"l-sapA", "l-sapB-back"}, 2};
  run("delay: transited node counted", true, transit);
  auto broken = deployment;
  broken.mapping.link_paths[links[0].id] = {{"l-sapA", "l-sapA"}, 2};
  run("delay: discontinuous path", true, broken);
  auto unrouted = deployment;
  unrouted.mapping.link_paths.erase(links[1].id);
  run("delay: unrouted link", true, unrouted);
}

void traces() {
  using Steps = std::vector<unify::service::TraceStep>;
  const Steps to_sap2{{"xp-emu-sdn", "sap1", "xp-emu-sdn", "", 2},
                      {"sap2", "xp-sdn-dc", "ext1", "", 1}};
  const Steps to_sap3{{"xp-emu-sdn", "sap1", "xp-emu-sdn", "", 2},
                      {"sap3", "xp-sdn-un", "ext1", "", 1}};
  expect(false, "trace: exits at the expected SAP",
         perfbench::check_trace(unify::Result<Steps>(to_sap2), "sap2"));
  expect(true, "trace: exits at another SAP",
         perfbench::check_trace(unify::Result<Steps>(to_sap3), "sap2"));
  expect(true, "trace: packet dropped",
         perfbench::check_trace(
             unify::Result<Steps>(unify::Error{unify::ErrorCode::kInfeasible,
                                               "packet dropped"}),
             "sap2"));
}

void counts() {
  expect(false, "counts: consistent", perfbench::check_counts(10, 10, 4, 6));
  expect(true, "counts: one arrival not deployed",
         perfbench::check_counts(10, 9, 4, 5));
  expect(true, "counts: one live too many",
         perfbench::check_counts(10, 10, 4, 7));
}

}  // namespace

int main() {
  live_nfs();
  capacity();
  teardown();
  delays();
  traces();
  counts();
  std::printf("%s: %d unexpected outcome(s)\n",
              failures == 0 ? "selftest OK" : "selftest FAILED", failures);
  return failures == 0 ? 0 : 1;
}
