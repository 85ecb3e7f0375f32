// The benchmark's correctness checks. Each compares what the stack did
// with an answer the benchmark computes on its own from its inputs (the
// requests it sent, the substrate it advertised, the NF catalog), and
// returns a description of the first disagreement, or nothing.
// selftest.cpp feeds every check a wrong answer and expects a failure.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/nf_catalog.h"
#include "core/resource_orchestrator.h"
#include "model/nffg.h"
#include "service/fig1.h"

namespace perfbench {

/// nullopt = the check passed; otherwise what disagreed.
using CheckFailure = std::optional<std::string>;

/// A requested NF: its id inside the service graph and its catalog type.
struct RequestedNf {
  std::string id;
  std::string type;
};

/// The benchmark's own record of the live services: service id -> the NFs
/// it asked for.
using LiveRecord = std::map<std::string, std::vector<RequestedNf>>;

/// A domain's name and the config it last acknowledged.
struct DomainSlice {
  std::string domain;
  const unify::model::Nffg* slice = nullptr;
};

/// Live NFs: the NF instances placed in the slices are exactly the live
/// services' NFs, as a multiset of (service, NF type). An instance
/// "<service>.<nf>" must have the requested type; a decomposed NF appears
/// as "<service>.<nf>.<suffix>..." instances whose types form one of the
/// catalog's decompositions of the requested type.
[[nodiscard]] CheckFailure check_live_nfs(
    const LiveRecord& live, const std::vector<DomainSlice>& slices,
    const unify::catalog::NfCatalog& catalog);

/// Capacity: per domain, the CPU and memory the orchestrator's view
/// reserves equal the catalog demand of the NFs placed in the domain's
/// slice, and no BiS-BiS demand exceeds its advertised capacity.
[[nodiscard]] CheckFailure check_capacity(
    const std::vector<DomainSlice>& slices, const unify::model::Nffg& view,
    const unify::model::Nffg& advertised,
    const unify::catalog::NfCatalog& catalog);

/// Teardown: with no live service left, every residual capacity and link
/// bandwidth equals what was advertised, and no slice places an NF.
[[nodiscard]] CheckFailure check_teardown(
    const std::vector<DomainSlice>& slices, const unify::model::Nffg& view,
    const unify::model::Nffg& advertised);

/// Delay: each requirement's delay, summed along its chain from the
/// advertised link delays and the internal delays of transited BiS-BiS,
/// is within its max_delay; every routed path is continuous. When given,
/// `largest_ms` is raised to the largest requirement delay recomputed.
[[nodiscard]] CheckFailure check_delays(
    const std::map<std::string, unify::core::ResourceOrchestrator::Deployment>&
        deployments,
    const unify::model::Nffg& advertised, double* largest_ms = nullptr);

/// Data plane: the trace of a deployed chain exits at `expect_sap`.
[[nodiscard]] CheckFailure check_trace(
    const unify::Result<std::vector<unify::service::TraceStep>>& trace,
    const std::string& expect_sap);

/// Counts: every arrival deployed, and the live count equals arrivals
/// minus processed departures (all counted from the event stream).
[[nodiscard]] CheckFailure check_counts(std::size_t arrivals,
                                        std::size_t deployed,
                                        std::size_t departures,
                                        std::size_t live);

}  // namespace perfbench
