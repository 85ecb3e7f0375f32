#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

using unify::model::Nffg;
using unify::model::Resources;

constexpr double kEps = 1e-6;

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

bool under(const std::string& id, const std::string& prefix) {
  return id == prefix || (id.size() > prefix.size() &&
                          id.compare(0, prefix.size(), prefix) == 0 &&
                          id[prefix.size()] == '.');
}

using Placed = std::map<std::string, std::string>;  // instance id -> type

Placed subset_under(const Placed& placed, const std::string& prefix) {
  Placed out;
  for (auto it = placed.lower_bound(prefix);
       it != placed.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    if (under(it->first, prefix)) out.insert(*it);
  }
  return out;
}

/// True when `group` (the instances under `id`) realizes one NF of `type`:
/// either the single instance `id` of that type, or, for one of the
/// catalog's rules for `type`, every component realized under
/// "<id>.<suffix>" and nothing else.
bool realizes(const std::string& id, const std::string& type,
              const Placed& group, const unify::catalog::NfCatalog& catalog) {
  if (group.size() == 1 && group.begin()->first == id) {
    return group.begin()->second == type;
  }
  if (group.empty() || group.count(id) != 0) return false;
  for (const unify::catalog::Decomposition& rule :
       catalog.decompositions_of(type)) {
    std::size_t covered = 0;
    bool ok = true;
    for (const unify::catalog::DecompComponent& component : rule.components) {
      const std::string child = id + "." + component.suffix;
      const Placed sub = subset_under(group, child);
      covered += sub.size();
      if (!realizes(child, component.type, sub, catalog)) {
        ok = false;
        break;
      }
    }
    if (ok && covered == group.size()) return true;
  }
  return false;
}

Resources demand_of(const unify::model::BisBis& bb,
                    const unify::catalog::NfCatalog& catalog,
                    std::string& error) {
  Resources demand;
  for (const auto& [id, nf] : bb.nfs) {
    const auto footprint = catalog.footprint(nf.type, Resources{});
    if (!footprint.ok()) {
      error = "NF " + id + " has unknown type " + nf.type;
      return demand;
    }
    demand += *footprint;
  }
  return demand;
}

}  // namespace

CheckFailure check_live_nfs(const LiveRecord& live,
                            const std::vector<DomainSlice>& slices,
                            const unify::catalog::NfCatalog& catalog) {
  Placed placed;
  for (const DomainSlice& slice : slices) {
    for (const auto& [bb_id, bb] : slice.slice->bisbis()) {
      for (const auto& [id, nf] : bb.nfs) {
        if (!placed.emplace(id, nf.type).second) {
          return "NF " + id + " placed twice (again in " + slice.domain + ")";
        }
      }
    }
  }
  std::size_t accounted = 0;
  for (const auto& [service, nfs] : live) {
    for (const RequestedNf& nf : nfs) {
      const std::string id = service + "." + nf.id;
      const Placed group = subset_under(placed, id);
      if (!realizes(id, nf.type, group, catalog)) {
        std::string seen;
        for (const auto& [pid, type] : group) seen += " " + pid + "=" + type;
        return "live service " + service + ": NF " + nf.id + " (" +
               nf.type + ") realized by {" + seen + " }";
      }
      accounted += group.size();
    }
  }
  if (accounted != placed.size()) {
    for (const auto& [id, type] : placed) {
      bool known = false;
      for (const auto& [service, nfs] : live) {
        for (const RequestedNf& nf : nfs) {
          known |= under(id, service + "." + nf.id);
        }
      }
      if (!known) return "NF " + id + " (" + type + ") belongs to no live service";
    }
    return "placed NF count " + std::to_string(placed.size()) +
           " != live NF count " + std::to_string(accounted);
  }
  return std::nullopt;
}

CheckFailure check_capacity(const std::vector<DomainSlice>& slices,
                            const Nffg& view, const Nffg& advertised,
                            const unify::catalog::NfCatalog& catalog) {
  for (const DomainSlice& slice : slices) {
    Resources demand;
    for (const auto& [bb_id, bb] : slice.slice->bisbis()) {
      std::string error;
      const Resources here = demand_of(bb, catalog, error);
      if (!error.empty()) return error;
      const unify::model::BisBis* offered = advertised.find_bisbis(bb_id);
      if (offered == nullptr) {
        return "slice of " + slice.domain + " places on unadvertised " + bb_id;
      }
      if (here.cpu > offered->capacity.cpu + kEps ||
          here.mem > offered->capacity.mem + kEps) {
        return bb_id + " demand cpu=" + fmt(here.cpu) + " mem=" +
               fmt(here.mem) + " exceeds capacity cpu=" +
               fmt(offered->capacity.cpu) + " mem=" +
               fmt(offered->capacity.mem);
      }
      demand += here;
    }
    Resources reserved;
    for (const auto& [bb_id, bb] : view.bisbis()) {
      if (bb.domain == slice.domain) reserved += bb.allocated();
    }
    if (std::fabs(reserved.cpu - demand.cpu) > kEps ||
        std::fabs(reserved.mem - demand.mem) > kEps) {
      return "domain " + slice.domain + " reserves cpu=" + fmt(reserved.cpu) +
             " mem=" + fmt(reserved.mem) + " but its NFs need cpu=" +
             fmt(demand.cpu) + " mem=" + fmt(demand.mem);
    }
  }
  return std::nullopt;
}

CheckFailure check_teardown(const std::vector<DomainSlice>& slices,
                            const Nffg& view, const Nffg& advertised) {
  for (const DomainSlice& slice : slices) {
    for (const auto& [bb_id, bb] : slice.slice->bisbis()) {
      if (!bb.nfs.empty()) {
        return "slice of " + slice.domain + " still places " +
               bb.nfs.begin()->first;
      }
    }
  }
  if (view.bisbis().size() != advertised.bisbis().size()) {
    return "view has " + std::to_string(view.bisbis().size()) +
           " BiS-BiS, advertised " + std::to_string(advertised.bisbis().size());
  }
  for (const auto& [bb_id, offered] : advertised.bisbis()) {
    const unify::model::BisBis* bb = view.find_bisbis(bb_id);
    if (bb == nullptr) return "BiS-BiS " + bb_id + " vanished from the view";
    const Resources left = bb->residual();
    const Resources want = offered.residual();
    if (std::fabs(left.cpu - want.cpu) > kEps ||
        std::fabs(left.mem - want.mem) > kEps ||
        std::fabs(left.storage - want.storage) > kEps) {
      return bb_id + " residual cpu=" + fmt(left.cpu) + " mem=" +
             fmt(left.mem) + " != advertised cpu=" + fmt(want.cpu) +
             " mem=" + fmt(want.mem);
    }
  }
  for (const auto& [link_id, offered] : advertised.links()) {
    const unify::model::Link* link = view.find_link(link_id);
    if (link == nullptr) return "link " + link_id + " vanished from the view";
    if (std::fabs(link->residual_bandwidth() - offered.residual_bandwidth()) >
        kEps) {
      return "link " + link_id + " residual " +
             fmt(link->residual_bandwidth()) + " != advertised " +
             fmt(offered.residual_bandwidth());
    }
  }
  return std::nullopt;
}

CheckFailure check_delays(
    const std::map<std::string, unify::core::ResourceOrchestrator::Deployment>&
        deployments,
    const Nffg& advertised, double* largest_ms) {
  for (const auto& [request, deployment] : deployments) {
    const unify::sg::ServiceGraph& sg = deployment.expanded;
    for (const unify::sg::E2eRequirement& req : sg.requirements()) {
      // Walk the chain from the ingress SAP, one outgoing link per hop.
      double delay = 0;
      std::string at = req.from_sap;
      std::size_t hops = 0;
      while (at != req.to_sap) {
        const unify::sg::SgLink* next = nullptr;
        for (const unify::sg::SgLink& link : sg.links()) {
          if (link.from.node == at) next = &link;
        }
        if (next == nullptr || ++hops > sg.links().size()) {
          return request + ": requirement " + req.id + " has no chain from " +
                 req.from_sap + " to " + req.to_sap;
        }
        const auto path = deployment.mapping.link_paths.find(next->id);
        if (path == deployment.mapping.link_paths.end()) {
          return request + ": SG link " + next->id + " is not routed";
        }
        const std::vector<std::string>& links = path->second.links;
        for (std::size_t k = 0; k < links.size(); ++k) {
          const unify::model::Link* link = advertised.find_link(links[k]);
          if (link == nullptr) {
            return request + ": path uses unadvertised link " + links[k];
          }
          delay += link->attrs.delay;
          if (k + 1 < links.size()) {
            const unify::model::Link* after = advertised.find_link(links[k + 1]);
            if (after == nullptr || after->from.node != link->to.node) {
              return request + ": path of " + next->id + " breaks after " +
                     links[k];
            }
            if (const auto* bb = advertised.find_bisbis(link->to.node)) {
              delay += bb->internal_delay;
            }
          }
        }
        at = next->to.node;
      }
      if (largest_ms != nullptr) *largest_ms = std::max(*largest_ms, delay);
      if (delay > req.max_delay + 1e-9) {
        return request + ": requirement " + req.id + " delay " + fmt(delay) +
               " ms exceeds max_delay " + fmt(req.max_delay) + " ms";
      }
    }
  }
  return std::nullopt;
}

CheckFailure check_trace(
    const unify::Result<std::vector<unify::service::TraceStep>>& trace,
    const std::string& expect_sap) {
  if (!trace.ok()) return "trace failed: " + trace.error().to_string();
  if (trace->empty() || trace->back().domain != expect_sap) {
    return "trace exits at " +
           (trace->empty() ? std::string("nowhere") : trace->back().domain) +
           ", expected " + expect_sap;
  }
  return std::nullopt;
}

CheckFailure check_counts(std::size_t arrivals, std::size_t deployed,
                          std::size_t departures, std::size_t live) {
  if (deployed != arrivals) {
    return "deployed " + std::to_string(deployed) + " of " +
           std::to_string(arrivals) + " arrivals";
  }
  if (departures > arrivals || live != arrivals - departures) {
    return "live " + std::to_string(live) + " != arrivals " +
           std::to_string(arrivals) + " - departures " +
           std::to_string(departures);
  }
  return std::nullopt;
}

}  // namespace perfbench
