#include "src/hw/fault_injector.h"

#include <algorithm>
#include <cstdio>

#include "src/util/check.h"

namespace harmony {
namespace {

std::string FormatFixed(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

}  // namespace

FaultInjector::FaultInjector(Simulator* sim, TransferManager* transfers)
    : sim_(sim), transfers_(transfers), topology_(&transfers->topology()) {
  HCHECK(topology_->finalized());
  link_scales_.resize(static_cast<std::size_t>(topology_->num_links()));
  gpu_compute_scales_.resize(static_cast<std::size_t>(topology_->num_gpus()));
}

void FaultInjector::Arm(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events()) {
    sim_->ScheduleAfter(event.time, [this, event] { ApplyEvent(event); });
  }
}

std::vector<LinkId> FaultInjector::TargetLinks(const FaultEvent& event) const {
  std::vector<LinkId> links;
  if (event.network_scoped()) {
    // Node-scoped network target: every link incident to node i's NIC (nic<i>) or rack i's
    // top-of-rack switch (rack<i>) — the inter-node tier the event flaps or browns out.
    const NodeId center = event.nic >= 0 ? topology_->nic_node(event.nic)
                                         : topology_->tor_node(event.rack);
    for (LinkId lid = 0; lid < topology_->num_links(); ++lid) {
      const TopologyLink& link = topology_->link(lid);
      if (link.src == center || link.dst == center) {
        links.push_back(lid);
      }
    }
  } else if (event.targets_gpu()) {
    const NodeId gpu = topology_->gpu_node(event.gpu);
    for (LinkId lid = 0; lid < topology_->num_links(); ++lid) {
      const TopologyLink& link = topology_->link(lid);
      if (link.src == gpu || link.dst == gpu) {
        links.push_back(lid);
      }
    }
  } else {
    // Host-uplink degradation and host-memory pressure both throttle the swap tier: every
    // link with a host endpoint. They stay distinct fault kinds because they compose (and
    // report) independently.
    for (LinkId lid = 0; lid < topology_->num_links(); ++lid) {
      const TopologyLink& link = topology_->link(lid);
      if (topology_->node(link.src).kind == NodeKind::kHost ||
          topology_->node(link.dst).kind == NodeKind::kHost) {
        links.push_back(lid);
      }
    }
  }
  return links;
}

void FaultInjector::ApplyEvent(const FaultEvent& event) {
  if (event.network_scoped()) {
    if (event.nic >= topology_->num_nics()) {
      Trace("drop@" + FormatFixed(sim_->now()) + " " + event.ToString() +
            " (no such NIC on this machine)");
      return;
    }
    if (event.rack >= topology_->num_racks()) {
      Trace("drop@" + FormatFixed(sim_->now()) + " " + event.ToString() +
            " (no such rack on this machine)");
      return;
    }
  }
  if (event.targets_gpu() && (event.gpu < 0 || event.gpu >= topology_->num_gpus())) {
    Trace("drop@" + FormatFixed(sim_->now()) + " " + event.ToString() +
          " (no such GPU on this machine)");
    return;
  }

  if (event.kind == FaultKind::kGpuFailStop) {
    const NodeId node = topology_->gpu_node(event.gpu);
    if (transfers_->NodeFailed(node)) {
      Trace("drop@" + FormatFixed(sim_->now()) + " " + event.ToString() +
            " (GPU already dead)");
      return;
    }
    Trace("apply@" + FormatFixed(sim_->now()) + " " + event.ToString());
    transfers_->FailNode(node);
    ++fail_stops_applied_;
    if (device_fail_handler_) {
      device_fail_handler_(event.gpu, sim_->now());
    }
    return;
  }

  if (event.kind == FaultKind::kCkptCorrupt) {
    Trace("apply@" + FormatFixed(sim_->now()) + " " + event.ToString());
    if (checkpoint_corrupt_handler_) {
      checkpoint_corrupt_handler_(sim_->now());
    }
    return;
  }

  if (event.kind == FaultKind::kGpuSlow) {
    const std::int64_t fault_id = next_fault_id_++;
    Trace("apply@" + FormatFixed(sim_->now()) + " " + event.ToString());
    gpu_compute_scales_[static_cast<std::size_t>(event.gpu)].push_back(
        {fault_id, event.scale});
    ReapplyGpu(event.gpu);
    if (event.duration > 0.0) {
      sim_->ScheduleAfter(event.duration, [this, fault_id, event] {
        Trace("expire@" + FormatFixed(sim_->now()) + " " + event.ToString());
        auto& active = gpu_compute_scales_[static_cast<std::size_t>(event.gpu)];
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [fault_id](const ActiveScale& s) {
                                      return s.fault_id == fault_id;
                                    }),
                     active.end());
        ReapplyGpu(event.gpu);
      });
    }
    return;
  }

  if (event.kind == FaultKind::kFlowFlap) {
    // Instantaneous: abort (or retry, when the TransferManager carries a retry policy)
    // every in-flight flow crossing the target's links. No multiplier, no expiry.
    Trace("apply@" + FormatFixed(sim_->now()) + " " + event.ToString());
    transfers_->FlapLinkFlows(TargetLinks(event));
    return;
  }

  const std::vector<LinkId> links = TargetLinks(event);
  const std::int64_t fault_id = next_fault_id_++;
  Trace("apply@" + FormatFixed(sim_->now()) + " " + event.ToString());
  PushScale(links, fault_id, event.scale);
  if (event.kind == FaultKind::kLinkBrownout) {
    // A brownout is a degradation whose onset also drops everything in flight: the links
    // come back at `scale`, and the victims ride the retry tier (or abort without one).
    transfers_->FlapLinkFlows(links);
  }
  if (event.duration > 0.0) {
    sim_->ScheduleAfter(event.duration, [this, links, fault_id, event] {
      Trace("expire@" + FormatFixed(sim_->now()) + " " + event.ToString());
      PopScale(links, fault_id);
    });
  }
}

void FaultInjector::PushScale(const std::vector<LinkId>& links, std::int64_t fault_id,
                              double scale) {
  for (LinkId lid : links) {
    link_scales_[static_cast<std::size_t>(lid)].push_back({fault_id, scale});
    ReapplyLink(lid);
  }
}

void FaultInjector::PopScale(const std::vector<LinkId>& links, std::int64_t fault_id) {
  for (LinkId lid : links) {
    auto& active = link_scales_[static_cast<std::size_t>(lid)];
    active.erase(std::remove_if(active.begin(), active.end(),
                                [fault_id](const ActiveScale& s) {
                                  return s.fault_id == fault_id;
                                }),
                 active.end());
    ReapplyLink(lid);
  }
}

void FaultInjector::ReapplyLink(LinkId link) {
  // Multiply in fault-arrival order (the vector preserves it) so the composed scale is the
  // same bits no matter how the set was reached.
  double product = 1.0;
  for (const ActiveScale& s : link_scales_[static_cast<std::size_t>(link)]) {
    product *= s.scale;
  }
  transfers_->SetLinkBandwidthScale(link, product);
}

void FaultInjector::ReapplyGpu(int gpu) {
  double product = 1.0;
  for (const ActiveScale& s : gpu_compute_scales_[static_cast<std::size_t>(gpu)]) {
    product *= s.scale;
  }
  if (compute_scale_handler_) {
    compute_scale_handler_(gpu, product, sim_->now());
  }
}

void FaultInjector::Trace(const std::string& line) { trace_.push_back(line); }

std::string FaultInjector::TraceString() const {
  std::string out;
  for (const std::string& line : trace_) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace harmony
