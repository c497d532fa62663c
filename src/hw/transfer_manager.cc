#include "src/hw/transfer_manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/util/check.h"

namespace harmony {
namespace {

// Flows with fewer remaining bytes than this are considered finished; guards against
// floating-point residue keeping a flow alive forever.
constexpr double kByteEpsilon = 1e-3;

// groups_'s key for the pair src -> dst.
std::uint64_t RouteKey(NodeId src, NodeId dst) {
  return static_cast<std::uint64_t>(src) << 32 | static_cast<std::uint32_t>(dst);
}

// Sum of the route's link latencies, in route order.
double RouteLatency(const Topology& topology, const std::vector<LinkId>& route) {
  double latency = 0.0;
  for (LinkId lid : route) {
    latency += topology.link(lid).spec.latency_sec;
  }
  return latency;
}

}  // namespace

const char* TransferKindName(TransferKind kind) {
  switch (kind) {
    case TransferKind::kSwapIn:
      return "swap-in";
    case TransferKind::kSwapOut:
      return "swap-out";
    case TransferKind::kPeerToPeer:
      return "p2p";
    case TransferKind::kCollective:
      return "collective";
    case TransferKind::kInput:
      return "input";
    case TransferKind::kOther:
      return "other";
    case TransferKind::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

TransferManager::TransferManager(Simulator* sim, const Topology* topology)
    : sim_(sim), topology_(topology) {
  HCHECK(sim != nullptr);
  HCHECK(topology != nullptr);
  HCHECK(topology->finalized());
  link_active_.assign(static_cast<std::size_t>(topology->num_links()), 0);
  link_scale_.assign(static_cast<std::size_t>(topology->num_links()), 1.0);
  node_dead_.assign(static_cast<std::size_t>(topology->num_nodes()), false);
  link_groups_.assign(static_cast<std::size_t>(topology->num_links()), {});
  link_rerate_mark_.assign(static_cast<std::size_t>(topology->num_links()), 0);
  link_stats_.assign(static_cast<std::size_t>(topology->num_links()), LinkStats{});
  node_io_.assign(static_cast<std::size_t>(topology->num_nodes()), NodeIoStats{});
  queue_timeline_.assign(static_cast<std::size_t>(topology->num_links()), {});
}

void TransferManager::StartTransfer(NodeId src, NodeId dst, Bytes bytes, TransferKind kind,
                                    Continuation done) {
  HCHECK_GE(bytes, 0);
  HCHECK(done) << "StartTransfer needs a continuation";
  Flow& flow = NewFlow(std::move(done));
  const std::uint32_t slot = flow.slot;

  if (NodeFailed(src) || NodeFailed(dst)) {
    // Typed failure instead of a crash: the transfer ends now, aborted, and the caller
    // decides what a dead endpoint means for it.
    ++flows_aborted_;
    sim_->ScheduleAfter(0.0, [this, slot] { Finish(slot, TransferOutcome::kAborted); });
    return;
  }

  if (src == dst || bytes == 0) {
    sim_->ScheduleAfter(RouteLatency(*topology_, topology_->Route(src, dst)),
                        [this, slot] { Finish(slot, TransferOutcome::kCompleted); });
    return;
  }

  const auto [group_it, new_pair] = groups_.try_emplace(RouteKey(src, dst));
  RouteGroup& group = group_it->second;
  if (new_pair) {
    group.src = src;
    group.dst = dst;
    group.route = topology_->Route(src, dst);
    group.latency = RouteLatency(*topology_, group.route);
  }

  flow.id = next_flow_id_++;
  bytes_by_kind_[static_cast<std::size_t>(kind)] += bytes;
  node_io_[static_cast<std::size_t>(src)].out_by_kind[static_cast<std::size_t>(kind)] += bytes;
  node_io_[static_cast<std::size_t>(dst)].in_by_kind[static_cast<std::size_t>(kind)] += bytes;
  flow.group = &group;
  flow.bytes_remaining = static_cast<double>(bytes);
  flow.bytes_total = bytes;
  flow.kind = kind;

  // The flow joins the network after its route latency; that keeps latency out of the
  // bandwidth-sharing math while still delaying short transfers realistically.
  sim_->ScheduleAfter(group.latency, [this, slot] { JoinFlow(slot); });
}

TransferManager::Flow& TransferManager::NewFlow(Continuation done) {
  std::uint32_t slot = 0;
  if (free_flows_.empty()) {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  } else {
    slot = free_flows_.back();
    free_flows_.pop_back();
    flows_[slot] = Flow{};
  }
  Flow& flow = flows_[slot];
  flow.slot = slot;
  flow.done = std::move(done);
  return flow;
}

void TransferManager::Finish(std::uint32_t slot, TransferOutcome outcome) {
  sim_->ScheduleAfter(0.0, [this, slot, outcome] {
    Continuation done = std::move(flows_[slot].done);
    free_flows_.push_back(slot);
    done(outcome);
  });
}

void TransferManager::JoinFlow(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  const RouteGroup& group = *flow.group;
  if (NodeFailed(group.src) || NodeFailed(group.dst)) {
    // An endpoint died while the transfer was still in its latency window.
    ++flows_aborted_;
    Finish(slot, TransferOutcome::kAborted);
    return;
  }
  AdvanceToNow();
  AttachFlow(flow);
  // The instant's joins are re-rated together by one settle, queued behind them. The new
  // generation makes the wakeup queued before this arrival stale.
  pending_links_.insert(pending_links_.end(), group.route.begin(), group.route.end());
  ++wakeup_generation_;
  if (!settle_queued_) {
    settle_queued_ = true;
    sim_->ScheduleAfter(0.0, [this] {
      if (SettleJoins()) {
        ScheduleNextCompletion();
      }
    });
  }
}

bool TransferManager::SettleJoins() {
  // An inline settle leaves the queued event with nothing to do; a join after it queues
  // its own.
  settle_queued_ = false;
  if (pending_links_.empty()) {
    return false;
  }
  ReRateFlowsOnLinks(pending_links_);
  pending_links_.clear();
  return true;
}

Bytes TransferManager::total_bytes() const {
  Bytes total = 0;
  for (Bytes b : bytes_by_kind_) {
    total += b;
  }
  return total;
}

void TransferManager::AdvanceToNow() {
  const SimTime now = sim_->now();
  const double dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0.0) {
    return;
  }
  for (const Completion& entry : completion_heap_) {
    for (Flow* flow : entry.group->members) {
      flow->bytes_remaining = std::max(0.0, flow->bytes_remaining - flow->rate * dt);
    }
  }
  for (std::size_t lid = 0; lid < link_active_.size(); ++lid) {
    if (link_active_[lid] > 0) {
      link_stats_[lid].busy_time += dt;
      link_stats_[lid].flow_seconds += static_cast<double>(link_active_[lid]) * dt;
    }
  }
}

void TransferManager::RecordQueueDepth(LinkId link) {
  const auto slot = static_cast<std::size_t>(link);
  std::vector<LinkQueueSample>& timeline = queue_timeline_[slot];
  const SimTime now = sim_->now();
  if (!timeline.empty() && timeline.back().time == now) {
    timeline.back().depth = link_active_[slot];
    return;
  }
  timeline.push_back(LinkQueueSample{now, link_active_[slot]});
}

void TransferManager::AttachFlow(Flow& flow) {
  RouteGroup& group = *flow.group;
  for (LinkId lid : group.route) {
    const auto slot = static_cast<std::size_t>(lid);
    ++link_active_[slot];
    link_stats_[slot].max_queue_depth =
        std::max(link_stats_[slot].max_queue_depth, link_active_[slot]);
    if (group.members.empty()) {
      link_groups_[slot].push_back(&group);
    }
    if (record_queue_timeline_) {
      RecordQueueDepth(lid);
    }
  }
  flow.member_index = group.members.size();
  group.members.push_back(&flow);
  flow.in_network = true;
  ++active_flows_;
  group.rate = 0.0;  // the newcomer has no stamp yet: force the member pass
}

void TransferManager::DetachFlow(Flow& flow, std::vector<LinkId>* dirty_links) {
  RouteGroup& group = *flow.group;
  Flow* last = group.members.back();
  group.members[flow.member_index] = last;
  last->member_index = flow.member_index;
  group.members.pop_back();
  flow.in_network = false;
  --active_flows_;
  for (LinkId lid : group.route) {
    const auto slot = static_cast<std::size_t>(lid);
    --link_active_[slot];
    HCHECK_GE(link_active_[slot], 0);
    if (group.members.empty()) {
      std::vector<RouteGroup*>& on_link = link_groups_[slot];
      const auto it = std::find(on_link.begin(), on_link.end(), &group);
      HCHECK(it != on_link.end());
      *it = on_link.back();  // order within a link list is irrelevant to the model
      on_link.pop_back();
    }
    dirty_links->push_back(lid);
    if (record_queue_timeline_) {
      RecordQueueDepth(lid);
    }
  }
  if (group.members.empty()) {
    HeapRemove(group);
    group.earliest = nullptr;
  } else if (group.earliest == &flow) {
    RekeyGroup(group);
  }
}

double TransferManager::ComputeRate(const std::vector<LinkId>& route) const {
  double rate = std::numeric_limits<double>::infinity();
  for (LinkId lid : route) {
    const auto slot = static_cast<std::size_t>(lid);
    const double share = topology_->link(lid).spec.bandwidth_bytes_per_sec *
                         link_scale_[slot] / static_cast<double>(link_active_[slot]);
    rate = std::min(rate, share);
  }
  return rate;
}

void TransferManager::ApplyUplinkBandwidthQuota(double fraction) {
  HCHECK_GT(fraction, 0.0);
  HCHECK_LE(fraction, 1.0);
  if (fraction == 1.0) {
    return;  // full share: keep the exact pre-quota link state (and event sequence)
  }
  HCHECK_EQ(active_flows_, 0) << "quota must be applied before any flow starts";
  for (LinkId lid = 0; lid < topology_->num_links(); ++lid) {
    const TopologyLink& link = topology_->link(lid);
    const bool shared_uplink =
        link.tier != LinkTier::kPcie ||
        topology_->node(link.src).kind == NodeKind::kHost ||
        topology_->node(link.dst).kind == NodeKind::kHost;
    if (shared_uplink) {
      SetLinkBandwidthScale(lid, fraction);
    }
  }
}

void TransferManager::SetLinkBandwidthScale(LinkId link, double scale) {
  HCHECK_GE(link, 0);
  HCHECK_LT(static_cast<std::size_t>(link), link_scale_.size());
  HCHECK_GT(scale, 0.0) << "use FailNode for dead links, not a zero scale";
  const auto slot = static_cast<std::size_t>(link);
  if (link_scale_[slot] == scale) {
    return;
  }
  // A capacity change is re-rated at its change point: integrate the old rates forward,
  // settle the instant's arrivals as a pass of their own, then re-rate every flow crossing
  // the link and re-key its projection.
  AdvanceToNow();
  SettleJoins();
  link_scale_[slot] = scale;
  dirty_scratch_.assign(1, link);
  ReRateFlowsOnLinks(dirty_scratch_);
  ScheduleNextCompletion();
}

std::vector<TransferManager::Flow*> TransferManager::FlowsOnLinks(
    const std::vector<LinkId>& links) const {
  std::vector<Flow*> flows;
  for (LinkId lid : links) {
    HCHECK_GE(lid, 0);
    HCHECK_LT(static_cast<std::size_t>(lid), link_groups_.size());
    for (const RouteGroup* group : link_groups_[static_cast<std::size_t>(lid)]) {
      flows.insert(flows.end(), group->members.begin(), group->members.end());
    }
  }
  // Flow-id order, not slot order: slots are reused, so only the id says which transfer
  // started first (determinism).
  std::sort(flows.begin(), flows.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
  flows.erase(std::unique(flows.begin(), flows.end()), flows.end());
  return flows;
}

void TransferManager::FailNode(NodeId node) {
  HCHECK_GE(node, 0);
  HCHECK_LT(static_cast<std::size_t>(node), node_dead_.size());
  if (node_dead_[static_cast<std::size_t>(node)]) {
    return;
  }
  AdvanceToNow();
  SettleJoins();
  node_dead_[static_cast<std::size_t>(node)] = true;

  // Every flow whose route crosses one of the node's links has a dead endpoint or a dead
  // forwarder; abort them all.
  std::vector<LinkId> links;
  for (LinkId lid = 0; lid < topology_->num_links(); ++lid) {
    const TopologyLink& link = topology_->link(lid);
    if (link.src == node || link.dst == node) {
      links.push_back(lid);
    }
  }
  dirty_scratch_.clear();
  for (Flow* flow : FlowsOnLinks(links)) {
    DetachFlow(*flow, &dirty_scratch_);
    ++flows_aborted_;
    Finish(flow->slot, TransferOutcome::kAborted);
  }
  ReRateFlowsOnLinks(dirty_scratch_);
  ScheduleNextCompletion();
}

int TransferManager::FlapLinkFlows(const std::vector<LinkId>& links) {
  AdvanceToNow();
  const std::vector<Flow*> victims = FlowsOnLinks(links);
  if (victims.empty()) {
    return 0;
  }
  SettleJoins();

  dirty_scratch_.clear();
  for (Flow* flow : victims) {
    DetachFlow(*flow, &dirty_scratch_);
    ++flow->attempts;
    if (retry_policy_ != nullptr && !retry_policy_->Exhausted(flow->attempts)) {
      // Absorb: re-issue the whole transfer after a deterministic backoff plus the route
      // latency. Bytes were counted once at StartTransfer; the retransmit costs time and
      // link occupancy but is never double-counted against node_io / bytes_by_kind.
      const double backoff = retry_policy_->DelayFor(flow->id, flow->attempts);
      ++flows_retried_;
      retry_backoff_sec_ += backoff;
      flow->bytes_remaining = static_cast<double>(flow->bytes_total);
      flow->rate = 0.0;
      flow->completion_time = 0.0;
      sim_->ScheduleAfter(backoff + flow->group->latency,
                          [this, slot = flow->slot] { JoinFlow(slot); });
    } else {
      // Budget exhausted (or no policy): surface the abort exactly like a node-failure
      // victim, plus the typed exhaustion escalation.
      ++flows_aborted_;
      ++retry_exhausted_;
      Finish(flow->slot, TransferOutcome::kAborted);
      if (retry_exhausted_handler_) {
        retry_exhausted_handler_(flow->id, sim_->now());
      }
    }
  }
  ReRateFlowsOnLinks(dirty_scratch_);
  ScheduleNextCompletion();
  return static_cast<int>(victims.size());
}

// ---- indexed completion heap ------------------------------------------------------------
// A hand-rolled binary min-heap whose entries carry a pointer to their group; every
// placement writes the group's heap_index back, so an entry can be re-keyed or removed in
// place.

void TransferManager::HeapSiftUp(std::size_t i) {
  Completion item = completion_heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!CompletionBefore(item, completion_heap_[parent])) {
      break;
    }
    completion_heap_[i] = completion_heap_[parent];
    completion_heap_[i].group->heap_index = i;
    i = parent;
  }
  completion_heap_[i] = item;
  item.group->heap_index = i;
}

void TransferManager::HeapSiftDown(std::size_t i) {
  const std::size_t n = completion_heap_.size();
  Completion item = completion_heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) {
      break;
    }
    const std::size_t right = child + 1;
    if (right < n && CompletionBefore(completion_heap_[right], completion_heap_[child])) {
      child = right;
    }
    if (!CompletionBefore(completion_heap_[child], item)) {
      break;
    }
    completion_heap_[i] = completion_heap_[child];
    completion_heap_[i].group->heap_index = i;
    i = child;
  }
  completion_heap_[i] = item;
  item.group->heap_index = i;
}

void TransferManager::HeapUpdate(RouteGroup& group) {
  const Completion key{group.earliest->completion_time, group.earliest->id, &group};
  if (group.heap_index == kNoHeapIndex) {
    completion_heap_.push_back(key);
    HeapSiftUp(completion_heap_.size() - 1);
    return;
  }
  const std::size_t i = group.heap_index;
  HCHECK_LT(i, completion_heap_.size());
  completion_heap_[i] = key;
  HeapSiftUp(i);
  if (group.heap_index == i) {
    HeapSiftDown(i);
  }
}

void TransferManager::HeapRemove(RouteGroup& group) {
  const std::size_t i = group.heap_index;
  HCHECK_LT(i, completion_heap_.size());
  const std::size_t last = completion_heap_.size() - 1;
  if (i != last) {
    completion_heap_[i] = completion_heap_[last];
    completion_heap_[i].group->heap_index = i;
  }
  completion_heap_.pop_back();
  group.heap_index = kNoHeapIndex;
  if (i < completion_heap_.size()) {
    RouteGroup* moved = completion_heap_[i].group;
    HeapSiftUp(i);
    if (moved->heap_index == i) {  // did not move up; may need to go down
      HeapSiftDown(i);
    }
  }
}

void TransferManager::RekeyGroup(RouteGroup& group) {
  HCHECK(!group.members.empty());
  Flow* earliest = group.members.front();
  for (Flow* flow : group.members) {
    if (FlowBefore(*flow, *earliest)) {
      earliest = flow;
    }
  }
  group.earliest = earliest;
  HeapUpdate(group);
}

void TransferManager::ReRateFlowsOnLinks(const std::vector<LinkId>& dirty_links) {
  if (dirty_links.empty()) {
    return;
  }
  // A pass reaches a link once per route that dirtied it and a group once per dirty link
  // it crosses; a visit stamp dedupes both without sorting. Visit order is immaterial:
  // each group's rate and stamps are its own, and the heap's minimum is unique.
  ++rerate_mark_;
  const SimTime now = sim_->now();

  for (LinkId lid : dirty_links) {
    std::uint64_t& link_mark = link_rerate_mark_[static_cast<std::size_t>(lid)];
    if (link_mark == rerate_mark_) {
      continue;
    }
    link_mark = rerate_mark_;
    // Only groups crossing a dirty link can see a changed active count; every other
    // group's rate is a pure function of unchanged counts and stays bit-identical.
    for (RouteGroup* group : link_groups_[static_cast<std::size_t>(lid)]) {
      if (group->rerate_mark == rerate_mark_) {
        continue;
      }
      group->rerate_mark = rerate_mark_;
      const double rate = ComputeRate(group->route);
      if (rate == group->rate) {
        // Same share as before (bottlenecked on an untouched link) and no newcomer: every
        // projection is still valid and the heap entry stays where it is.
        continue;
      }
      group->rate = rate;
      for (Flow* flow : group->members) {
        if (flow->rate != rate) {
          flow->rate = rate;
          flow->completion_time = now + flow->bytes_remaining / rate;
        }
      }
      RekeyGroup(*group);
    }
  }
}

void TransferManager::ScheduleNextCompletion() {
  ++wakeup_generation_;
  if (completion_heap_.empty()) {
    HCHECK_EQ(active_flows_, 0) << "active flows but no completion entry";
    return;
  }
  // A projection rated at an earlier change point can sit an ulp before now; clamp.
  const SimTime when = std::max(completion_heap_.front().when, sim_->now());
  const std::uint64_t generation = wakeup_generation_;
  sim_->ScheduleAt(when, [this, generation] { OnWakeup(generation); });
}

void TransferManager::OnWakeup(std::uint64_t generation) {
  if (generation != wakeup_generation_) {
    return;  // a later join or re-rate superseded this wakeup
  }
  // Every wakeup is queued right after a settle, and any join since would have made this
  // one stale: no arrival is pending.
  HCHECK(pending_links_.empty());
  AdvanceToNow();

  const SimTime now = sim_->now();
  dirty_scratch_.clear();
  while (!completion_heap_.empty() && completion_heap_.front().when <= now) {
    RouteGroup& group = *completion_heap_.front().group;
    Flow& flow = *group.earliest;
    if (flow.bytes_remaining > kByteEpsilon) {
      // FP residue left the flow a hair short of done; re-key to the corrected projection.
      // The byte epsilon is absolute but the clock's resolution is relative: past 2^10 s a
      // PCIe-rate residue just over it takes less than half an ulp of now. A projection
      // that does not pass now completes the flow, since a wakeup re-queued at now would
      // find the same residue and never advance.
      const SimTime projected = now + flow.bytes_remaining / flow.rate;
      if (projected > now) {
        flow.completion_time = projected;
        RekeyGroup(group);
        continue;
      }
    }
    for (LinkId lid : group.route) {
      LinkStats& stats = link_stats_[static_cast<std::size_t>(lid)];
      stats.bytes_carried += flow.bytes_total;
      stats.bytes_by_kind[static_cast<std::size_t>(flow.kind)] += flow.bytes_total;
      ++stats.flows;
    }
    DetachFlow(flow, &dirty_scratch_);
    ++flows_completed_;
    Finish(flow.slot, TransferOutcome::kCompleted);
  }
  ReRateFlowsOnLinks(dirty_scratch_);
  ScheduleNextCompletion();
}

std::string TransferManager::DebugCheckConsistency() const {
  std::ostringstream os;
  // From-scratch link counts over the records in the network, each of which must sit in
  // its group at its member_index.
  std::vector<int> want_active(link_active_.size(), 0);
  int in_network = 0;
  for (const Flow& flow : flows_) {
    if (!flow.in_network) {
      continue;
    }
    if (flow.member_index >= flow.group->members.size() ||
        flow.group->members[flow.member_index] != &flow) {
      os << "flow " << flow.id << ": not a member of its route's group";
      return os.str();
    }
    ++in_network;
    for (LinkId lid : flow.group->route) {
      ++want_active[static_cast<std::size_t>(lid)];
    }
  }
  if (in_network != active_flows_) {
    os << in_network << " records in the network, but the active count is " << active_flows_;
    return os.str();
  }
  for (std::size_t lid = 0; lid < link_active_.size(); ++lid) {
    if (link_active_[lid] != want_active[lid]) {
      os << "link " << lid << ": incremental active count " << link_active_[lid]
         << " != from-scratch " << want_active[lid];
      return os.str();
    }
  }
  // Membership: the groups hold nothing but the records in the network (distinct slots
  // and equal totals make it a bijection).
  std::size_t members = 0;
  std::size_t active_groups = 0;
  for (const auto& [key, group] : groups_) {
    if (key != RouteKey(group.src, group.dst) ||
        group.route != topology_->Route(group.src, group.dst) ||
        group.latency != RouteLatency(*topology_, group.route)) {
      os << "route group " << group.src << " -> " << group.dst
         << " holds another pair's key, route or latency";
      return os.str();
    }
    members += group.members.size();
    if (!group.members.empty()) {
      ++active_groups;
    }
  }
  if (members != static_cast<std::size_t>(active_flows_)) {
    os << "route groups hold " << members << " members for " << active_flows_ << " flows";
    return os.str();
  }
  // From-scratch per-link group lists: exactly the active groups whose route crosses the
  // link, each once.
  std::vector<std::vector<const RouteGroup*>> want_groups(link_groups_.size());
  for (const auto& [key, group] : groups_) {
    if (group.members.empty()) {
      continue;
    }
    for (LinkId lid : group.route) {
      want_groups[static_cast<std::size_t>(lid)].push_back(&group);
    }
  }
  for (std::size_t lid = 0; lid < link_groups_.size(); ++lid) {
    std::vector<const RouteGroup*> have(link_groups_[lid].begin(), link_groups_[lid].end());
    std::sort(have.begin(), have.end());
    std::sort(want_groups[lid].begin(), want_groups[lid].end());
    if (have != want_groups[lid]) {
      os << "link " << lid << ": group list diverged from from-scratch rebuild";
      return os.str();
    }
  }
  // Joins since the last settle: their links, and the settle queued to re-rate them.
  if (pending_links_.empty() == settle_queued_) {
    os << (settle_queued_ ? "a settle is queued with no join pending"
                          : "joins are pending with no settle queued");
    return os.str();
  }
  std::vector<bool> pending(link_active_.size(), false);
  for (LinkId lid : pending_links_) {
    pending[static_cast<std::size_t>(lid)] = true;
  }
  std::size_t heap_entries = 0;
  for (const auto& [key, group] : groups_) {
    if (group.members.empty()) {
      if (group.earliest != nullptr || group.heap_index != kNoHeapIndex) {
        os << "emptied route group kept an earliest member or a heap entry";
        return os.str();
      }
      continue;
    }
    // An active group has a heap entry exactly when it has an earliest member, and the
    // entry carries that member's key.
    if ((group.earliest == nullptr) != (group.heap_index == kNoHeapIndex)) {
      os << "route group " << group.src << " -> " << group.dst
         << " has an earliest member without a heap entry, or the reverse";
      return os.str();
    }
    if (group.heap_index != kNoHeapIndex) {
      ++heap_entries;
      if (group.heap_index >= completion_heap_.size() ||
          completion_heap_[group.heap_index].group != &group) {
        os << "route group " << group.src << " -> " << group.dst
           << ": its heap_index back-pointer is broken";
        return os.str();
      }
      const Completion& entry = completion_heap_[group.heap_index];
      if (!group.earliest->in_network || group.earliest->group != &group ||
          entry.when != group.earliest->completion_time || entry.id != group.earliest->id) {
        os << "route group " << group.src << " -> " << group.dst
           << ": heap key != its earliest member's";
        return os.str();
      }
    }
    // A group crossing a pending link keeps its last settled rate and stamps until the
    // settle; a newly active one has no heap entry yet. Its counts, membership and
    // per-link lists were checked above.
    if (std::any_of(group.route.begin(), group.route.end(), [&pending](LinkId lid) {
          return pending[static_cast<std::size_t>(lid)];
        })) {
      continue;
    }
    // From-scratch rate: a pure function of the (verified) counts, so it must match
    // bitwise, and every member must carry it.
    const double want_rate = ComputeRate(group.route);
    if (group.rate != want_rate) {
      os << "route group rate " << group.rate << " != from-scratch " << want_rate;
      return os.str();
    }
    const Flow* want_earliest = group.members.front();
    for (const Flow* flow : group.members) {
      if (flow->rate != want_rate) {
        os << "flow " << flow->id << ": rate " << flow->rate << " != its group's "
           << want_rate;
        return os.str();
      }
      // Completion projections are stamped at the flow's last rate change; algebra says
      // they equal last_advance_ + remaining/rate (bytes_remaining is integrated only up
      // to last_advance_, not to now()), FP says only to round-off.
      const double want_completion = last_advance_ + flow->bytes_remaining / flow->rate;
      const double tolerance = 1e-6 * (1.0 + std::abs(want_completion));
      if (std::abs(flow->completion_time - want_completion) > tolerance) {
        os << "flow " << flow->id << ": completion time " << flow->completion_time
           << " drifted from projection " << want_completion;
        return os.str();
      }
      if (FlowBefore(*flow, *want_earliest)) {
        want_earliest = flow;
      }
    }
    // Settled: the earliest member is the true one, so the heap key checked above is too.
    if (group.earliest != want_earliest) {
      os << "flow " << want_earliest->id
         << " completes first on its route, but its group names another earliest member";
      return os.str();
    }
  }
  // The entries are exactly those of the groups that have one (each verified above to
  // point back at its group); with no join pending, that is every active group.
  if (completion_heap_.size() != heap_entries ||
      (pending_links_.empty() && heap_entries != active_groups)) {
    os << "completion heap has " << completion_heap_.size() << " entries for "
       << active_groups << " active route groups, " << heap_entries << " of them keyed";
    return os.str();
  }
  for (std::size_t i = 1; i < completion_heap_.size(); ++i) {
    if (CompletionBefore(completion_heap_[i], completion_heap_[(i - 1) / 2])) {
      os << "completion heap order violated at index " << i;
      return os.str();
    }
  }
  return std::string();
}

}  // namespace harmony
