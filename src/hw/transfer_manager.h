// Flow-level DMA model over the topology.
//
// A transfer is a flow along the route between two nodes. At any instant a flow's rate is
// min over its route's links of (link bandwidth / number of active flows on that link) —
// the classic processor-sharing approximation of max-min fair bandwidth allocation. Rates
// are recomputed whenever flows start or finish, so contention on the shared
// switch-to-host uplink (the paper's Fig. 2(a)/(b) bottleneck) emerges naturally.
//
// Flows on one route always share one rate (the rate is a pure function of the route's link
// counts), so the manager keeps one *route group* per (src, dst) pair that has carried a
// flow: its route and the route's latency, worked out once, and while active its members,
// their shared rate, and its earliest member by (completion time, flow id). The per-link
// lists hold groups, not flows. A change point dirties the links it touches; each group
// crossing a dirty link is re-rated with one rate computation, and only when that rate
// moved are its members re-stamped with `now + bytes_remaining / rate`. Departures
// (completions, aborts, flaps) and bandwidth rescales are re-rated at their change point.
// Arrivals are re-rated once per instant: a join only attaches the flow and records its
// links, and one +0 *settle* event re-rates every link the instant's joins touched. Joins
// only raise link counts and no bytes move within an instant, so one pass at the final
// counts writes exactly the stamps the last of one pass per join would have. A rescale,
// fail-stop or flap first settles the pending joins as a pass of its own, never merged
// with its own links: a rate that fell and rose back would look unchanged to one merged
// pass and keep a stale stamp.
// The next completion comes from an indexed min-heap with one entry per active group, keyed
// by the group's earliest member, so peeking it is O(1) and a re-rate costs one re-key per
// group instead of one per flow. Completion times and the order in which simultaneous
// completions fire (flow id) are bit-identical to rating every flow on its own. Scheduled
// wakeups are generation-tagged and invalidated by any later join or re-rate. No
// O(flows x links) scan per event anywhere.
//
// Each transfer is one record from StartTransfer until the caller's continuation, which
// receives a typed outcome (completed or aborted), has run. Records sit in a table that
// never moves them and reuses freed slots LIFO. The join after the route latency, a retry's
// re-join and the +0 end event are each a two-word [this, slot] closure, and running the
// end event frees the slot. So the manager's per-transfer memory is bounded by what is in
// flight, not by the length of the run.
//
// The manager also keeps byte/busy-time accounting per link and per transfer kind, which the
// benches read back as "swap volume" and "link utilization".
#ifndef HARMONY_SRC_HW_TRANSFER_MANAGER_H_
#define HARMONY_SRC_HW_TRANSFER_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hw/topology.h"
#include "src/runtime/retry_policy.h"
#include "src/sim/simulator.h"
#include "src/util/inline_function.h"
#include "src/util/units.h"

namespace harmony {

enum class TransferKind : int {
  kSwapIn = 0,    // host -> GPU
  kSwapOut = 1,   // GPU -> host
  kPeerToPeer = 2,  // GPU -> GPU direct
  kCollective = 3,  // allreduce chunks
  kInput = 4,       // training-data ingest
  kOther = 5,
  kCheckpoint = 6,  // periodic weight checkpoints to host (fault recovery)
};
inline constexpr int kNumTransferKinds = 7;

const char* TransferKindName(TransferKind kind);

// How a transfer ended: its bytes landed, or a node failure or an unabsorbed link flap
// aborted it.
enum class TransferOutcome : std::uint8_t { kCompleted, kAborted };

struct LinkStats {
  Bytes bytes_carried = 0;
  double busy_time = 0.0;     // wall time with >= 1 active flow
  double flow_seconds = 0.0;  // time-integral of the active-flow count (avg queue depth
                              // over the run = flow_seconds / makespan)
  int max_queue_depth = 0;    // peak concurrent flows
  std::int64_t flows = 0;     // flows carried to completion
  Bytes bytes_by_kind[kNumTransferKinds] = {};  // completed-flow bytes per kind
};

// Per-node ingress/egress accounting, counted at flow start (same point as the global
// bytes_by_kind accounting, so the two views always agree). The endpoint-indexed
// counterpart of the MemoryManager's class-indexed counters — metrics_test equates them.
struct NodeIoStats {
  Bytes in_by_kind[kNumTransferKinds] = {};
  Bytes out_by_kind[kNumTransferKinds] = {};
};

// One queue-depth change point of a link's timeline (recorded only when enabled).
struct LinkQueueSample {
  SimTime time = 0.0;
  int depth = 0;
};

class TransferManager {
 public:
  TransferManager(Simulator* sim, const Topology* topology);
  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  // What runs when a transfer ends. The inline buffer holds `this` plus three words, which
  // covers the hot-path callers (memory-manager landings, collective barrier arrivals);
  // larger captures take one heap allocation.
  using Continuation = InlineFunction<32, void(TransferOutcome)>;

  // Starts a transfer of `bytes` from `src` to `dst`. `done` runs exactly once, as a fresh
  // simulator event at the instant the transfer ends, after anything already queued for
  // that instant. src == dst or bytes == 0 completes after route latency only. Nothing is
  // kept for the transfer once `done` has run.
  //
  // A transfer touching a failed node does not crash: `done` runs at once with
  // TransferOutcome::kAborted, so callers branch on a typed outcome.
  void StartTransfer(NodeId src, NodeId dst, Bytes bytes, TransferKind kind, Continuation done);

  // ---- quota admission (multi-tenant scheduler, DESIGN.md §13) ----
  // Caps the bandwidth this session may draw from every shared uplink at `fraction` of
  // spec bandwidth: all host-adjacent links (the PCIe swap uplinks) and the NIC / rack
  // network tiers. GPU-side PCIe legs and p2p paths keep full speed — a tenant's quota
  // reserves the *shared* fabric, not its own lanes. fraction == 1.0 is a no-op (exact
  // pre-quota event sequence). Call once, before any flow starts; composes with the fault
  // model by simple overwrite (a later fault scale replaces the quota on that link), so
  // scheduler sessions do not arm faults.
  void ApplyUplinkBandwidthQuota(double fraction);

  // ---- fault model ----
  // Rescales `link`'s effective bandwidth to scale * spec bandwidth (scale in (0, 1]).
  // Active flows crossing the link are re-rated immediately; flows bottlenecked elsewhere
  // keep their rate bit-for-bit, exactly like any other arrival/departure change point.
  void SetLinkBandwidthScale(LinkId link, double scale);
  double link_bandwidth_scale(LinkId link) const {
    return link_scale_.at(static_cast<std::size_t>(link));
  }

  // Fail-stops `node`: every active flow whose route crosses one of the node's links is
  // aborted (its continuation runs with kAborted), and any future transfer with a dead
  // endpoint aborts at start. Surviving flows on shared links are re-rated — a dead
  // GPU frees its share of the uplink for everyone else.
  void FailNode(NodeId node);
  bool NodeFailed(NodeId node) const {
    return node < static_cast<NodeId>(node_dead_.size()) &&
           node_dead_[static_cast<std::size_t>(node)];
  }

  std::int64_t flows_aborted() const { return flows_aborted_; }

  // ---- retry tier (DESIGN.md §11) ----
  // Installs the transfer retry policy. With a policy set, transient aborts
  // (FlapLinkFlows) re-issue the flow from scratch on the simulator clock after a
  // deterministic backoff instead of running its continuation aborted; only when the
  // attempt budget is exhausted does the abort surface. The policy must outlive the
  // manager's use of it; nullptr (the default) disables retries, preserving the
  // pre-retry behavior byte for byte.
  void SetRetryPolicy(const RetryPolicy* policy) { retry_policy_ = policy; }

  // Called (synchronously, at abort time) when a flow exhausts its retry budget. The
  // engine uses this to escalate to elastic recovery with a typed failure kind.
  void SetRetryExhaustedHandler(std::function<void(std::int64_t flow_id, SimTime when)> fn) {
    retry_exhausted_handler_ = std::move(fn);
  }

  // Transiently aborts every active flow crossing any of `links` (a flow_flap /
  // brownout fault). Each victim either re-enters the network after its backoff —
  // full retransmit: bytes already moved are lost, but the start-time byte accounting
  // is not re-counted — or, with the budget exhausted (or no policy installed), aborts
  // permanently like a node-failure victim. Flows still inside their route-latency
  // window have not entered the network and are not affected. Returns the number of
  // flows hit.
  int FlapLinkFlows(const std::vector<LinkId>& links);

  std::int64_t flows_retried() const { return flows_retried_; }
  std::int64_t retry_exhausted() const { return retry_exhausted_; }
  double retry_backoff_sec() const { return retry_backoff_sec_; }

  // ---- accounting ----
  Bytes bytes_by_kind(TransferKind kind) const {
    return bytes_by_kind_[static_cast<std::size_t>(kind)];
  }
  Bytes total_bytes() const;
  const LinkStats& link_stats(LinkId link) const {
    return link_stats_.at(static_cast<std::size_t>(link));
  }
  const NodeIoStats& node_io(NodeId node) const {
    return node_io_.at(static_cast<std::size_t>(node));
  }

  // Queue-depth timelines are off by default (they grow with flow count); the engine turns
  // them on for record_timeline runs so the chrome-trace export gets counter tracks.
  void set_record_queue_timeline(bool on) { record_queue_timeline_ = on; }
  const std::vector<LinkQueueSample>& queue_timeline(LinkId link) const {
    return queue_timeline_.at(static_cast<std::size_t>(link));
  }
  int num_active_flows() const { return active_flows_; }
  // Transfers whose continuation has not run yet (test hook: zero once the simulator
  // drains).
  std::size_t continuations_parked() const { return flows_.size() - free_flows_.size(); }
  std::int64_t flows_completed() const { return flows_completed_; }

  const Topology& topology() const { return *topology_; }

  // Test hook: checks each group's route and latency against Topology::Route for its pair,
  // rebuilds link counts, route-group membership, per-link group lists and rates from
  // scratch and diffs them against the incrementally maintained state, then validates each
  // group's earliest member and the completion heap (index back-pointers, keys, heap
  // order). Returns an empty string when consistent, else a human-readable description of
  // the first divergence. Counts and rates must match exactly (rates are pure functions of
  // integer counts); projected completion times may drift by FP round-off and are checked
  // to a relative tolerance.
  //
  // Between a join and its settle, a group crossing a pending link is *unsettled*: it holds
  // its last settled rate, a newcomer has rate 0 and no stamp, and a newly active group has
  // no heap entry yet. For such a group only counts, membership, per-link lists and the
  // integrity of a heap entry it already has are checked, and a settle must be queued:
  // pending links exist exactly when one is. Every settled group is checked in full.
  std::string DebugCheckConsistency() const;

 private:
  static constexpr std::size_t kNoHeapIndex = static_cast<std::size_t>(-1);

  struct RouteGroup;

  // A transfer's record (see the file comment). It is in the network, sharing bandwidth as
  // a member of its group, from each join until it completes, aborts or is flapped. A
  // zero-byte or same-node transfer never joins, so its record holds only the continuation.
  struct Flow {
    std::int64_t id = 0;
    double bytes_remaining = 0.0;
    Bytes bytes_total = 0;
    double rate = 0.0;  // bytes/sec under the current allocation; 0 until first rated
    // Absolute sim time at which the flow drains at `rate` (stamped at the last rate change).
    SimTime completion_time = 0.0;
    RouteGroup* group = nullptr;   // its (src, dst) group, which owns the route
    std::size_t member_index = 0;  // position in group->members while in the network
    TransferKind kind = TransferKind::kOther;
    int attempts = 0;  // transient aborts suffered so far (retry tier)
    std::uint32_t slot = 0;  // this record's index in flows_
    bool in_network = false;
    Continuation done;
  };

  // One (src, dst) pair's route and active flows. A group is *active* while it has members:
  // only then is it on its route's per-link lists and in the completion heap. An emptied
  // group stays allocated (the pair's next transfer reuses it) but is unlinked from both.
  struct RouteGroup {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::vector<LinkId> route;
    double latency = 0.0;  // sum of the route's link latencies, added in route order
    std::vector<Flow*> members;
    // The rate every member was last stamped at. Reset to 0 when a flow joins, so the
    // settle stamps the newcomer even if the route's share did not move.
    double rate = 0.0;
    Flow* earliest = nullptr;  // member with the least (completion_time, id); null if empty
    std::size_t heap_index = kNoHeapIndex;  // position of the group's completion entry
    // Visit stamp for the current re-rate pass; dedupes groups reached via several dirty
    // links without sorting.
    std::uint64_t rerate_mark = 0;
  };

  // Indexed-heap entry: the group's earliest member's projected completion and id.
  struct Completion {
    SimTime when = 0.0;
    std::int64_t id = 0;
    RouteGroup* group = nullptr;
  };

  // Min order. Ties break on flow id so simultaneous completions pop — and therefore fire —
  // in flow creation order.
  static bool CompletionBefore(const Completion& a, const Completion& b) {
    if (a.when != b.when) {
      return a.when < b.when;
    }
    return a.id < b.id;
  }
  static bool FlowBefore(const Flow& a, const Flow& b) {
    if (a.completion_time != b.completion_time) {
      return a.completion_time < b.completion_time;
    }
    return a.id < b.id;
  }

  // Integrates all active flows (the members of the groups in the completion heap) and
  // per-link busy time forward to sim_->now() using the rates computed at the previous
  // change point. Must run before the flow set changes.
  void AdvanceToNow();

  // Takes a free record (reusing freed slots first), holding only `done`.
  Flow& NewFlow(Continuation done);

  // Inserts the flow into its group (activating the group on the per-link lists if it was
  // empty); its stamp and the group's heap entry follow at the next re-rate.
  void AttachFlow(Flow& flow);
  // Removes the flow from its group, appending its route to `dirty_links`. An emptied
  // group leaves the per-link lists and the heap; otherwise, if the flow was the group's
  // earliest member, the group's heap entry is re-keyed to its new earliest member.
  void DetachFlow(Flow& flow, std::vector<LinkId>* dirty_links);
  // The active flows crossing any of `links`, each once, in flow-id order — the order in
  // which a failure or a flap handles its victims.
  std::vector<Flow*> FlowsOnLinks(const std::vector<LinkId>& links) const;

  // Re-rates exactly the groups that cross any link in `dirty_links` (duplicates allowed):
  // one rate computation per group. A group whose rate is unchanged (bottlenecked on an
  // untouched link) keeps every projection and its heap entry; otherwise each member whose
  // rate moved is re-stamped and the group's entry re-keyed in place.
  void ReRateFlowsOnLinks(const std::vector<LinkId>& dirty_links);
  double ComputeRate(const std::vector<LinkId>& route) const;
  // Points the group at its least (completion_time, id) member and re-keys its entry.
  void RekeyGroup(RouteGroup& group);

  // Indexed-heap primitives over completion_heap_; every placement writes the group's
  // heap_index back-pointer.
  void HeapSiftUp(std::size_t i);
  void HeapSiftDown(std::size_t i);
  void HeapUpdate(RouteGroup& group);  // (re)place after group.earliest changed
  void HeapRemove(RouteGroup& group);

  // Peeks the heap root and schedules the wakeup for the next projected completion.
  void ScheduleNextCompletion();
  void OnWakeup(std::uint64_t generation);

  // Puts a flow whose route latency (or retry backoff) has elapsed into the network, adds
  // its links to the pending ones and queues the instant's settle if none is; aborts it
  // instead if an endpoint died meanwhile.
  void JoinFlow(std::uint32_t slot);
  // Re-rates the links of every join since the last settle, as one pass; returns false,
  // having done nothing, when no join is pending. Runs as the +0 event a join queues, and
  // first thing at a rescale, a fail-stop and a flap that hits flows.
  bool SettleJoins();

  // Ends a transfer: schedules its continuation as a fresh event at +0 with `outcome`. The
  // record is freed when that event runs, before the continuation is called, so the
  // continuation may start transfers of its own.
  void Finish(std::uint32_t slot, TransferOutcome outcome);

  Simulator* sim_;
  const Topology* topology_;

  std::int64_t next_flow_id_ = 0;
  // Transfer records by slot. A deque, so records never move (groups hold Flow*). Freed
  // slots wait in free_flows_ and are reused LIFO, so the table is as long as the most
  // transfers ever in flight at once.
  std::deque<Flow> flows_;
  std::vector<std::uint32_t> free_flows_;
  int active_flows_ = 0;  // records in the network

  std::vector<int> link_active_;  // active flow count per link (maintained incrementally)
  std::vector<double> link_scale_;  // effective-bandwidth multiplier per link (fault model)
  std::vector<bool> node_dead_;     // fail-stopped nodes
  std::int64_t flows_aborted_ = 0;

  const RetryPolicy* retry_policy_ = nullptr;  // not owned; nullptr = retries disabled
  std::function<void(std::int64_t, SimTime)> retry_exhausted_handler_;
  std::int64_t flows_retried_ = 0;      // transient aborts absorbed by a re-issue
  std::int64_t retry_exhausted_ = 0;    // flows that ran out of attempts
  double retry_backoff_sec_ = 0.0;      // total backoff delay injected by retries
  // One group per (src, dst) pair that has carried a flow, keyed by src << 32 | dst;
  // node-based, so the groups flows point to never move.
  std::unordered_map<std::uint64_t, RouteGroup> groups_;
  std::vector<std::vector<RouteGroup*>> link_groups_;  // active groups crossing each link
  std::vector<Completion> completion_heap_;  // indexed min-heap, one entry per active group
  std::vector<LinkStats> link_stats_;
  SimTime last_advance_ = 0.0;
  std::uint64_t wakeup_generation_ = 0;
  // Stamp of the current re-rate pass; a group or link carrying it has been visited.
  std::uint64_t rerate_mark_ = 0;
  std::vector<std::uint64_t> link_rerate_mark_;
  std::vector<LinkId> dirty_scratch_;  // reused per wakeup to avoid per-event allocation
  // Route links of the joins not yet re-rated, duplicates included; non-empty exactly while
  // a settle is queued.
  std::vector<LinkId> pending_links_;
  bool settle_queued_ = false;

  Bytes bytes_by_kind_[kNumTransferKinds] = {};
  std::vector<NodeIoStats> node_io_;
  std::int64_t flows_completed_ = 0;

  bool record_queue_timeline_ = false;
  std::vector<std::vector<LinkQueueSample>> queue_timeline_;
  // Appends (now, link_active_[link]) to the link's timeline, coalescing same-timestamp
  // change points so each timestamp keeps only its final depth.
  void RecordQueueDepth(LinkId link);
};

}  // namespace harmony

#endif  // HARMONY_SRC_HW_TRANSFER_MANAGER_H_
