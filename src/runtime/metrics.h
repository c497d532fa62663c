// Run reports: what a simulated training run measured.
//
// The engine snapshots memory/transfer counters at every iteration boundary so the benches
// can report *steady-state* per-iteration quantities (iteration 0 pays one-time costs:
// first-touch weight uploads, input staging), matching how the paper reports per-iteration
// swap volume.
#ifndef HARMONY_SRC_RUNTIME_METRICS_H_
#define HARMONY_SRC_RUNTIME_METRICS_H_

#include <string>
#include <vector>

#include "src/mem/memory_manager.h"
#include "src/util/units.h"

namespace harmony {

// Wall-clock taxonomy for the per-device decomposition: compute plus five stall classes.
// The engine accumulates these as spans between its task lifecycle points, so for every
// device the six buckets sum to the run's makespan *by construction* (see DESIGN.md §8;
// metrics_test asserts the invariant for every scheduler).
enum class TimeClass : int {
  kCompute = 0,          // task flops / effective FLOPs
  kStallDependency = 1,  // waiting for cross-device dependencies to fire
  kStallMemory = 2,      // waiting in Acquire with no inbound DMA in flight (eviction
                         // pressure, pinned-victim waits, FIFO queueing)
  kStallTransfer = 3,    // waiting in Acquire while inbound DMA is in flight
  kStallCollective = 4,  // all-reduce rendezvous + ring rounds
  kIdle = 5,             // device queue drained before the run finished
};
inline constexpr int kNumTimeClasses = 6;

const char* TimeClassName(TimeClass cls);

struct DeviceTimeBreakdown {
  double seconds[kNumTimeClasses] = {};

  double of(TimeClass cls) const { return seconds[static_cast<int>(cls)]; }
  double& of(TimeClass cls) { return seconds[static_cast<int>(cls)]; }
  double total() const;
  // The largest of the five non-compute classes (ties break on enum order, so the result
  // is deterministic).
  TimeClass DominantStall() const;
};

struct IterationStats {
  int iteration = 0;
  double start_time = 0.0;
  double end_time = 0.0;
  double duration() const { return end_time - start_time; }

  // Deltas over this iteration.
  Bytes swap_in = 0;
  Bytes swap_out = 0;
  Bytes p2p_in = 0;
  Bytes collective_bytes = 0;
  Bytes swap_in_by_class[kNumTensorClasses] = {};
  Bytes swap_out_by_class[kNumTensorClasses] = {};
  std::vector<Bytes> swap_in_per_device;
  std::vector<Bytes> swap_out_per_device;

  Bytes swap_total() const { return swap_in + swap_out; }
  Bytes weight_swap_volume() const {
    return swap_in_by_class[static_cast<int>(TensorClass::kWeight)] +
           swap_out_by_class[static_cast<int>(TensorClass::kWeight)];
  }
};

struct RunReport {
  std::string scheme;
  double makespan = 0.0;
  int samples_per_iteration = 0;
  std::vector<IterationStats> iterations;

  // Whole-run, per-device.
  std::vector<double> device_busy;        // compute seconds
  std::vector<Bytes> device_swap_in;
  std::vector<Bytes> device_swap_out;
  std::vector<Bytes> device_high_water;
  std::vector<std::int64_t> device_evictions;
  std::vector<std::int64_t> device_defrags;

  // Per-device wall-clock decomposition (compute + five stall classes == makespan on
  // failure-free runs). Same length as device_busy; device_time[d].of(kCompute) equals
  // device_busy[d] exactly (both accumulate the identical per-task durations).
  std::vector<DeviceTimeBreakdown> device_time;

  // Per-link accounting over the whole run ("where did the bytes actually flow").
  struct LinkUsage {
    std::string name;      // "gpu0 -> pcie-sw0"
    Bytes bytes = 0;
    double busy_time = 0.0;
    double utilization = 0.0;  // busy_time / makespan
    double avg_queue_depth = 0.0;  // time-integral of active flows / makespan
    int max_queue_depth = 0;       // peak concurrent flows
    std::int64_t flows = 0;        // flows carried to completion
    Bytes bytes_by_kind[kNumTransferKinds] = {};  // completed-flow bytes per TransferKind
  };
  std::vector<LinkUsage> links;

  // Per-tier byte split for multi-node machines: link stats aggregated over the pcie / nic
  // / rack contention tiers (LinkTier). Empty on single-server topologies — every legacy
  // report (stdout, JSON, golden benches) stays byte-identical. The cluster conservation
  // tests assert the tiers partition the link totals and that swap bytes never leave the
  // pcie tier.
  struct TierUsage {
    std::string name;  // LinkTierName: "pcie" | "nic" | "rack"
    Bytes bytes = 0;
    double busy_time = 0.0;        // sum of member-link busy time
    std::int64_t flows = 0;        // flows carried to completion
    Bytes bytes_by_kind[kNumTransferKinds] = {};
    Bytes of(TransferKind kind) const { return bytes_by_kind[static_cast<int>(kind)]; }
  };
  std::vector<TierUsage> tiers;

  // Per-node ingress/egress by transfer kind, counted at flow start (the TransferManager's
  // endpoint-indexed view of the same bytes the MemoryCounters track per class — the
  // byte-conservation cross-check in metrics_test equates the two).
  struct NodeIo {
    std::string node;
    Bytes in_by_kind[kNumTransferKinds] = {};
    Bytes out_by_kind[kNumTransferKinds] = {};
    Bytes in_of(TransferKind kind) const { return in_by_kind[static_cast<int>(kind)]; }
    Bytes out_of(TransferKind kind) const { return out_by_kind[static_cast<int>(kind)]; }
  };
  std::vector<NodeIo> node_io;

  // Per-tensor swap churn: only tensors with at least one event appear, in ascending
  // tensor-id order. `write_backs` includes staged peer write-backs (the "Only CPU-GPU
  // Swaps" path), so summed per class these equal the MemoryCounters totals.
  struct TensorChurn {
    TensorId tensor = kInvalidTensor;
    std::string name;
    std::string cls;   // TensorClassName of the tensor's class
    Bytes bytes = 0;   // tensor size
    std::int64_t evictions = 0;
    std::int64_t clean_drops = 0;
    std::int64_t write_backs = 0;
    std::int64_t swap_ins = 0;
    std::int64_t p2p_ins = 0;
    Bytes swap_in_bytes = 0;
    Bytes swap_out_bytes = 0;
    Bytes p2p_in_bytes = 0;
    Bytes clean_drop_bytes = 0;
    // Fetches beyond the first arrival: the swap churn the paper's Fig. 2(a) counts as
    // "repeated weight swaps".
    std::int64_t refetches() const;
    Bytes moved_bytes() const { return swap_in_bytes + swap_out_bytes + p2p_in_bytes; }
  };
  std::vector<TensorChurn> tensor_churn;

  // Per-link queue-depth change points (time, active flows); recorded only when the run
  // had record_timeline set (rides into the chrome-trace export as counter tracks).
  struct LinkQueuePoint {
    double time = 0.0;
    int depth = 0;
  };
  std::vector<std::vector<LinkQueuePoint>> link_queue_timeline;

  // The hottest link (by utilization); empty name when no traffic flowed.
  const LinkUsage* BottleneckLink() const;

  // Whole-run totals.
  Bytes total_swap_in = 0;
  Bytes total_swap_out = 0;
  Bytes total_p2p = 0;
  Bytes total_collective = 0;

  // ---- fault / recovery (all zero on a failure-free run; Summary() never prints them) ----
  bool failed = false;          // the run stopped early (fail-stop or watchdog stall)
  std::string failure_kind;     // "gpu-fail-stop" | "watchdog-stall" | "gpu-straggler" |
                                // "transfer-retry-exhausted"
  int failed_device = -1;       // GPU index for gpu-fail-stop / gpu-straggler
  double failure_time = 0.0;    // sim time the failure was detected
  int checkpoints_committed = 0;
  Bytes checkpoint_bytes = 0;           // total bytes copied out across all checkpoints
  int last_checkpoint_iteration = -1;   // -1 = no committed checkpoint (restart from init)
  double last_checkpoint_time = 0.0;

  // ---- degraded-mode resilience (DESIGN.md §11; all zero on a failure-free run) ----
  std::int64_t flows_retried = 0;   // transient flow aborts re-issued by the retry tier
  std::int64_t retry_exhausted = 0;  // flows that ran out of attempts (escalated)
  double retry_backoff_sec = 0.0;    // total backoff delay inserted across all retries
  int straggler_device = -1;         // device classified as straggler; -1 = none
  std::vector<double> device_degraded_sec;  // seconds each device spent at scale < 1
  double degraded_sec = 0.0;                // sum over devices, each clamped to makespan
  int ckpt_generations = 0;       // checkpoint generations resident in the ring buffer
  int ckpt_verified_ok = 0;       // generations that passed digest verification
  int ckpt_corrupt_detected = 0;  // generations rejected by digest verification

  int num_devices() const { return static_cast<int>(device_busy.size()); }

  // Steady-state = average over iterations [1, n); falls back to iteration 0 for
  // single-iteration runs.
  double steady_iteration_time() const;
  double steady_throughput() const;  // samples / sec
  Bytes steady_swap_in() const;
  Bytes steady_swap_out() const;
  Bytes steady_swap_total() const { return steady_swap_in() + steady_swap_out(); }
  Bytes steady_p2p() const;

  std::string Summary() const;
};

// Bottleneck attribution distilled from a RunReport: the dominant stall class per device,
// the top contended link, and the highest-churn tensors. This is what `harmony_sim
// --explain` prints and what the Tuner embeds in winning configurations.
struct AttributionReport {
  struct DeviceStall {
    int device = -1;
    TimeClass dominant = TimeClass::kIdle;
    double seconds = 0.0;
    double fraction = 0.0;  // seconds / makespan
  };
  std::vector<DeviceStall> devices;

  // Device whose dominant stall eats the largest makespan fraction (the machine-wide
  // headline); -1 when the report has no devices.
  int worst_device = -1;

  std::string bottleneck_link;  // empty when no traffic flowed
  double bottleneck_utilization = 0.0;
  double bottleneck_queue_depth = 0.0;  // average over the run
  Bytes bottleneck_bytes = 0;

  std::vector<RunReport::TensorChurn> top_churn;  // by moved_bytes(), descending

  // Per-tier byte splits mirrored from the RunReport. Empty on single-server machines;
  // Render() only prints the section when non-empty (legacy output byte-identical).
  std::vector<RunReport::TierUsage> tiers;

  // Resilience scalars mirrored from the RunReport (all zero / -1 on a failure-free run;
  // Render() only prints the section when something is nonzero, keeping historical output
  // byte-identical).
  std::int64_t flows_retried = 0;
  std::int64_t retry_exhausted = 0;
  double retry_backoff_sec = 0.0;
  double degraded_sec = 0.0;
  int straggler_device = -1;
  int ckpt_verified_ok = 0;
  int ckpt_corrupt_detected = 0;

  std::string Summary() const;  // one line, for tables / tuner rows
  std::string Render() const;   // multi-line human-readable report
};

// Distills `report` into an attribution; `top_tensors` caps the churn list.
AttributionReport Attribute(const RunReport& report, int top_tensors = 5);

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_METRICS_H_
