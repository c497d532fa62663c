// Execution engine: runs a Plan on the simulated machine.
//
// Each device executes its queue in order. Per task the engine:
//   1. waits for cross-device dependencies,
//   2. acquires the task's working set from the device's MemoryManager (which swaps/evicts
//      as needed and fires an event when everything is resident and pinned),
//   3. models compute as flops / device-effective-FLOPs (all-reduce tasks instead rendezvous
//      through the CollectiveEngine),
//   4. on completion marks outputs dirty, releases pins, frees end-of-life tensors, and
//      fires the task's completion event for dependents.
//
// With prefetch enabled the engine overlaps the *next* task's swap-ins with the current
// task's compute (the double-buffering trade-off from the paper's Sec. 4): the next working
// set is acquired best-effort, so under memory pressure the prefetch cancels itself rather
// than deadlocking the device.
#ifndef HARMONY_SRC_RUNTIME_ENGINE_H_
#define HARMONY_SRC_RUNTIME_ENGINE_H_

#include <map>
#include <memory>
#include <vector>

#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/hw/transfer_manager.h"
#include "src/mem/memory_manager.h"
#include "src/runtime/checkpoint_store.h"
#include "src/runtime/collective.h"
#include "src/runtime/health_monitor.h"
#include "src/runtime/metrics.h"
#include "src/runtime/next_use.h"
#include "src/sim/simulator.h"

namespace harmony {

struct EngineOptions {
  bool prefetch = true;         // double-buffer the next task's working set
  bool record_timeline = false;  // keep per-task start/end times (Fig. 4 rendering)

  // ---- fault tolerance (all off by default: the failure-free path is byte-identical) ----
  // Checkpoint resident dirty weights + optimizer state to host after every k-th iteration
  // (0 = never). The copy-out rides the normal transfer fabric, so its cost and contention
  // are part of the measured makespan.
  int checkpoint_every = 0;
  // Also commit the checkpoint that lands on the final iteration. Normally skipped ("the
  // run is the checkpoint"), but a preemption drain ends with exactly that commit: the
  // cluster scheduler cuts a victim short and must pay the copy-out before releasing the
  // gang.
  bool checkpoint_final = false;
  // Flag the run as stalled when no task completes for this many sim seconds (0 = no
  // watchdog). Must exceed the longest single task's compute+swap latency.
  double watchdog_timeout = 0.0;
  // Set when a FaultInjector is armed on this run. Makes Run() report makespan as the last
  // productive event instead of sim idle time (fault expiries and watchdog ticks can leave
  // the sim clock past the real finish).
  bool fault_mode = false;
  // Health-monitor straggler threshold: EWMA(actual/expected task service time) above
  // which a device is classified a straggler and the segment ends gracefully at the next
  // iteration boundary (failure kind "gpu-straggler", no rollback). 0 = monitor off.
  double straggler_threshold = 0.0;
  // Ring buffer receiving committed checkpoint generations (owned by the recovery
  // coordinator; nullptr = commits are counted but not retained for verification).
  CheckpointStore* checkpoint_store = nullptr;
};

struct TaskTrace {
  TaskId task = kInvalidTask;
  double start = 0.0;  // compute begin (after working set resident)
  double end = 0.0;
};

class Engine {
 public:
  // Runs the cheap-tier LintPlan over `plan` against `memory`'s registry and device
  // capacities, and refuses (fatal, with the rendered report) a plan with any error.
  Engine(Simulator* sim, const Machine* machine, MemorySystem* memory,
         TransferManager* transfers, CollectiveEngine* collective, const Plan* plan,
         EngineOptions options = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Executes the whole plan to completion (fatal with diagnostics on deadlock) and returns
  // the measured report. Under fault options a failure does not crash: the engine stops
  // dispatching, drains in-flight work, and returns a report with `failed` set.
  RunReport Run();

  // Fault-injector callback: GPU `gpu` fail-stopped at sim time `when` (its flows are
  // already aborted). The engine aborts the run — rollback/rebinding happens one level up,
  // in the recovery coordinator.
  void NotifyDeviceFailed(int gpu, SimTime when);

  // TransferManager callback: a transfer ran out of retry attempts at `when`. The engine
  // aborts with the typed failure kind "transfer-retry-exhausted"; the recovery
  // coordinator rolls back to the newest valid checkpoint without excluding any device.
  void NotifyTransferRetryExhausted(SimTime when);

  // Fault-injector callback: GPU `gpu` now computes at `scale` of its rated flops
  // (composed product of active kGpuSlow faults; 1.0 = healthy). Applies to tasks
  // dispatched from `when` on and feeds the degraded-seconds integral.
  void SetComputeScale(int gpu, double scale, SimTime when);

  const std::vector<TaskTrace>& timeline() const { return timeline_; }

 private:
  struct DeviceState {
    std::size_t next_index = 0;
    // The best-effort acquisition MaybePrefetch issued for order[next_index], consumed by
    // that task's AcquireAndRun before next_index moves again; kInvalidTask when none.
    TaskId prefetched = kInvalidTask;
    MemoryManager::Acquisition prefetch{};
  };

  struct Snapshot {
    Bytes swap_in_by_class[kNumTensorClasses] = {};
    Bytes swap_out_by_class[kNumTensorClasses] = {};
    std::vector<Bytes> swap_in_per_device;
    std::vector<Bytes> swap_out_per_device;
    Bytes p2p = 0;
    Bytes collective = 0;
  };

  void StartNextTask(int device);
  void AcquireAndRun(int device, TaskId task_id);
  void RunWithHandle(int device, TaskId task_id, MemoryManager::AcquireHandle handle);
  void FinishTask(int device, TaskId task_id, MemoryManager::AcquireHandle handle);
  void MaybePrefetch(int device);
  Snapshot TakeSnapshot() const;
  void OnIterationComplete(int iteration);
  void MaybeCheckpoint(int iteration);
  void WatchdogCheck(int last_completed);
  // Schedules the next watchdog check at an *absolute* deadline (period k lands at
  // exactly k * timeout): re-arming relative to the callback's fire time accumulates
  // FP round-off, drifting the deadlines the determinism tests pin.
  void ArmWatchdog(int last_completed);
  bool fault_mode() const {
    return options_.fault_mode || options_.checkpoint_every > 0 ||
           options_.watchdog_timeout > 0.0 || failed_;
  }
  void ReportDeadlock() const;

  Simulator* sim_;
  const Machine* machine_;
  MemorySystem* memory_;
  TransferManager* transfers_;
  CollectiveEngine* collective_;
  const Plan* plan_;
  EngineOptions options_;

  std::vector<std::unique_ptr<OneShotEvent>> completion_;
  std::vector<DeviceState> devices_;
  std::map<int, int> collective_group_size_;
  std::vector<int> iteration_remaining_;
  Snapshot last_snapshot_;
  double last_iteration_end_ = 0.0;

  // Each (tensor, device) pair's ascending queue positions with a monotone cursor (the
  // lookahead-eviction oracle answers in O(1) amortized; see next_use.h). Built only under
  // EvictionPolicy::kLookahead; null otherwise.
  std::unique_ptr<NextUseIndex> next_use_index_;

  std::vector<double> device_busy_;

  // ---- wall-clock decomposition (DESIGN.md §8) ----
  // Spans accumulate between the task lifecycle points the engine already passes through:
  // dependency wait [StartNextTask, AcquireAndRun), acquire wait [AcquireAndRun,
  // RunWithHandle) — split into transfer vs memory stall by differencing the MemorySystem's
  // inbound-busy integral — and compute/collective [RunWithHandle, FinishTask). Idle is
  // makespan minus the device's last finish, so the six buckets sum to makespan exactly on
  // failure-free runs. Pure accounting: no events are scheduled, the event order is
  // untouched, and every golden bench stdout stays byte-identical.
  std::vector<DeviceTimeBreakdown> device_time_;
  std::vector<double> dep_wait_start_;
  std::vector<double> acquire_start_;
  std::vector<double> inbound_mark_;   // InboundBusySeconds sample at acquire start
  std::vector<double> last_finish_;    // last FinishTask per device (idle anchor)

  std::vector<TaskTrace> timeline_;
  std::vector<IterationStats> iteration_stats_;
  int completed_tasks_ = 0;

  // Fault state. `aborting_` stops dispatch everywhere; in-flight events still drain so the
  // sim reaches a consistent quiet point (the drain time is the recovery coordinator's
  // "recovery latency" input).
  bool aborting_ = false;
  bool failed_ = false;
  std::string failure_kind_;
  int failed_device_ = -1;
  double failure_time_ = 0.0;
  double finish_time_ = 0.0;  // last productive event (task finish / checkpoint commit)
  int checkpoints_committed_ = 0;
  Bytes checkpoint_bytes_ = 0;
  int last_checkpoint_iteration_ = -1;
  double last_checkpoint_time_ = 0.0;

  // ---- degraded-mode resilience (DESIGN.md §11) ----
  std::int64_t watchdog_periods_ = 0;  // periods armed; deadline = anchor + periods * timeout
  double watchdog_anchor_ = 0.0;       // sim time of Run() start
  // Per-device compute multiplier from active kGpuSlow faults (1.0 = healthy) and the
  // time-integral of degraded operation (any scale < 1).
  std::vector<double> compute_scale_;
  std::vector<double> degraded_since_;  // window start while degraded; meaningful iff < 1
  std::vector<double> degraded_sec_;
  std::unique_ptr<HealthMonitor> monitor_;  // present iff straggler_threshold > 0
  bool straggler_pending_ = false;
  int straggler_device_ = -1;
};

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_ENGINE_H_
