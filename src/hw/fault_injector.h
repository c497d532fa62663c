// Replays a FaultPlan against a live Simulator + TransferManager.
//
// The injector turns each FaultEvent into concrete topology actions at its scheduled sim
// time: a fail-stop becomes TransferManager::FailNode on the GPU's node (plus a callback so
// the engine can roll back); a degradation pushes a bandwidth multiplier onto the affected
// links and pops it when the duration expires. Overlapping degradations compose as the
// product of all active multipliers, recomputed in fault-arrival order so the effective
// scale is bit-identical across runs (no divide-to-undo drift).
//
// Every applied action is appended to a trace; TraceString() is the canonical artifact the
// fault determinism tests compare across runs.
#ifndef HARMONY_SRC_HW_FAULT_INJECTOR_H_
#define HARMONY_SRC_HW_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/hw/topology.h"
#include "src/hw/transfer_manager.h"
#include "src/sim/fault_plan.h"
#include "src/sim/simulator.h"

namespace harmony {

class FaultInjector {
 public:
  FaultInjector(Simulator* sim, TransferManager* transfers);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Called when a GPU fail-stops, after its flows have been aborted. The engine uses this
  // to mark the device dead and trigger recovery.
  void SetDeviceFailHandler(std::function<void(int gpu, SimTime when)> handler) {
    device_fail_handler_ = std::move(handler);
  }

  // Called whenever a GPU's composed compute multiplier changes (kGpuSlow apply/expire).
  // `scale` is the product of every active slowdown on that GPU, recomputed in
  // fault-arrival order like the link multipliers. The engine scales the device's
  // effective flops for tasks dispatched from `when` on.
  void SetComputeScaleHandler(std::function<void(int gpu, double scale, SimTime when)> handler) {
    compute_scale_handler_ = std::move(handler);
  }

  // Called when a kCkptCorrupt event fires; the session wires this to
  // CheckpointStore::CorruptNewest. Without a handler the event is trace-only.
  void SetCheckpointCorruptHandler(std::function<void(SimTime when)> handler) {
    checkpoint_corrupt_handler_ = std::move(handler);
  }

  // Schedules every event in `plan` relative to the current sim time (Arm is normally
  // called at t=0; a recovery segment re-arms with a time-shifted plan). Events targeting
  // GPUs outside the machine are dropped with a trace note instead of crashing.
  void Arm(const FaultPlan& plan);

  // Number of fail-stops applied so far.
  int fail_stops_applied() const { return fail_stops_applied_; }

  // Newline-joined log of every applied/expired fault action with fixed-precision times —
  // byte-stable across runs with the same plan (the determinism-test artifact).
  std::string TraceString() const;
  const std::vector<std::string>& trace() const { return trace_; }

 private:
  // One multiplier pushed onto a link by fault instance `fault_id`.
  struct ActiveScale {
    std::int64_t fault_id = 0;
    double scale = 1.0;
  };

  void ApplyEvent(const FaultEvent& event);
  // Links whose bandwidth the event touches: the NIC's or ToR's incident links for a
  // network-scoped event, the GPU's incident links for one that targets a GPU, every
  // host-incident link otherwise.
  std::vector<LinkId> TargetLinks(const FaultEvent& event) const;
  void PushScale(const std::vector<LinkId>& links, std::int64_t fault_id, double scale);
  void PopScale(const std::vector<LinkId>& links, std::int64_t fault_id);
  // Recomputes the link's effective scale as the product of active multipliers in
  // fault-arrival order and pushes it into the TransferManager.
  void ReapplyLink(LinkId link);
  // Same composition for per-GPU compute slowdowns; notifies the compute-scale handler.
  void ReapplyGpu(int gpu);
  void Trace(const std::string& line);

  Simulator* sim_;
  TransferManager* transfers_;
  const Topology* topology_;
  std::function<void(int gpu, SimTime when)> device_fail_handler_;
  std::function<void(int gpu, double scale, SimTime when)> compute_scale_handler_;
  std::function<void(SimTime when)> checkpoint_corrupt_handler_;

  std::int64_t next_fault_id_ = 0;
  std::vector<std::vector<ActiveScale>> link_scales_;  // active multipliers per link
  std::vector<std::vector<ActiveScale>> gpu_compute_scales_;  // active slowdowns per GPU
  int fail_stops_applied_ = 0;
  std::vector<std::string> trace_;
};

}  // namespace harmony

#endif  // HARMONY_SRC_HW_FAULT_INJECTOR_H_
