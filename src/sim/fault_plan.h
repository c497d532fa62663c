// Deterministic fault schedules for the simulated machine.
//
// A FaultPlan is a time-ordered list of hardware anomalies — device fail-stop, link
// bandwidth degradation/flap, transient host-memory pressure — that the FaultInjector
// (hw/fault_injector.h) replays against a Simulator + TransferManager. Plans come from an
// explicit user spec (`--faults=`) or from a seeded RNG (MTBF-driven), and are plain data:
// the same plan applied to the same machine produces a bitwise-identical event trace, which
// is what the fault determinism tests pin down.
#ifndef HARMONY_SRC_SIM_FAULT_PLAN_H_
#define HARMONY_SRC_SIM_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/status.h"

namespace harmony {

enum class FaultKind : int {
  kGpuFailStop = 0,     // device fail-stop: the GPU and its links go away permanently
  kGpuLinkDegrade = 1,  // the GPU <-> switch links run at `scale` for `duration` seconds
  kHostLinkDegrade = 2, // every switch <-> host uplink runs at `scale` for `duration`
  kHostMemPressure = 3, // transient host-DRAM pressure: swap bandwidth scaled by `scale`
  // Transient faults absorbed by the retry tier (DESIGN.md §11):
  kFlowFlap = 4,        // instantly aborts in-flight flows on the target's links (retryable)
  kLinkBrownout = 5,    // degrade to `scale` for `duration` AND flap in-flight flows at onset
  kGpuSlow = 6,         // the GPU computes at `scale` of its rated flops for `duration`
  kCkptCorrupt = 7,     // bit-rot on the newest host checkpoint generation
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  SimTime time = 0.0;   // absolute time the fault strikes
  FaultKind kind = FaultKind::kGpuFailStop;
  int gpu = -1;         // target GPU for GPU-scoped kinds; -1 = host / untargeted
  double scale = 1.0;   // bandwidth (or compute, for kGpuSlow) multiplier while degraded
  double duration = 0.0;  // seconds the effect lasts; 0 = permanent (rendered "inf")
  // Node-scoped network targets for kFlowFlap / kLinkBrownout on multi-node machines:
  // nic<i> = node i's NIC links, rack<i> = rack i's ToR links. At most one of gpu/nic/rack
  // is set; both -1 defers to `gpu` (gpu<i> or host). Last so pre-cluster brace inits of
  // {time, kind, gpu, scale, duration} keep compiling unchanged.
  int nic = -1;
  int rack = -1;

  // A kFlowFlap / kLinkBrownout aimed at a NIC or a rack: it strikes the inter-node tier.
  bool network_scoped() const;
  // The event strikes GPU `gpu`: a fail-stop, a GPU link degrade, a slowdown, or a flap or
  // brownout aimed at gpu<i> (not at a NIC, a rack or the host).
  bool targets_gpu() const;

  // One-line rendering, e.g. "fail@1.500:gpu2" — stable across runs (trace identity).
  std::string ToString() const;
};

// Time-ordered fault schedule. Events inserted out of order are kept sorted (stable on
// insertion order for equal times).
class FaultPlan {
 public:
  FaultPlan() = default;

  void Add(FaultEvent event);
  bool empty() const { return events_.empty(); }
  int size() const { return static_cast<int>(events_.size()); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // Semicolon-joined event list; the canonical trace the determinism tests compare.
  std::string ToString() const;

 private:
  std::vector<FaultEvent> events_;
};

// Parses a `--faults=` spec: semicolon-separated events, each of
//   fail@<t>:gpu<i>                     device fail-stop at time t
//   degrade@<t>:gpu<i>:<scale>:<dur>    GPU link degraded to scale for dur seconds
//   degrade@<t>:host:<scale>:<dur>      all host uplinks degraded
//   mem@<t>:<scale>:<dur>               transient host-memory pressure (swap bw scaled)
//   flow_flap@<t>:<gpu<i>|host|nic<i>|rack<i>>  abort in-flight flows on the target's links
//   brownout@<t>:<gpu<i>|host|nic<i>|rack<i>>:<scale>:<dur>  degrade + flap at onset
//   gpu_slow@<t>:gpu<i>:<scale>:<dur>   device computes at scale of rated flops
//   ckpt_corrupt@<t>                    corrupt the newest host checkpoint generation
//   rand:seed=<s>,mtbf=<sec>,horizon=<sec>[,gpus=<n>][,fail=<0|1>][,ext=<0|1>][,ckpt=<0|1>]
//       [,nics=<n>][,racks=<n>]         seeded RNG-driven schedule over [0, horizon)
// nic<i> / rack<i> target node i's NIC links / rack i's ToR links on multi-node machines
// (flow_flap and brownout only).
// Durations must be > 0 or the literal "inf" (permanent); scales must be in (0, 1].
// Malformed specs return an actionable error carrying the byte offset of the offending
// field instead of crashing.
StatusOr<FaultPlan> ParseFaultSpec(const std::string& spec);

struct RandomFaultOptions {
  std::uint64_t seed = 1;
  double horizon = 10.0;       // generate faults in [0, horizon)
  double mtbf = 5.0;           // mean time between faults (exponential inter-arrivals)
  int num_gpus = 4;            // GPU index range for targeted faults
  bool allow_fail_stop = true; // include permanent device fail-stops (at most one)
  double min_scale = 0.25;     // degradations draw scale from [min_scale, 0.9]
  double mean_duration = 1.0;  // mean degradation duration (exponential)
  // Extended kinds are opt-in so the draw sequence (and hence every pre-existing
  // seeded plan) is unchanged when they are off.
  bool transient = false;      // include flow_flap / brownout / gpu_slow ("ext=1")
  bool ckpt_faults = false;    // include ckpt_corrupt ("ckpt=1")
  // Network-tier targets for flow_flap / brownout draws ("nics="/"racks="). 0 keeps the
  // target draw range (and every pre-existing seeded plan) unchanged.
  int num_nics = 0;
  int num_racks = 0;
};

// Seeded fault schedule: exponential inter-arrival times at rate 1/mtbf, each event a
// degradation (GPU link, host link, or memory pressure) or — at most once, when allowed —
// a device fail-stop. Same options => bitwise-identical plan.
FaultPlan MakeRandomFaultPlan(const RandomFaultOptions& options);

}  // namespace harmony

#endif  // HARMONY_SRC_SIM_FAULT_PLAN_H_
