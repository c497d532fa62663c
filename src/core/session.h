// Session: the public entry point ("users target a single virtual device with practically
// unbounded memory"). Give it a model and a configuration; it assembles the simulated
// machine, decomposes the program into tasks under the chosen parallelization scheme,
// applies the matching memory policy, executes the plan, and returns the measured report.
#ifndef HARMONY_SRC_CORE_SESSION_H_
#define HARMONY_SRC_CORE_SESSION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/graph/model.h"
#include "src/graph/task.h"
#include "src/hw/topology.h"
#include "src/mem/memory_manager.h"
#include "src/runtime/engine.h"
#include "src/runtime/metrics.h"
#include "src/sim/fault_plan.h"
#include "src/util/status.h"

namespace harmony {

enum class Scheme {
  kBaselineDp,  // DDP + LMS-style per-GPU virtualization
  kBaselinePp,  // 1F1B stages + per-GPU virtualization
  kHarmonyDp,
  kHarmonyPp,
  kHarmonyTp,  // intra-op (tensor-parallel) splitting
  kServing,    // forward-only inference pipeline (Computron-style model swapping)
};

// Every scheme and its user-facing name, in declaration order: the one list that
// SchemeName, SchemeByName and every message naming the schemes read.
struct SchemeNameEntry {
  Scheme scheme;
  const char* name;
};
inline constexpr SchemeNameEntry kSchemeNames[] = {
    {Scheme::kBaselineDp, "baseline-dp"}, {Scheme::kBaselinePp, "baseline-pp"},
    {Scheme::kHarmonyDp, "harmony-dp"},   {Scheme::kHarmonyPp, "harmony-pp"},
    {Scheme::kHarmonyTp, "harmony-tp"},   {Scheme::kServing, "serving"},
};

const char* SchemeName(Scheme scheme);

// Inverse of SchemeName: resolves a user-facing scheme string (flag values, job specs)
// with a typed error that lists every scheme. Accepts every scheme, including "serving".
StatusOr<Scheme> SchemeByName(const std::string& name);

struct SessionConfig {
  ServerConfig server;
  Scheme scheme = Scheme::kHarmonyPp;

  // Multi-node scale-out (DESIGN.md §12). num_nodes = 1 keeps the exact single-server
  // machine (and event sequence) of pre-cluster builds; > 1 replicates `server` per node
  // behind a NIC + top-of-rack fabric. GPUs are indexed globally, node-major.
  int num_nodes = 1;
  int nodes_per_rack = 0;              // 0 = one rack holds every node
  LinkSpec nic_link = Ethernet25G();   // host <-> NIC <-> ToR
  LinkSpec rack_link = Ethernet100G(); // ToR <-> spine (only built with > 1 rack)

  // Widened before multiplying so an unvalidated config can't trip signed-overflow UB;
  // ValidateSessionConfig bounds the product by kMaxClusterGpus, so the narrowing is
  // lossless for any config that passes validation.
  int total_gpus() const {
    return static_cast<int>(std::int64_t{num_nodes} * server.num_gpus);
  }

  // Workload shape: `microbatches` is per GPU for DP schemes and the whole minibatch for PP
  // schemes (matching the paper's "m microbatches per GPU, minibatch of mN microbatches").
  int microbatches = 1;
  int microbatch_size = 1;
  int iterations = 3;

  // Harmony knobs (ignored by baselines).
  int pack_size = 1;
  bool grouping = true;
  int group_size = 0;  // microbatches per input-batch group (PP); 0 = whole minibatch
  bool jit_updates = true;
  bool p2p = true;
  bool balanced_packing = false;
  bool recompute = false;
  // Scheduler-informed (Belady) eviction instead of LRU: the memory manager evicts the
  // tensor whose next scheduled use is farthest away. Off by default so the analytic LRU
  // model stays exact; an ablation quantifies the win.
  bool lookahead_eviction = false;
  // Cross-check every indexed eviction pick against the O(residents) reference scan (fatal
  // on divergence). Testing hook for the randomized churn suite; far too slow for benches.
  bool audit_eviction = false;

  // Engine knobs.
  bool prefetch = true;
  bool record_timeline = false;

  // ---- fault tolerance (defaults keep the failure-free path byte-identical) ----
  FaultPlan faults;               // injected hardware anomalies; empty = none
  int checkpoint_every = 0;       // host-checkpoint weights every k iterations (0 = never)
  bool checkpoint_final = false;  // also commit the checkpoint landing on the last
                                  // iteration (preemption drains end with that commit)
  double watchdog_timeout = 0.0;  // flag a stalled schedule after this much sim time (0 = off)

  // ---- degraded-mode resilience (DESIGN.md §11; defaults keep everything off) ----
  // Transfer retry budget: total issues allowed per flow (0 = retries off, transient flow
  // aborts escalate immediately like pre-retry builds).
  int retry_max = 0;
  double retry_base = 0.001;  // base backoff delay in sim seconds (cap = 64x base)
  // Checkpoint generations retained for integrity verification (ring buffer depth).
  int ckpt_keep = 2;
  // EWMA(actual/expected service time) straggler threshold (0 = monitor off; must be > 1
  // when set — a healthy device sits at exactly 1.0).
  double straggler_threshold = 0.0;
  // Ring buffer receiving committed checkpoint generations; owned by the recovery
  // coordinator (RunTrainingElastic). nullptr = commits are not retained/verified.
  CheckpointStore* checkpoint_store = nullptr;

  // ---- multi-tenant quota (DESIGN.md §13; default keeps every run byte-identical) ----
  // Fraction of host-uplink (PCIe host links) and NIC/rack bandwidth this session may
  // draw. The cluster scheduler sets it to a tenant's reserved share so co-located jobs
  // compose without modeling cross-session contention; 1.0 = the whole machine (exact
  // pre-quota behavior and event sequence).
  double uplink_bw_fraction = 1.0;

  // Overrides the scheme-derived memory policy when set (ablations).
  std::optional<MemoryPolicy> policy;
};

struct SessionResult {
  RunReport report;
  Plan plan;
  std::vector<TaskTrace> timeline;             // non-empty iff record_timeline
  std::vector<Bytes> peak_task_working_set;    // per device
  std::vector<Bytes> memory_demand_per_device; // sum of live-tensor peak, see Fig. 2(c)
  std::string fault_trace;                     // applied-fault log (empty without faults)
  std::vector<ChurnEvent> churn_audit_log;     // non-empty iff audit_eviction: every swap-in,
                                               // eviction, write-back, and p2p fetch in order
};

// A validated session, built once. RunTraining consumes it by move, so nothing may keep a
// pointer into it across that call.
struct PreparedSession {
  SessionConfig config;
  Machine machine;
  TensorRegistry registry;
  Plan plan;
  std::vector<Bytes> peak_task_working_set;  // per device
};

// ValidateSessionConfig for a session about to run: the same checks and error messages, but
// the fit check reads the peaks of the one machine and full plan it builds and returns.
StatusOr<PreparedSession> PrepareSession(const Model& model, const SessionConfig& config);

// Everything PrepareSession and ValidateSessionConfig check before they build: workload
// shape, scheme constraints, resilience knobs and fault targets. Cheap; builds nothing.
Status CheckSessionShape(const Model& model, const SessionConfig& config);

// Validates user-reachable configuration (everything the harmony_sim flags can set) with
// actionable messages instead of crashing: positive workload shape, scheme constraints,
// fault-spec targets within the machine, and single-task working-set fit. Builds only the
// one-iteration ProbePeakWorkingSet; the other checks see the real iteration count.
Status ValidateSessionConfig(const Model& model, const SessionConfig& config);

// Runs a prepared session on the engine, which first runs the cheap static lint. With
// `config.faults` armed the run does not crash on failure: the report comes back with
// `failed` set (see RunTrainingElastic in core/recovery.h for the resume-on-survivors path).
SessionResult RunTraining(PreparedSession session);

// PrepareSession + RunTraining. Fatal, with the validation message, on a configuration
// PrepareSession rejects; call PrepareSession first to get a Status instead.
SessionResult RunTraining(const Model& model, const SessionConfig& config);

// Convenience: the memory policy a scheme runs under by default.
MemoryPolicy DefaultPolicyFor(Scheme scheme, bool p2p);

// The simulated machine `config` describes: the single commodity server when num_nodes <= 1
// (byte-identical to pre-cluster builds), otherwise a cluster of `num_nodes` copies of
// `config.server` behind the NIC / rack fabric.
Machine MakeSessionMachine(const SessionConfig& config);

// Builds just the plan for `config` (no execution) against `registry`; exposed for tests and
// tools that inspect a plan without running it.
Plan BuildPlanForConfig(const Model& model, const Machine& machine, TensorRegistry* registry,
                        const SessionConfig& config);

// Largest single-task working set per device for `config`, without running anything. Builds
// a one-iteration copy of `config`: every iteration repeats the same tasks over tensors of
// the same sizes, so its peaks equal those of the full plan at any iteration count
// (session_test checks this over the model zoo and the fuzz grid).
std::vector<Bytes> ProbePeakWorkingSet(const Model& model, const SessionConfig& config);

}  // namespace harmony

#endif  // HARMONY_SRC_CORE_SESSION_H_
