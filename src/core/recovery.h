// Elastic recovery: resume training on the surviving GPUs after a fail-stop.
//
// Harmony's tasks are late-bound to devices, so losing a GPU does not invalidate the
// program — only the binding. The coordinator runs training as a sequence of *segments*:
// each segment re-runs the Task Decomposer + packer against the currently-alive machine
// (Harmony-PP collapses to fewer stages, Harmony-DP shrinks to fewer replicas while
// preserving the total minibatch) and executes it with the remaining fault schedule
// time-shifted into segment-local time. A fail-stop ends the segment; the next one resumes
// from the last committed host checkpoint (rolling back any in-flight microbatches), which
// is why resumed SGD semantics match an uninterrupted run at the same effective batch
// schedule — the property tests/fault_test.cc pins down with the numeric substrate.
#ifndef HARMONY_SRC_CORE_RECOVERY_H_
#define HARMONY_SRC_CORE_RECOVERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/sim/fault_plan.h"
#include "src/util/status.h"

namespace harmony {

// One scheduling epoch between failures (or to completion).
struct RecoverySegment {
  int start_iteration = 0;     // first global iteration this segment executed
  int iterations = 0;          // iterations it was asked to run
  std::vector<int> gpus;       // original GPU indices it ran on
  SessionConfig config;        // the exact rebound configuration (tests replay from this)
  SessionResult result;        // report, plan, fault trace for the segment
};

// Whole-run recovery accounting (sim-time seconds / bytes).
struct RecoveryStats {
  int failures = 0;  // fail-stop rollbacks (the bottom rung of the resilience ladder)
  // ---- degraded-mode ladder (DESIGN.md §11) ----
  // Straggler degradations: segments ended gracefully at an iteration boundary and resumed
  // without touching the checkpoint (no lost work).
  int degradations = 0;
  // Transfer-retry budgets exhausted: rollbacks to the newest valid checkpoint without
  // excluding any device.
  int retry_exhaustions = 0;
  // Checkpoint-integrity outcomes across the whole run (from the shared CheckpointStore).
  int ckpt_verified = 0;
  int ckpt_corrupt_detected = 0;
  // Transfer retries absorbed (reissued flows and their backoff), summed over segments.
  std::int64_t flows_retried = 0;
  double retry_backoff_sec = 0.0;
  // Total rollbacks of any kind (what the chaos bench charts against fault rate).
  int rollbacks() const { return failures + retry_exhaustions; }
  // Sim time of committed-but-lost progress: failure time minus the last checkpoint commit
  // (the rolled-back in-flight microbatches), summed over failures.
  double lost_work_sec = 0.0;
  // Sim time from failure detection to the failed segment's quiet point (abort drain),
  // summed over failures. Rebinding itself is instantaneous in sim time — it happens
  // outside the simulated machine, like a host-side packer rerun.
  double recovery_latency_sec = 0.0;
  // Weight + optimizer bytes re-staged into survivors in each recovery segment's first
  // iteration (the checkpoint fan-out back onto devices).
  Bytes reswap_bytes = 0;
};

struct ElasticResult {
  // Ok when training completed on some surviving set; an error (with the partial segments
  // kept) when recovery is impossible: every GPU dead, a DP shrink that cannot preserve
  // the minibatch, a fail-stop on a multi-node fleet (which cannot shrink), an infeasible
  // survivor configuration, or a watchdog stall.
  Status status;
  std::vector<RecoverySegment> segments;
  RecoveryStats stats;
  double total_makespan = 0.0;    // sum of segment makespans (global sim time)
  // == config.iterations on success; on an error, the iterations kept when recovery
  // stopped (after a rollback, those up to the restored checkpoint).
  int completed_iterations = 0;
  int checkpoints_committed = 0;  // across all segments
  Bytes checkpoint_bytes = 0;

  const RecoverySegment& final_segment() const { return segments.back(); }
  // Segment fault traces joined with "--- segment k ---" headers: the canonical
  // whole-run artifact the determinism tests compare.
  std::string FaultTrace() const;
  // The harmony-elastic-report v1 document (DESIGN.md §8): status, progress and recovery
  // accounting, then one entry per segment with its GPUs, fault trace and ReportToJson.
  // Byte-stable like ReportToJson: the chaos determinism suite compares it across runs.
  std::string ToJson() const;
};

// Runs training under `config`, recovering from injected GPU fail-stops by rebinding onto
// the survivors. With no faults armed this degenerates to exactly one RunTraining call on
// `config`: nothing can roll back, so no checkpoint store is attached.
// Only a single-server run rebinds; a multi-node fleet keeps its shape in every segment,
// so a straggler there finishes degraded instead of being excluded.
// Each segment is built once by PrepareSession. An invalid `config` and an infeasible
// rebound configuration both surface in `status`, not as crashes; when the first segment
// cannot be built, `segments` is empty.
ElasticResult RunTrainingElastic(const Model& model, const SessionConfig& config);

// Rewrites `plan` into the frame of a recovery segment starting at global sim time
// `offset` on the surviving GPUs: events for dead GPUs are dropped, already-struck
// fail-stops are dropped, in-progress degradations are re-applied at local time 0 with
// their remaining duration, and GPU targets are renumbered to survivor-local indices.
// `dead[g]` marks original GPU g as failed; `alive` lists surviving original indices in
// ascending order. Exposed for the fault determinism tests.
FaultPlan ShiftFaultPlan(const FaultPlan& plan, double offset, const std::vector<bool>& dead,
                         const std::vector<int>& alive);

}  // namespace harmony

#endif  // HARMONY_SRC_CORE_RECOVERY_H_
