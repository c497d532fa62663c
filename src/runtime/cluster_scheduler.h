// Multi-tenant cluster scheduler (DESIGN.md §13).
//
// A deterministic job-stream layer over the cluster topology: tenants submit training and
// Computron-style inference-serving jobs (explicit --jobs lists or seeded arrival traces),
// the scheduler gang-schedules them onto free GPU sets under per-tenant host-memory and
// uplink-bandwidth quotas, and preempts lower-priority tenants through the checkpoint
// machinery — checkpoint → release → re-admit → restore, losing zero iterations.
//
// Composition model: every granted segment runs as its own inner session (RunTraining),
// exactly the per-segment structure RunTrainingElastic uses for fail-stop recovery. The
// outer simulator carries only the stream events (arrivals, completions, preemption
// releases), so the stream layer is a pure function of the inner sessions' deterministic
// results (DESIGN.md §10), and each distinct segment shape is simulated once per stream.
// Co-located tenants are isolated by *reservation*, not modeled contention: a tenant's
// bandwidth quota is applied inside its own sessions
// (TransferManager::ApplyUplinkBandwidthQuota) and admission keeps the sum of reserved
// shares per node <= 1; tenants without a reservation are best-effort and their mutual
// interference is deliberately unmodeled (the idealization that keeps per-tenant runs
// composable and deterministic).
#ifndef HARMONY_SRC_RUNTIME_CLUSTER_SCHEDULER_H_
#define HARMONY_SRC_RUNTIME_CLUSTER_SCHEDULER_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace harmony {

enum class JobKind { kTraining, kServing };

// One job in the arrival stream. `iterations` counts training iterations for training
// jobs and request windows (pipeline wavefronts of `microbatches` request batches) for
// serving jobs.
struct JobSpec {
  int id = 0;  // dense index in (arrival, submission) order; assigned by the scheduler
  JobKind kind = JobKind::kTraining;
  double arrival = 0.0;  // sim seconds
  std::string tenant = "t0";
  std::string model = "toy";  // model-zoo name
  Scheme scheme = Scheme::kHarmonyPp;  // forced to kServing for serving jobs
  int gpus = 1;        // gang size; > gpus_per_node must be a whole-node multiple
  int iterations = 2;  // training iterations / serving request windows
  int microbatches = 4;
  int microbatch_size = 2;
  int priority = 0;  // larger = more important (only the priority policy reads it)

  // Canonical --jobs rendering of this job (without the id).
  std::string ToString() const;
};

// ---- grammars (fault_plan-style: typed errors carrying the byte offset) ----

// --jobs: semicolon-separated explicit submissions,
//   (train|serve)@<arrival>:key=value,...
// with keys tenant=<name>, model=<zoo name>, gpus=<n>, iters=<n>, mb=<n>, mbs=<n>,
// prio=<n>, and (train only) scheme=<harmony-pp|harmony-dp|harmony-tp|baseline-dp|
// baseline-pp>. Every key is optional (JobSpec defaults apply); duplicates reject.
StatusOr<std::vector<JobSpec>> ParseJobsSpec(const std::string& spec);

// --trace: seeded arrival-trace generators,
//   poisson:seed=<s>,rate=<jobs/s>,horizon=<sec>[,serve_frac=<0..1>]
//   bursty:seed=<s>,rate=<jobs/s>,horizon=<sec>,burst=<n>,period=<sec>[,serve_frac=..]
//   diurnal:seed=<s>,rate=<jobs/s>,horizon=<sec>,period=<sec>[,serve_frac=..]
// poisson draws exponential inter-arrivals at `rate`; bursty adds a synchronized burst of
// `burst` submissions every `period` seconds on top of the Poisson base; diurnal thins a
// 2x-rate Poisson stream against a sinusoidal day curve of the given period. Job shapes
// (tenant, kind, scheme, gang size, length) are drawn from the same seeded stream, so a
// trace spec is a complete, reproducible workload. `serve_frac` is the probability a job
// is a serving job (default 0.25). Generated jobs use `default_model`; gang sizes respect
// `gpus_per_node` (multi-node gangs are only drawn for data-parallel jobs when the
// cluster has several nodes).
StatusOr<std::vector<JobSpec>> GenerateTrace(const std::string& spec, int gpus_per_node,
                                             int num_nodes,
                                             const std::string& default_model);

// --quota: semicolon-separated per-tenant quotas,
//   <tenant|*>:mem_gib=<g>,bw=<frac>
// mem_gib caps the tenant's aggregate host-memory footprint across *running* jobs
// (weights + gradients + optimizer state per replica; the model state a job stages in
// host memory). bw reserves a fraction (0, 1] of the host-uplink / NIC / rack bandwidth
// for each of the tenant's sessions. `*` sets the default for tenants not listed. Either
// key may be omitted (unlimited memory / full bandwidth).
struct TenantQuota {
  Bytes host_mem_bytes = -1;  // < 0 = unlimited
  double bw_fraction = 1.0;   // (0, 1]; < 1 is a reservation counted by admission
};

struct QuotaMap {
  TenantQuota fallback;                        // the '*' entry
  std::map<std::string, TenantQuota> tenants;  // explicit entries, sorted by name
  const TenantQuota& For(const std::string& tenant) const;
};

StatusOr<QuotaMap> ParseQuotaSpec(const std::string& spec);

// ---- scheduling policies ----
//   fifo:     strict arrival order; the head job waits for enough free GPUs, nothing
//             overtakes it, running jobs are never disturbed.
//   priority: strict (priority desc, arrival, id) order; when the head job cannot be
//             placed it preempts strictly-lower-priority running jobs (checkpoint →
//             release → re-admit), choosing victims lowest-priority-first and
//             most-recently-started-first to minimize disturbed work.
enum class SchedPolicy { kFifo, kPriority };

const char* SchedPolicyName(SchedPolicy policy);
StatusOr<SchedPolicy> SchedPolicyByName(const std::string& name);

struct ClusterSchedulerConfig {
  ServerConfig server;  // per-node shape; server.num_gpus = GPUs per node
  int num_nodes = 1;
  int nodes_per_rack = 0;
  LinkSpec nic_link = Ethernet25G();
  LinkSpec rack_link = Ethernet100G();
  SchedPolicy policy = SchedPolicy::kFifo;
  QuotaMap quotas;
};

// ---- outcomes ----

// One contiguous occupancy of a gang by a job: grant to completion, or grant to
// preemption release (in which case the segment ends with a committed checkpoint and
// `duration` includes the drain up to the release point).
struct SegmentOutcome {
  double start = 0.0;
  double duration = 0.0;  // gang held for [start, start + duration)
  int start_iteration = 0;
  int iterations = 0;  // iterations (or request windows) completed in this segment
  bool preempted = false;
  Bytes swap_in = 0;
  Bytes swap_out = 0;
  Bytes collective = 0;
  Bytes checkpoint = 0;  // checkpoint commit traffic (preempted training segments)
  Bytes restore = 0;     // first-iteration weight/optimizer re-staging (re-admissions)
};

struct JobOutcome {
  JobSpec spec;
  bool completed = false;
  bool quota_deferred = false;  // ever passed over by the memory-quota admission check
  double first_start = -1.0;    // first grant time (-1 = never granted)
  double finish = -1.0;         // completion time (-1 = still queued/running at the end)
  double queue_wait = 0.0;      // total queued time (arrival→grant and release→re-grant)
  double service = 0.0;         // total gang occupancy (sum of segment durations)
  int preemptions = 0;
  int iterations_done = 0;
  int samples_done = 0;  // from the inner plans' samples_per_iteration
  std::vector<SegmentOutcome> segments;
  std::vector<double> iteration_sec;  // per-iteration durations across all segments
};

// Per-tenant SLO rollup: the quantities a capacity planner holds tenants to.
struct TenantSlo {
  std::string tenant;
  int jobs = 0;
  int completed = 0;
  int preemptions = 0;
  int quota_deferred = 0;        // jobs the memory quota ever held back
  double queue_delay_mean = 0.0; // over this tenant's granted jobs
  double queue_delay_p99 = 0.0;  // nearest-rank p99
  double iteration_p99 = 0.0;    // nearest-rank p99 over all completed iterations
  double goodput = 0.0;          // completed samples / cluster makespan
  Bytes swap_bytes = 0;          // swap in + out across the tenant's segments
  Bytes checkpoint_bytes = 0;
  Bytes restore_bytes = 0;
  double gpu_seconds = 0.0;  // sum of segment duration x gang size
};

struct ClusterReport {
  int total_gpus = 0;
  int num_nodes = 0;
  SchedPolicy policy = SchedPolicy::kFifo;
  double makespan = 0.0;  // last completion / release across the stream
  int completed_jobs = 0;
  int preemptions = 0;
  double gpu_seconds_busy = 0.0;
  double utilization = 0.0;  // gpu_seconds_busy / (total_gpus * makespan)
  std::vector<JobOutcome> jobs;     // indexed by job id
  std::vector<TenantSlo> tenants;   // sorted by tenant name
  // Inner sessions actually simulated: one per distinct segment shape of this stream
  // (repeats read the first run). Host-side bookkeeping, so no rendering includes it.
  int sessions_simulated = 0;

  // One-line rollup, the per-tenant SLO table (the --explain view), and the full
  // deterministic rendering (rollup + table + per-job lines) whose bytes the determinism
  // test compares across runs.
  std::string Summary() const;
  std::string RenderTenantTable() const;
  std::string Render() const;
};

// Structured JSON export for cluster runs: schema "harmony-cluster-report" version 1
// (DESIGN.md §13) — run header, per-tenant SLO rollup, and per-job outcomes with their
// segments. Deterministic byte-for-byte under the same formatting rules as ReportToJson
// (fixed key order, integers as integers, doubles as shortest round-trip). Lives here
// rather than report_io because report_io sits below the session layer this depends on.
std::string ClusterReportToJson(const ClusterReport& report);

// Validates a job list against the cluster shape and quota map with typed messages
// (model resolves, gang size placeable, the per-job session config valid). Run before
// RunJobStream to surface bad specs as a Status instead of a crash. Every job gets its
// own checks; the working-set fit probe runs once per iteration-free job shape.
Status ValidateJobs(const std::vector<JobSpec>& jobs, const ClusterSchedulerConfig& config);

// Runs the job stream to completion and returns the per-tenant / per-job report.
// Deterministic: the same inputs give a byte-identical report. Jobs are re-indexed
// in (arrival, submission) order; ids in the report refer to that order.
StatusOr<ClusterReport> RunJobStream(std::vector<JobSpec> jobs,
                                     const ClusterSchedulerConfig& config);

}  // namespace harmony

#endif  // HARMONY_SRC_RUNTIME_CLUSTER_SCHEDULER_H_
