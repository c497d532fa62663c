#include "src/runtime/cluster_scheduler.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>

#include "src/graph/model_zoo.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/spec_grammar.h"
#include "src/util/table.h"
#include "src/util/units.h"

namespace harmony {
namespace {

// Reserved shares on one node may not exceed the full link; the epsilon absorbs the
// floating-point dust of summing parsed fractions.
constexpr double kReservationEps = 1e-9;

// Generated traces are bounded so a fat-fingered rate can't silently turn into a
// multi-hour simulation; the limit is far above any bench or test workload.
constexpr int kMaxTraceJobs = 4096;

// The shared shape of the non-negative fields (arrival times, quota sizes).
StatusOr<double> ParseNonNegative(const SpecGrammar& g, const SpecField& field,
                                  const std::string& key) {
  return g.Number(field, key, "a finite number >= 0", [](double v) { return v >= 0.0; });
}

bool ValidTenantName(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string JobSpec::ToString() const {
  std::string out = kind == JobKind::kServing ? "serve@" : "train@";
  // The JSON number rule: bursty-trace arrivals staggered by 1e-3 at large t stay distinct.
  out += JsonNumber(arrival);
  out += ":tenant=" + tenant;
  out += ",model=" + model;
  if (kind == JobKind::kTraining) {
    out += ",scheme=" + std::string(SchemeName(scheme));
  }
  out += ",gpus=" + std::to_string(gpus);
  out += ",iters=" + std::to_string(iterations);
  out += ",mb=" + std::to_string(microbatches);
  out += ",mbs=" + std::to_string(microbatch_size);
  out += ",prio=" + std::to_string(priority);
  return out;
}

StatusOr<std::vector<JobSpec>> ParseJobsSpec(const std::string& spec) {
  const SpecGrammar g("malformed jobs spec", "--jobs grammar");
  std::vector<JobSpec> jobs;
  for (const SpecField& entry : SplitSpec(spec, ';')) {
    if (entry.text.empty()) {
      continue;
    }
    const auto at = entry.text.find('@');
    if (at == std::string::npos) {
      return g.Error(entry.offset, "expected (train|serve)@<arrival>[:key=value,...], got '" +
                                       entry.text + "'");
    }
    JobSpec job;
    const std::string kind = entry.text.substr(0, at);
    if (kind == "train") {
      job.kind = JobKind::kTraining;
    } else if (kind == "serve") {
      job.kind = JobKind::kServing;
      job.scheme = Scheme::kServing;
      job.microbatch_size = 1;
    } else {
      return g.Error(entry.offset, "job kind must be 'train' or 'serve', got '" + kind + "'");
    }
    const auto colon = entry.text.find(':', at + 1);
    // With no ':', colon - at - 1 runs past the end and substr clamps it.
    const SpecField when{entry.text.substr(at + 1, colon - at - 1), entry.offset + at + 1};
    const StatusOr<double> arrival = ParseNonNegative(g, when, "arrival time");
    HARMONY_RETURN_IF_ERROR(arrival.status());
    job.arrival = arrival.value();
    if (colon == std::string::npos) {
      jobs.push_back(std::move(job));
      continue;
    }
    HARMONY_RETURN_IF_ERROR(g.ParseKeyValues(
        SpecField{entry.text.substr(colon + 1), entry.offset + colon + 1}, "job option",
        {{"tenant",
          [&](const SpecField& v) {
            if (!ValidTenantName(v.text)) {
              return g.Error(v.offset, "tenant must be a nonempty [A-Za-z0-9_.-]+ name, got '" +
                                           v.text + "'");
            }
            job.tenant = v.text;
            return Status::Ok();
          }},
         {"model",
          [&](const SpecField& v) {
            if (v.text.empty()) {
              return g.Error(v.offset, "model must be nonempty");
            }
            job.model = v.text;
            return Status::Ok();
          }},
         {"scheme",
          [&](const SpecField& v) {
            if (job.kind == JobKind::kServing) {
              // The error names the whole "scheme=" entry, which starts 7 bytes earlier.
              return g.Error(v.offset - 7, "serving jobs have a fixed scheme; drop 'scheme='");
            }
            const StatusOr<Scheme> scheme = SchemeByName(v.text);
            if (!scheme.ok() || scheme.value() == Scheme::kServing) {
              std::string training;
              for (const auto& [named, name] : kSchemeNames) {
                if (named != Scheme::kServing) {
                  training += (training.empty() ? "" : ", ") + std::string(name);
                }
              }
              return g.Error(v.offset, "unknown training scheme '" + v.text +
                                           "' (serving jobs use serve@; training schemes "
                                           "are " + training + ")");
            }
            job.scheme = scheme.value();
            return Status::Ok();
          }},
         g.IntKey("gpus", 1, kMaxSpecCount, &job.gpus),
         g.IntKey("iters", 1, kMaxSpecCount, &job.iterations),
         g.IntKey("mb", 1, kMaxSpecCount, &job.microbatches),
         g.IntKey("mbs", 1, kMaxSpecCount, &job.microbatch_size),
         g.IntKey("prio", 0, kMaxSpecCount, &job.priority)}));
    jobs.push_back(std::move(job));
  }
  return jobs;
}

StatusOr<std::vector<JobSpec>> GenerateTrace(const std::string& spec, int gpus_per_node,
                                             int num_nodes,
                                             const std::string& default_model) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon == std::string::npos ? spec.size() : colon);
  const bool poisson = kind == "poisson";
  const bool bursty = kind == "bursty";
  const bool diurnal = kind == "diurnal";
  const SpecGrammar g("malformed trace spec", "--trace grammar");
  if (!poisson && !bursty && !diurnal) {
    return g.Error(0, "trace kind must be poisson, bursty, or diurnal, got '" + kind + "'");
  }
  bool has_seed = false;
  std::uint64_t seed = 0;
  // rate=, horizon=, burst= and period= reject zero, so zero means the key was not given.
  double rate = 0.0, horizon = 0.0, serve_frac = 0.25, period = 0.0;
  int burst = 0;
  if (colon != std::string::npos) {
    const auto positive = [](double v) { return v > 0.0; };
    HARMONY_RETURN_IF_ERROR(g.ParseKeyValues(
        SpecField{spec.substr(colon + 1), colon + 1}, "trace option",
        {{"seed",
          [&](const SpecField& v) {
            has_seed = true;
            return g.SeedKey("seed", &seed).parse(v);
          }},
         g.NumberKey("rate", &rate, "> 0 jobs/s", positive),
         g.NumberKey("horizon", &horizon, "> 0 seconds", positive),
         g.NumberKey("serve_frac", &serve_frac, "in [0, 1]",
                     [](double v) { return v >= 0.0 && v <= 1.0; }),
         g.IntKey("burst", 1, kMaxTraceJobs, &burst),
         g.NumberKey("period", &period, "> 0 seconds", positive)}));
  }
  if (!has_seed || rate == 0.0 || horizon == 0.0) {
    return g.Error(0, "seed=, rate=, and horizon= are required");
  }
  if (bursty && (burst == 0 || period == 0.0)) {
    return g.Error(0, "bursty traces require burst= and period=");
  }
  if (diurnal && period == 0.0) {
    return g.Error(0, "diurnal traces require period=");
  }
  if (poisson && (burst != 0 || period != 0.0)) {
    return g.Error(0, "burst=/period= do not apply to poisson traces");
  }
  // Diurnal *requires* period=, so only burst= is foreign there.
  if (diurnal && burst != 0) {
    return g.Error(0, "burst= only applies to bursty traces");
  }

  Rng rng(seed);
  std::vector<double> arrivals;
  // Exponential inter-arrivals (the fault_plan MTBF idiom); diurnal thins a 2x-rate
  // stream against the sinusoidal day curve, so the *expected* rate integrates to `rate`.
  const double base_rate = diurnal ? 2.0 * rate : rate;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / base_rate;
    if (t > horizon) {
      break;
    }
    if (diurnal &&
        !(rng.NextDouble() < 0.5 * (1.0 + std::sin(2.0 * 3.141592653589793 * t / period)))) {
      continue;
    }
    arrivals.push_back(t);
    if (static_cast<int>(arrivals.size()) > kMaxTraceJobs) {
      return g.Error(0, "trace generates more than " + std::to_string(kMaxTraceJobs) +
                            " jobs; lower rate or horizon");
    }
  }
  if (bursty) {
    for (double b = period; b <= horizon; b += period) {
      for (int i = 0; i < burst; ++i) {
        // A millisecond stagger keeps burst arrivals distinct (and the event order
        // independent of submission index tie-breaking).
        arrivals.push_back(b + 1e-3 * static_cast<double>(i));
      }
      if (static_cast<int>(arrivals.size()) > kMaxTraceJobs) {
        return g.Error(0, "trace generates more than " + std::to_string(kMaxTraceJobs) +
                              " jobs; lower rate, burst, or horizon");
      }
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end());

  std::vector<JobSpec> jobs;
  jobs.reserve(arrivals.size());
  for (double when : arrivals) {
    JobSpec job;
    job.arrival = when;
    job.model = default_model;
    job.tenant = "t" + std::to_string(rng.NextBounded(4));
    job.priority = static_cast<int>(rng.NextBounded(3));
    const bool serving = rng.NextDouble() < serve_frac;
    if (serving) {
      job.kind = JobKind::kServing;
      job.scheme = Scheme::kServing;
      // Small pipeline gangs: serving packs models onto few GPUs and relies on swapping.
      job.gpus = std::min(gpus_per_node, 1 << static_cast<int>(rng.NextBounded(2)));
      job.iterations = 1 + static_cast<int>(rng.NextBounded(3));
      job.microbatches = 2 + static_cast<int>(rng.NextBounded(3));
      job.microbatch_size = 1;
    } else {
      job.kind = JobKind::kTraining;
      const bool dp = rng.NextBounded(2) == 0;
      job.scheme = dp ? Scheme::kHarmonyDp : Scheme::kHarmonyPp;
      if (dp && num_nodes > 1 && rng.NextBounded(4) == 0) {
        job.gpus = 2 * gpus_per_node;  // whole-node gang pair: exercises NIC-tier traffic
      } else {
        const int cap = std::min(gpus_per_node, 4);
        int pick = 1 << static_cast<int>(rng.NextBounded(3));
        job.gpus = std::min(pick, cap);
      }
      job.iterations = 2 + static_cast<int>(rng.NextBounded(3));
      job.microbatches = 2 + static_cast<int>(rng.NextBounded(3));
      job.microbatch_size = 1 + static_cast<int>(rng.NextBounded(2));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

const TenantQuota& QuotaMap::For(const std::string& tenant) const {
  const auto it = tenants.find(tenant);
  return it == tenants.end() ? fallback : it->second;
}

StatusOr<QuotaMap> ParseQuotaSpec(const std::string& spec) {
  const SpecGrammar g("malformed quota spec", "--quota grammar");
  QuotaMap out;
  bool seen_fallback = false;
  for (const SpecField& entry : SplitSpec(spec, ';')) {
    if (entry.text.empty()) {
      continue;
    }
    const auto colon = entry.text.find(':');
    if (colon == std::string::npos) {
      return g.Error(entry.offset, "expected <tenant|*>:key=value[,key=value], got '" +
                                       entry.text + "'");
    }
    const std::string tenant = entry.text.substr(0, colon);
    if (tenant != "*" && !ValidTenantName(tenant)) {
      return g.Error(entry.offset,
                     "tenant must be '*' or a [A-Za-z0-9_.-]+ name, got '" + tenant + "'");
    }
    if (tenant == "*" ? seen_fallback : out.tenants.count(tenant) > 0) {
      return g.Error(entry.offset, "duplicate quota for tenant '" + tenant + "'");
    }
    TenantQuota quota;
    HARMONY_RETURN_IF_ERROR(g.ParseKeyValues(
        SpecField{entry.text.substr(colon + 1), entry.offset + colon + 1}, "quota option",
        {{"mem_gib",
          [&](const SpecField& v) {
            const StatusOr<double> gib = ParseNonNegative(g, v, "mem_gib");
            if (gib.ok()) {
              quota.host_mem_bytes = static_cast<Bytes>(gib.value() * static_cast<double>(kGiB));
            }
            return gib.status();
          }},
         g.NumberKey("bw", &quota.bw_fraction, "a bandwidth fraction in (0, 1]",
                     [](double v) { return v > 0.0 && v <= 1.0; })}));
    if (tenant == "*") {
      seen_fallback = true;
      out.fallback = quota;
    } else {
      out.tenants.emplace(tenant, quota);
    }
  }
  return out;
}

const char* SchedPolicyName(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::kFifo:
      return "fifo";
    case SchedPolicy::kPriority:
      return "priority";
  }
  return "unknown";
}

StatusOr<SchedPolicy> SchedPolicyByName(const std::string& name) {
  if (name == "fifo") {
    return SchedPolicy::kFifo;
  }
  if (name == "priority") {
    return SchedPolicy::kPriority;
  }
  return InvalidArgumentError("unknown scheduling policy '" + name +
                              "' (expected fifo or priority)");
}

namespace {

// The host-memory footprint a job pins for its whole residency: the model state staged in
// host memory per replica (weights, and for training gradients + optimizer state).
// Activations and stashes churn through the same pool but are transient; the quota is a
// *state* reservation, which is also what makes admission a pure function of the spec.
Bytes JobHostFootprint(const Model& model, const JobSpec& job) {
  Bytes per_replica = model.total_param_bytes();
  if (job.kind == JobKind::kTraining) {
    per_replica += model.total_grad_bytes() + model.total_opt_state_bytes();
  }
  const bool data_parallel =
      job.scheme == Scheme::kBaselineDp || job.scheme == Scheme::kHarmonyDp;
  return per_replica * (data_parallel ? job.gpus : 1);
}

// Everything that varies between the inner sessions of one stream; the stream config is
// the rest, and it is constant for one scheduler. InnerConfig reads nothing else, so two
// segments of equal shape are byte-identical sessions (DESIGN.md §10).
struct SegmentShape {
  std::string model;
  Scheme scheme = Scheme::kHarmonyPp;
  int gpus = 1;
  int microbatches = 1;
  int microbatch_size = 1;
  double bw_fraction = 1.0;  // the tenant's uplink share
  int iterations = 0;
  bool drain_checkpoint = false;  // a preemption drain that commits its last iteration

  auto operator<=>(const SegmentShape&) const = default;
};

SegmentShape ShapeOf(const JobSpec& job, const QuotaMap& quotas, int iterations) {
  return {job.model, job.scheme, job.gpus, job.microbatches, job.microbatch_size,
          quotas.For(job.tenant).bw_fraction, iterations, /*drain_checkpoint=*/false};
}

// The inner-session configuration for one segment. Sub-node gangs run on a truncated
// single server; whole-node gangs replicate the full per-node shape behind the NIC / rack
// fabric, mirroring where the gang would physically land.
SessionConfig InnerConfig(const SegmentShape& shape, const ClusterSchedulerConfig& config) {
  SessionConfig inner;
  inner.server = config.server;
  const int node_gpus = config.server.num_gpus;
  if (shape.gpus <= node_gpus) {
    inner.server.num_gpus = shape.gpus;
    inner.num_nodes = 1;
  } else {
    inner.num_nodes = shape.gpus / node_gpus;
    inner.nodes_per_rack = config.nodes_per_rack == 0
                               ? 0
                               : std::min(config.nodes_per_rack, inner.num_nodes);
    inner.nic_link = config.nic_link;
    inner.rack_link = config.rack_link;
  }
  inner.scheme = shape.scheme;
  inner.microbatches = shape.microbatches;
  inner.microbatch_size = shape.microbatch_size;
  inner.iterations = shape.iterations;
  inner.pack_size = 1;
  inner.uplink_bw_fraction = shape.bw_fraction;
  if (shape.drain_checkpoint) {
    inner.checkpoint_every = shape.iterations;  // commit a checkpoint at the cut...
    inner.checkpoint_final = true;  // ...even though the cut is the drain's last iteration
  }
  return inner;
}

// The slice of an inner-session result the stream layer keeps (the full SessionResult
// holds the plan and per-device vectors — far more than the scheduler needs).
struct InnerRun {
  double makespan = 0.0;
  int samples_per_iteration = 0;
  Bytes swap_in = 0;
  Bytes swap_out = 0;
  Bytes collective = 0;
  Bytes checkpoint = 0;
  Bytes iter0_state_swap_in = 0;  // weight + optimizer-state staging in iteration 0
  std::vector<double> iter_ends;  // per-iteration end times, relative to segment start
};

InnerRun RunInner(const Model& model, const SessionConfig& config) {
  const SessionResult result = RunTraining(model, config);
  HCHECK(!result.report.failed) << "inner session failed without faults armed: "
                                << result.report.failure_kind;
  InnerRun run;
  run.makespan = result.report.makespan;
  run.samples_per_iteration = result.plan.samples_per_iteration;
  run.swap_in = result.report.total_swap_in;
  run.swap_out = result.report.total_swap_out;
  run.collective = result.report.total_collective;
  run.checkpoint = result.report.checkpoint_bytes;
  if (!result.report.iterations.empty()) {
    const IterationStats& first = result.report.iterations.front();
    run.iter0_state_swap_in =
        first.swap_in_by_class[static_cast<int>(TensorClass::kWeight)] +
        first.swap_in_by_class[static_cast<int>(TensorClass::kOptimizerState)];
  }
  run.iter_ends.reserve(result.report.iterations.size());
  for (const IterationStats& it : result.report.iterations) {
    run.iter_ends.push_back(it.end_time);
  }
  return run;
}

enum class Phase { kPending, kQueued, kRunning, kDraining, kDone };

struct JobState {
  JobSpec spec;
  Model model = Model("", 0);
  Bytes footprint = 0;
  double reservation = 0.0;  // bw share counted by admission (0 when unreserved)
  Phase phase = Phase::kPending;
  int epoch = 0;  // bumped to cancel in-flight completion/release events
  double enqueue_time = 0.0;
  int iterations_done = 0;
  std::vector<int> nodes;  // nodes held while kRunning / kDraining
  int gpus_per_held_node = 0;
  double seg_start = 0.0;
  int seg_planned = 0;
  const InnerRun* seg_run = nullptr;  // the open segment's session, owned by the memo
  SegmentOutcome pending;  // open segment, finalized at completion or release
  JobOutcome out;
};

class ClusterScheduler {
 public:
  ClusterScheduler(std::vector<JobState> jobs, const ClusterSchedulerConfig& config)
      : config_(config),
        node_free_(static_cast<std::size_t>(config.num_nodes), config.server.num_gpus),
        node_reserved_(static_cast<std::size_t>(config.num_nodes), 0.0),
        jobs_(std::move(jobs)) {}

  ClusterReport Run() {
    // Arrival order is fixed up front, so the (when, seq) event order — hence every grant
    // decision — is a pure function of the job list (DESIGN.md §10).
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const int id = static_cast<int>(i);
      sim_.ScheduleAt(jobs_[i].spec.arrival, [this, id] { OnArrival(id); });
    }
    sim_.RunUntilIdle();

    ClusterReport report;
    // ValidateJobs bounds the widened product by kMaxClusterGpus, so the narrowing fits.
    report.total_gpus =
        static_cast<int>(std::int64_t{config_.num_nodes} * config_.server.num_gpus);
    report.num_nodes = config_.num_nodes;
    report.policy = config_.policy;
    for (JobState& job : jobs_) {
      HCHECK(job.phase == Phase::kDone)
          << "job stream ended with job " << job.spec.id << " in a non-terminal phase";
      report.makespan = std::max(report.makespan, job.out.finish);
      report.preemptions += job.out.preemptions;
      if (job.out.completed) {
        ++report.completed_jobs;
      }
      for (const SegmentOutcome& seg : job.out.segments) {
        report.gpu_seconds_busy += seg.duration * static_cast<double>(job.spec.gpus);
      }
      report.jobs.push_back(std::move(job.out));
    }
    if (report.makespan > 0.0 && report.total_gpus > 0) {
      report.utilization =
          report.gpu_seconds_busy /
          (report.makespan * static_cast<double>(report.total_gpus));
    }
    RollupTenants(&report);
    report.sessions_simulated = static_cast<int>(runs_.size());
    return report;
  }

 private:
  // The session of one segment shape, simulated on first use. An inner session is a pure
  // function of its shape and config_, so a repeat reads the first run. std::map nodes
  // never move, so the reference stays valid for the scheduler's life.
  const InnerRun& Simulate(const Model& model, const SegmentShape& shape) {
    const auto [it, inserted] = runs_.try_emplace(shape);
    if (inserted) {
      it->second = RunInner(model, InnerConfig(shape, config_));
    }
    return it->second;
  }

  void OnArrival(int id) {
    JobState& job = jobs_[static_cast<std::size_t>(id)];
    job.phase = Phase::kQueued;
    job.enqueue_time = sim_.now();
    queue_.push_back(id);
    TrySchedule();
  }

  void OnComplete(int id, int epoch) {
    JobState& job = jobs_[static_cast<std::size_t>(id)];
    if (job.epoch != epoch) {
      return;  // preempted after this completion was scheduled
    }
    HCHECK(job.phase == Phase::kRunning || job.phase == Phase::kDraining);
    if (job.phase == Phase::kDraining) {
      // A final-iteration-in-flight drain ends here, not in OnRelease: the counter must
      // drop or priority preemption stays gated off for the rest of the stream.
      --draining_;
    }
    FinalizeSegment(&job, /*duration=*/job.seg_run->makespan, /*iterations=*/job.seg_planned,
                    /*preempted=*/false);
    job.out.completed = true;
    job.out.finish = sim_.now();
    ReleaseGang(&job);
    job.phase = Phase::kDone;
    TrySchedule();
  }

  void OnRelease(int id, int epoch) {
    JobState& job = jobs_[static_cast<std::size_t>(id)];
    if (job.epoch != epoch || job.phase != Phase::kDraining) {
      return;
    }
    ReleaseGang(&job);
    job.phase = Phase::kQueued;
    job.enqueue_time = sim_.now();
    queue_.push_back(id);
    --draining_;
    TrySchedule();
  }

  // Queue order under the active policy: fifo = (arrival, id); priority = (priority
  // desc, arrival, id). Ids break every tie, so the order is total and deterministic.
  std::vector<int> QueueOrder() const {
    std::vector<int> order = queue_;
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      const JobSpec& ja = jobs_[static_cast<std::size_t>(a)].spec;
      const JobSpec& jb = jobs_[static_cast<std::size_t>(b)].spec;
      if (config_.policy == SchedPolicy::kPriority && ja.priority != jb.priority) {
        return ja.priority > jb.priority;
      }
      if (ja.arrival != jb.arrival) {
        return ja.arrival < jb.arrival;
      }
      return a < b;
    });
    return order;
  }

  bool MemQuotaBlocks(const JobState& job) const {
    const TenantQuota& quota = config_.quotas.For(job.spec.tenant);
    if (quota.host_mem_bytes < 0) {
      return false;
    }
    Bytes used = 0;
    for (const JobState& other : jobs_) {
      if ((other.phase == Phase::kRunning || other.phase == Phase::kDraining) &&
          other.spec.tenant == job.spec.tenant) {
        used += other.footprint;
      }
    }
    return used + job.footprint > quota.host_mem_bytes;
  }

  // First-fit gang placement over `free` / `reserved` (lowest node indices win):
  // sub-node gangs take the first node with enough free GPUs and bandwidth headroom;
  // whole-node gangs take the first k fully-free nodes.
  bool FindPlacement(const JobState& job, const std::vector<int>& free,
                     const std::vector<double>& reserved, std::vector<int>* nodes) const {
    nodes->clear();
    const int node_gpus = config_.server.num_gpus;
    const bool headroom_needed = job.reservation > 0.0;
    if (job.spec.gpus <= node_gpus) {
      for (int n = 0; n < config_.num_nodes; ++n) {
        if (free[static_cast<std::size_t>(n)] >= job.spec.gpus &&
            (!headroom_needed ||
             reserved[static_cast<std::size_t>(n)] + job.reservation <=
                 1.0 + kReservationEps)) {
          nodes->push_back(n);
          return true;
        }
      }
      return false;
    }
    const int k = job.spec.gpus / node_gpus;
    for (int n = 0; n < config_.num_nodes && static_cast<int>(nodes->size()) < k; ++n) {
      if (free[static_cast<std::size_t>(n)] == node_gpus &&
          (!headroom_needed ||
           reserved[static_cast<std::size_t>(n)] + job.reservation <=
               1.0 + kReservationEps)) {
        nodes->push_back(n);
      }
    }
    if (static_cast<int>(nodes->size()) == k) {
      return true;
    }
    nodes->clear();
    return false;
  }

  void TrySchedule() {
    bool granted = true;
    while (granted) {
      granted = false;
      for (int id : QueueOrder()) {
        JobState& job = jobs_[static_cast<std::size_t>(id)];
        if (MemQuotaBlocks(job)) {
          // Memory quota is a tenant self-limit: the job steps aside (and is marked
          // deferred) instead of blocking other tenants behind it.
          job.out.quota_deferred = true;
          continue;
        }
        std::vector<int> nodes;
        if (FindPlacement(job, node_free_, node_reserved_, &nodes)) {
          Grant(&job, nodes);
          granted = true;
          break;  // state changed: recompute the queue order from scratch
        }
        // The head of the order is GPU-blocked. FIFO lets nothing overtake it; priority
        // preempts strictly-lower-priority gangs for it (once any in-flight drains have
        // settled) and likewise admits nothing past it while it waits.
        if (config_.policy == SchedPolicy::kPriority && draining_ == 0) {
          TryPreempt(job);
        }
        break;
      }
    }
  }

  void TryPreempt(JobState& head) {
    std::vector<int> victims;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const JobState& other = jobs_[i];
      if (other.phase == Phase::kRunning && other.spec.priority < head.spec.priority) {
        victims.push_back(static_cast<int>(i));
      }
    }
    // Lowest priority first; among equals, the most recently started segment (least
    // disturbed work), then the highest id — a total, deterministic order.
    std::sort(victims.begin(), victims.end(), [this](int a, int b) {
      const JobState& ja = jobs_[static_cast<std::size_t>(a)];
      const JobState& jb = jobs_[static_cast<std::size_t>(b)];
      if (ja.spec.priority != jb.spec.priority) {
        return ja.spec.priority < jb.spec.priority;
      }
      if (ja.seg_start != jb.seg_start) {
        return ja.seg_start > jb.seg_start;
      }
      return a > b;
    });
    std::vector<int> free = node_free_;
    std::vector<double> reserved = node_reserved_;
    std::vector<int> chosen;
    std::vector<int> placement;
    for (int id : victims) {
      const JobState& victim = jobs_[static_cast<std::size_t>(id)];
      for (int n : victim.nodes) {
        free[static_cast<std::size_t>(n)] += victim.gpus_per_held_node;
        reserved[static_cast<std::size_t>(n)] -= victim.reservation;
      }
      chosen.push_back(id);
      if (FindPlacement(head, free, reserved, &placement)) {
        for (int v : chosen) {
          Preempt(&jobs_[static_cast<std::size_t>(v)]);
        }
        return;
      }
    }
    // Even evicting every lower-priority gang would not make room (the head needs nodes
    // held by equal/higher priorities, or is simply too big right now): wait instead.
  }

  // Checkpoint → release: the victim stops at the end of its in-flight iteration, commits
  // a checkpoint there (training jobs; serving state is immutable), and the gang is
  // released once that drain segment ends. The preempted remainder re-enters the queue at
  // release time and loses zero iterations.
  void Preempt(JobState* job) {
    const double now = sim_.now();
    const std::vector<double>& iter_ends = job->seg_run->iter_ends;
    int completed = 0;
    while (completed < static_cast<int>(iter_ends.size()) &&
           job->seg_start + iter_ends[static_cast<std::size_t>(completed)] <= now) {
      ++completed;
    }
    const int cut = std::min(job->seg_planned, completed + 1);
    if (cut >= job->seg_planned) {
      // The final iteration is already in flight: preempting saves nothing over letting
      // the segment finish. Mark it draining so it is not re-picked; its completion event
      // stands and the GPUs free at the natural end.
      job->phase = Phase::kDraining;
      ++draining_;
      return;
    }
    ++job->epoch;  // cancels the scheduled completion
    SegmentShape drain = ShapeOf(job->spec, config_.quotas, cut);
    // Training drains commit a checkpoint at the cut; serving state is immutable.
    drain.drain_checkpoint = job->spec.kind == JobKind::kTraining;
    job->seg_run = &Simulate(job->model, drain);
    // The drain replays the identical event sequence up to the cut, then commits the
    // checkpoint; the gang is held to the later of that commit and the decision point.
    const double release = std::max(now, job->seg_start + job->seg_run->makespan);
    FinalizeSegment(job, /*duration=*/release - job->seg_start, /*iterations=*/cut,
                    /*preempted=*/true);
    ++job->out.preemptions;
    job->phase = Phase::kDraining;
    ++draining_;
    const int epoch = job->epoch;
    const int id = job->spec.id;
    sim_.ScheduleAt(release, [this, id, epoch] { OnRelease(id, epoch); });
  }

  void Grant(JobState* job, const std::vector<int>& nodes) {
    const double now = sim_.now();
    const int remaining = job->spec.iterations - job->iterations_done;
    HCHECK_GT(remaining, 0);
    job->seg_run = &Simulate(job->model, ShapeOf(job->spec, config_.quotas, remaining));
    job->seg_start = now;
    job->seg_planned = remaining;
    job->out.queue_wait += now - job->enqueue_time;
    if (job->out.first_start < 0.0) {
      job->out.first_start = now;
    }
    job->pending = SegmentOutcome{};
    job->pending.start = now;
    job->pending.start_iteration = job->iterations_done;
    // Re-admission restores from host state: the first iteration's weight/optimizer
    // staging IS the restore traffic (the same accounting RecoveryStats::reswap_bytes
    // uses for fail-stop recovery).
    job->pending.restore = job->iterations_done > 0 ? job->seg_run->iter0_state_swap_in : 0;
    job->nodes = nodes;
    job->gpus_per_held_node = std::min(job->spec.gpus, config_.server.num_gpus);
    for (int n : nodes) {
      node_free_[static_cast<std::size_t>(n)] -= job->gpus_per_held_node;
      HCHECK_GE(node_free_[static_cast<std::size_t>(n)], 0);
      node_reserved_[static_cast<std::size_t>(n)] += job->reservation;
    }
    queue_.erase(std::find(queue_.begin(), queue_.end(), job->spec.id));
    job->phase = Phase::kRunning;
    const int epoch = job->epoch;
    const int id = job->spec.id;
    sim_.ScheduleAt(now + job->seg_run->makespan, [this, id, epoch] { OnComplete(id, epoch); });
  }

  void FinalizeSegment(JobState* job, double duration, int iterations, bool preempted) {
    job->pending.duration = duration;
    job->pending.iterations = iterations;
    job->pending.preempted = preempted;
    job->pending.swap_in = job->seg_run->swap_in;
    job->pending.swap_out = job->seg_run->swap_out;
    job->pending.collective = job->seg_run->collective;
    job->pending.checkpoint = job->seg_run->checkpoint;
    job->out.segments.push_back(job->pending);
    job->out.service += duration;
    job->iterations_done += iterations;
    job->out.iterations_done = job->iterations_done;
    job->out.samples_done += iterations * job->seg_run->samples_per_iteration;
    double prev = 0.0;
    for (int i = 0; i < iterations; ++i) {
      const double end = job->seg_run->iter_ends[static_cast<std::size_t>(i)];
      job->out.iteration_sec.push_back(end - prev);
      prev = end;
    }
  }

  void ReleaseGang(JobState* job) {
    for (int n : job->nodes) {
      node_free_[static_cast<std::size_t>(n)] += job->gpus_per_held_node;
      node_reserved_[static_cast<std::size_t>(n)] -= job->reservation;
    }
    job->nodes.clear();
    job->gpus_per_held_node = 0;
  }

  static double NearestRankP99(std::vector<double> values) {
    if (values.empty()) {
      return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(values.size())));
    return values[rank - 1];
  }

  void RollupTenants(ClusterReport* report) const {
    std::map<std::string, TenantSlo> tenants;
    std::map<std::string, std::vector<double>> delays;
    std::map<std::string, std::vector<double>> iteration_times;
    for (const JobOutcome& job : report->jobs) {
      TenantSlo& slo = tenants[job.spec.tenant];
      slo.tenant = job.spec.tenant;
      ++slo.jobs;
      if (job.completed) {
        ++slo.completed;
      }
      slo.preemptions += job.preemptions;
      if (job.quota_deferred) {
        ++slo.quota_deferred;
      }
      delays[job.spec.tenant].push_back(job.queue_wait);
      for (double d : job.iteration_sec) {
        iteration_times[job.spec.tenant].push_back(d);
      }
      for (const SegmentOutcome& seg : job.segments) {
        slo.swap_bytes += seg.swap_in + seg.swap_out;
        slo.checkpoint_bytes += seg.checkpoint;
        slo.restore_bytes += seg.restore;
        slo.gpu_seconds += seg.duration * static_cast<double>(job.spec.gpus);
      }
      if (report->makespan > 0.0) {
        slo.goodput += static_cast<double>(job.samples_done) / report->makespan;
      }
    }
    for (auto& [tenant, slo] : tenants) {
      const std::vector<double>& waits = delays[tenant];
      double sum = 0.0;
      for (double w : waits) {
        sum += w;
      }
      slo.queue_delay_mean = waits.empty() ? 0.0 : sum / static_cast<double>(waits.size());
      slo.queue_delay_p99 = NearestRankP99(waits);
      slo.iteration_p99 = NearestRankP99(iteration_times[tenant]);
      report->tenants.push_back(slo);  // std::map iterates sorted by tenant name
    }
  }

  ClusterSchedulerConfig config_;
  Simulator sim_;
  std::vector<int> node_free_;
  std::vector<double> node_reserved_;
  std::vector<JobState> jobs_;
  std::vector<int> queue_;  // job ids currently queued (unsorted; QueueOrder sorts)
  int draining_ = 0;
  std::map<SegmentShape, InnerRun> runs_;  // one simulated session per segment shape
};

}  // namespace

Status ValidateJobs(const std::vector<JobSpec>& jobs,
                    const ClusterSchedulerConfig& config) {
  if (config.num_nodes < 1) {
    return InvalidArgumentError("cluster needs nodes >= 1, got " +
                                std::to_string(config.num_nodes));
  }
  // Widen before multiplying: each factor may legitimately be up to 1<<20, so the int
  // product overflows. Bounding here (not just in ParseClusterSpec) covers library
  // callers that build the config directly.
  if (std::int64_t{config.num_nodes} * config.server.num_gpus > kMaxClusterGpus) {
    return InvalidArgumentError(
        "cluster of " + std::to_string(config.num_nodes) + " nodes x " +
        std::to_string(config.server.num_gpus) +
        " GPUs exceeds the supported maximum of " + std::to_string(kMaxClusterGpus) +
        " total GPUs");
  }
  const int node_gpus = config.server.num_gpus;
  // Iteration-free shapes already fit-probed. Validation returns at the first failing
  // job, so every shape in here passed.
  std::set<SegmentShape> fits;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobSpec& job = jobs[i];
    const std::string label = "job " + std::to_string(i) + " (" + job.ToString() + "): ";
    if (!ValidTenantName(job.tenant)) {
      return InvalidArgumentError(label + "invalid tenant name");
    }
    if (!(job.arrival >= 0.0) || !std::isfinite(job.arrival)) {
      return InvalidArgumentError(label + "arrival must be a finite time >= 0");
    }
    if ((job.kind == JobKind::kServing) != (job.scheme == Scheme::kServing)) {
      return InvalidArgumentError(label +
                                  "serving jobs (and only serving jobs) use the serving "
                                  "scheme");
    }
    if (job.priority < 0) {
      return InvalidArgumentError(label + "priority must be >= 0");
    }
    if (job.gpus < 1) {
      return InvalidArgumentError(label + "gpus must be >= 1");
    }
    if (job.gpus > node_gpus) {
      if (job.gpus % node_gpus != 0) {
        return InvalidArgumentError(
            label + "multi-node gangs must be whole-node multiples of gpus_per_node (" +
            std::to_string(node_gpus) + "), got " + std::to_string(job.gpus));
      }
      if (job.gpus / node_gpus > config.num_nodes) {
        return InvalidArgumentError(label + "gang of " + std::to_string(job.gpus) +
                                    " GPUs exceeds the cluster (" +
                                    std::to_string(config.num_nodes) + " nodes x " +
                                    std::to_string(node_gpus) + " GPUs)");
      }
    }
    const StatusOr<Model> model = ModelByName(job.model);
    if (!model.ok()) {
      return InvalidArgumentError(label + model.status().message());
    }
    SegmentShape shape = ShapeOf(job, config.quotas, job.iterations);
    const SessionConfig inner = InnerConfig(shape, config);
    // Every job's shape check sees its real iteration count (and vets the key: a NaN
    // share would break the set's ordering). The fit probe builds one iteration
    // (ProbePeakWorkingSet), so its verdict holds at every iteration count and runs once
    // per iteration-free shape.
    Status valid = CheckSessionShape(model.value(), inner);
    shape.iterations = 0;
    if (valid.ok() && fits.insert(shape).second) {
      valid = ValidateSessionConfig(model.value(), inner);
    }
    if (!valid.ok()) {
      return InvalidArgumentError(label + valid.message());
    }
    const TenantQuota& quota = config.quotas.For(job.tenant);
    if (quota.host_mem_bytes >= 0 &&
        JobHostFootprint(model.value(), job) > quota.host_mem_bytes) {
      return InvalidArgumentError(
          label + "job state footprint " +
          FormatBytes(JobHostFootprint(model.value(), job)) +
          " exceeds tenant '" + job.tenant + "' host-memory quota " +
          FormatBytes(quota.host_mem_bytes) + " — the job could never be admitted");
    }
  }
  return Status::Ok();
}

StatusOr<ClusterReport> RunJobStream(std::vector<JobSpec> jobs,
                                     const ClusterSchedulerConfig& config) {
  HARMONY_RETURN_IF_ERROR(ValidateJobs(jobs, config));
  // Re-index in (arrival, submission) order: job ids are queue-stable tie-breakers and
  // name the rows of the report.
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const JobSpec& a, const JobSpec& b) { return a.arrival < b.arrival; });
  std::vector<JobState> states;
  states.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    JobState state;
    state.spec = jobs[i];
    state.spec.id = static_cast<int>(i);
    state.model = ModelByName(state.spec.model).value();
    state.footprint = JobHostFootprint(state.model, state.spec);
    const double bw = config.quotas.For(state.spec.tenant).bw_fraction;
    state.reservation = bw < 1.0 ? bw : 0.0;
    state.out.spec = state.spec;
    states.push_back(std::move(state));
  }
  ClusterScheduler scheduler(std::move(states), config);
  return scheduler.Run();
}

// ---- rendering --------------------------------------------------------------------------

std::string ClusterReport::Summary() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "cluster: %d jobs (%d completed), %d preemption(s), makespan %.3f s, "
                "%d GPUs over %d node(s), utilization %.3f [%s]",
                static_cast<int>(jobs.size()), completed_jobs, preemptions, makespan,
                total_gpus, num_nodes, utilization, SchedPolicyName(policy));
  return buffer;
}

std::string ClusterReport::RenderTenantTable() const {
  std::ostringstream os;
  os << "per-tenant SLO:\n";
  TablePrinter table({"tenant", "jobs", "done", "preempt", "deferred", "q-delay mean (s)",
                      "q-delay p99 (s)", "p99 iter (s)", "goodput (samples/s)", "swap",
                      "ckpt", "restore"});
  for (const TenantSlo& slo : tenants) {
    table.Row()
        .Cell(slo.tenant)
        .Cell(slo.jobs)
        .Cell(slo.completed)
        .Cell(slo.preemptions)
        .Cell(slo.quota_deferred)
        .Cell(slo.queue_delay_mean, 6)
        .Cell(slo.queue_delay_p99, 6)
        .Cell(slo.iteration_p99, 6)
        .Cell(slo.goodput, 3)
        .Cell(FormatBytes(slo.swap_bytes))
        .Cell(FormatBytes(slo.checkpoint_bytes))
        .Cell(FormatBytes(slo.restore_bytes));
  }
  table.Print(os);
  return os.str();
}

std::string ClusterReportToJson(const ClusterReport& report) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"harmony-cluster-report\",\n";
  os << "  \"version\": 1,\n";
  os << "  \"policy\": " << JsonString(SchedPolicyName(report.policy)) << ",\n";
  os << "  \"total_gpus\": " << report.total_gpus << ",\n";
  os << "  \"num_nodes\": " << report.num_nodes << ",\n";
  os << "  \"makespan_s\": " << JsonNumber(report.makespan) << ",\n";
  os << "  \"completed_jobs\": " << report.completed_jobs << ",\n";
  os << "  \"preemptions\": " << report.preemptions << ",\n";
  os << "  \"gpu_seconds_busy\": " << JsonNumber(report.gpu_seconds_busy) << ",\n";
  os << "  \"utilization\": " << JsonNumber(report.utilization) << ",\n";
  os << "  \"tenants\": [\n";
  for (std::size_t i = 0; i < report.tenants.size(); ++i) {
    const TenantSlo& slo = report.tenants[i];
    os << "    {\"tenant\": " << JsonString(slo.tenant) << ", \"jobs\": " << slo.jobs
       << ", \"completed\": " << slo.completed << ", \"preemptions\": " << slo.preemptions
       << ", \"quota_deferred\": " << slo.quota_deferred
       << ", \"queue_delay_mean_s\": " << JsonNumber(slo.queue_delay_mean)
       << ", \"queue_delay_p99_s\": " << JsonNumber(slo.queue_delay_p99)
       << ", \"iteration_p99_s\": " << JsonNumber(slo.iteration_p99)
       << ", \"goodput_samples_per_s\": " << JsonNumber(slo.goodput)
       << ", \"swap_bytes\": " << slo.swap_bytes
       << ", \"checkpoint_bytes\": " << slo.checkpoint_bytes
       << ", \"restore_bytes\": " << slo.restore_bytes
       << ", \"gpu_seconds\": " << JsonNumber(slo.gpu_seconds) << "}"
       << (i + 1 < report.tenants.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < report.jobs.size(); ++i) {
    const JobOutcome& job = report.jobs[i];
    os << "    {\"id\": " << job.spec.id << ", \"spec\": " << JsonString(job.spec.ToString())
       << ", \"tenant\": " << JsonString(job.spec.tenant)
       << ", \"kind\": " << JsonString(job.spec.kind == JobKind::kServing ? "serving"
                                                                          : "training")
       << ", \"completed\": " << (job.completed ? "true" : "false")
       << ", \"quota_deferred\": " << (job.quota_deferred ? "true" : "false")
       << ", \"arrival_s\": " << JsonNumber(job.spec.arrival)
       << ", \"first_start_s\": " << JsonNumber(job.first_start)
       << ", \"finish_s\": " << JsonNumber(job.finish)
       << ", \"queue_wait_s\": " << JsonNumber(job.queue_wait)
       << ", \"service_s\": " << JsonNumber(job.service)
       << ", \"preemptions\": " << job.preemptions
       << ", \"iterations_done\": " << job.iterations_done
       << ", \"samples_done\": " << job.samples_done << ", \"segments\": [";
    for (std::size_t s = 0; s < job.segments.size(); ++s) {
      const SegmentOutcome& seg = job.segments[s];
      os << (s == 0 ? "" : ", ") << "{\"start_s\": " << JsonNumber(seg.start)
         << ", \"duration_s\": " << JsonNumber(seg.duration)
         << ", \"start_iteration\": " << seg.start_iteration
         << ", \"iterations\": " << seg.iterations
         << ", \"preempted\": " << (seg.preempted ? "true" : "false")
         << ", \"swap_in\": " << seg.swap_in << ", \"swap_out\": " << seg.swap_out
         << ", \"collective\": " << seg.collective
         << ", \"checkpoint\": " << seg.checkpoint << ", \"restore\": " << seg.restore
         << "}";
    }
    os << "]}" << (i + 1 < report.jobs.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string ClusterReport::Render() const {
  std::ostringstream os;
  os << Summary() << "\n\n" << RenderTenantTable() << "\njobs:\n";
  for (const JobOutcome& job : jobs) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  job %d [%s] wait %.6f s, service %.6f s, start %.6f, finish %.6f, "
                  "%d segment(s), %d preemption(s), %d/%d iterations\n",
                  job.spec.id, job.completed ? "done" : "incomplete", job.queue_wait,
                  job.service, job.first_start, job.finish,
                  static_cast<int>(job.segments.size()), job.preemptions,
                  job.iterations_done, job.spec.iterations);
    os << "  " << job.spec.ToString() << "\n" << line;
  }
  return os.str();
}

}  // namespace harmony
