// perfbench: what the Harmony simulator costs its user (host CPU time, set-up time, peak
// RSS) and what the simulated machine achieves (throughput, swap volume, completion
// time), on four fixed workloads. One workload per process, single-threaded, driven only
// through the libraries' public functions. README.md defines every metric and workload.
//
//   perfbench --workload <dp_cluster|pp_server|lms_server|job_stream> --seconds <n>
//             --trace <0|1> [--seed <n>] [--job-trace-seed <n>] [--spans-out <path>]
//             [--source-digest <hex>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around every call into
// a layer and prints the per-layer metrics derived from them. The last stdout line is the
// JSON result; earlier lines are a context block and a human-readable table.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "perfbench/checks.h"
#include "perfbench/trace.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/runtime/cluster_scheduler.h"
#include "src/runtime/metrics.h"
#include "src/runtime/plan_lint.h"
#include "src/runtime/report_io.h"

namespace perfbench {
namespace {

using harmony::RunReport;
using harmony::TimeClass;

constexpr double kGB = 1e9;
// The default trace seed of job_stream; 11 is held out for checking later claims.
constexpr int kDefaultJobTraceSeed = 7;

struct Options {
  std::string workload;
  long long seed = 0;  // accepted and reported; no workload draws inputs from it
  int seconds = 10;
  bool trace = false;
  int job_trace_seed = kDefaultJobTraceSeed;
  std::string spans_out;
  std::string source_digest = "unknown";
};

// One metric the benchmark prints. kind: "host" = cost on the machine running the
// simulator, "sim" = what the modelled machine achieves (deterministic), "count" = derived
// from outputs.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* kind;
};

// Every metric, in print order. These tables are the program's only copy of the names and
// units; run.py checks each result against BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s", "host"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
    {"ok_ratio", "ratio", "count"},
    {"sim_samples_per_s", "samples/s", "sim"},
    {"sim_swap_gb_per_iter", "GB", "sim"},
    {"sim_p99_jct_s", "sim_s", "sim"},
};

// A workload that does not reach a per-layer metric reports it as 0 (README.md,
// "Per-layer metrics").
constexpr MetricDef kPerLayer[] = {
    {"core.validate_s", "s", "host"},
    {"graph.model_s", "s", "host"},
    {"graph.plan_build_s", "s", "host"},
    {"graph.tasks", "count", "count"},
    {"graph.tensors", "count", "count"},
    {"hw.topology_s", "s", "host"},
    {"hw.links", "count", "count"},
    {"hw.flows", "count", "count"},
    {"hw.pcie_gb", "GB", "sim"},
    {"hw.nic_gb", "GB", "sim"},
    {"hw.rack_gb", "GB", "sim"},
    {"hw.hot_link_util", "ratio", "sim"},
    {"hw.stall_transfer_frac", "ratio", "sim"},
    {"mem.evictions", "count", "count"},
    {"mem.defrags", "count", "count"},
    {"mem.swap_in_gb", "GB", "sim"},
    {"mem.swap_out_gb", "GB", "sim"},
    {"mem.p2p_gb", "GB", "sim"},
    {"mem.weight_swap_gb", "GB", "sim"},
    {"mem.high_water_gb", "GB", "sim"},
    {"mem.clean_drop_ratio", "ratio", "sim"},
    {"mem.refetch_ratio", "ratio", "sim"},
    {"mem.stall_memory_frac", "ratio", "sim"},
    {"runtime.lint_s", "s", "host"},
    {"runtime.engine_s", "s", "host"},
    {"runtime.compute_frac", "ratio", "sim"},
    {"runtime.stall_dependency_frac", "ratio", "sim"},
    {"runtime.stall_collective_frac", "ratio", "sim"},
    {"runtime.idle_frac", "ratio", "sim"},
    {"runtime.collective_gb", "GB", "sim"},
    {"runtime.attribute_s", "s", "host"},
    {"runtime.report_json_s", "s", "host"},
    {"runtime.report_json_mb", "MB", "host"},
    {"sched.generate_s", "s", "host"},
    {"sched.validate_jobs_s", "s", "host"},
    {"sched.run_stream_s", "s", "host"},
    {"sched.segments", "count", "count"},
    {"sched.segments_per_job", "ratio", "count"},
    {"sched.host_s_per_segment", "s", "host"},
    {"sched.preemptions", "count", "count"},
    {"sched.quota_deferred", "count", "count"},
    {"sched.ckpt_restore_gb", "GB", "sim"},
    {"sched.report_json_s", "s", "host"},
    {"sched.p99_queue_s", "sim_s", "sim"},
    {"trace.overhead_s", "s", "host"},
    {"trace.spans", "count", "count"},
};

// Metric values by name; names and units come from the tables above.
using Values = std::map<std::string, double>;

// Operations attempted and failed, and whether the checker self-test caught every
// tampered report. Failures are reported on stderr as they happen.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool self_test_ok = true;
  std::optional<JsonFingerprint> first_json;

  // Records `operations` operations that share one outcome; `violations` empty = they
  // succeeded.
  void Record(const std::vector<std::string>& violations, std::int64_t operations = 1) {
    attempted += operations;
    if (!violations.empty()) {
      failed += operations;
      for (const std::string& v : violations) {
        std::cerr << "perfbench: check failed: " << v << "\n";
      }
    }
  }
  // Empty when `json` matches the first report of this process. The first call also
  // tests this comparison: the first report with one byte flipped must not match.
  std::vector<std::string> SameAsFirst(const std::string& json) {
    const JsonFingerprint fp = Fingerprint(json);
    if (!first_json.has_value()) {
      first_json = fp;
      std::string tampered = json;
      if (!tampered.empty()) {
        tampered[tampered.size() / 2] ^= 0x01;
      }
      if (tampered.empty() || SameAsFirst(tampered).empty()) {
        SelfTest({"json byte flipped"});
      }
    } else if (!(fp == *first_json)) {
      return {"report JSON differs from the first run in this process"};
    }
    return {};
  }
  void SelfTest(const std::vector<std::string>& uncaught) {
    for (const std::string& name : uncaught) {
      self_test_ok = false;
      std::cerr << "perfbench: self-test: tampering not caught: " << name << "\n";
    }
  }
};

// Every host time is the fastest of the timed repetitions. Neighbours on a shared host
// slow this process for stretches of 10 to 20 s at a time; the fastest repetition of a run
// is the one they disturbed least, and it repeats from run to run better than the
// median does (README.md, "Host times").
double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double NearestRankP99(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(values.size())));
  return values[rank - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
}

// The first repetition runs on a cold heap and caches and is checked but not timed.
constexpr int kWarmupReps = 1;

// Span durations of the timed repetitions, grouped by name, and by (name, run) for
// per-repetition arithmetic.
class SpanIndex {
 public:
  explicit SpanIndex(const Tracer& tracer) {
    for (const Span& span : tracer.spans()) {
      if (span.run < kWarmupReps) {
        continue;
      }
      by_name_[span.name].push_back(span.duration());
      by_run_[{span.name, span.run}] += span.duration();
    }
  }
  double FastestOf(const std::string& name) const {
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? 0.0 : Fastest(it->second);
  }
  double InRun(const std::string& name, int run) const {
    const auto it = by_run_.find({name, run});
    return it == by_run_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, std::vector<double>> by_name_;
  std::map<std::pair<std::string, int>, double> by_run_;
};

// Runs `body` and stores the CPU time it took in `*seconds`.
template <typename F>
auto Timed(double* seconds, F body) {
  const double start = CpuSeconds();
  auto result = body();
  *seconds = CpuSeconds() - start;
  return result;
}

// ---------------------------------------------------------------------------------------
// Single-session workloads: one training session on a fixed model and machine.

struct SessionWorkload {
  std::string model;
  harmony::SessionConfig config;
};

harmony::SessionConfig ServerConfig(harmony::Scheme scheme) {
  harmony::SessionConfig config;
  config.scheme = scheme;
  config.server.num_gpus = 4;
  config.server.gpus_per_switch = 4;
  config.server.gpu.memory_bytes = 11 * harmony::kGiB;
  return config;
}

std::optional<SessionWorkload> SessionWorkloadByName(const std::string& name) {
  harmony::SessionConfig config;
  if (name == "dp_cluster") {
    config = ServerConfig(harmony::Scheme::kHarmonyDp);
    config.num_nodes = 32;
    config.nodes_per_rack = 16;
    config.microbatches = 8;
    config.microbatch_size = 5;
    config.iterations = 2;
  } else if (name == "pp_server") {
    config = ServerConfig(harmony::Scheme::kHarmonyPp);
    config.microbatches = 64;
    config.microbatch_size = 5;
    config.pack_size = 2;
    config.iterations = 12;
  } else if (name == "lms_server") {
    config = ServerConfig(harmony::Scheme::kBaselineDp);
    config.microbatches = 32;
    config.microbatch_size = 5;
    config.iterations = 12;
  } else {
    return std::nullopt;
  }
  return SessionWorkload{"bert-large", config};
}

// What set-up built, for the per-layer counts.
struct SetupCounts {
  bool ok = false;
  int tasks = 0;
  int tensors = 0;
  int links = 0;
};

// The work RunTraining does before its first simulated event, as separate public calls.
// Every object is freed on return, before the run path starts.
SetupCounts SetupSession(const SessionWorkload& w, Tracer* t) {
  Tracer::Scope root(t, "setup");
  const harmony::StatusOr<harmony::Model> model = [&] {
    Tracer::Scope s(t, "graph.model");
    return harmony::ModelByName(w.model);
  }();
  if (!model.ok()) {
    return {};
  }
  const harmony::Status valid = [&] {
    Tracer::Scope s(t, "core.validate");
    return harmony::ValidateSessionConfig(model.value(), w.config);
  }();
  if (!valid.ok()) {
    return {};
  }
  const harmony::Machine machine = [&] {
    Tracer::Scope s(t, "hw.topology");
    return harmony::MakeSessionMachine(w.config);
  }();
  harmony::TensorRegistry registry;
  const harmony::Plan plan = [&] {
    Tracer::Scope s(t, "graph.plan_build");
    return harmony::BuildPlanForConfig(model.value(), machine, &registry, w.config);
  }();
  harmony::LintOptions lint_options;
  lint_options.deep = false;  // the cheap tier, as RunTraining runs it
  for (const harmony::GpuSpec& gpu : machine.gpus) {
    lint_options.device_capacities.push_back(gpu.memory_bytes);
  }
  const harmony::LintReport lint = [&] {
    Tracer::Scope s(t, "runtime.lint");
    return harmony::LintPlan(plan, registry, lint_options);
  }();
  return {lint.num_errors() == 0, static_cast<int>(plan.tasks.size()), registry.size(),
          machine.topology.num_links()};
}

struct SessionRun {
  bool ok = false;  // the model resolved and validation accepted the config
  harmony::SessionResult result;
  harmony::AttributionReport attribution;
  std::string json;
};

// The user path: resolve the model, validate, run, attribute, export.
SessionRun RunSession(const SessionWorkload& w, Tracer* t) {
  Tracer::Scope root(t, "run");
  SessionRun run;
  const harmony::StatusOr<harmony::Model> model = [&] {
    Tracer::Scope s(t, "graph.model");
    return harmony::ModelByName(w.model);
  }();
  if (!model.ok()) {
    return run;
  }
  {
    Tracer::Scope s(t, "core.validate");
    if (!harmony::ValidateSessionConfig(model.value(), w.config).ok()) {
      return run;
    }
  }
  {
    Tracer::Scope s(t, "runtime.run_training");
    run.result = harmony::RunTraining(model.value(), w.config);
  }
  {
    Tracer::Scope s(t, "runtime.attribute");
    run.attribution = harmony::Attribute(run.result.report);
  }
  {
    Tracer::Scope s(t, "runtime.report_json");
    run.json = harmony::ReportToJson(run.result.report);
  }
  run.ok = true;
  return run;
}

// Time spent in one class, summed over devices, as a share of devices x makespan.
double TimeShare(const RunReport& report, TimeClass cls) {
  double part = 0.0, total = 0.0;
  for (const harmony::DeviceTimeBreakdown& time : report.device_time) {
    part += time.of(cls);
    total += time.total();
  }
  return Ratio(part, total);
}

Values SessionEndToEnd(const RunReport& report) {
  return {
      {"sim_samples_per_s", report.steady_throughput()},
      {"sim_swap_gb_per_iter", static_cast<double>(report.steady_swap_total()) / kGB},
      // One job on an idle machine: its completion time is the makespan.
      {"sim_p99_jct_s", report.makespan},
  };
}

// Per-layer counts and simulated shares read from the outputs of one traced repetition.
Values SessionLayerCounts(const SetupCounts& setup, const SessionRun& run) {
  const RunReport& report = run.result.report;
  double flows = 0.0, link_bytes = 0.0;
  for (const RunReport::LinkUsage& link : report.links) {
    flows += static_cast<double>(link.flows);
    link_bytes += static_cast<double>(link.bytes);
  }
  double tier_bytes[harmony::kNumLinkTiers] = {link_bytes, 0.0, 0.0};  // no tiers = all pcie
  for (const RunReport::TierUsage& tier : report.tiers) {
    for (int k = 0; k < harmony::kNumLinkTiers; ++k) {
      if (tier.name == harmony::LinkTierName(static_cast<harmony::LinkTier>(k))) {
        tier_bytes[k] = static_cast<double>(tier.bytes);
      }
    }
  }
  const RunReport::LinkUsage* hot = report.BottleneckLink();
  double evictions = 0.0, defrags = 0.0, high_water = 0.0;
  for (std::size_t d = 0; d < report.device_evictions.size(); ++d) {
    evictions += static_cast<double>(report.device_evictions[d]);
    defrags += static_cast<double>(report.device_defrags[d]);
    high_water = std::max(high_water, static_cast<double>(report.device_high_water[d]));
  }
  double churn_evictions = 0.0, clean_drops = 0.0, swap_ins = 0.0, refetches = 0.0;
  for (const RunReport::TensorChurn& churn : report.tensor_churn) {
    churn_evictions += static_cast<double>(churn.evictions);
    clean_drops += static_cast<double>(churn.clean_drops);
    swap_ins += static_cast<double>(churn.swap_ins + churn.p2p_ins);
    refetches += static_cast<double>(churn.refetches());
  }
  double weight_swap = 0.0;
  for (const harmony::IterationStats& it : report.iterations) {
    weight_swap += static_cast<double>(it.weight_swap_volume());
  }
  return {
      {"graph.tasks", static_cast<double>(setup.tasks)},
      {"graph.tensors", static_cast<double>(setup.tensors)},
      {"hw.links", static_cast<double>(setup.links)},
      {"hw.flows", flows},
      {"hw.pcie_gb", tier_bytes[0] / kGB},
      {"hw.nic_gb", tier_bytes[1] / kGB},
      {"hw.rack_gb", tier_bytes[2] / kGB},
      {"hw.hot_link_util", hot != nullptr ? hot->utilization : 0.0},
      {"hw.stall_transfer_frac", TimeShare(report, TimeClass::kStallTransfer)},
      {"mem.evictions", evictions},
      {"mem.defrags", defrags},
      {"mem.swap_in_gb", static_cast<double>(report.total_swap_in) / kGB},
      {"mem.swap_out_gb", static_cast<double>(report.total_swap_out) / kGB},
      {"mem.p2p_gb", static_cast<double>(report.total_p2p) / kGB},
      {"mem.weight_swap_gb", weight_swap / kGB},
      {"mem.high_water_gb", high_water / kGB},
      {"mem.clean_drop_ratio", Ratio(clean_drops, churn_evictions)},
      {"mem.refetch_ratio", Ratio(refetches, swap_ins)},
      {"mem.stall_memory_frac", TimeShare(report, TimeClass::kStallMemory)},
      {"runtime.compute_frac", TimeShare(report, TimeClass::kCompute)},
      {"runtime.stall_dependency_frac", TimeShare(report, TimeClass::kStallDependency)},
      {"runtime.stall_collective_frac", TimeShare(report, TimeClass::kStallCollective)},
      {"runtime.idle_frac", TimeShare(report, TimeClass::kIdle)},
      {"runtime.collective_gb", static_cast<double>(report.total_collective) / kGB},
      {"runtime.report_json_mb", static_cast<double>(run.json.size()) / 1e6},
  };
}

std::vector<std::string> CheckSession(const SessionWorkload& w, const SessionRun& run,
                                      Tally* tally) {
  if (!run.ok) {
    return {"the model did not resolve or validation refused the config"};
  }
  std::vector<std::string> violations = CheckRunReport(run.result.report, w.config.iterations);
  if (!tally->first_json.has_value()) {
    tally->SelfTest(UncaughtTamperings(run.result.report, w.config.iterations));
  }
  for (std::string& v : tally->SameAsFirst(run.json)) {
    violations.push_back(std::move(v));
  }
  return violations;
}

// ---------------------------------------------------------------------------------------
// job_stream: a seeded multi-tenant arrival trace through the cluster scheduler.

struct StreamWorkload {
  std::string trace_spec;
  std::string model = "bert-large";
  harmony::ClusterSchedulerConfig config;
};

StreamWorkload MakeStreamWorkload(int trace_seed) {
  StreamWorkload w;
  w.trace_spec =
      "poisson:seed=" + std::to_string(trace_seed) + ",rate=0.5,horizon=600";
  w.config.server = ServerConfig(harmony::Scheme::kHarmonyPp).server;
  w.config.num_nodes = 2;
  w.config.policy = harmony::SchedPolicy::kPriority;
  w.config.quotas = harmony::ParseQuotaSpec("t0:bw=0.5;t1:mem_gib=40").value();
  return w;
}

harmony::StatusOr<std::vector<harmony::JobSpec>> Generate(const StreamWorkload& w) {
  return harmony::GenerateTrace(w.trace_spec, w.config.server.num_gpus, w.config.num_nodes,
                                w.model);
}

// Set-up of a stream: generate the trace and validate every job.
bool SetupStream(const StreamWorkload& w, Tracer* t) {
  Tracer::Scope root(t, "setup");
  const auto jobs = [&] {
    Tracer::Scope s(t, "sched.generate");
    return Generate(w);
  }();
  if (!jobs.ok()) {
    return false;
  }
  Tracer::Scope s(t, "sched.validate_jobs");
  return harmony::ValidateJobs(jobs.value(), w.config).ok();
}

struct StreamRun {
  std::size_t jobs = 0;  // jobs submitted (0 = the trace did not generate)
  harmony::Status status;
  harmony::ClusterReport report;
  std::string json;
};

StreamRun RunStream(const StreamWorkload& w, Tracer* t) {
  Tracer::Scope root(t, "run");
  StreamRun run;
  auto jobs = [&] {
    Tracer::Scope s(t, "sched.generate");
    return Generate(w);
  }();
  if (!jobs.ok()) {
    run.status = jobs.status();
    return run;
  }
  run.jobs = jobs.value().size();
  {
    Tracer::Scope s(t, "sched.validate_jobs");
    run.status = harmony::ValidateJobs(jobs.value(), w.config);
  }
  if (!run.status.ok()) {
    return run;
  }
  auto report = [&] {
    Tracer::Scope s(t, "sched.run_stream");
    return harmony::RunJobStream(std::move(jobs).value(), w.config);
  }();
  if (!report.ok()) {
    run.status = report.status();
    return run;
  }
  run.report = std::move(report).value();
  Tracer::Scope s(t, "sched.report_json");
  run.json = harmony::ClusterReportToJson(run.report);
  return run;
}

// One operation per job. A stream-level failure (an error status, broken GPU-second
// conservation, a changed export, a lost job) fails every job of the stream.
void CheckStream(const StreamRun& run, Tally* tally) {
  const auto jobs = static_cast<std::int64_t>(std::max<std::size_t>(run.jobs, 1));
  if (!run.status.ok()) {
    tally->Record({run.status.ToString()}, jobs);
    return;
  }
  std::vector<std::string> violations = CheckGpuSeconds(run.report);
  if (!tally->first_json.has_value()) {
    tally->SelfTest(UncaughtTamperings(run.report));
  }
  for (std::string& v : tally->SameAsFirst(run.json)) {
    violations.push_back(std::move(v));
  }
  if (run.report.jobs.size() != run.jobs) {
    violations.push_back("the report holds " + std::to_string(run.report.jobs.size()) +
                         " of " + std::to_string(run.jobs) + " jobs");
  }
  if (!violations.empty()) {
    tally->Record(violations, jobs);
    return;
  }
  for (const harmony::JobOutcome& job : run.report.jobs) {
    tally->Record(CheckJob(job));
  }
}

Values StreamEndToEnd(const harmony::ClusterReport& report) {
  double goodput = 0.0, swap = 0.0;
  for (const harmony::TenantSlo& tenant : report.tenants) {
    goodput += tenant.goodput;
    swap += static_cast<double>(tenant.swap_bytes);
  }
  double iterations = 0.0;
  std::map<std::string, std::vector<double>> jct;  // per tenant, completed jobs
  for (const harmony::JobOutcome& job : report.jobs) {
    iterations += job.iterations_done;
    if (job.completed) {
      jct[job.spec.tenant].push_back(job.finish - job.spec.arrival);
    }
  }
  double worst_jct = 0.0;
  for (auto& [tenant, values] : jct) {
    worst_jct = std::max(worst_jct, NearestRankP99(std::move(values)));
  }
  return {
      {"sim_samples_per_s", goodput},
      {"sim_swap_gb_per_iter", Ratio(swap, iterations) / kGB},
      {"sim_p99_jct_s", worst_jct},
  };
}

Values StreamLayerCounts(const harmony::ClusterReport& report) {
  double segments = 0.0, deferred = 0.0, ckpt_restore = 0.0, worst_queue_p99 = 0.0;
  for (const harmony::JobOutcome& job : report.jobs) {
    segments += static_cast<double>(job.segments.size());
    deferred += job.quota_deferred ? 1.0 : 0.0;
  }
  for (const harmony::TenantSlo& tenant : report.tenants) {
    ckpt_restore += static_cast<double>(tenant.checkpoint_bytes + tenant.restore_bytes);
    worst_queue_p99 = std::max(worst_queue_p99, tenant.queue_delay_p99);
  }
  return {
      {"sched.segments", segments},
      {"sched.segments_per_job", Ratio(segments, static_cast<double>(report.jobs.size()))},
      {"sched.preemptions", static_cast<double>(report.preemptions)},
      {"sched.quota_deferred", deferred},
      {"sched.ckpt_restore_gb", ckpt_restore / kGB},
      {"sched.p99_queue_s", worst_queue_p99},
  };
}

// ---------------------------------------------------------------------------------------
// Output.

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

// Prints the context line, one table line per metric of `table` (0 where `values` has
// none), and, last, the JSON result. Prints no result and returns false when `values`
// holds a name that `table` lacks.
bool PrintResult(const Options& options, bool correct, const Tally& tally,
                 std::span<const MetricDef> table, const Values& values) {
  for (const auto& [name, value] : values) {
    if (std::none_of(table.begin(), table.end(),
                     [&](const MetricDef& m) { return name == m.name; })) {
      std::cerr << "perfbench: metric " << name << " is not in the metric table\n";
      return false;
    }
  }
  std::cout << "context: {\"nproc\": " << Nproc() << ", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"source_digest\": \"" << options.source_digest << "\", \"workload\": \""
            << options.workload << "\", \"seed\": " << options.seed
            << ", \"job_trace_seed\": " << options.job_trace_seed
            << ", \"seconds\": " << options.seconds << ", \"trace\": " << options.trace
            << "}\n";
  const auto value_of = [&](const MetricDef& m) {
    const auto it = values.find(m.name);
    return it != values.end() ? it->second : 0.0;
  };
  char line[160];
  for (const MetricDef& m : table) {
    std::snprintf(line, sizeof(line), "%-32s %20.9g %-10s %s\n", m.name, value_of(m), m.unit,
                  m.kind);
    std::cout << line;
  }
  std::snprintf(line, sizeof(line), "%-32s %20.9g %-10s %s\n", "fail_ratio",
                Ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)),
                "ratio", "count");
  std::cout << line;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << "\"" << table[i].name
              << "\": {\"value\": " << JsonNumber(value_of(table[i])) << ", \"unit\": \""
              << table[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return true;
}

// ---------------------------------------------------------------------------------------
// Measurement loop and result.

// CPU seconds of the timed repetitions.
struct Timings {
  std::vector<double> setup, run, untraced_run;
};

// Pins the process to the CPUs of `set`; on failure it runs where it was.
void PinTo(const cpu_set_t& set) { sched_setaffinity(0, sizeof(set), &set); }

// Repeats until `options.seconds` of wall time have passed, and at least kWarmupReps + 2
// times, so that every run compares report exports and times two repetitions. Repetition
// i runs on CPU i mod n of the n CPUs the process may use: other tenants of a shared host
// load its cores unevenly and the load moves between them, so the fastest repetition is
// taken over every core (README.md, "Host times"). Each repetition runs `setup`, then the
// user path `run`; with tracing on it runs the user path
// once more untraced, so the tracing overhead is measured in the same process. The traced
// and untraced paths take turns going first, so that neither is always the one that
// runs on a warmer heap. `inspect` checks every user-path output, timed or not.
template <typename Setup, typename Run, typename Inspect>
Timings Measure(const Options& options, Tracer* tracer, bool* setup_ok, Setup setup, Run run,
                Inspect inspect) {
  Tracer untraced(false);
  Timings timings;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<std::size_t> cpus;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(options.seconds);
  for (int rep = 0; rep < kWarmupReps + 2 || std::chrono::steady_clock::now() < deadline;
       ++rep) {
    tracer->set_run(rep);
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<std::size_t>(rep) % cpus.size()], &one);
      PinTo(one);
    }
    const bool timed = rep >= kWarmupReps;
    double seconds = 0.0;
    *setup_ok = Timed(&seconds, [&] { return setup(tracer); }) && *setup_ok;
    if (timed) {
      timings.setup.push_back(seconds);
    }
    // Each output is freed before the next path starts, so every path starts from the
    // same heap state.
    const auto user_path = [&](Tracer* t, std::vector<double>* samples) {
      const auto output = Timed(&seconds, [&] { return run(t); });
      if (timed) {
        samples->push_back(seconds);
      }
      inspect(output);
    };
    const bool untraced_first = tracer->enabled() && rep % 2 == 1;
    if (untraced_first) {
      user_path(&untraced, &timings.untraced_run);
    }
    user_path(tracer, &timings.run);
    if (tracer->enabled() && !untraced_first) {
      user_path(&untraced, &timings.untraced_run);
    }
  }
  PinTo(allowed);
  return timings;
}

void LogSamples(const char* name, const std::vector<double>& samples) {
  std::cerr << "perfbench: " << name << " samples (CPU s):";
  for (const double s : samples) {
    std::cerr << " " << s;
  }
  std::cerr << "\n";
}

void WriteSpans(const Options& options, const Tracer& tracer) {
  if (options.spans_out.empty()) {
    return;
  }
  std::ofstream out(options.spans_out);
  out << tracer.ToJson();
  if (!out) {
    std::cerr << "perfbench: could not write spans to " << options.spans_out << "\n";
  }
}

// Prints the end-to-end metrics, or with tracing on the per-layer ones: `layer_times` from
// the spans plus `outputs`, the metrics read from the first sound output. Returns the exit
// code.
int Finish(const Options& options, const Tracer& tracer, const Timings& timings,
           const Tally& tally, bool setup_ok, Values layer_times, const Values& outputs) {
  LogSamples("setup_s", timings.setup);
  LogSamples("run_s", timings.run);
  Values values = outputs;
  if (tracer.enabled()) {
    values.merge(layer_times);
    values["trace.overhead_s"] = Fastest(timings.run) - Fastest(timings.untraced_run);
    values["trace.spans"] = static_cast<double>(tracer.spans().size());
    WriteSpans(options, tracer);
  } else {
    values["run_s"] = Fastest(timings.run);
    values["setup_s"] = Fastest(timings.setup);
    values["peak_rss_mb"] = PeakRssMb();
    values["ok_ratio"] =
        1.0 - Ratio(static_cast<double>(tally.failed), static_cast<double>(tally.attempted));
  }
  const bool correct = setup_ok && tally.failed == 0 && tally.self_test_ok && !outputs.empty();
  const std::span<const MetricDef> table =
      tracer.enabled() ? std::span<const MetricDef>(kPerLayer) : kEndToEnd;
  return PrintResult(options, correct, tally, table, values) ? 0 : 1;
}

int RunSessionWorkload(const Options& options, const SessionWorkload& w) {
  Tracer tracer(options.trace);
  Tally tally;
  bool setup_ok = true;
  SetupCounts counts;
  Values outputs;
  const Timings timings = Measure(
      options, &tracer, &setup_ok,
      [&](Tracer* t) {
        counts = SetupSession(w, t);
        return counts.ok;
      },
      [&](Tracer* t) { return RunSession(w, t); },
      [&](const SessionRun& run) {
        tally.Record(CheckSession(w, run, &tally));
        if (outputs.empty() && run.ok) {
          outputs = options.trace ? SessionLayerCounts(counts, run)
                                  : SessionEndToEnd(run.result.report);
        }
      });
  Values layer_times;
  if (options.trace) {
    const SpanIndex spans(tracer);
    std::vector<double> engine;
    for (int rep = kWarmupReps; rep < kWarmupReps + static_cast<int>(timings.run.size());
         ++rep) {
      engine.push_back(spans.InRun("runtime.run_training", rep) -
                       spans.InRun("hw.topology", rep) - spans.InRun("graph.plan_build", rep) -
                       spans.InRun("runtime.lint", rep));
    }
    layer_times = {
        {"core.validate_s", spans.FastestOf("core.validate")},
        {"graph.model_s", spans.FastestOf("graph.model")},
        {"graph.plan_build_s", spans.FastestOf("graph.plan_build")},
        {"hw.topology_s", spans.FastestOf("hw.topology")},
        {"runtime.lint_s", spans.FastestOf("runtime.lint")},
        {"runtime.engine_s", Fastest(engine)},
        {"runtime.attribute_s", spans.FastestOf("runtime.attribute")},
        {"runtime.report_json_s", spans.FastestOf("runtime.report_json")},
    };
  }
  return Finish(options, tracer, timings, tally, setup_ok, std::move(layer_times), outputs);
}

int RunStreamWorkload(const Options& options) {
  const StreamWorkload w = MakeStreamWorkload(options.job_trace_seed);
  Tracer tracer(options.trace);
  Tally tally;
  bool setup_ok = true;
  Values outputs;
  const Timings timings = Measure(
      options, &tracer, &setup_ok, [&](Tracer* t) { return SetupStream(w, t); },
      [&](Tracer* t) { return RunStream(w, t); },
      [&](const StreamRun& run) {
        CheckStream(run, &tally);
        if (outputs.empty() && run.status.ok()) {
          outputs = options.trace ? StreamLayerCounts(run.report) : StreamEndToEnd(run.report);
        }
      });
  Values layer_times;
  if (options.trace) {
    const SpanIndex spans(tracer);
    const double run_stream = spans.FastestOf("sched.run_stream");
    const auto segments = outputs.find("sched.segments");
    layer_times = {
        {"sched.generate_s", spans.FastestOf("sched.generate")},
        {"sched.validate_jobs_s", spans.FastestOf("sched.validate_jobs")},
        {"sched.run_stream_s", run_stream},
        {"sched.host_s_per_segment",
         segments != outputs.end() ? Ratio(run_stream, segments->second) : 0.0},
        {"sched.report_json_s", spans.FastestOf("sched.report_json")},
    };
  }
  return Finish(options, tracer, timings, tally, setup_ok, std::move(layer_times), outputs);
}

int Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <dp_cluster|pp_server|lms_server|job_stream> "
               "--seconds <1..600> --trace <0|1> [--seed <n>] [--job-trace-seed <n>] "
               "[--spans-out <path>] [--source-digest <hex>]\n";
  return 2;
}

bool ParseInt(const std::string& text, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0) {
    return false;
  }
  *out = value;
  return true;
}

int Main(int argc, char** argv) {
  if (std::getenv("HARMONY_SIM_THREADS") != nullptr) {
    return Usage("HARMONY_SIM_THREADS is set; the benchmark measures the serial simulator, "
                 "unset it (run.py does)");
  }
  Options options;
  bool have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + key);
    }
    long long number = 0;
    const bool numeric = ParseInt(value, &number);
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed" && numeric) {
      options.seed = number;
    } else if (key == "--seconds" && numeric && number >= 1 && number <= 600) {
      options.seconds = static_cast<int>(number);
      have_seconds = true;
    } else if (key == "--trace" && numeric && (number == 0 || number == 1)) {
      options.trace = number == 1;
      have_trace = true;
    } else if (key == "--job-trace-seed" && numeric && number >= 0 && number <= INT32_MAX) {
      options.job_trace_seed = static_cast<int>(number);
    } else if (key == "--spans-out") {
      options.spans_out = value;
    } else if (key == "--source-digest") {
      options.source_digest = value;
    } else {
      return Usage("bad argument " + key + " " + value);
    }
  }
  if (!have_seconds || !have_trace) {
    return Usage("--seconds and --trace are required");
  }
  if (options.workload == "job_stream") {
    return RunStreamWorkload(options);
  }
  const std::optional<SessionWorkload> session = SessionWorkloadByName(options.workload);
  if (!session.has_value()) {
    return Usage("unknown workload '" + options.workload + "'");
  }
  return RunSessionWorkload(options, *session);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
