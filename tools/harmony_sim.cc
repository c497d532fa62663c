// harmony_sim: command-line driver for the Harmony training simulator.
//
//   harmony_sim --model=bert-large --scheme=harmony-pp --gpus=4
//               --microbatches=8 --microbatch_size=5 --pack_size=2 --iterations=3
//               --trace=/tmp/schedule.json
//
// Every training run is a recovery-coordinator run, one segment long without --faults.
// Prints each segment's report (throughput, per-iteration swap volume by tensor class,
// per-device accounting) and optionally writes a chrome://tracing timeline.
#include <cstdio>
#include <functional>
#include <iostream>
#include <tuple>
#include <utility>

#include "src/core/recovery.h"
#include "src/core/schedule_render.h"
#include "src/core/session.h"
#include "src/hw/cluster_spec.h"
#include "src/core/tuner.h"
#include "src/runtime/cluster_scheduler.h"
#include "src/graph/model_zoo.h"
#include "src/runtime/plan_lint.h"
#include "src/runtime/report_io.h"
#include "src/runtime/trace_export.h"
#include "src/util/flags.h"
#include "src/util/table.h"
#include "src/util/text_file.h"

namespace harmony {
namespace {

// Prints the error and reports failure when a checked flag didn't parse. Every flag value
// goes through this path — malformed values are typed errors with a usage hint and a
// non-zero exit, never silent fallbacks to a default.
template <typename T>
bool AssignFlag(const StatusOr<T>& parsed, T* out) {
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n(run with --help for flag usage)\n";
    return false;
  }
  *out = parsed.value();
  return true;
}

// Prints a typed error and returns the exit code it ends the run with.
int Fail(const Status& status, int code) {
  std::cerr << status.ToString() << "\n";
  return code;
}

// Writes `text()` to `path` when its flag named one and announces it on stdout after
// `lead`. A failed write prints the error instead and returns false.
bool WriteOutput(const std::string& path, const char* lead,
                 const std::function<std::string()>& text) {
  if (path.empty()) {
    return true;
  }
  const Status written = WriteTextFile(path, text());
  if (!written.ok()) {
    std::cerr << written.ToString() << "\n";
    return false;
  }
  std::cout << lead << path << "\n";
  return true;
}

// The recovery summary a --faults run prints ahead of its segments' reports: the fault
// plan, each segment's span, the applied faults, and the run's recovery accounting.
void PrintRecovery(const ElasticResult& elastic, const SessionConfig& config) {
  std::cout << "fault plan: " << config.faults.ToString() << "\n\n";
  for (std::size_t i = 0; i < elastic.segments.size(); ++i) {
    const RecoverySegment& seg = elastic.segments[i];
    const RunReport& report = seg.result.report;
    std::printf("segment %zu: %d gpu(s), iterations [%d, %d), completed %zu, makespan "
                "%.3f s%s\n",
                i, static_cast<int>(seg.gpus.size()), seg.start_iteration,
                seg.start_iteration + seg.iterations, report.iterations.size(), report.makespan,
                report.failed ? (" — " + report.failure_kind).c_str() : "");
  }
  std::cout << "\napplied faults:\n" << elastic.FaultTrace();
  const RecoveryStats& stats = elastic.stats;
  std::printf(
      "\nrecovery: %d failure(s), lost work %.3f s, recovery latency %.3f s, re-swap "
      "%s\ncheckpoints: %d committed (%s), completed %d/%d iterations, total makespan "
      "%.3f s\n",
      stats.failures, stats.lost_work_sec, stats.recovery_latency_sec,
      FormatBytes(stats.reswap_bytes).c_str(), elastic.checkpoints_committed,
      FormatBytes(elastic.checkpoint_bytes).c_str(), elastic.completed_iterations,
      config.iterations, elastic.total_makespan);
  if (stats.flows_retried > 0 || stats.degradations > 0 || stats.retry_exhaustions > 0 ||
      stats.ckpt_verified > 0 || stats.ckpt_corrupt_detected > 0) {
    // Only printed when the degraded-mode tier actually engaged, so pre-resilience
    // fault-plan output stays byte-identical.
    std::printf("resilience: %lld flow retr%s absorbed (%.3f s backoff), %d "
                "degradation(s), %d retry exhaustion(s), checkpoint verification %d ok "
                "/ %d corrupt\n",
                static_cast<long long>(stats.flows_retried),
                stats.flows_retried == 1 ? "y" : "ies", stats.retry_backoff_sec,
                stats.degradations, stats.retry_exhaustions, stats.ckpt_verified,
                stats.ckpt_corrupt_detected);
  }
}

// One run's report, or one recovery segment's: plan stats, summary, the per-device,
// per-class, per-link and per-tier tables, then the attribution and the timeline when
// asked for.
void PrintReport(const SessionResult& result, bool explain, bool timeline) {
  const RunReport& report = result.report;
  std::cout << result.plan.Stats() << "\n\n" << report.Summary() << "\n\n";

  TablePrinter devices({"device", "busy (s)", "swap-in", "swap-out", "high water",
                        "peak task WS", "demand"});
  for (int d = 0; d < report.num_devices(); ++d) {
    const auto i = static_cast<std::size_t>(d);
    devices.Row()
        .Cell("gpu" + std::to_string(d))
        .Cell(report.device_busy[i], 2)
        .Cell(FormatBytes(report.device_swap_in[i]))
        .Cell(FormatBytes(report.device_swap_out[i]))
        .Cell(FormatBytes(report.device_high_water[i]))
        .Cell(FormatBytes(result.peak_task_working_set[i]))
        .Cell(FormatBytes(result.memory_demand_per_device[i]));
  }
  devices.Print(std::cout);

  // A segment cut short in its first iteration has no steady iteration to split by class.
  if (!report.iterations.empty()) {
    std::cout << "\nper-class swap volume (steady iteration):\n";
    TablePrinter classes({"tensor class", "swap-in", "swap-out"});
    const IterationStats& it =
        report.iterations.size() > 1 ? report.iterations[1] : report.iterations[0];
    for (int c = 0; c < kNumTensorClasses; ++c) {
      classes.Row()
          .Cell(TensorClassName(static_cast<TensorClass>(c)))
          .Cell(FormatBytes(it.swap_in_by_class[c]))
          .Cell(FormatBytes(it.swap_out_by_class[c]));
    }
    classes.Print(std::cout);
  }

  std::cout << "\nlink usage:\n";
  TablePrinter links({"link", "bytes", "busy (s)", "utilization"});
  for (const RunReport::LinkUsage& link : report.links) {
    if (link.bytes == 0) {
      continue;
    }
    links.Row()
        .Cell(link.name)
        .Cell(FormatBytes(link.bytes))
        .Cell(link.busy_time, 2)
        .Cell(link.utilization, 2);
  }
  links.Print(std::cout);

  // Multi-node runs get the per-tier rollup of the same link totals; single-server output
  // is unchanged (tiers empty).
  if (!report.tiers.empty()) {
    std::cout << "\ntier byte split:\n";
    TablePrinter tiers({"tier", "bytes", "busy (s)", "flows", "collective", "swap"});
    for (const RunReport::TierUsage& tier : report.tiers) {
      tiers.Row()
          .Cell(tier.name)
          .Cell(FormatBytes(tier.bytes))
          .Cell(tier.busy_time, 2)
          .Cell(tier.flows)
          .Cell(FormatBytes(tier.of(TransferKind::kCollective)))
          .Cell(FormatBytes(tier.of(TransferKind::kSwapIn) +
                            tier.of(TransferKind::kSwapOut)));
    }
    tiers.Print(std::cout);
  }

  if (explain) {
    std::cout << "\n" << Attribute(report).Render();
  }
  if (timeline) {
    std::cout << "\n" << RenderTimeline(result.plan, result.timeline);
  }
}

int Run(int argc, char** argv) {
  FlagParser flags;
  flags.Define("model", "bert-large",
              "lenet | alexnet | gnmt | amoebanet | bert-base | bert-large | gpt2-xl | toy")
      .Define("scheme", "harmony-pp",
              "baseline-dp | baseline-pp | harmony-dp | harmony-pp | harmony-tp | serving")
      .Define("gpus", "4", "number of GPUs per node")
      .Define("gpu_memory_gib", "11", "per-GPU memory (GiB)")
      .Define("gpus_per_switch", "4", "GPUs below each PCIe switch")
      .Define("nodes", "1", "number of servers (1 = single commodity server, no NICs)")
      .Define("nodes_per_rack", "0",
              "servers per top-of-rack switch (0 = one rack holds every node)")
      .Define("nic_gbps", "25", "per-node NIC bandwidth, Gbit/s (host <-> NIC <-> ToR)")
      .Define("rack_gbps", "100", "rack uplink bandwidth, Gbit/s (ToR <-> spine)")
      .Define("cluster", "",
              "cluster topology spec 'nodes=N,gpus_per_node=G,nodes_per_rack=R,"
              "nic_gbps=X,rack_gbps=Y' (any subset of keys); overrides --nodes, --gpus, "
              "--nodes_per_rack, --nic_gbps, and --rack_gbps")
      .Define("microbatches", "8", "microbatches per GPU (DP) / total (PP)")
      .Define("microbatch_size", "5", "samples per microbatch")
      .Define("iterations", "3", "training iterations to simulate")
      .Define("pack_size", "2", "layers per pack (Harmony-PP)")
      .Define("group_size", "0", "microbatches per input-batch group (0 = whole minibatch)")
      .Define("recompute", "false", "activation recomputation instead of stashing")
      .Define("prefetch", "true", "double-buffer the next task's working set")
      .Define("grouping", "true", "input-batch grouping")
      .Define("jit", "true", "just-in-time weight updates")
      .Define("p2p", "true", "device-to-device transfers")
      .Define("lookahead_eviction", "false", "Belady-style scheduler-informed eviction")
      .Define("tune", "false",
              "run the Performance Tuner sweep (pack x group x microbatch) instead of a "
              "single training run")
      .Define("tuner_threads", "0",
              "worker threads for the tuner sweep (0 = one per hardware thread)")
      .Define("timeline", "false", "print the ASCII schedule timeline")
      .Define("lint", "false",
              "build the plan and run the full static linter (deep checks included) instead "
              "of executing it; --json writes the harmony-lint-report v1 instead of the run "
              "report; exits 1 if the plan has lint errors")
      .Define("explain", "false",
              "print the bottleneck attribution (dominant stall per device, top contended "
              "link, top-churn tensors)")
      .Define("sched", "",
              "run the multi-tenant cluster scheduler with this policy (fifo | priority) "
              "instead of one training session; supply the workload with --jobs and/or "
              "--trace (which is the arrival-trace spec in this mode)")
      .Define("jobs", "",
              "explicit job stream for --sched: '(train|serve)@<arrival>:tenant=<t>,"
              "model=<m>,scheme=<s>,gpus=<n>,iters=<n>,mb=<n>,mbs=<n>,prio=<n>', "
              "semicolon-separated; every key optional")
      .Define("quota", "",
              "per-tenant quotas for --sched: '<tenant|*>:mem_gib=<g>,bw=<frac>', "
              "semicolon-separated; mem_gib caps the tenant's aggregate host-memory "
              "footprint, bw reserves a (0,1] share of host-uplink/NIC bandwidth")
      .Define("trace", "",
              "write a chrome://tracing JSON to this path; with --sched this is instead "
              "the arrival-trace spec 'poisson:seed=<s>,rate=<r>,horizon=<h>"
              "[,serve_frac=<f>]' (also bursty:...,burst=<n>,period=<p> and "
              "diurnal:...,period=<p>)")
      .Define("csv", "", "write per-iteration metrics CSV to this path")
      .Define("json", "", "write the full structured run report (JSON) to this path")
      .Define("faults", "",
              "fault schedule: 'fail@<t>:gpu<i>', 'degrade@<t>:gpu<i>:<scale>:<dur>', "
              "'degrade@<t>:host:<scale>:<dur>', 'mem@<t>:<scale>:<dur>', "
              "'flow_flap@<t>:<gpu<i>|host|nic<i>|rack<i>>', "
              "'brownout@<t>:<gpu<i>|host|nic<i>|rack<i>>:<scale>:<dur>', "
              "'gpu_slow@<t>:gpu<i>:<scale>:<dur>', 'ckpt_corrupt@<t>', or "
              "'rand:seed=<s>,mtbf=<sec>,horizon=<sec>[,gpus=<n>][,nics=<n>][,racks=<n>]"
              "[,fail=<0|1>][,ext=<0|1>][,ckpt=<0|1>]', semicolon-separated; durations are "
              "> 0 seconds or 'inf'; nic/rack targets hit inter-node links and need "
              "--nodes > 1; empty = no faults")
      .Define("checkpoint_every", "0",
              "host-checkpoint weights every k iterations (0 = never); the recovery path "
              "resumes from the last committed checkpoint after a GPU fail-stop")
      .Define("watchdog", "0",
              "flag the run as stalled after this many sim seconds without a task "
              "completion (0 = off)")
      .Define("retry_max", "0",
              "transfer retry budget: total issues allowed per flow before a transient "
              "abort escalates (0 = retries off)")
      .Define("retry_base", "0.001",
              "base backoff delay in sim seconds for transfer retries (capped exponential, "
              "cap = 64x base)")
      .Define("ckpt_keep", "2",
              "checkpoint generations retained in the integrity-verified ring buffer")
      .Define("straggler_threshold", "0",
              "EWMA service-time ratio above which a device is classified a straggler and "
              "the segment degrades gracefully (0 = off; must be > 1 when set)")
      .Define("help", "false", "show this help");
  const Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::cerr << parsed.ToString() << "\n\n" << flags.Usage(argv[0]);
    return 2;
  }
  bool help = false;
  if (!AssignFlag(flags.GetCheckedBool("help"), &help)) {
    return 2;
  }
  if (help) {
    std::cout << flags.Usage(argv[0]);
    return 0;
  }

  const StatusOr<Model> model = ModelByName(flags.Get("model"));
  if (!model.ok()) {
    return Fail(model.status(), 2);
  }
  const StatusOr<Scheme> scheme = SchemeByName(flags.Get("scheme"));
  if (!scheme.ok()) {
    return Fail(scheme.status(), 2);
  }

  SessionConfig config;
  double gpu_memory_gib = 0.0;
  double nic_gbps = 0.0, rack_gbps = 0.0;
  if (!AssignFlag(flags.GetCheckedInt("gpus"), &config.server.num_gpus) ||
      !AssignFlag(flags.GetCheckedInt("gpus_per_switch"), &config.server.gpus_per_switch) ||
      !AssignFlag(flags.GetCheckedInt("nodes"), &config.num_nodes) ||
      !AssignFlag(flags.GetCheckedInt("nodes_per_rack"), &config.nodes_per_rack) ||
      !AssignFlag(flags.GetCheckedDouble("nic_gbps"), &nic_gbps) ||
      !AssignFlag(flags.GetCheckedDouble("rack_gbps"), &rack_gbps) ||
      !AssignFlag(flags.GetCheckedDouble("gpu_memory_gib"), &gpu_memory_gib) ||
      !AssignFlag(flags.GetCheckedInt("microbatches"), &config.microbatches) ||
      !AssignFlag(flags.GetCheckedInt("microbatch_size"), &config.microbatch_size) ||
      !AssignFlag(flags.GetCheckedInt("iterations"), &config.iterations) ||
      !AssignFlag(flags.GetCheckedInt("pack_size"), &config.pack_size) ||
      !AssignFlag(flags.GetCheckedInt("group_size"), &config.group_size) ||
      !AssignFlag(flags.GetCheckedInt("checkpoint_every"), &config.checkpoint_every) ||
      !AssignFlag(flags.GetCheckedDouble("watchdog"), &config.watchdog_timeout) ||
      !AssignFlag(flags.GetCheckedInt("retry_max"), &config.retry_max) ||
      !AssignFlag(flags.GetCheckedDouble("retry_base"), &config.retry_base) ||
      !AssignFlag(flags.GetCheckedInt("ckpt_keep"), &config.ckpt_keep) ||
      !AssignFlag(flags.GetCheckedDouble("straggler_threshold"),
                  &config.straggler_threshold)) {
    return 2;
  }
  config.server.gpu.memory_bytes =
      static_cast<Bytes>(gpu_memory_gib * static_cast<double>(kGiB));
  config.scheme = scheme.value();
  config.nic_link = NicLinkSpec(nic_gbps);
  config.rack_link = RackLinkSpec(rack_gbps);
  if (!flags.Get("cluster").empty()) {
    // --cluster is the one-flag spelling of the fleet shape; it wins over the individual
    // topology flags so scripted sweeps can override a baseline command line wholesale.
    ClusterSpec cluster;
    if (!AssignFlag(ParseClusterSpec(flags.Get("cluster")), &cluster)) {
      return 2;
    }
    config.num_nodes = cluster.nodes;
    config.nodes_per_rack = cluster.nodes_per_rack;
    config.server.num_gpus = cluster.gpus_per_node;
    config.nic_link = NicLinkSpec(cluster.nic_gbps);
    config.rack_link = RackLinkSpec(cluster.rack_gbps);
  }
  bool tune = false, timeline = false, explain = false, lint = false;
  if (!AssignFlag(flags.GetCheckedBool("recompute"), &config.recompute) ||
      !AssignFlag(flags.GetCheckedBool("prefetch"), &config.prefetch) ||
      !AssignFlag(flags.GetCheckedBool("grouping"), &config.grouping) ||
      !AssignFlag(flags.GetCheckedBool("jit"), &config.jit_updates) ||
      !AssignFlag(flags.GetCheckedBool("p2p"), &config.p2p) ||
      !AssignFlag(flags.GetCheckedBool("lookahead_eviction"), &config.lookahead_eviction) ||
      !AssignFlag(flags.GetCheckedBool("tune"), &tune) ||
      !AssignFlag(flags.GetCheckedBool("timeline"), &timeline) ||
      !AssignFlag(flags.GetCheckedBool("explain"), &explain) ||
      !AssignFlag(flags.GetCheckedBool("lint"), &lint)) {
    return 2;
  }
  if (!flags.Get("faults").empty()) {
    const StatusOr<FaultPlan> faults = ParseFaultSpec(flags.Get("faults"));
    if (!faults.ok()) {
      return Fail(faults.status(), 2);
    }
    config.faults = faults.value();
  }
  const bool faulted = !config.faults.empty();
  const std::string& csv = flags.Get("csv");
  const std::string& json = flags.Get("json");
  const std::string& trace = flags.Get("trace");
  // Each mode refuses the flags it cannot honor rather than exit 0 without them: the
  // scheduler runs no single session (and reads --trace as its arrival trace), the tuner
  // ends in its table, the lint run writes only its own report, and a --faults run has a
  // report per segment where --csv and --trace name one file for one run. Each row lists
  // the refused flags as its message spells them, and a given flag is refused when its
  // name appears there (no listed name contains another).
  const std::tuple<const char*, bool, std::string> refusals[] = {
      {"--sched", !flags.Get("sched").empty(), "--tune, --lint, --timeline, --faults, or --csv"},
      {"--tune", tune, "--lint, --json, --csv, --trace, --timeline, or --explain"},
      {"--lint", lint, "--csv, --trace, --timeline, or --explain"},
      {"--faults", faulted, "--csv or --trace"}};
  const std::pair<const char*, bool> given[] = {
      {"--tune", tune},          {"--lint", lint},       {"--faults", faulted},
      {"--timeline", timeline},  {"--explain", explain}, {"--csv", !csv.empty()},
      {"--json", !json.empty()}, {"--trace", !trace.empty()}};
  for (const auto& [mode, on, refused] : refusals) {
    for (const auto& [flag, set] : given) {
      if (on && set && refused.find(flag) != std::string::npos) {
        std::cerr << mode << " cannot be combined with " << refused
                  << "\n(run with --help for flag usage)\n";
        return 2;
      }
    }
  }

  if (!flags.Get("sched").empty()) {
    // Scheduler mode: run a multi-tenant job stream over the cluster instead of one
    // session. --trace is the arrival-trace spec here (chrome tracing has no meaning for
    // a job stream).
    ClusterSchedulerConfig sched;
    sched.server = config.server;
    sched.num_nodes = config.num_nodes;
    sched.nodes_per_rack = config.nodes_per_rack;
    sched.nic_link = config.nic_link;
    sched.rack_link = config.rack_link;
    std::vector<JobSpec> jobs, generated;
    if (!AssignFlag(SchedPolicyByName(flags.Get("sched")), &sched.policy) ||
        (!flags.Get("quota").empty() &&
         !AssignFlag(ParseQuotaSpec(flags.Get("quota")), &sched.quotas)) ||
        (!flags.Get("jobs").empty() && !AssignFlag(ParseJobsSpec(flags.Get("jobs")), &jobs)) ||
        (!trace.empty() &&
         !AssignFlag(GenerateTrace(trace, sched.server.num_gpus, sched.num_nodes,
                                   flags.Get("model")),
                     &generated))) {
      return 2;
    }
    jobs.insert(jobs.end(), generated.begin(), generated.end());
    if (jobs.empty()) {
      std::cerr << "--sched needs a workload: pass --jobs and/or --trace\n(run with "
                   "--help for flag usage)\n";
      return 2;
    }
    const StatusOr<ClusterReport> report = RunJobStream(std::move(jobs), sched);
    if (!report.ok()) {
      return Fail(report.status(), 1);
    }
    std::cout << (explain ? report.value().Render() : report.value().Summary() + "\n");
    return WriteOutput(json, "wrote cluster report to ",
                       [&] { return ClusterReportToJson(report.value()); })
               ? 0
               : 1;
  }
  if (!flags.Get("jobs").empty() || !flags.Get("quota").empty()) {
    std::cerr << "--jobs/--quota only apply to scheduler mode; add --sched=<fifo|priority>"
                 "\n(run with --help for flag usage)\n";
    return 2;
  }

  config.record_timeline = timeline || !trace.empty();

  if (tune) {
    // Tuner mode: sweep the memory-performance tango knobs around the requested config and
    // report the profiled frontier instead of running one fixed schedule.
    TunerOptions options;
    options.minibatch_samples = config.microbatches * config.microbatch_size;
    options.iterations = config.iterations;
    if (!AssignFlag(flags.GetCheckedInt("tuner_threads"), &options.num_threads)) {
      return 2;
    }
    const StatusOr<TunerResult> swept = TunePp(model.value(), config, options);
    if (!swept.ok()) {
      return Fail(swept.status(), 1);
    }
    const TunerResult& tuned = swept.value();
    std::cout << model.value().Summary() << "\n" << RenderTunerTable(tuned) << "\n";
    std::printf("tuner pick: pack=%d, group=%d, microbatch=%d (%d microbatches) -> %.2f "
                "samples/s\n",
                tuned.best.pack_size, tuned.best.group_size, tuned.best.microbatch_size,
                tuned.best.microbatches, tuned.best.throughput);
    if (!tuned.best.why.empty()) {
      std::printf("tuner pick why: %s\n", tuned.best.why.c_str());
    }
    return 0;
  }

  if (lint) {
    // Lint mode: run the full static analysis (deep checks included) on the session's plan
    // and report instead of executing. --json switches the output file to the lint report.
    const StatusOr<PreparedSession> prepared = PrepareSession(model.value(), config);
    if (!prepared.ok()) {
      return Fail(prepared.status(), 1);
    }
    LintOptions options;
    options.deep = true;
    for (const GpuSpec& gpu : prepared.value().machine.gpus) {
      options.device_capacities.push_back(gpu.memory_bytes);
    }
    const LintReport report =
        LintPlan(prepared.value().plan, prepared.value().registry, options);
    std::cout << report.Render();
    if (!WriteOutput(json, "wrote lint report to ", [&] { return report.ToJson() + "\n"; })) {
      return 1;
    }
    return report.num_errors() > 0 ? 1 : 0;
  }

  // Training: the recovery coordinator builds and validates each segment, so a
  // configuration that cannot start comes back with no segment, a message and a non-zero
  // exit, not an HCHECK abort. Without faults the run is one segment and prints no header.
  const ElasticResult elastic = RunTrainingElastic(model.value(), config);
  if (elastic.segments.empty()) {
    return Fail(elastic.status, 1);
  }
  std::cout << model.value().Summary() << "\n";
  if (faulted) {
    PrintRecovery(elastic, config);
  }
  for (std::size_t i = 0; i < elastic.segments.size(); ++i) {
    std::cout << (faulted ? "\nsegment " + std::to_string(i) + " report:\n" : "");
    PrintReport(elastic.segments[i].result, explain, timeline);
  }
  // --csv and --trace are refused under --faults, so they only see a one-segment run.
  const SessionResult& last = elastic.final_segment().result;
  if (!WriteOutput(csv, "\nwrote per-iteration CSV to ",
                   [&] { return ReportToCsv(last.report); }) ||
      !WriteOutput(json, "\nwrote structured report to ",
                   [&] { return faulted ? elastic.ToJson() : ReportToJson(last.report); }) ||
      !WriteOutput(trace, "\nwrote chrome trace to ",
                   [&] { return TimelineToChromeTrace(last.plan, last.timeline, &last.report); })) {
    return 1;
  }
  return elastic.status.ok() ? 0 : Fail(elastic.status, 1);
}

}  // namespace
}  // namespace harmony

int main(int argc, char** argv) { return harmony::Run(argc, argv); }
