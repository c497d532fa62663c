// harmony_sim: command-line driver for the Harmony training simulator.
//
//   harmony_sim --model=bert-large --scheme=harmony-pp --gpus=4
//               --microbatches=8 --microbatch_size=5 --pack_size=2 --iterations=3
//               --trace=/tmp/schedule.json
//
// Prints the run report (throughput, per-iteration swap volume by tensor class, per-device
// accounting) and optionally writes a chrome://tracing timeline.
#include <cstdio>
#include <iostream>
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
    std::cerr << model.status().ToString() << "\n";
    return 2;
  }
  const StatusOr<Scheme> scheme = SchemeByName(flags.Get("scheme"));
  if (!scheme.ok()) {
    std::cerr << scheme.status().ToString() << "\n";
    return 2;
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
    const StatusOr<ClusterSpec> cluster = ParseClusterSpec(flags.Get("cluster"));
    if (!cluster.ok()) {
      std::cerr << cluster.status().ToString() << "\n(run with --help for flag usage)\n";
      return 2;
    }
    config.num_nodes = cluster.value().nodes;
    config.nodes_per_rack = cluster.value().nodes_per_rack;
    config.server.num_gpus = cluster.value().gpus_per_node;
    config.nic_link = NicLinkSpec(cluster.value().nic_gbps);
    config.rack_link = RackLinkSpec(cluster.value().rack_gbps);
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
  if (!flags.Get("sched").empty()) {
    // Scheduler mode: run a multi-tenant job stream over the cluster instead of one
    // session. --trace is the arrival-trace spec here (chrome tracing has no meaning for
    // a job stream), and the single-run modes are unavailable.
    const StatusOr<SchedPolicy> policy = SchedPolicyByName(flags.Get("sched"));
    if (!policy.ok()) {
      std::cerr << policy.status().ToString() << "\n(run with --help for flag usage)\n";
      return 2;
    }
    if (tune || lint || timeline || !flags.Get("faults").empty() ||
        !flags.Get("csv").empty()) {
      std::cerr << "--sched cannot be combined with --tune, --lint, --timeline, --faults, "
                   "or --csv\n(run with --help for flag usage)\n";
      return 2;
    }
    ClusterSchedulerConfig sched;
    sched.server = config.server;
    sched.num_nodes = config.num_nodes;
    sched.nodes_per_rack = config.nodes_per_rack;
    sched.nic_link = config.nic_link;
    sched.rack_link = config.rack_link;
    sched.policy = policy.value();
    if (!flags.Get("quota").empty()) {
      const StatusOr<QuotaMap> quotas = ParseQuotaSpec(flags.Get("quota"));
      if (!quotas.ok()) {
        std::cerr << quotas.status().ToString() << "\n(run with --help for flag usage)\n";
        return 2;
      }
      sched.quotas = quotas.value();
    }
    std::vector<JobSpec> jobs;
    if (!flags.Get("jobs").empty()) {
      const StatusOr<std::vector<JobSpec>> parsed_jobs = ParseJobsSpec(flags.Get("jobs"));
      if (!parsed_jobs.ok()) {
        std::cerr << parsed_jobs.status().ToString()
                  << "\n(run with --help for flag usage)\n";
        return 2;
      }
      jobs = parsed_jobs.value();
    }
    if (!flags.Get("trace").empty()) {
      const StatusOr<std::vector<JobSpec>> generated = GenerateTrace(
          flags.Get("trace"), sched.server.num_gpus, sched.num_nodes, flags.Get("model"));
      if (!generated.ok()) {
        std::cerr << generated.status().ToString() << "\n(run with --help for flag usage)\n";
        return 2;
      }
      jobs.insert(jobs.end(), generated.value().begin(), generated.value().end());
    }
    if (jobs.empty()) {
      std::cerr << "--sched needs a workload: pass --jobs and/or --trace\n(run with "
                   "--help for flag usage)\n";
      return 2;
    }
    const StatusOr<ClusterReport> report = RunJobStream(std::move(jobs), sched);
    if (!report.ok()) {
      std::cerr << report.status().ToString() << "\n";
      return 1;
    }
    if (explain) {
      std::cout << report.value().Render();
    } else {
      std::cout << report.value().Summary() << "\n";
    }
    if (!flags.Get("json").empty()) {
      const Status written = WriteClusterReportJson(report.value(), flags.Get("json"));
      if (!written.ok()) {
        std::cerr << written.ToString() << "\n";
        return 1;
      }
      std::cout << "wrote cluster report to " << flags.Get("json") << "\n";
    }
    return 0;
  }
  if (!flags.Get("jobs").empty() || !flags.Get("quota").empty()) {
    std::cerr << "--jobs/--quota only apply to scheduler mode; add --sched=<fifo|priority>"
                 "\n(run with --help for flag usage)\n";
    return 2;
  }

  config.record_timeline = timeline || !flags.Get("trace").empty();
  if (!flags.Get("faults").empty()) {
    const StatusOr<FaultPlan> faults = ParseFaultSpec(flags.Get("faults"));
    if (!faults.ok()) {
      std::cerr << faults.status().ToString() << "\n";
      return 2;
    }
    config.faults = faults.value();
  }
  if ((tune || (!config.faults.empty() && !lint)) &&
      (explain || timeline || !flags.Get("json").empty() || !flags.Get("csv").empty() ||
       !flags.Get("trace").empty())) {
    // Neither mode ends in one run report for these flags to render or write.
    std::cerr << (tune ? "--tune" : "--faults")
              << " cannot be combined with --json, --csv, --trace, --timeline, or --explain"
                 "\n(run with --help for flag usage)\n";
    return 2;
  }

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
      std::cerr << swept.status().ToString() << "\n";
      return 1;
    }
    const TunerResult& tuned = swept.value();
    std::cout << model.value().Summary() << "\n";
    std::cout << RenderTunerTable(tuned) << "\n";
    std::printf("tuner pick: pack=%d, group=%d, microbatch=%d (%d microbatches) -> %.2f "
                "samples/s\n",
                tuned.best.pack_size, tuned.best.group_size, tuned.best.microbatch_size,
                tuned.best.microbatches, tuned.best.throughput);
    if (!tuned.best.why.empty()) {
      std::printf("tuner pick why: %s\n", tuned.best.why.c_str());
    }
    return 0;
  }

  if (!config.faults.empty() && !lint) {
    // Elastic mode: run with fault injection and recover onto survivors after fail-stops.
    // Each segment builds its own session, so only the cheap probe validates up front;
    // bad configurations are messages + a non-zero exit, not HCHECK aborts.
    const Status valid = ValidateSessionConfig(model.value(), config);
    if (!valid.ok()) {
      std::cerr << valid.ToString() << "\n";
      return 1;
    }
    std::cout << model.value().Summary() << "\n";
    std::cout << "fault plan: " << config.faults.ToString() << "\n\n";
    const ElasticResult elastic = RunTrainingElastic(model.value(), config);
    for (std::size_t i = 0; i < elastic.segments.size(); ++i) {
      const RecoverySegment& seg = elastic.segments[i];
      std::printf("segment %zu: %d gpu(s), iterations [%d, %d), completed %zu, makespan "
                  "%.3f s%s\n",
                  i, static_cast<int>(seg.gpus.size()), seg.start_iteration,
                  seg.start_iteration + seg.iterations, seg.result.report.iterations.size(),
                  seg.result.report.makespan,
                  seg.result.report.failed
                      ? (" — " + seg.result.report.failure_kind).c_str()
                      : "");
    }
    std::cout << "\napplied faults:\n" << elastic.FaultTrace();
    std::printf(
        "\nrecovery: %d failure(s), lost work %.3f s, recovery latency %.3f s, re-swap "
        "%s\ncheckpoints: %d committed (%s), completed %d/%d iterations, total makespan "
        "%.3f s\n",
        elastic.stats.failures, elastic.stats.lost_work_sec,
        elastic.stats.recovery_latency_sec, FormatBytes(elastic.stats.reswap_bytes).c_str(),
        elastic.checkpoints_committed, FormatBytes(elastic.checkpoint_bytes).c_str(),
        elastic.completed_iterations, config.iterations, elastic.total_makespan);
    std::int64_t flows_retried = 0;
    double retry_backoff_sec = 0.0;
    for (const RecoverySegment& seg : elastic.segments) {
      flows_retried += seg.result.report.flows_retried;
      retry_backoff_sec += seg.result.report.retry_backoff_sec;
    }
    if (flows_retried > 0 || elastic.stats.degradations > 0 ||
        elastic.stats.retry_exhaustions > 0 || elastic.stats.ckpt_verified > 0 ||
        elastic.stats.ckpt_corrupt_detected > 0) {
      // Only printed when the degraded-mode tier actually engaged, so pre-resilience
      // fault-plan output stays byte-identical.
      std::printf("resilience: %lld flow retr%s absorbed (%.3f s backoff), %d "
                  "degradation(s), %d retry exhaustion(s), checkpoint verification %d ok "
                  "/ %d corrupt\n",
                  static_cast<long long>(flows_retried), flows_retried == 1 ? "y" : "ies",
                  retry_backoff_sec, elastic.stats.degradations,
                  elastic.stats.retry_exhaustions, elastic.stats.ckpt_verified,
                  elastic.stats.ckpt_corrupt_detected);
    }
    if (!elastic.status.ok()) {
      std::cerr << elastic.status.ToString() << "\n";
      return 1;
    }
    std::cout << "\nfinal segment report:\n"
              << elastic.final_segment().result.report.Summary() << "\n";
    return 0;
  }

  // Every other mode builds the session once and lints or runs exactly that plan. Bad
  // configurations are messages + a non-zero exit instead of HCHECK aborts.
  StatusOr<PreparedSession> prepared = PrepareSession(model.value(), config);
  if (!prepared.ok()) {
    std::cerr << prepared.status().ToString() << "\n";
    return 1;
  }

  if (lint) {
    // Lint mode: run the full static analysis (deep checks included) on the prepared plan
    // and report instead of executing. --json switches the output file to the lint report.
    const PreparedSession& session = prepared.value();
    LintOptions options;
    options.deep = true;
    for (const GpuSpec& gpu : session.machine.gpus) {
      options.device_capacities.push_back(gpu.memory_bytes);
    }
    const LintReport report = LintPlan(session.plan, session.registry, options);
    std::cout << report.Render();
    if (!flags.Get("json").empty()) {
      const Status written = WriteTextFile(flags.Get("json"), report.ToJson() + "\n");
      if (!written.ok()) {
        std::cerr << written.ToString() << "\n";
        return 1;
      }
      std::cout << "wrote lint report to " << flags.Get("json") << "\n";
    }
    return report.num_errors() > 0 ? 1 : 0;
  }

  std::cout << model.value().Summary() << "\n";
  const SessionResult result = RunTraining(std::move(prepared).value());
  std::cout << result.plan.Stats() << "\n\n";
  std::cout << result.report.Summary() << "\n\n";

  TablePrinter devices({"device", "busy (s)", "swap-in", "swap-out", "high water",
                        "peak task WS", "demand"});
  for (int d = 0; d < result.report.num_devices(); ++d) {
    devices.Row()
        .Cell("gpu" + std::to_string(d))
        .Cell(result.report.device_busy[static_cast<std::size_t>(d)], 2)
        .Cell(FormatBytes(result.report.device_swap_in[static_cast<std::size_t>(d)]))
        .Cell(FormatBytes(result.report.device_swap_out[static_cast<std::size_t>(d)]))
        .Cell(FormatBytes(result.report.device_high_water[static_cast<std::size_t>(d)]))
        .Cell(FormatBytes(result.peak_task_working_set[static_cast<std::size_t>(d)]))
        .Cell(FormatBytes(result.memory_demand_per_device[static_cast<std::size_t>(d)]));
  }
  devices.Print(std::cout);

  std::cout << "\nper-class swap volume (steady iteration):\n";
  TablePrinter classes({"tensor class", "swap-in", "swap-out"});
  const IterationStats& it = result.report.iterations.size() > 1
                                 ? result.report.iterations[1]
                                 : result.report.iterations[0];
  for (int c = 0; c < kNumTensorClasses; ++c) {
    classes.Row()
        .Cell(TensorClassName(static_cast<TensorClass>(c)))
        .Cell(FormatBytes(it.swap_in_by_class[c]))
        .Cell(FormatBytes(it.swap_out_by_class[c]));
  }
  classes.Print(std::cout);

  std::cout << "\nlink usage:\n";
  TablePrinter links({"link", "bytes", "busy (s)", "utilization"});
  for (const RunReport::LinkUsage& link : result.report.links) {
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
  if (!result.report.tiers.empty()) {
    std::cout << "\ntier byte split:\n";
    TablePrinter tiers({"tier", "bytes", "busy (s)", "flows", "collective", "swap"});
    for (const RunReport::TierUsage& tier : result.report.tiers) {
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
    std::cout << "\n" << Attribute(result.report).Render();
  }
  if (timeline) {
    std::cout << "\n" << RenderTimeline(result.plan, result.timeline);
  }
  if (!flags.Get("csv").empty()) {
    const Status written = WriteReportCsv(result.report, flags.Get("csv"));
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "\nwrote per-iteration CSV to " << flags.Get("csv") << "\n";
  }
  if (!flags.Get("json").empty()) {
    const Status written = WriteReportJson(result.report, flags.Get("json"));
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "\nwrote structured report to " << flags.Get("json") << "\n";
  }
  if (!flags.Get("trace").empty()) {
    const Status written =
        WriteChromeTrace(result.plan, result.timeline, flags.Get("trace"), &result.report);
    if (!written.ok()) {
      std::cerr << written.ToString() << "\n";
      return 1;
    }
    std::cout << "\nwrote chrome trace to " << flags.Get("trace") << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace harmony

int main(int argc, char** argv) { return harmony::Run(argc, argv); }
