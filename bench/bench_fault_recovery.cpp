// Fault tolerance under commodity-server failure rates: what elastic recovery costs.
//
// Three sweeps on a 4-GPU Harmony-PP configuration, all deterministic (seeded fault
// schedules, no wall clock):
//   1. throughput vs MTBF — seeded random fault schedules at decreasing mean time between
//      faults; the coordinator rebinds onto survivors after a fail-stop, so effective
//      throughput degrades gracefully instead of dropping to zero,
//   2. degraded-mode overhead — permanent host-uplink degradation at several scales (the
//      "slow PCIe switch" regime) against the clean run, and
//   3. checkpoint overhead — failure-free runs at several checkpoint cadences, isolating
//      the cost of the insurance itself.
// Results go to stdout as tables and to BENCH_fault_recovery.json for tooling.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/core/recovery.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/sim/fault_plan.h"
#include "src/util/table.h"

namespace {

struct MtbfPoint {
  double mtbf = 0.0;  // 0 = failure free
  int plan_events = 0;
  int failures = 0;
  int completed = 0;
  double throughput = 0.0;
  double lost_work = 0.0;
  double recovery_latency = 0.0;
  double reswap_gb = 0.0;
};

struct OverheadPoint {
  std::string label;
  double value = 0.0;     // knob value (scale or cadence)
  double makespan = 0.0;
  double overhead = 0.0;  // fraction over the clean run
};

}  // namespace

int main() {
  using namespace harmony;
  std::cout << "=== Fault injection + elastic recovery: throughput vs MTBF, degraded-mode "
               "and checkpoint overhead ===\n\n";

  UniformModelConfig mc;
  mc.name = "uniform-fault-bench";
  mc.num_layers = 12;
  mc.param_bytes = 64 * kMiB;
  mc.act_bytes_per_sample = 16 * kMiB;
  mc.optimizer_state_factor = 1.0;
  mc.fwd_flops_per_sample = 2e11;
  const Model model = MakeUniformModel(mc);
  std::cout << model.Summary() << "\n";

  SessionConfig base;
  base.server.num_gpus = 4;
  base.server.gpus_per_switch = 4;
  base.server.gpu = TestGpu(512 * kMiB, TFlops(2.0));
  base.scheme = Scheme::kHarmonyPp;
  base.microbatches = 4;
  base.microbatch_size = 2;
  base.iterations = 8;
  base.checkpoint_every = 2;

  const ElasticResult clean = RunTrainingElastic(model, base);
  const double clean_makespan = clean.total_makespan;
  const double samples =
      static_cast<double>(clean.final_segment().result.report.samples_per_iteration);
  std::printf("failure-free: %d iterations in %.3f s (%.2f samples/s), %d checkpoints\n\n",
              clean.completed_iterations, clean_makespan,
              samples * base.iterations / clean_makespan, clean.checkpoints_committed);

  // ---- 1. throughput vs MTBF -------------------------------------------------------------
  std::vector<MtbfPoint> mtbf_points;
  {
    MtbfPoint p;
    p.mtbf = 0.0;
    p.completed = clean.completed_iterations;
    p.throughput = samples * base.iterations / clean_makespan;
    mtbf_points.push_back(p);
  }
  // MTBF as multiples of the clean makespan: 4x (rare) down to 0.5x (brutal). The horizon
  // covers the stretched run so recovery segments stay under fire.
  for (double factor : {4.0, 2.0, 1.0, 0.5}) {
    RandomFaultOptions options;
    options.seed = 17;
    options.mtbf = factor * clean_makespan;
    options.horizon = 4.0 * clean_makespan;
    options.num_gpus = base.server.num_gpus;
    SessionConfig config = base;
    config.faults = MakeRandomFaultPlan(options);
    const ElasticResult result = RunTrainingElastic(model, config);
    MtbfPoint p;
    p.mtbf = options.mtbf;
    p.plan_events = config.faults.size();
    p.failures = result.stats.failures;
    p.completed = result.completed_iterations;
    p.lost_work = result.stats.lost_work_sec;
    p.recovery_latency = result.stats.recovery_latency_sec;
    p.reswap_gb = static_cast<double>(result.stats.reswap_bytes) / kGB;
    if (result.status.ok()) {
      p.throughput = samples * base.iterations / result.total_makespan;
    }
    mtbf_points.push_back(p);
  }

  TablePrinter mtbf_table({"MTBF (s)", "plan events", "fail-stops", "iterations done",
                           "throughput (samples/s)", "vs clean", "lost work (s)",
                           "recovery latency (s)", "re-swap (GB)"});
  for (const MtbfPoint& p : mtbf_points) {
    mtbf_table.Row()
        .Cell(p.mtbf > 0.0 ? std::to_string(p.mtbf).substr(0, 5) : "inf")
        .Cell(p.plan_events)
        .Cell(p.failures)
        .Cell(p.completed)
        .Cell(p.throughput, 2)
        .Cell(p.throughput / mtbf_points[0].throughput, 3)
        .Cell(p.lost_work, 3)
        .Cell(p.recovery_latency, 3)
        .Cell(p.reswap_gb, 3);
  }
  std::cout << "--- throughput vs MTBF (elastic recovery, checkpoint every 2 iterations, "
               "seed 17) ---\n"
            << mtbf_table.ToString() << "\n";

  // ---- 1b. recovery cost per fail-stop ---------------------------------------------------
  // Deterministic fail-stop schedules: k GPUs amputated at fixed fractions of the clean
  // makespan. This isolates the elastic-recovery cost (rollback + rebind + re-stage) from
  // the bandwidth noise of random degradations.
  std::vector<MtbfPoint> failstop_points;
  TablePrinter failstop_table({"fail-stops", "gpus left", "iterations done",
                               "throughput (samples/s)", "vs clean", "lost work (s)",
                               "recovery latency (s)", "re-swap (GB)"});
  for (int kills : {0, 1, 2}) {
    SessionConfig config = base;
    if (kills >= 1) {
      config.faults.Add(FaultEvent{0.45 * clean_makespan, FaultKind::kGpuFailStop, 1});
    }
    if (kills >= 2) {
      config.faults.Add(FaultEvent{0.9 * clean_makespan, FaultKind::kGpuFailStop, 2});
    }
    const ElasticResult result = RunTrainingElastic(model, config);
    MtbfPoint p;
    p.plan_events = config.faults.size();
    p.failures = result.stats.failures;
    p.completed = result.completed_iterations;
    p.lost_work = result.stats.lost_work_sec;
    p.recovery_latency = result.stats.recovery_latency_sec;
    p.reswap_gb = static_cast<double>(result.stats.reswap_bytes) / kGB;
    if (result.status.ok()) {
      p.throughput = samples * base.iterations / result.total_makespan;
    }
    failstop_points.push_back(p);
    failstop_table.Row()
        .Cell(p.failures)
        .Cell(base.server.num_gpus - p.failures)
        .Cell(p.completed)
        .Cell(p.throughput, 2)
        .Cell(p.throughput / mtbf_points[0].throughput, 3)
        .Cell(p.lost_work, 3)
        .Cell(p.recovery_latency, 3)
        .Cell(p.reswap_gb, 3);
  }
  std::cout << "--- recovery cost per fail-stop (deterministic schedules) ---\n"
            << failstop_table.ToString() << "\n";

  // ---- 2. degraded-mode overhead ---------------------------------------------------------
  std::vector<OverheadPoint> degrade_points;
  TablePrinter degrade_table(
      {"host uplink scale", "makespan (s)", "overhead vs clean", "iterations done"});
  for (double scale : {1.0, 0.75, 0.5, 0.25}) {
    SessionConfig config = base;
    config.checkpoint_every = 0;
    if (scale < 1.0) {
      config.faults.Add(FaultEvent{0.0, FaultKind::kHostLinkDegrade, -1, scale, 0.0});
    }
    const SessionResult result = RunTraining(model, config);
    OverheadPoint p;
    p.label = "host-uplink-" + std::to_string(scale).substr(0, 4);
    p.value = scale;
    p.makespan = result.report.makespan;
    degrade_points.push_back(p);
    degrade_table.Row()
        .Cell(scale, 2)
        .Cell(p.makespan, 3)
        .Cell(p.makespan / degrade_points[0].makespan - 1.0, 3)
        .Cell(static_cast<int>(result.report.iterations.size()));
  }
  for (OverheadPoint& p : degrade_points) {
    p.overhead = p.makespan / degrade_points[0].makespan - 1.0;
  }
  std::cout << "--- degraded mode: permanent host-uplink degradation ---\n"
            << degrade_table.ToString() << "\n";

  // ---- 3. checkpoint overhead ------------------------------------------------------------
  std::vector<OverheadPoint> checkpoint_points;
  TablePrinter ckpt_table({"checkpoint every", "makespan (s)", "overhead vs none",
                           "checkpoints", "checkpoint GB"});
  for (int every : {0, 4, 2, 1}) {
    SessionConfig config = base;
    config.checkpoint_every = every;
    const SessionResult result = RunTraining(model, config);
    OverheadPoint p;
    p.label = every == 0 ? "none" : "every-" + std::to_string(every);
    p.value = every;
    p.makespan = result.report.makespan;
    checkpoint_points.push_back(p);
    ckpt_table.Row()
        .Cell(every == 0 ? "never" : std::to_string(every))
        .Cell(p.makespan, 3)
        .Cell(p.makespan / checkpoint_points[0].makespan - 1.0, 3)
        .Cell(result.report.checkpoints_committed)
        .Cell(static_cast<double>(result.report.checkpoint_bytes) / kGB, 3);
  }
  for (OverheadPoint& p : checkpoint_points) {
    p.overhead = p.makespan / checkpoint_points[0].makespan - 1.0;
  }
  std::cout << "--- checkpoint cadence overhead (failure free) ---\n"
            << ckpt_table.ToString() << "\n";

  // ---- JSON artifact ---------------------------------------------------------------------
  std::string json;
  Appendf(&json, "{\n  \"throughput_vs_mtbf\": [\n");
  for (std::size_t i = 0; i < mtbf_points.size(); ++i) {
    const MtbfPoint& p = mtbf_points[i];
    Appendf(&json,
            "    {\"mtbf_s\": %.6f, \"failures\": %d, \"iterations\": %d, "
            "\"throughput_samples_per_s\": %.6f, \"lost_work_s\": %.6f, "
            "\"recovery_latency_s\": %.6f, \"reswap_gb\": %.6f}%s\n",
            p.mtbf, p.failures, p.completed, p.throughput, p.lost_work, p.recovery_latency,
            p.reswap_gb, i + 1 < mtbf_points.size() ? "," : "");
  }
  Appendf(&json, "  ],\n  \"failstop_recovery\": [\n");
  for (std::size_t i = 0; i < failstop_points.size(); ++i) {
    const MtbfPoint& p = failstop_points[i];
    Appendf(&json,
            "    {\"fail_stops\": %d, \"iterations\": %d, "
            "\"throughput_samples_per_s\": %.6f, \"lost_work_s\": %.6f, "
            "\"recovery_latency_s\": %.6f, \"reswap_gb\": %.6f}%s\n",
            p.failures, p.completed, p.throughput, p.lost_work, p.recovery_latency,
            p.reswap_gb, i + 1 < failstop_points.size() ? "," : "");
  }
  Appendf(&json, "  ],\n  \"degraded_mode_overhead\": [\n");
  for (std::size_t i = 0; i < degrade_points.size(); ++i) {
    const OverheadPoint& p = degrade_points[i];
    Appendf(&json,
            "    {\"host_uplink_scale\": %.2f, \"makespan_s\": %.6f, "
            "\"overhead\": %.6f}%s\n",
            p.value, p.makespan, p.overhead, i + 1 < degrade_points.size() ? "," : "");
  }
  Appendf(&json, "  ],\n  \"checkpoint_overhead\": [\n");
  for (std::size_t i = 0; i < checkpoint_points.size(); ++i) {
    const OverheadPoint& p = checkpoint_points[i];
    Appendf(&json,
            "    {\"checkpoint_every\": %.0f, \"makespan_s\": %.6f, "
            "\"overhead\": %.6f}%s\n",
            p.value, p.makespan, p.overhead, i + 1 < checkpoint_points.size() ? "," : "");
  }
  Appendf(&json, "  ]\n}\n");
  return WriteBenchJson("BENCH_fault_recovery.json", json);
}
