// Chaos ladder: goodput vs fault rate across absorb / degrade / recover (DESIGN.md §11).
//
// Three deterministic sweeps on the 4-GPU Harmony-PP fault-bench regime (~74 s clean):
//   1. absorb — transient flow flaps and short link brownouts at decreasing MTBF, with a
//      retry budget armed. At MTBF >= 10 s the retry tier must absorb everything: zero
//      checkpoint rollbacks and < 5% goodput loss vs the fault-free run (HCHECK-enforced
//      acceptance gate, see ISSUE 7).
//   2. degrade — a permanent straggler with the health monitor armed: one graceful
//      degradation, no rollback, goodput tracks the surviving devices.
//   3. recover — seeded random plans over the full extended grammar (fail-stops included)
//      at decreasing MTBF: the bottom rung, where goodput pays for rollbacks.
// Results go to stdout as tables and to BENCH_chaos.json for tooling.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/core/recovery.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/sim/fault_plan.h"
#include "src/util/check.h"
#include "src/util/table.h"

namespace {

struct LadderPoint {
  std::string rung;
  double mtbf = 0.0;  // 0 = failure free / not rate-driven
  int plan_events = 0;
  std::int64_t flows_retried = 0;
  std::int64_t retry_exhausted = 0;
  int degradations = 0;
  int rollbacks = 0;
  int completed = 0;
  double goodput = 0.0;       // samples per second of global sim time
  double goodput_ratio = 0.0; // vs fault-free
};

}  // namespace

int main() {
  using namespace harmony;
  std::cout << "=== Chaos ladder: goodput vs fault rate across absorb / degrade / recover "
               "===\n\n";

  // Swap-bound on purpose (heavier weights, lighter compute than the fault bench): the
  // host uplink stays busy a large fraction of the run, so transient fabric faults
  // genuinely intersect in-flight flows — an idle fabric would make the absorb rung
  // vacuous.
  UniformModelConfig mc;
  mc.name = "uniform-chaos-bench";
  mc.num_layers = 12;
  mc.param_bytes = 256 * kMiB;
  mc.act_bytes_per_sample = 16 * kMiB;
  mc.optimizer_state_factor = 2.0;
  mc.fwd_flops_per_sample = 1e11;
  const Model model = MakeUniformModel(mc);
  std::cout << model.Summary() << "\n";

  SessionConfig base;
  base.server.num_gpus = 4;
  base.server.gpus_per_switch = 4;
  base.server.gpu = TestGpu(1536 * kMiB, TFlops(2.0));
  base.scheme = Scheme::kHarmonyPp;
  base.microbatches = 4;
  base.microbatch_size = 2;
  base.iterations = 8;
  base.checkpoint_every = 2;
  base.ckpt_keep = 2;
  base.retry_max = 3;
  base.retry_base = 0.001;

  const ElasticResult clean = RunTrainingElastic(model, base);
  HCHECK(clean.status.ok()) << clean.status.ToString();
  const double clean_makespan = clean.total_makespan;
  const double samples =
      static_cast<double>(clean.final_segment().result.report.samples_per_iteration);
  const double clean_goodput = samples * base.iterations / clean_makespan;
  std::printf("fault-free: %d iterations in %.3f s (%.3f samples/s)\n\n",
              clean.completed_iterations, clean_makespan, clean_goodput);
#ifdef CHAOS_DEBUG
  for (const auto& link : clean.final_segment().result.report.links) {
    std::printf("DEBUG link %s util %.3f flows %lld\n", link.name.c_str(), link.utilization,
                static_cast<long long>(link.flows));
  }
#endif

  std::vector<LadderPoint> points;
  const auto run_point = [&](const std::string& rung, double mtbf,
                             const SessionConfig& config) {
    const ElasticResult result = RunTrainingElastic(model, config);
    LadderPoint p;
    p.rung = rung;
    p.mtbf = mtbf;
    p.plan_events = config.faults.size();
    for (const RecoverySegment& segment : result.segments) {
      p.flows_retried += segment.result.report.flows_retried;
      p.retry_exhausted += segment.result.report.retry_exhausted;
    }
    p.degradations = result.stats.degradations;
    p.rollbacks = result.stats.rollbacks();
    p.completed = result.completed_iterations;
    if (result.status.ok() && result.total_makespan > 0.0) {
      p.goodput = samples * base.iterations / result.total_makespan;
    }
    p.goodput_ratio = p.goodput / clean_goodput;
    points.push_back(p);
    return p;
  };

  // ---- 1. absorb: transient flaps + short brownouts vs MTBF ------------------------------
  // Deterministic plans: a host-side flow flap every `mtbf` seconds, and on every second
  // strike a 0.5 s brownout (link at half rate, in-flight flows killed) instead — the
  // transient fabric weather a commodity cluster actually sees.
  for (const double mtbf : {20.0, 10.0, 5.0, 2.5}) {
    SessionConfig config = base;
    int strike = 0;
    for (double t = mtbf; t < clean_makespan; t += mtbf, ++strike) {
      if (strike % 2 == 1) {
        config.faults.Add(FaultEvent{t, FaultKind::kLinkBrownout, -1, 0.5, 0.5});
      } else {
        config.faults.Add(FaultEvent{t, FaultKind::kFlowFlap, -1});
      }
    }
    const LadderPoint p = run_point("absorb", mtbf, config);
    // Acceptance gate (ISSUE 7): at MTBF >= 10 s the retry tier absorbs every transient —
    // no checkpoint rollback, and the backoff + retransmit tax stays under 5%.
    if (mtbf >= 10.0) {
      HCHECK(p.rollbacks == 0) << "absorb rung rolled back at MTBF " << mtbf;
      HCHECK(p.goodput_ratio >= 0.95)
          << "absorb rung lost >5% goodput at MTBF " << mtbf << ": " << p.goodput_ratio;
    }
  }

  // ---- 2. degrade: permanent straggler, health monitor armed -----------------------------
  {
    SessionConfig config = base;
    config.straggler_threshold = 1.4;
    config.faults.Add(FaultEvent{0.2 * clean_makespan, FaultKind::kGpuSlow, 2, 0.6, 0.0});
    const LadderPoint p = run_point("degrade", 0.0, config);
    HCHECK(p.degradations >= 1) << "straggler was never classified";
    HCHECK(p.rollbacks == 0) << "the middle rung must not touch the checkpoint";
  }

  // ---- 3. recover: random extended-grammar plans with fail-stops -------------------------
  for (const double factor : {1.0, 0.5, 0.25}) {
    RandomFaultOptions options;
    options.seed = 26;
    options.mtbf = factor * clean_makespan;
    options.horizon = 2.0 * clean_makespan;
    options.num_gpus = base.server.num_gpus;
    options.transient = true;
    options.ckpt_faults = true;
    SessionConfig config = base;
    config.straggler_threshold = 1.4;
    config.faults = MakeRandomFaultPlan(options);
#ifdef CHAOS_DEBUG
    std::printf("DEBUG recover mtbf %.2f plan: %s\n", options.mtbf,
                config.faults.ToString().c_str());
#endif
    run_point("recover", options.mtbf, config);
  }

  TablePrinter table({"rung", "MTBF (s)", "plan events", "retried", "exhausted",
                      "degradations", "rollbacks", "iterations done",
                      "goodput (samples/s)", "vs clean"});
  table.Row()
      .Cell("clean")
      .Cell("inf")
      .Cell(0)
      .Cell(0)
      .Cell(0)
      .Cell(0)
      .Cell(0)
      .Cell(clean.completed_iterations)
      .Cell(clean_goodput, 3)
      .Cell(1.0, 3);
  for (const LadderPoint& p : points) {
    table.Row()
        .Cell(p.rung)
        .Cell(p.mtbf > 0.0 ? std::to_string(p.mtbf).substr(0, 5) : "-")
        .Cell(p.plan_events)
        .Cell(p.flows_retried)
        .Cell(p.retry_exhausted)
        .Cell(p.degradations)
        .Cell(p.rollbacks)
        .Cell(p.completed)
        .Cell(p.goodput, 3)
        .Cell(p.goodput_ratio, 3);
  }
  std::cout << "--- goodput across the resilience ladder (retry budget 3, checkpoint every "
               "2, keep 2) ---\n"
            << table.ToString() << "\n";

  std::string json;
  Appendf(&json, "{\n  \"clean_goodput_samples_per_s\": %.6f,\n  \"ladder\": [\n",
          clean_goodput);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LadderPoint& p = points[i];
    Appendf(&json,
            "    {\"rung\": \"%s\", \"mtbf_s\": %.6f, \"plan_events\": %d, "
            "\"flows_retried\": %lld, \"retry_exhausted\": %lld, "
            "\"degradations\": %d, \"rollbacks\": %d, \"iterations\": %d, "
            "\"goodput_samples_per_s\": %.6f, \"goodput_ratio\": %.6f}%s\n",
            p.rung.c_str(), p.mtbf, p.plan_events, static_cast<long long>(p.flows_retried),
            static_cast<long long>(p.retry_exhausted), p.degradations, p.rollbacks,
            p.completed, p.goodput, p.goodput_ratio, i + 1 < points.size() ? "," : "");
  }
  Appendf(&json, "  ]\n}\n");
  return WriteBenchJson("BENCH_chaos.json", json);
}
