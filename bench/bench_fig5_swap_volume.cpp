// Fig. 5 + Sec. 3 analytical comparison: per-iteration *weight* swap volume under the
// paper's idealized setup (uniform layers, capacity for one layer-level op). For every
// (N, m) point we report the paper's closed form, our boundary-reuse-corrected form, and
// the simulator's measurement, for all three schemes:
//
//   DP + per-GPU virtualization : (4m+2) N |W|
//   Harmony-DP                  :       3 N |W|
//   Harmony-PP                  :           3 |W|
#include <cstdio>
#include <iostream>

#include "src/core/analytic.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/util/table.h"

#include "bench/bench_timer.h"

namespace {

harmony::Model AnalyticModel() {
  harmony::UniformModelConfig config;
  config.name = "analytic-uniform";
  config.num_layers = 4;
  config.param_bytes = 8 * harmony::kMiB;
  config.act_bytes_per_sample = 2 * harmony::kMiB;
  config.optimizer_state_factor = 1.0;
  config.fwd_flops_per_sample = 1e9;
  return harmony::MakeUniformModel(config);
}

double MeasuredUnits(harmony::Scheme scheme, int n, int m) {
  using namespace harmony;
  const Model model = AnalyticModel();
  SessionConfig config;
  config.server.num_gpus = n;
  config.server.gpu = TestGpu(26 * kMiB, TFlops(1.0));
  config.scheme = scheme;
  config.microbatches = scheme == Scheme::kHarmonyPp ? m * n : m;
  config.microbatch_size = 1;
  config.iterations = 3;
  config.prefetch = false;  // the analytic model assumes no double buffering
  const RunReport report = RunTraining(model, config).report;
  // Attribution goes to stderr: the golden-stdout gate pins this bench's stdout.
  std::fprintf(stderr, "[explain] %s n=%d m=%d: %s\n", SchemeName(scheme), n, m,
               Attribute(report).Summary().c_str());
  return static_cast<double>(report.iterations[1].weight_swap_volume()) /
         static_cast<double>(model.layer(0).cost.param_bytes);
}

}  // namespace

int main() {
  harmony::BenchWallClock wall_clock("bench_fig5_swap_volume");
  using namespace harmony;
  const Model model = AnalyticModel();
  const double P = static_cast<double>(model.layer(0).cost.param_bytes);
  const double W = static_cast<double>(model.total_param_bytes());
  const int R = model.num_layers();

  std::cout << "=== Fig. 5 / Sec. 3: weight swap volume per iteration (units of one layer's "
               "|W_l| = 8 MiB; |W| = "
            << R << " units) ===\n\n";

  TablePrinter table({"scheme", "N", "m", "paper formula", "corrected", "measured",
                      "match"});
  bool all_match = true;
  for (int n : {1, 2, 4}) {
    for (int m : {1, 2, 4, 8}) {
      {
        const double paper = AnalyticSwapModel::BaselineDpWeightVolume(W, m, n) / P;
        const double corrected =
            AnalyticSwapModel::BaselineDpWeightVolumeCorrected(P, R, m, n) / P;
        const double measured = MeasuredUnits(Scheme::kBaselineDp, n, m);
        const bool ok = std::abs(measured - corrected) < 1e-6;
        all_match = all_match && ok;
        table.Row().Cell("baseline-dp").Cell(n).Cell(m).Cell(paper, 0).Cell(corrected, 0)
            .Cell(measured, 0).Cell(ok ? "exact" : "MISMATCH");
      }
      {
        const double paper = AnalyticSwapModel::HarmonyDpWeightVolume(W, n) / P;
        const double corrected =
            AnalyticSwapModel::HarmonyDpWeightVolumeCorrected(P, R, n) / P;
        const double measured = MeasuredUnits(Scheme::kHarmonyDp, n, m);
        const bool ok = std::abs(measured - corrected) < 1e-6;
        all_match = all_match && ok;
        table.Row().Cell("harmony-dp").Cell(n).Cell(m).Cell(paper, 0).Cell(corrected, 0)
            .Cell(measured, 0).Cell(ok ? "exact" : "MISMATCH");
      }
      {
        const double paper = AnalyticSwapModel::HarmonyPpWeightVolume(W) / P;
        const double measured = MeasuredUnits(Scheme::kHarmonyPp, n, m);
        const bool ok = measured <= paper + 1e-6;
        all_match = all_match && ok;
        table.Row().Cell("harmony-pp").Cell(n).Cell(m).Cell(paper, 0).Cell("<= paper")
            .Cell(measured, 0).Cell(ok ? "bounded" : "MISMATCH");
      }
    }
  }
  table.Print(std::cout);

  std::cout << "\nnotes:\n"
               "  - 'corrected' subtracts the boundary-reuse units a real LRU memory manager\n"
               "    saves at pass boundaries (top layer fwd->bwd, bottom layer bwd->update);\n"
               "    the correction vanishes as O(1/R) and the paper's form is an upper bound.\n"
               "  - harmony-pp with N=4 holds the whole model in aggregate GPU memory, so its\n"
               "    weight traffic drops to ~0 (the paper's Sec. 4 observation).\n";

  const double b = MeasuredUnits(Scheme::kBaselineDp, 4, 4);
  const double hd = MeasuredUnits(Scheme::kHarmonyDp, 4, 4);
  const double hp = MeasuredUnits(Scheme::kHarmonyPp, 2, 4);
  std::printf(
      "\nheadline factors at N=4, m=4: baseline/harmony-dp = %.1fx (paper predicts "
      "(4m+2)/3 = %.1fx); harmony-pp is another ~Nx below harmony-dp.\n",
      b / hd, (4.0 * 4 + 2) / 3.0);
  std::printf("Shape check vs paper: ordering baseline-dp >> harmony-dp >> harmony-pp "
              "with the predicted factors. %s\n",
              (all_match && b > hd && hd > hp) ? "REPRODUCED" : "NOT REPRODUCED");
  return 0;
}
