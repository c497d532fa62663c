// The analytical swap-volume model of Sec. 3.
//
// Closed forms for the per-iteration swap volume of the weight tensor W under the paper's
// simplifying assumptions (homogeneous GPUs, each holding one layer-level operation on one
// microbatch; layer-granularity tasks; uniform layers):
//
//   DP + per-GPU virtualization : (4m + 2) * N * |W|
//   Harmony-DP                  :        3 * N * |W|
//   Harmony-PP                  :            3 * |W|
//
// plus the straightforward extensions for optimizer state (the paper omits the full model
// "for brevity"; these are derived the same way — one swap-in + one swap-out per use):
//
//   optimizer state K: baselines and Harmony-DP move 2 * N * |K| per iteration (fetched and
//   written back at the update step on every replica); Harmony-PP moves 2 * |K| (no
//   replication). Weight-gradient volume is scheme- and pressure-dependent and is measured
//   empirically instead.
//
// bench_fig5_swap_volume verifies the W forms against the simulator exactly.
#ifndef HARMONY_SRC_CORE_ANALYTIC_H_
#define HARMONY_SRC_CORE_ANALYTIC_H_

#include "src/util/units.h"

namespace harmony {

struct AnalyticSwapModel {
  // m: microbatches per GPU; N: GPUs; weight_bytes: |W| (whole model).
  static double BaselineDpWeightVolume(double weight_bytes, int m, int n_gpus) {
    return (4.0 * m + 2.0) * n_gpus * weight_bytes;
  }
  static double HarmonyDpWeightVolume(double weight_bytes, int n_gpus) {
    return 3.0 * n_gpus * weight_bytes;
  }
  static double HarmonyPpWeightVolume(double weight_bytes) { return 3.0 * weight_bytes; }

  static double BaselineDpOptStateVolume(double k_bytes, int n_gpus) {
    return 2.0 * n_gpus * k_bytes;
  }
  static double HarmonyPpOptStateVolume(double k_bytes) { return 2.0 * k_bytes; }

  // Ring all-reduce bytes moved per iteration for DP schemes.
  static double AllReduceVolume(double grad_bytes, int n_gpus) {
    if (n_gpus <= 1) {
      return 0.0;
    }
    return 2.0 * static_cast<double>(n_gpus - 1) * grad_bytes;
  }

  // ---- Boundary-corrected forms ------------------------------------------------------------
  //
  // The paper's closed forms assume *zero* cross-task reuse: W is charged a swap-in before
  // and a swap-out after every phase that touches it. A real LRU memory manager reuses a
  // resident tensor whenever adjacent tasks touch it with nothing big in between, which
  // saves a few per-layer units at the pass boundaries:
  //   - top layer: FWD -> LOSS -> BWD keeps W resident (2 units saved per microbatch in the
  //     per-microbatch baseline order; 2 units once under input-batch grouping);
  //   - bottom layer: BWD(mb_i) -> FWD(mb_{i+1}) and BWD -> UPDATE adjacency (the baseline's
  //     rigid all-reduce sweep destroys the latter when N > 1).
  // These corrections are exact for the uniform-layer analytic setup and vanish as O(1/R);
  // scheduler_test verifies the simulator against them bit-for-bit, and bench_fig5 reports
  // both the idealized and corrected predictions next to the measurement.
  //
  // layer_bytes: per-layer |W_l|; layers: R; m: microbatches per GPU; n_gpus: N.
  static double BaselineDpWeightVolumeCorrected(double layer_bytes, int layers, int m,
                                                int n_gpus) {
    const double reuse_units = n_gpus > 1 ? 4.0 * m - 2.0 : 4.0 * m;
    const double units_per_replica = (4.0 * m + 2.0) * layers - reuse_units;
    return units_per_replica * n_gpus * layer_bytes;
  }
  static double HarmonyDpWeightVolumeCorrected(double layer_bytes, int layers, int n_gpus) {
    // Top layer saves its backward swap-in, bottom layer its forward swap-in (resident from
    // the previous iteration's jit update).
    return (3.0 * layers - 2.0) * n_gpus * layer_bytes;
  }
  // Harmony-PP reuse depends on pack placement adjacency; the simulator stays within
  // [2|W| - 2|W_l|, 3|W|], and needs no weight traffic at all once every GPU can hold its
  // share of the persistent state (the paper's Sec. 4 observation).
  static double HarmonyPpWeightVolumeLowerBound(double layer_bytes, int layers) {
    return (2.0 * layers - 2.0) * layer_bytes;
  }
};

}  // namespace harmony

#endif  // HARMONY_SRC_CORE_ANALYTIC_H_
