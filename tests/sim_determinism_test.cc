// Simulation-core determinism gate (DESIGN.md §10, ctest label: simcore).
//
// For any configuration, the rendered run report is BYTE-IDENTICAL from one run to the
// next, because events execute in one serial (when, seq) order. This suite runs session
// configurations mirroring the eight golden benches (tools/golden_stdout.sha256) twice in
// the same binary and compares the full rendered output string.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/specs.h"
#include "src/runtime/metrics.h"
#include "src/util/units.h"

namespace harmony {
namespace {

Model SmallUniformModel(int layers = 8) {
  UniformModelConfig config;
  config.num_layers = layers;
  config.param_bytes = 8 * kMiB;
  config.act_bytes_per_sample = 2 * kMiB;
  config.optimizer_state_factor = 1.0;
  config.fwd_flops_per_sample = 1e9;
  return MakeUniformModel(config);
}

SessionConfig BaseConfig(Scheme scheme, int n_gpus, int microbatches) {
  SessionConfig config;
  config.server.num_gpus = n_gpus;
  config.server.gpu = TestGpu(26 * kMiB, TFlops(1.0));
  config.scheme = scheme;
  config.microbatches = microbatches;
  config.iterations = 3;
  config.prefetch = false;
  return config;
}

// One named configuration per golden bench regime: same scheme and knob shape, shrunk to
// the small uniform model so the whole grid stays fast enough for a sanitizer build.
struct NamedConfig {
  std::string name;
  SessionConfig config;
};

// Tight-but-feasible capacity: the largest single-task working set plus a small margin,
// so every regime churns memory hard without tripping the feasibility lint.
void FitCapacity(const Model& model, SessionConfig* config) {
  const std::vector<Bytes> peaks = ProbePeakWorkingSet(model, *config);
  const Bytes peak = *std::max_element(peaks.begin(), peaks.end());
  config->server.gpu = TestGpu(peak + peak / 8 + 2 * kMiB, TFlops(1.0));
}

std::vector<NamedConfig> GoldenRegimes(const Model& model) {
  std::vector<NamedConfig> regimes;
  {
    // fig1 model growth: harmony-pp, the paper's headline scheme, prefetch on.
    SessionConfig c = BaseConfig(Scheme::kHarmonyPp, 4, 8);
    c.prefetch = true;
    regimes.push_back({"fig1_harmony_pp", c});
  }
  {
    // fig2a DP swap bottleneck: baseline-dp replicas behind one switch.
    SessionConfig c = BaseConfig(Scheme::kBaselineDp, 4, 1);
    c.server.gpus_per_switch = 4;
    c.microbatch_size = 2;
    regimes.push_back({"fig2a_baseline_dp", c});
  }
  {
    // fig2b interconnect sensitivity: baseline-dp on a two-switch machine.
    SessionConfig c = BaseConfig(Scheme::kBaselineDp, 4, 2);
    c.server.gpus_per_switch = 2;
    regimes.push_back({"fig2b_two_switch", c});
  }
  {
    // fig2c PP imbalance: baseline 1F1B stages.
    regimes.push_back({"fig2c_baseline_pp", BaseConfig(Scheme::kBaselinePp, 4, 8)});
  }
  {
    // fig4 schedule: harmony-pp with packing and partial input-batch grouping.
    SessionConfig c = BaseConfig(Scheme::kHarmonyPp, 4, 8);
    c.pack_size = 2;
    c.group_size = 4;
    regimes.push_back({"fig4_packed_grouped", c});
  }
  {
    // fig5 swap volume: harmony-dp with p2p reuse.
    SessionConfig c = BaseConfig(Scheme::kHarmonyDp, 4, 2);
    c.p2p = true;
    regimes.push_back({"fig5_harmony_dp_p2p", c});
  }
  {
    // ablation: optimizations off (no jit updates, no grouping, no p2p, recompute on).
    SessionConfig c = BaseConfig(Scheme::kHarmonyPp, 2, 4);
    c.jit_updates = false;
    c.grouping = false;
    c.p2p = false;
    c.recompute = true;
    regimes.push_back({"ablation_opts_off", c});
  }
  {
    // e2e comparison: the tensor-parallel scheme rounds out the five-scheme sweep.
    regimes.push_back({"e2e_harmony_tp", BaseConfig(Scheme::kHarmonyTp, 2, 2)});
  }
  for (NamedConfig& regime : regimes) {
    FitCapacity(model, &regime.config);
  }
  return regimes;
}

// The full rendered output a bench would print for this run: the report summary plus the
// bottleneck attribution. String equality here is the same bar as the golden-stdout gate.
std::string RenderedRun(const Model& model, const SessionConfig& config) {
  const SessionResult result = RunTraining(model, config);
  return result.report.Summary() + "\n" + Attribute(result.report).Summary();
}

TEST(SimDeterminismTest, GoldenRegimesByteIdenticalAcrossTwoRuns) {
  const Model model = SmallUniformModel();
  for (const NamedConfig& regime : GoldenRegimes(model)) {
    const std::string first = RenderedRun(model, regime.config);
    EXPECT_FALSE(first.empty()) << regime.name;
    EXPECT_EQ(RenderedRun(model, regime.config), first) << regime.name << ": second run";
  }
}

}  // namespace
}  // namespace harmony
