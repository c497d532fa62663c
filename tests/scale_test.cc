// Scale tier (ctest label `scale`): the conservation invariants past 64 GPUs.
//
// cluster_test checks the DESIGN.md §8/§12 invariants on 8-GPU fleets. Here the same
// small swap-bound config (test_models::SmallCluster) runs Harmony-DP at 256 and 512 GPUs
// (4 GPUs per node, 16 nodes per rack) under LRU and lookahead eviction, and must still:
//   - sum each device's time classes to the makespan,
//   - partition the per-link totals in the pcie/nic/rack tier rollup,
//   - carry zero swap bytes on the NIC and rack tiers.
// Past 64 GPUs the memory system's per-tensor waiter bitmask no longer fits, so every
// transfer completion wakes every device; these are the only invariant checks on that
// path. tools/run_sanitizer_suite.sh runs the label under TSan/UBSan.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/core/session.h"
#include "tests/cluster_invariants.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

constexpr int kGpusPerNode = 4;

class ScaleInvariantTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ScaleInvariantTest, ConservationHoldsAtScale) {
  const auto [gpus, lookahead] = GetParam();
  const Model model = test_models::FaultModel();
  SessionConfig config =
      test_models::SmallCluster(gpus / kGpusPerNode, kGpusPerNode, Scheme::kHarmonyDp);
  config.nodes_per_rack = 16;
  config.lookahead_eviction = lookahead;
  ASSERT_TRUE(ValidateSessionConfig(model, config).ok());

  const RunReport report = RunTraining(model, config).report;
  ASSERT_FALSE(report.failed);
  ASSERT_EQ(report.num_devices(), gpus);
  Bytes swapped = 0;
  for (const Bytes bytes : report.device_swap_in) {
    swapped += bytes;
  }
  EXPECT_GT(swapped, 0) << "the config must stay swap-bound at scale";
  test_models::ExpectDeviceTimeSumsToMakespan(report);
  test_models::ExpectTierRollupPartitionsLinks(report);
}

INSTANTIATE_TEST_SUITE_P(
    Fleets, ScaleInvariantTest,
    ::testing::Combine(::testing::Values(256, 512), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& fleet) {
      return std::to_string(std::get<0>(fleet.param)) + "gpus_" +
             (std::get<1>(fleet.param) ? "lookahead" : "lru");
    });

}  // namespace
}  // namespace harmony
