// Shared fleet config and conservation checks for the multi-server suites: cluster_test
// runs them on 8-GPU fleets, scale_test on 256- and 512-GPU fleets.
#ifndef HARMONY_TESTS_CLUSTER_INVARIANTS_H_
#define HARMONY_TESTS_CLUSTER_INVARIANTS_H_

#include <gtest/gtest.h>

#include "src/core/session.h"
#include "src/hw/specs.h"
#include "src/runtime/metrics.h"

namespace harmony {
namespace test_models {

// Small swap-bound fleet config: `nodes` servers of `gpus_per_node` GPUs, 26 MiB devices
// against an 8-layer / 8 MiB-per-layer model (FaultModel), so every run exercises swapping
// AND the hierarchical collective without taking more than a few hundred sim milliseconds.
inline SessionConfig SmallCluster(int nodes, int gpus_per_node, Scheme scheme) {
  SessionConfig config;
  config.num_nodes = nodes;
  config.server.num_gpus = gpus_per_node;
  config.server.gpus_per_switch = gpus_per_node;
  config.server.gpu = TestGpu(26 * kMiB, TFlops(1.0));
  config.scheme = scheme;
  config.microbatches = 2;
  config.microbatch_size = 1;
  config.iterations = 3;
  config.prefetch = false;
  return config;
}

// DESIGN.md §8: each device's time classes sum to the makespan.
inline void ExpectDeviceTimeSumsToMakespan(const RunReport& report) {
  ASSERT_EQ(report.device_time.size(), static_cast<std::size_t>(report.num_devices()));
  for (int d = 0; d < report.num_devices(); ++d) {
    const double total = report.device_time[static_cast<std::size_t>(d)].total();
    EXPECT_NEAR(total, report.makespan, 1e-6 * report.makespan)
        << "device " << d << " wall-clock decomposition leaks time";
  }
}

// DESIGN.md §12: the pcie/nic/rack tier rollup partitions the per-link byte, flow and busy
// totals. Swaps are host-local by construction, so the NIC and rack tiers carry zero swap
// bytes — and the inter-node collective actually used them.
inline void ExpectTierRollupPartitionsLinks(const RunReport& report) {
  ASSERT_FALSE(report.tiers.empty());
  Bytes link_bytes = 0, tier_bytes = 0;
  std::int64_t link_flows = 0, tier_flows = 0;
  double link_busy = 0.0, tier_busy = 0.0;
  Bytes link_by_kind[kNumTransferKinds] = {};
  Bytes tier_by_kind[kNumTransferKinds] = {};
  for (const RunReport::LinkUsage& link : report.links) {
    link_bytes += link.bytes;
    link_flows += link.flows;
    link_busy += link.busy_time;
    for (int k = 0; k < kNumTransferKinds; ++k) {
      link_by_kind[k] += link.bytes_by_kind[k];
    }
  }
  for (const RunReport::TierUsage& tier : report.tiers) {
    tier_bytes += tier.bytes;
    tier_flows += tier.flows;
    tier_busy += tier.busy_time;
    for (int k = 0; k < kNumTransferKinds; ++k) {
      tier_by_kind[k] += tier.bytes_by_kind[k];
    }
  }
  EXPECT_EQ(tier_bytes, link_bytes);
  EXPECT_EQ(tier_flows, link_flows);
  EXPECT_NEAR(tier_busy, link_busy, 1e-9 * (link_busy + 1.0));
  for (int k = 0; k < kNumTransferKinds; ++k) {
    EXPECT_EQ(tier_by_kind[k], link_by_kind[k]) << "kind " << k;
  }
  for (const RunReport::TierUsage& tier : report.tiers) {
    if (tier.name == "pcie") {
      continue;
    }
    EXPECT_EQ(tier.of(TransferKind::kSwapIn), 0) << tier.name;
    EXPECT_EQ(tier.of(TransferKind::kSwapOut), 0) << tier.name;
    EXPECT_GT(tier.of(TransferKind::kCollective), 0) << tier.name;
  }
}

}  // namespace test_models
}  // namespace harmony

#endif  // HARMONY_TESTS_CLUSTER_INVARIANTS_H_
