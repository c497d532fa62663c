// Cluster-grade test tier (ctest label `cluster`): multi-server scale-out invariants.
//
// Four layers of evidence that the fleet simulation is trustworthy:
//   1. Determinism — seeded scheduler x node-count configurations produce byte-identical
//      run reports across two runs of the same binary.
//   2. Conservation — per-device wall-clock decomposition sums to the makespan, and the
//      pcie/nic/rack tier rollup partitions the per-link byte totals, with swap traffic
//      pinned to the PCIe tier (swaps never cross the network by construction).
//   3. Mutation testing for the hierarchical linter — dropping a node from the inter-node
//      tree, skewing one node's sub-group bytes, or crossing a member's intra/inter
//      rendezvous annotation is flagged by the `hierarchical` check with >= 95% hit rate
//      over 100 seeded mutants per class (mirroring plan_lint_test.cc).
//   4. Cluster-spec fuzzing — 200 seeded parse/render round trips reach a canonical fixed
//      point, and malformed specs return typed errors carrying the byte offset of the
//      offending field.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/cluster_spec.h"
#include "src/runtime/metrics.h"
#include "src/runtime/plan_lint.h"
#include "src/runtime/report_io.h"
#include "src/util/rng.h"
#include "tests/cluster_invariants.h"
#include "tests/plan_edit.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

using test_models::FaultModel;
using test_models::SmallCluster;

// ---- 1. determinism ---------------------------------------------------------------------------

TEST(ClusterDeterminism, RunSignatureIsByteIdenticalAcrossTwoRuns) {
  const Model model = FaultModel();
  const std::vector<Scheme> schemes = {Scheme::kBaselineDp, Scheme::kHarmonyDp,
                                       Scheme::kHarmonyPp};
  const std::vector<int> node_counts = {2, 4};
  for (const Scheme scheme : schemes) {
    for (const int nodes : node_counts) {
      SessionConfig config = SmallCluster(nodes, 2, scheme);
      config.nodes_per_rack = 2;  // 4-node runs span two racks
      ASSERT_TRUE(ValidateSessionConfig(model, config).ok());
      // ReportToJson covers makespan, per-device breakdowns, link usage, the tier rollup,
      // and iteration stats — any run-to-run divergence shows here.
      const std::string first = ReportToJson(RunTraining(model, config).report);
      EXPECT_EQ(ReportToJson(RunTraining(model, config).report), first)
          << "scheme " << static_cast<int>(scheme) << ", " << nodes
          << " nodes: the second run diverged";
    }
  }
}

// ---- 2. conservation --------------------------------------------------------------------------

TEST(ClusterConservation, DeviceTimeDecompositionSumsToMakespan) {
  const Model model = FaultModel();
  SessionConfig config = SmallCluster(4, 2, Scheme::kHarmonyDp);
  config.nodes_per_rack = 2;
  test_models::ExpectDeviceTimeSumsToMakespan(RunTraining(model, config).report);
}

TEST(ClusterConservation, TierRollupPartitionsLinkTotals) {
  const Model model = FaultModel();
  SessionConfig config = SmallCluster(4, 2, Scheme::kHarmonyDp);
  config.nodes_per_rack = 2;
  test_models::ExpectTierRollupPartitionsLinks(RunTraining(model, config).report);
}

TEST(ClusterConservation, SingleNodeRunsKeepLegacyReportShape) {
  // num_nodes=1 must stay byte-compatible with the pre-cluster report: no tier section.
  const Model model = FaultModel();
  SessionConfig config = SmallCluster(1, 4, Scheme::kHarmonyDp);
  const SessionResult result = RunTraining(model, config);
  EXPECT_TRUE(result.report.tiers.empty());
  EXPECT_EQ(ReportToJson(result.report).find("\"tiers\""), std::string::npos);
}

// ---- 3. hierarchical linter mutation testing --------------------------------------------------

struct BuiltPlan {
  TensorRegistry registry;
  Plan plan;
};

// A randomized valid multi-node DP plan with the two-level annotation stamped.
std::unique_ptr<BuiltPlan> BuildClusterPlan(Rng& rng) {
  UniformModelConfig mc;
  mc.name = "cluster-lint-fuzz";
  mc.num_layers = 3 + static_cast<int>(rng.NextBounded(3));
  mc.param_bytes = (2 + static_cast<Bytes>(rng.NextBounded(6))) * kMiB;
  mc.act_bytes_per_sample = (1 + static_cast<Bytes>(rng.NextBounded(3))) * kMiB;
  mc.optimizer_state_factor = 1.0;
  mc.fwd_flops_per_sample = 1e9;
  const Model model = MakeUniformModel(mc);

  SessionConfig config;
  config.scheme = rng.NextBounded(2) == 0 ? Scheme::kBaselineDp : Scheme::kHarmonyDp;
  config.num_nodes = 2 + static_cast<int>(rng.NextBounded(3));  // 2..4 nodes
  config.server.num_gpus = 2;
  config.server.gpus_per_switch = 2;
  config.server.gpu = TestGpu(40 * kMiB, TFlops(1.0));
  config.microbatches = 1 + static_cast<int>(rng.NextBounded(2));
  config.microbatch_size = 1;
  config.iterations = 2;
  config.prefetch = false;

  auto built = std::make_unique<BuiltPlan>();
  Machine machine = MakeSessionMachine(config);
  built->plan = BuildPlanForConfig(model, machine, &built->registry, config);
  return built;
}

LintReport DeepLint(const BuiltPlan& built) {
  LintOptions options;
  options.deep = true;
  return LintPlan(built.plan, built.registry, options);
}

bool HasCheck(const LintReport& report, LintCheck check) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [check](const LintFinding& f) { return f.check == check; });
}

// Collective groups present in `plan` that span more than one node, with their members.
std::map<int, std::vector<TaskId>> MultiNodeGroups(const Plan& plan) {
  std::map<int, std::vector<TaskId>> groups;
  for (const Task& t : plan.tasks) {
    if (t.kind == TaskKind::kAllReduce && t.collective_group >= 0) {
      groups[t.collective_group].push_back(t.id);
    }
  }
  std::map<int, std::vector<TaskId>> spanning;
  for (const auto& [group, members] : groups) {
    int first_node = -2;
    for (const TaskId id : members) {
      const int node =
          plan.device_node[static_cast<std::size_t>(plan.tasks[static_cast<std::size_t>(id)].device)];
      if (first_node == -2) {
        first_node = node;
      } else if (node != first_node) {
        spanning[group] = members;
        break;
      }
    }
  }
  return spanning;
}

// Mutation (a): drop one node's members from one spanning group, then renumber the
// surviving members' replica ranks to dense {0..k-1}. Node-major replica indexing means
// the dense-replica check stays silent — the hierarchical node-coverage consensus (and the
// sibling cardinality vote) is what must catch the shrunken tree.
bool MutateDropNodeFromTree(Plan* plan, Rng& rng) {
  const std::map<int, std::vector<TaskId>> groups = MultiNodeGroups(*plan);
  if (groups.empty()) {
    return false;
  }
  auto it = groups.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng.NextBounded(groups.size())));
  const int group = it->first;
  // Victim node: the one hosting the member with the highest replica rank, so the dense
  // renumbering below cannot collide with surviving ranks.
  int victim_node = -1;
  int best_replica = -1;
  for (const TaskId id : it->second) {
    const Task& t = plan->tasks[static_cast<std::size_t>(id)];
    if (t.replica > best_replica) {
      best_replica = t.replica;
      victim_node = plan->device_node[static_cast<std::size_t>(t.device)];
    }
  }
  for (;;) {
    TaskId victim = kInvalidTask;
    for (const Task& t : plan->tasks) {
      if (t.kind == TaskKind::kAllReduce && t.collective_group == group &&
          plan->device_node[static_cast<std::size_t>(t.device)] == victim_node) {
        victim = t.id;
        break;
      }
    }
    if (victim == kInvalidTask) {
      break;
    }
    DropTask(plan, victim);
  }
  // Dense replica renumbering for the survivors, in replica order.
  std::vector<Task*> survivors;
  for (Task& t : plan->tasks) {
    if (t.kind == TaskKind::kAllReduce && t.collective_group == group) {
      survivors.push_back(&t);
    }
  }
  std::sort(survivors.begin(), survivors.end(),
            [](const Task* a, const Task* b) { return a->replica < b->replica; });
  for (std::size_t r = 0; r < survivors.size(); ++r) {
    survivors[r]->replica = static_cast<int>(r);
  }
  return !survivors.empty();
}

// Mutation (b): skew one node's sub-group bytes — every member on the victim node moves
// 50% more bytes, desyncing the shard exchange the inter-node tree assumes.
bool MutateSkewSubGroupBytes(Plan* plan, Rng& rng) {
  const std::map<int, std::vector<TaskId>> groups = MultiNodeGroups(*plan);
  if (groups.empty()) {
    return false;
  }
  auto it = groups.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng.NextBounded(groups.size())));
  const TaskId pick = it->second[rng.NextBounded(it->second.size())];
  const int victim_node =
      plan->device_node[static_cast<std::size_t>(plan->tasks[static_cast<std::size_t>(pick)].device)];
  bool skewed = false;
  for (const TaskId id : it->second) {
    Task& t = plan->tasks[static_cast<std::size_t>(id)];
    if (plan->device_node[static_cast<std::size_t>(t.device)] == victim_node &&
        t.collective_bytes > 0) {
      t.collective_bytes += t.collective_bytes / 2 + 1;
      skewed = true;
    }
  }
  return skewed;
}

// Mutation (c): cross one member's intra/inter rendezvous annotation — the task claims a
// node it does not run on, so it would join the wrong tier of the two-level exchange.
bool MutateCrossRendezvous(Plan* plan, Rng& rng) {
  const std::map<int, std::vector<TaskId>> groups = MultiNodeGroups(*plan);
  if (groups.empty()) {
    return false;
  }
  auto it = groups.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(rng.NextBounded(groups.size())));
  const TaskId pick = it->second[rng.NextBounded(it->second.size())];
  Task& t = plan->tasks[static_cast<std::size_t>(pick)];
  const int num_nodes =
      1 + *std::max_element(plan->device_node.begin(), plan->device_node.end());
  t.collective_node = (t.collective_node + 1 +
                       static_cast<int>(rng.NextBounded(
                           static_cast<std::uint64_t>(num_nodes - 1)))) %
                      num_nodes;
  return true;
}

constexpr int kMutationsPerClass = 100;
constexpr int kRequiredHits = 95;

TEST(ClusterLintMutation, UnmutatedClusterPlansLintClean) {
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 5);
    const std::unique_ptr<BuiltPlan> built = BuildClusterPlan(rng);
    ASSERT_FALSE(built->plan.device_node.empty());
    const LintReport report = DeepLint(*built);
    EXPECT_TRUE(report.clean()) << report.Render();
  }
}

TEST(ClusterLintMutation, DetectsNodeDroppedFromInterNodeTree) {
  int applied = 0, detected = 0;
  for (int seed = 0; seed < kMutationsPerClass; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
    std::unique_ptr<BuiltPlan> built = BuildClusterPlan(rng);
    if (!MutateDropNodeFromTree(&built->plan, rng)) {
      continue;
    }
    ++applied;
    if (HasCheck(DeepLint(*built), LintCheck::kHierarchical)) {
      ++detected;
    }
  }
  ASSERT_GE(applied, kMutationsPerClass * 9 / 10)
      << "mutation generator failed to find spanning groups often enough";
  EXPECT_GE(detected * kMutationsPerClass, kRequiredHits * applied)
      << "detected " << detected << "/" << applied;
}

TEST(ClusterLintMutation, DetectsSkewedSubGroupBytes) {
  int applied = 0, detected = 0;
  for (int seed = 0; seed < kMutationsPerClass; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 23);
    std::unique_ptr<BuiltPlan> built = BuildClusterPlan(rng);
    if (!MutateSkewSubGroupBytes(&built->plan, rng)) {
      continue;
    }
    ++applied;
    if (HasCheck(DeepLint(*built), LintCheck::kHierarchical)) {
      ++detected;
    }
  }
  ASSERT_GE(applied, kMutationsPerClass * 9 / 10);
  EXPECT_GE(detected * kMutationsPerClass, kRequiredHits * applied)
      << "detected " << detected << "/" << applied;
}

TEST(ClusterLintMutation, DetectsCrossedIntraInterRendezvous) {
  int applied = 0, detected = 0;
  for (int seed = 0; seed < kMutationsPerClass; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + 31);
    std::unique_ptr<BuiltPlan> built = BuildClusterPlan(rng);
    if (!MutateCrossRendezvous(&built->plan, rng)) {
      continue;
    }
    ++applied;
    if (HasCheck(DeepLint(*built), LintCheck::kHierarchical)) {
      ++detected;
    }
  }
  ASSERT_GE(applied, kMutationsPerClass * 9 / 10);
  EXPECT_GE(detected * kMutationsPerClass, kRequiredHits * applied)
      << "detected " << detected << "/" << applied;
}

// ---- 4. cluster-spec fuzzing ------------------------------------------------------------------

TEST(ClusterSpecFuzz, TwoHundredSeededRoundTripsReachACanonicalFixedPoint) {
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 2654435761 + 97);
    // Random subset of keys in random order with random (valid) values.
    std::vector<std::string> fields;
    if (rng.NextBounded(2) == 0) {
      fields.push_back("nodes=" + std::to_string(1 + rng.NextBounded(1024)));
    }
    if (rng.NextBounded(2) == 0) {
      fields.push_back("gpus_per_node=" + std::to_string(1 + rng.NextBounded(16)));
    }
    if (rng.NextBounded(2) == 0) {
      fields.push_back("nodes_per_rack=" + std::to_string(rng.NextBounded(64)));
    }
    if (rng.NextBounded(2) == 0) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "nic_gbps=%.4f", rng.NextDouble(0.1, 400.0));
      fields.push_back(buffer);
    }
    if (rng.NextBounded(2) == 0) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "rack_gbps=%.1f", rng.NextDouble(1.0, 800.0));
      fields.push_back(buffer);
    }
    for (std::size_t i = fields.size(); i > 1; --i) {
      std::swap(fields[i - 1], fields[rng.NextBounded(i)]);
    }
    std::string raw;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      raw += (i > 0 ? "," : "") + fields[i];
    }

    const StatusOr<ClusterSpec> first = ParseClusterSpec(raw);
    ASSERT_TRUE(first.ok()) << raw << ": " << first.status().ToString();
    const std::string canonical = RenderClusterSpec(first.value());
    const StatusOr<ClusterSpec> second = ParseClusterSpec(canonical);
    ASSERT_TRUE(second.ok()) << canonical << ": " << second.status().ToString();
    // Fixed point: the canonical rendering re-parses to itself, bit for bit.
    EXPECT_EQ(RenderClusterSpec(second.value()), canonical) << "raw spec: " << raw;
    // And the canonical form preserves the parsed shape exactly.
    EXPECT_EQ(second.value().nodes, first.value().nodes);
    EXPECT_EQ(second.value().gpus_per_node, first.value().gpus_per_node);
    EXPECT_EQ(second.value().nodes_per_rack, first.value().nodes_per_rack);

    // Re-stating any key is a typed duplicate-key error, wherever the duplicate lands:
    // append a copy of a random already-present field and expect rejection at its offset.
    if (!fields.empty()) {
      const std::string& dup = fields[rng.NextBounded(fields.size())];
      const std::string duplicated = raw + "," + dup;
      const StatusOr<ClusterSpec> rejected = ParseClusterSpec(duplicated);
      ASSERT_FALSE(rejected.ok()) << duplicated;
      const std::string message = rejected.status().ToString();
      EXPECT_NE(message.find("duplicate cluster option '" +
                             dup.substr(0, dup.find('=')) + "'"),
                std::string::npos)
          << duplicated << " -> " << message;
      EXPECT_NE(message.find("(at byte " + std::to_string(raw.size() + 1) + ";"),
                std::string::npos)
          << duplicated << " -> " << message;
    }
  }
}

TEST(ClusterSpecFuzz, TotalGpusAtSpecLimitsIsBoundedNotOverflowed) {
  // Regression: both factors sit at the per-key limit (1 << 20). The product is 1 << 40,
  // which overflowed the old int multiply in MakeCluster before any bound could fire; the
  // parser now widens to int64 and rejects with a typed total-GPU bound.
  const StatusOr<ClusterSpec> parsed =
      ParseClusterSpec("nodes=1048576,gpus_per_node=1048576");
  ASSERT_FALSE(parsed.ok());
  const std::string message = parsed.status().ToString();
  EXPECT_NE(message.find("exceeds the supported maximum"), std::string::npos) << message;
  EXPECT_NE(message.find(std::to_string(std::int64_t{1} << 40)), std::string::npos)
      << message;

  // The largest cluster that passes the bound parses fine — the limit is on the product,
  // not the factors.
  const StatusOr<ClusterSpec> at_bound = ParseClusterSpec("nodes=1048576,gpus_per_node=1");
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ(std::int64_t{at_bound.value().nodes} * at_bound.value().gpus_per_node,
            kMaxClusterGpus);
}

TEST(ClusterSpecFuzz, MalformedSpecsReturnTypedByteOffsetErrors) {
  const struct {
    const char* spec;
    const char* why_fragment;
    int offset;
  } cases[] = {
      {"nodes", "expected key=value", 0},
      {"nodes=2,bogus=3", "unknown cluster option 'bogus'", 8},
      {"nodes=2,nodes=3", "duplicate cluster option 'nodes'", 8},
      {"nodes=x", "nodes must be an integer in [1, 1048576]", 6},
      {"nodes=0", "nodes must be an integer in [1, 1048576]", 6},
      {"nodes_per_rack=-1", "nodes_per_rack must be an integer in [0, 1048576]", 15},
      {"nic_gbps=-5", "must be a positive number", 9},
      {"gpus_per_node=4,rack_gbps=fast", "must be a positive number", 26},
      {"nodes=2,gpus_per_node=", "gpus_per_node must be an integer in [1, 1048576]", 22},
  };
  for (const auto& c : cases) {
    const StatusOr<ClusterSpec> parsed = ParseClusterSpec(c.spec);
    ASSERT_FALSE(parsed.ok()) << c.spec;
    const std::string message = parsed.status().ToString();
    EXPECT_NE(message.find("malformed cluster spec"), std::string::npos) << message;
    EXPECT_NE(message.find(c.why_fragment), std::string::npos) << message;
    EXPECT_NE(message.find("(at byte " + std::to_string(c.offset) + ";"),
              std::string::npos)
        << c.spec << " -> " << message;
  }
}

TEST(ClusterSpecFuzz, EmptyAndDefaultSpecsAreValid) {
  const StatusOr<ClusterSpec> empty = ParseClusterSpec("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(RenderClusterSpec(empty.value()), RenderClusterSpec(ClusterSpec{}));
  // ToClusterConfig carries the spec into the hardware layer, overriding the per-node GPU
  // count.
  ClusterSpec spec;
  spec.nodes = 3;
  spec.gpus_per_node = 2;
  ServerConfig server;
  server.num_gpus = 8;  // overridden by the spec
  const ClusterConfig config = ToClusterConfig(spec, server);
  EXPECT_EQ(config.num_servers, 3);
  EXPECT_EQ(config.server.num_gpus, 2);
  const Topology topo = MakeClusterTopology(config);
  EXPECT_EQ(topo.num_gpus(), 6);
  EXPECT_EQ(topo.num_nics(), 3);
  EXPECT_EQ(topo.num_racks(), 1);
}

}  // namespace
}  // namespace harmony
