// Randomized property tests. Each seed deterministically generates a model, a scheme and a
// knob configuration; the run must complete (the engine fatally reports deadlocks and
// leaked pins via MemorySystem::CheckQuiescent), and for the numeric sweep the trajectory
// must match the sequential reference. This exercises eviction, defragmentation, staged
// fetches, prefetch cancellation and collective rendezvous under configurations no
// hand-written test would pick — at the minimum feasible capacity, where pressure is worst.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/topology.h"
#include "src/hw/transfer_manager.h"
#include "src/numeric/plan_executor.h"
#include "src/numeric/reference.h"
#include "src/runtime/retry_policy.h"
#include "src/util/rng.h"
#include "tests/recording_transfer_manager.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

class RandomRunTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomRunTest, CompletesAtMinimalFeasibleCapacity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 17);
  const Model model = test_models::RandomUniformModel(rng, test_models::FuzzModelRanges());
  SessionConfig config = test_models::RandomFuzzSession(rng, model.num_layers());
  test_models::FitMinimalCapacity(model, &config);

  const SessionResult result = RunTraining(model, config);
  EXPECT_GT(result.report.makespan, 0.0);
  ASSERT_EQ(result.report.iterations.size(), 2u);
  for (const IterationStats& it : result.report.iterations) {
    EXPECT_GT(it.duration(), 0.0);
    EXPECT_GE(it.swap_in, 0);
    EXPECT_GE(it.swap_out, 0);
  }
  // High water never exceeds capacity (the allocator physically cannot, but the counter
  // path could lie; make sure it does not).
  for (Bytes high_water : result.report.device_high_water) {
    EXPECT_LE(high_water, config.server.gpu.memory_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRunTest, ::testing::Range(0, 40));

// Per-tensor churn counters cross-checked against an event-granular recount. With
// audit_eviction on, the MemorySystem appends every swap-in, eviction (clean-drop or
// write-back), staged peer write-back, and p2p fetch to the churn audit log; rebuilding the
// per-tensor counters from that log must reproduce report.tensor_churn *exactly*, and the
// per-device event sums must equal the MemoryCounters byte totals. Seed parity flips the
// write-back-clean policy so both eviction flavors are exercised.
class ChurnRecountTest : public ::testing::TestWithParam<int> {};

TEST_P(ChurnRecountTest, AuditLogRecountMatchesChurnCounters) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 15485863 + 101);
  const Model model = test_models::RandomUniformModel(rng, test_models::ChurnModelRanges());
  SessionConfig config = test_models::RandomChurnSession(rng, model.num_layers());
  MemoryPolicy policy = DefaultPolicyFor(config.scheme, config.p2p);
  policy.write_back_clean = seed % 2 == 0;
  config.policy = policy;
  test_models::FitMinimalCapacity(model, &config);

  const SessionResult result = RunTraining(model, config);
  ASSERT_FALSE(result.churn_audit_log.empty());

  // Rebuild per-tensor counters and per-device byte totals from the event log.
  std::map<TensorId, TensorChurnCounters> recount;
  std::vector<Bytes> swap_in_per_device(static_cast<std::size_t>(config.server.num_gpus), 0);
  std::vector<Bytes> swap_out_per_device(static_cast<std::size_t>(config.server.num_gpus), 0);
  for (const ChurnEvent& event : result.churn_audit_log) {
    TensorChurnCounters& c = recount[event.tensor];
    const auto device = static_cast<std::size_t>(event.device);
    switch (event.kind) {
      case ChurnKind::kSwapIn:
        ++c.swap_ins;
        c.swap_in_bytes += event.bytes;
        swap_in_per_device[device] += event.bytes;
        break;
      case ChurnKind::kEvictCleanDrop:
        ++c.evictions;
        ++c.clean_drops;
        c.clean_drop_bytes += event.bytes;
        break;
      case ChurnKind::kEvictWriteBack:
        ++c.evictions;
        ++c.write_backs;
        c.swap_out_bytes += event.bytes;
        swap_out_per_device[device] += event.bytes;
        break;
      case ChurnKind::kPeerStageWriteBack:
        ++c.write_backs;
        c.swap_out_bytes += event.bytes;
        swap_out_per_device[device] += event.bytes;
        break;
      case ChurnKind::kP2pIn:
        ++c.p2p_ins;
        c.p2p_in_bytes += event.bytes;
        break;
    }
  }

  // Every recounted tensor appears in the report, with identical counters.
  ASSERT_EQ(result.report.tensor_churn.size(), recount.size());
  for (const RunReport::TensorChurn& entry : result.report.tensor_churn) {
    auto it = recount.find(entry.tensor);
    ASSERT_NE(it, recount.end()) << "tensor " << entry.tensor << " missing from recount";
    const TensorChurnCounters& c = it->second;
    EXPECT_EQ(entry.evictions, c.evictions) << entry.name;
    EXPECT_EQ(entry.clean_drops, c.clean_drops) << entry.name;
    EXPECT_EQ(entry.write_backs, c.write_backs) << entry.name;
    EXPECT_EQ(entry.swap_ins, c.swap_ins) << entry.name;
    EXPECT_EQ(entry.p2p_ins, c.p2p_ins) << entry.name;
    EXPECT_EQ(entry.swap_in_bytes, c.swap_in_bytes) << entry.name;
    EXPECT_EQ(entry.swap_out_bytes, c.swap_out_bytes) << entry.name;
    EXPECT_EQ(entry.p2p_in_bytes, c.p2p_in_bytes) << entry.name;
    EXPECT_EQ(entry.clean_drop_bytes, c.clean_drop_bytes) << entry.name;
  }

  // The event sums also reproduce the per-device MemoryCounters totals — a third
  // independent accounting path over the same traffic.
  for (int d = 0; d < result.report.num_devices(); ++d) {
    const auto i = static_cast<std::size_t>(d);
    EXPECT_EQ(swap_in_per_device[i], result.report.device_swap_in[i]) << "gpu" << d;
    EXPECT_EQ(swap_out_per_device[i], result.report.device_swap_out[i]) << "gpu" << d;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnRecountTest, ::testing::Range(0, 20));

class RandomNumericTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomNumericTest, TrajectoryMatchesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);

  std::vector<int> dims;
  const int layers = 2 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i <= layers; ++i) {
    dims.push_back(3 + static_cast<int>(rng.NextBounded(9)));
  }
  const Model model = MakeMlp(dims);

  SessionConfig config;
  config.scheme = test_models::PickScheme(rng);
  config.server.num_gpus =
      1 + static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(std::min(3, layers))));
  config.microbatches = 1 + static_cast<int>(rng.NextBounded(3));
  config.microbatch_size = 1 + static_cast<int>(rng.NextBounded(3));
  config.iterations = 1 + static_cast<int>(rng.NextBounded(3));
  config.grouping = rng.NextBounded(2) == 0;
  config.group_size = static_cast<int>(rng.NextBounded(3));
  config.jit_updates = rng.NextBounded(2) == 0;
  config.recompute = rng.NextBounded(3) == 0;

  const Machine machine = MakeCommodityServer(config.server);
  TensorRegistry registry;
  const Plan plan = BuildPlanForConfig(model, machine, &registry, config);
  ASSERT_TRUE(plan.Validate().ok());

  const bool data_parallel =
      config.scheme == Scheme::kBaselineDp || config.scheme == Scheme::kHarmonyDp;
  const int replicas = data_parallel ? config.server.num_gpus : 1;
  const int total_microbatches =
      (config.scheme == Scheme::kHarmonyTp ? 1 : replicas) * config.microbatches;

  const DataFn data =
      SyntheticData(dims, config.microbatch_size, 1000 + static_cast<std::uint64_t>(GetParam()));
  PlanExecutorConfig exec_config;
  exec_config.dims = dims;
  exec_config.init_seed = 21;
  exec_config.microbatches_per_replica = config.microbatches;
  exec_config.lr = 0.03;
  PlanExecutor executor(&plan, exec_config, data);
  executor.Run();

  const ReferenceResult reference =
      TrainReference(dims, 21, data, config.iterations, total_microbatches,
                     config.microbatch_size, 0.03);

  if (config.scheme == Scheme::kHarmonyTp) {
    EXPECT_LT(MaxParamDiff(executor.AssembleShardedParams(), reference.params), 1e-9)
        << SchemeName(config.scheme);
  } else {
    for (int r = 0; r < executor.num_replicas(); ++r) {
      EXPECT_LT(MaxParamDiff(executor.replica_params(r), reference.params), 1e-9)
          << SchemeName(config.scheme) << " replica " << r;
    }
  }
  ASSERT_EQ(executor.losses().size(), reference.losses.size());
  for (std::size_t i = 0; i < reference.losses.size(); ++i) {
    EXPECT_NEAR(executor.losses()[i], reference.losses[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNumericTest, ::testing::Range(0, 24));

// Property test for the incremental flow model: drive a TransferManager through randomized
// arrival/departure churn and, at interleaved probe times, check its incrementally
// maintained state (per-link active counts, route groups and their per-link lists, rates,
// each group's earliest member, completion heap) against a from-scratch recomputation.
// DebugCheckConsistency returns an empty string when everything matches and a description
// of the first divergence otherwise.
class RandomFlowChurnTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowChurnTest, IncrementalStateMatchesFromScratchRebuild) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 29);

  ServerConfig server;
  server.num_gpus = 2 + static_cast<int>(rng.NextBounded(7));  // 2..8 GPUs
  server.gpus_per_switch = 2 + static_cast<int>(rng.NextBounded(3));
  Topology topo = MakeCommodityServerTopology(server);
  Simulator sim;
  RecordingTransferManager tm(&sim, &topo);

  const auto gpu = [&](std::uint64_t bound) {
    return topo.gpu_node(static_cast<int>(rng.NextBounded(bound)));
  };
  const int n = server.num_gpus;
  const int transfers = 40 + static_cast<int>(rng.NextBounded(160));
  int real_flows = 0;  // same-node and zero-byte transfers short-circuit past the flow model
  int completions_observed = 0;
  for (int t = 0; t < transfers; ++t) {
    const NodeId src = gpu(static_cast<std::uint64_t>(n));
    const bool to_host = rng.NextBounded(3) != 0;  // mostly swap traffic, some p2p
    const NodeId dst = to_host ? topo.host_node() : gpu(static_cast<std::uint64_t>(n));
    const Bytes bytes = static_cast<Bytes>(rng.NextBounded(24)) * kMiB;  // zero-byte legal
    const TransferKind kind = to_host ? TransferKind::kSwapOut : TransferKind::kPeerToPeer;
    const double start = rng.NextDouble(0.0, 0.2);
    if (src != dst && bytes > 0) {
      ++real_flows;
    }
    sim.ScheduleAfter(start, [&tm, &completions_observed, src, dst, bytes, kind] {
      tm.StartTransfer(src, dst, bytes, kind)
          ->OnFired([&completions_observed] { ++completions_observed; });
    });
  }
  // Probes land throughout the churn window, including between the events a completion or
  // arrival schedules — exactly where a stale heap entry or count would hide.
  for (int probe = 0; probe < 64; ++probe) {
    sim.ScheduleAfter(rng.NextDouble(0.0, 0.4), [&tm] {
      EXPECT_EQ(tm.DebugCheckConsistency(), "");
    });
  }
  sim.RunUntilIdle();

  EXPECT_EQ(tm.DebugCheckConsistency(), "");
  EXPECT_EQ(tm.num_active_flows(), 0);
  EXPECT_EQ(tm.flows_completed(), real_flows);
  EXPECT_EQ(completions_observed, transfers);  // every done event fires, flow or not
}

// The same property on a two-rack cluster, where NIC, ToR and spine links carry many route
// groups at once. Bursts of equal-size flows start at one instant on two routes that share
// their bottleneck: their completions tie, within and across the two route groups, and
// must fire in flow-id order. A burst's joins share one instant, and each is followed by a
// probe that runs before the instant's settle re-rates them, then by one that runs after
// it. The fault model's change points are
// interleaved with the churn, each followed by a probe: bandwidth rescales, flow flaps
// under a retry policy (retried flows re-join their route's group) and, on even seeds, a
// GPU fail-stop.
TEST_P(RandomFlowChurnTest, ClusterBurstsAndFaultsMatchFromScratchRebuild) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 101);

  ClusterConfig cluster;
  cluster.num_servers = 2 + static_cast<int>(rng.NextBounded(4));  // 2..5 nodes
  cluster.nodes_per_rack = (cluster.num_servers + 1) / 2;           // in two racks
  cluster.server.num_gpus = 2 + static_cast<int>(rng.NextBounded(3));
  cluster.server.gpus_per_switch = 1 + static_cast<int>(rng.NextBounded(2));
  const Topology topo = MakeClusterTopology(cluster);
  ASSERT_EQ(topo.num_racks(), 2);
  Simulator sim;
  RecordingTransferManager tm(&sim, &topo);
  const RetryPolicy retry{RetryPolicyConfig{}};
  tm.SetRetryPolicy(&retry);

  const auto random_index = [&rng](int n) {
    return static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(n)));
  };
  const auto random_gpu = [&] { return random_index(topo.num_gpus()); };
  // Half the traffic swaps to the GPU's own host; the rest goes GPU to GPU, mostly across
  // nodes (NIC and ToR links) and often across racks (the spine).
  const auto random_route = [&] {
    const int gpu = random_gpu();
    if (rng.NextBounded(2) == 0) {
      return std::make_pair(topo.gpu_node(gpu), topo.HostNodeForGpu(gpu));
    }
    return std::make_pair(topo.gpu_node(gpu), topo.gpu_node(random_gpu()));
  };
  const auto probe = [&tm] { EXPECT_EQ(tm.DebugCheckConsistency(), ""); };
  // Queued right behind a join: probes the window before the instant's settle, then probes
  // again behind the settle, which the instant's first join queued.
  const auto probe_around_settle = [&sim, &probe] {
    probe();
    sim.ScheduleAfter(0.0, probe);
  };
  // Sum of the route's link latencies, added in the order the manager adds them.
  const auto route_latency = [&topo](std::pair<NodeId, NodeId> route) {
    double latency = 0.0;
    for (LinkId link : topo.Route(route.first, route.second)) {
      latency += topo.link(link).spec.latency_sec;
    }
    return latency;
  };

  struct Transfer {
    OneShotEvent* done = nullptr;
    bool real = false;  // entered the flow model (distinct endpoints, nonzero bytes)
    int fire_seq = -1;  // position in the order the done events fired
  };
  const int churn = 60 + random_index(120);
  const int bursts = 3 + random_index(3);
  std::vector<Transfer> transfers(static_cast<std::size_t>(churn));
  std::vector<std::vector<std::size_t>> burst_members(static_cast<std::size_t>(bursts));
  int next_fire_seq = 0;
  const auto start = [&](std::size_t slot, NodeId src, NodeId dst, Bytes bytes) {
    Transfer& transfer = transfers[slot];
    transfer.real = src != dst && bytes > 0;
    transfer.done = tm.StartTransfer(src, dst, bytes, TransferKind::kOther);
    transfer.done->OnFired([&transfer, &next_fire_seq] { transfer.fire_seq = next_fire_seq++; });
  };

  for (std::size_t slot = 0; slot < transfers.size(); ++slot) {
    const auto [src, dst] = random_route();
    const Bytes bytes = static_cast<Bytes>(rng.NextBounded(24)) * kMiB;  // zero-byte legal
    sim.ScheduleAfter(rng.NextDouble(0.0, 0.2),
                      [&start, slot, src, dst, bytes] { start(slot, src, dst, bytes); });
  }
  const auto random_link = [&] { return random_index(topo.num_links()); };
  const auto flap_at = [&sim, &tm, &probe](double when, std::vector<LinkId> links) {
    sim.ScheduleAfter(when, [&tm, &probe, links] {
      tm.FlapLinkFlows(links);
      probe();
    });
  };

  // Even seeds fail-stop one GPU inside the fault window [0, 0.3).
  const NodeId victim = GetParam() % 2 == 0 ? topo.gpu_node(random_gpu()) : kInvalidNode;
  // A random index in [0, n) other than `not_this`.
  const auto other_than = [&](int not_this, int n) {
    return (not_this + 1 + random_index(n - 1)) % n;
  };
  for (std::vector<std::size_t>& members : burst_members) {
    // Members alternate between two routes from distinct GPUs of node a to GPUs of node b.
    // Both cross a's and b's NIC links, the bottleneck, so the two route groups get the
    // same rate. The last burst starts after the fault window and avoids the victim, so
    // every seed checks a tie; the others are fair game for the faults.
    const bool last = &members == &burst_members.back();
    const int per_node = cluster.server.num_gpus;
    std::pair<NodeId, NodeId> routes[2];
    do {
      const int a = random_index(cluster.num_servers);
      const int b = other_than(a, cluster.num_servers);
      const int first_src = random_index(per_node);
      const int srcs[2] = {first_src, other_than(first_src, per_node)};
      for (int r = 0; r < 2; ++r) {
        routes[r] = {topo.gpu_node(a * per_node + srcs[r]),
                     topo.gpu_node(b * per_node + random_index(per_node))};
      }
    } while (last && (routes[0].first == victim || routes[0].second == victim ||
                      routes[1].first == victim || routes[1].second == victim));
    const int size = 3 + random_index(10);
    for (int m = 0; m < size; ++m) {
      members.push_back(transfers.size());
      transfers.emplace_back();
    }
    const Bytes bytes = (1 + static_cast<Bytes>(rng.NextBounded(16))) * kMiB;
    const double when = last ? rng.NextDouble(0.3, 0.4) : rng.NextDouble(0.0, 0.2);
    const double latencies[2] = {route_latency(routes[0]), route_latency(routes[1])};
    // One event starts the whole burst, so its flows take consecutive ids in member order.
    sim.ScheduleAfter(when, [&start, &sim, &probe_around_settle, &members, routes, latencies,
                             bytes] {
      for (std::size_t m = 0; m < members.size(); ++m) {
        start(members[m], routes[m % 2].first, routes[m % 2].second, bytes);
        sim.ScheduleAfter(latencies[m % 2], probe_around_settle);
      }
    });
    if (&members == &burst_members.front()) {
      // Flap the first burst 10 us after its flows joined (at least 3 MiB share a NIC
      // link, so none has finished): the flapped members retry and re-join their group.
      const std::vector<LinkId>& links = topo.Route(routes[0].first, routes[0].second);
      flap_at(when + latencies[0] + 1e-5, {links[rng.NextBounded(links.size())]});
    }
  }
  const double scales[] = {0.25, 0.5, 1.0};
  for (int i = 0, n = 4 + random_index(5); i < n; ++i) {
    const LinkId link = random_link();
    const double scale = scales[rng.NextBounded(3)];
    sim.ScheduleAfter(rng.NextDouble(0.0, 0.3), [&tm, &probe, link, scale] {
      tm.SetLinkBandwidthScale(link, scale);
      probe();
    });
  }
  for (int i = 0, n = 2 + random_index(3); i < n; ++i) {
    std::vector<LinkId> links = {random_link()};
    if (rng.NextBounded(2) == 0) {
      links.push_back(random_link());
    }
    flap_at(rng.NextDouble(0.0, 0.3), links);
  }
  if (victim != kInvalidNode) {
    sim.ScheduleAfter(rng.NextDouble(0.05, 0.3), [&tm, &probe, victim] {
      tm.FailNode(victim);
      probe();
    });
  }
  for (int i = 0; i < 96; ++i) {
    sim.ScheduleAfter(rng.NextDouble(0.0, 0.5), probe);
  }
  sim.RunUntilIdle();

  probe();
  EXPECT_EQ(tm.num_active_flows(), 0);
  std::int64_t completed = 0;
  for (const Transfer& transfer : transfers) {
    ASSERT_NE(transfer.done, nullptr);
    EXPECT_GE(transfer.fire_seq, 0);  // every done event fires, flow or not
    if (transfer.real && !tm.WasAborted(transfer.done)) {
      ++completed;
    }
  }
  EXPECT_EQ(tm.flows_completed(), completed);
  EXPECT_GT(tm.flows_retried(), 0);

  // Burst members that complete at one instant fire in flow-id (= member) order. A burst
  // untouched by faults ties as a whole; retries scatter a flapped burst's members.
  int cross_route_ties = 0;
  for (const std::vector<std::size_t>& members : burst_members) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const OneShotEvent* earlier = transfers[members[i]].done;
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        const OneShotEvent* later = transfers[members[j]].done;
        if (tm.WasAborted(earlier) || tm.WasAborted(later) ||
            earlier->fire_time() != later->fire_time()) {
          continue;
        }
        EXPECT_LT(transfers[members[i]].fire_seq, transfers[members[j]].fire_seq)
            << "burst member " << j << " fired before member " << i;
        if ((j - i) % 2 == 1) {
          ++cross_route_ties;
        }
      }
    }
  }
  EXPECT_GT(cross_route_ties, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowChurnTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace harmony
