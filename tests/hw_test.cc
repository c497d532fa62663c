#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <string>
#include <vector>

#include "src/hw/topology.h"
#include "src/util/rng.h"
#include "src/hw/transfer_manager.h"
#include "src/sim/simulator.h"
#include "tests/recording_transfer_manager.h"

namespace harmony {
namespace {

ServerConfig FourGpuServer() {
  ServerConfig config;
  config.num_gpus = 4;
  config.gpus_per_switch = 4;
  return config;
}

TEST(TopologyTest, CommodityServerShape) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  EXPECT_EQ(topo.num_gpus(), 4);
  // host + 1 switch + 4 gpus
  EXPECT_EQ(topo.num_nodes(), 6);
  // 5 duplex links = 10 directed
  EXPECT_EQ(topo.num_links(), 10);
}

TEST(TopologyTest, GpuToHostRouteCrossesSwitch) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  const auto& route = topo.Route(topo.gpu_node(0), topo.host_node());
  EXPECT_EQ(route.size(), 2u);  // gpu -> switch -> host
  EXPECT_EQ(topo.link(route.back()).dst, topo.host_node());
}

TEST(TopologyTest, PeerRouteUnderOneSwitchAvoidsHost) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  EXPECT_TRUE(topo.RouteAvoidsHost(topo.gpu_node(0), topo.gpu_node(3)));
}

TEST(TopologyTest, PeerRouteAcrossSwitchesCrossesHost) {
  ServerConfig config = FourGpuServer();
  config.gpus_per_switch = 2;  // gpus {0,1} on sw0, {2,3} on sw1
  const Topology topo = MakeCommodityServerTopology(config);
  EXPECT_TRUE(topo.RouteAvoidsHost(topo.gpu_node(0), topo.gpu_node(1)));
  EXPECT_FALSE(topo.RouteAvoidsHost(topo.gpu_node(0), topo.gpu_node(2)));
}

TEST(TopologyTest, RoutesAreSymmetricInLength) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a == b) {
        continue;
      }
      EXPECT_EQ(topo.Route(topo.gpu_node(a), topo.gpu_node(b)).size(),
                topo.Route(topo.gpu_node(b), topo.gpu_node(a)).size());
    }
  }
}

TEST(TopologyTest, DescribeRoutesMentionsEveryGpu) {
  const Topology topo = MakeCommodityServerTopology(FourGpuServer());
  const std::string desc = topo.DescribeRoutes();
  for (int g = 0; g < 4; ++g) {
    EXPECT_NE(desc.find("gpu" + std::to_string(g)), std::string::npos);
  }
}

TEST(TopologyTest, FinalizeRejectsZeroBandwidthLink) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu0");
  topo.AddDuplexLink(host, gpu, LinkSpec{"broken", 0.0, 1e-6});
  EXPECT_DEATH(topo.Finalize(), "must have positive bandwidth");
}

TEST(TopologyTest, FinalizeRejectsNegativeLatencyLink) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu0");
  topo.AddDuplexLink(host, gpu, LinkSpec{"broken", GBps(10.0), -1e-6});
  EXPECT_DEATH(topo.Finalize(), "must have non-negative latency");
}

TEST(TopologyTest, MachineCarriesGpuSpecs) {
  const Machine machine = MakeCommodityServer(FourGpuServer());
  EXPECT_EQ(machine.num_gpus(), 4);
  EXPECT_EQ(machine.gpus[0].memory_bytes, 11 * kGiB);
  EXPECT_GT(machine.gpus[0].effective_flops(), 0.0);
}

// ---- Route oracle ---------------------------------------------------------------------------
// Finalize once ran a BFS from every node and stored each ordered pair's route, then gave
// each GPU its nearest host by those routes. Both survive here as the oracle that the tree
// walk must reproduce.

// routes[src * num_nodes + dst]: BFS over each node's out-links in link-id order (the order
// AddDuplexLink appends them), so fewest hops, ties to the earlier out-link.
std::vector<std::vector<LinkId>> AllPairsBfsRoutes(const Topology& topo) {
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  std::vector<std::vector<LinkId>> out_links(n);
  for (LinkId lid = 0; lid < topo.num_links(); ++lid) {
    out_links[static_cast<std::size_t>(topo.link(lid).src)].push_back(lid);
  }
  std::vector<std::vector<LinkId>> routes(n * n);
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<LinkId> in_link(n, -1);
    std::vector<bool> visited(n, false);
    std::deque<std::size_t> frontier{src};
    visited[src] = true;
    while (!frontier.empty()) {
      const std::size_t at = frontier.front();
      frontier.pop_front();
      for (LinkId lid : out_links[at]) {
        const auto next = static_cast<std::size_t>(topo.link(lid).dst);
        if (!visited[next]) {
          visited[next] = true;
          in_link[next] = lid;
          frontier.push_back(next);
        }
      }
    }
    for (std::size_t dst = 0; dst < n; ++dst) {
      std::vector<LinkId>& path = routes[src * n + dst];
      for (std::size_t at = dst; at != src;) {
        path.push_back(in_link[at]);
        at = static_cast<std::size_t>(topo.link(in_link[at]).src);
      }
      std::reverse(path.begin(), path.end());
    }
  }
  return routes;
}

// Empty when Route agrees with the oracle on every ordered node pair, and HostNodeForGpu
// and ServerOfGpu with the nearest host (fewest hops, ties to the lowest host id) on every
// GPU; otherwise the first disagreement.
std::string DiffAgainstOracle(const Topology& topo) {
  const std::vector<std::vector<LinkId>> routes = AllPairsBfsRoutes(topo);
  const auto n = static_cast<std::size_t>(topo.num_nodes());
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (topo.Route(src, dst) != routes[static_cast<std::size_t>(src) * n +
                                         static_cast<std::size_t>(dst)]) {
        return "route " + topo.node(src).name + " -> " + topo.node(dst).name;
      }
    }
  }
  std::vector<NodeId> hosts;
  for (NodeId id = 0; id < topo.num_nodes(); ++id) {
    if (topo.node(id).kind == NodeKind::kHost) {
      hosts.push_back(id);
    }
  }
  for (int g = 0; g < topo.num_gpus(); ++g) {
    const auto gpu = static_cast<std::size_t>(topo.gpu_node(g));
    std::size_t best = 0;
    for (std::size_t h = 1; h < hosts.size(); ++h) {
      if (routes[gpu * n + static_cast<std::size_t>(hosts[h])].size() <
          routes[gpu * n + static_cast<std::size_t>(hosts[best])].size()) {
        best = h;
      }
    }
    if (topo.HostNodeForGpu(g) != hosts[best] ||
        topo.ServerOfGpu(g) != static_cast<int>(best)) {
      return "swap host of gpu " + std::to_string(g);
    }
  }
  return "";
}

TEST(TopologyTest, ServerRoutesMatchAllPairsBfsOracle) {
  for (const bool nvlink : {false, true}) {
    for (int gpus = 1; gpus <= 8; ++gpus) {
      for (int per_switch = 1; per_switch <= 4; ++per_switch) {
        ServerConfig config;
        config.num_gpus = gpus;
        config.gpus_per_switch = per_switch;
        if (nvlink) {
          config.gpu_link = NvLink2();
        }
        EXPECT_EQ(DiffAgainstOracle(MakeCommodityServerTopology(config)), "")
            << gpus << " GPUs, " << per_switch << " per switch, nvlink " << nvlink;
      }
    }
  }
}

TEST(TopologyTest, ClusterRoutesMatchAllPairsBfsOracle) {
  for (const int servers : {1, 2, 3, 5, 12, 32}) {
    for (const int per_rack : {0, 1, 2, 5, 16}) {
      for (const int gpus : {1, 2, 4}) {
        ClusterConfig config;
        config.num_servers = servers;
        config.nodes_per_rack = per_rack;
        config.server.num_gpus = gpus;
        EXPECT_EQ(DiffAgainstOracle(MakeClusterTopology(config)), "")
            << servers << " nodes, " << per_rack << " per rack, " << gpus << " GPUs each";
      }
    }
  }
}

// ---- TransferManager ------------------------------------------------------------------------

class TransferTest : public ::testing::Test {
 protected:
  TransferTest() : topo_(MakeCommodityServerTopology(FourGpuServer())), tm_(&sim_, &topo_) {}

  Simulator sim_;
  Topology topo_;
  RecordingTransferManager tm_;
};

TEST_F(TransferTest, SingleFlowGetsFullBandwidth) {
  // 12.8 GB over a 12.8 GB/s path: ~1 s (+ negligible latency).
  OneShotEvent* done =
      tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(),
                        static_cast<Bytes>(GBps(12.8)), TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired());
  EXPECT_NEAR(done->fire_time(), 1.0, 1e-3);
}

TEST_F(TransferTest, TwoFlowsShareTheUplink) {
  // Two GPUs swapping to host share the single switch->host link: each takes ~2x as long.
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  OneShotEvent* a =
      tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut);
  OneShotEvent* b =
      tm_.StartTransfer(topo_.gpu_node(1), topo_.host_node(), bytes, TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  EXPECT_NEAR(a->fire_time(), 2.0, 1e-2);
  EXPECT_NEAR(b->fire_time(), 2.0, 1e-2);
}

TEST_F(TransferTest, PeerToPeerAvoidsUplinkContention) {
  // gpu0->gpu1 p2p and gpu2->host swap share no link: both finish in ~1 s.
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  OneShotEvent* p2p =
      tm_.StartTransfer(topo_.gpu_node(0), topo_.gpu_node(1), bytes, TransferKind::kPeerToPeer);
  OneShotEvent* swap =
      tm_.StartTransfer(topo_.gpu_node(2), topo_.host_node(), bytes, TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  EXPECT_NEAR(p2p->fire_time(), 1.0, 1e-2);
  EXPECT_NEAR(swap->fire_time(), 1.0, 1e-2);
}

TEST_F(TransferTest, TiedCompletionsFireInFlowIdOrderAcrossRoutes) {
  // gpu0->host and gpu1->host are two routes, so two route groups, bottlenecked on the one
  // switch->host link: equal flows started together get one rate and finish at one
  // instant. They must fire in start (flow id) order across the groups, not group by group.
  std::vector<int> order;
  std::vector<OneShotEvent*> done;
  for (int i = 0; i < 6; ++i) {
    done.push_back(tm_.StartTransfer(topo_.gpu_node(i % 2), topo_.host_node(), 64 * kMiB,
                                     TransferKind::kSwapOut));
    done.back()->OnFired([&order, i] { order.push_back(i); });
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  for (const OneShotEvent* event : done) {
    EXPECT_EQ(event->fire_time(), done.front()->fire_time());
  }
}

TEST_F(TransferTest, StaggeredFlowSpeedsUpAfterFirstFinishes) {
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut);
  OneShotEvent* late = nullptr;
  sim_.ScheduleAt(0.5, [&] {
    late = tm_.StartTransfer(topo_.gpu_node(1), topo_.host_node(), bytes,
                             TransferKind::kSwapOut);
  });
  sim_.RunUntilIdle();
  // At t=0.5 flow A has 6.4 GB left; both share the uplink at 6.4 GB/s, so A lands at
  // t=1.5 having let B move 6.4 GB; B's remaining 6.4 GB then runs alone: done at t=2.0.
  ASSERT_NE(late, nullptr);
  EXPECT_NEAR(late->fire_time(), 2.0, 0.05);
}

TEST_F(TransferTest, ZeroByteTransferCompletesAfterLatency) {
  OneShotEvent* done =
      tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), 0, TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired());
  EXPECT_NEAR(done->fire_time(), 1e-5, 1e-6);  // 2 hops x 5 us
}

TEST_F(TransferTest, SameNodeTransferIsImmediate) {
  OneShotEvent* done =
      tm_.StartTransfer(topo_.gpu_node(0), topo_.gpu_node(0), 1000, TransferKind::kOther);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired());
  EXPECT_DOUBLE_EQ(done->fire_time(), 0.0);
}

TEST_F(TransferTest, AccountsBytesByKind) {
  tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), 100, TransferKind::kSwapOut);
  tm_.StartTransfer(topo_.host_node(), topo_.gpu_node(0), 250, TransferKind::kSwapIn);
  tm_.StartTransfer(topo_.gpu_node(0), topo_.gpu_node(1), 70, TransferKind::kPeerToPeer);
  sim_.RunUntilIdle();
  EXPECT_EQ(tm_.bytes_by_kind(TransferKind::kSwapOut), 100);
  EXPECT_EQ(tm_.bytes_by_kind(TransferKind::kSwapIn), 250);
  EXPECT_EQ(tm_.bytes_by_kind(TransferKind::kPeerToPeer), 70);
  EXPECT_EQ(tm_.total_bytes(), 420);
  EXPECT_EQ(tm_.flows_completed(), 3);
}

TEST_F(TransferTest, LinkStatsAccumulateCarriedBytes) {
  const Bytes bytes = 1000;
  tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  Bytes carried = 0;
  double busy = 0.0;
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    carried += tm_.link_stats(l).bytes_carried;
    busy += tm_.link_stats(l).busy_time;
  }
  EXPECT_EQ(carried, 2 * bytes);  // two hops
  EXPECT_GT(busy, 0.0);
}

TEST_F(TransferTest, TransferKindNamesAreStable) {
  EXPECT_STREQ(TransferKindName(TransferKind::kSwapIn), "swap-in");
  EXPECT_STREQ(TransferKindName(TransferKind::kSwapOut), "swap-out");
  EXPECT_STREQ(TransferKindName(TransferKind::kPeerToPeer), "p2p");
  EXPECT_STREQ(TransferKindName(TransferKind::kCollective), "collective");
}

// ---- StartTransfer's continuation contract ----------------------------------------------------

// What a continuation saw: how often it ran, and its last outcome and time.
struct ContinuationProbe {
  int runs = 0;
  TransferOutcome outcome = TransferOutcome::kCompleted;
  SimTime when = kSimTimeNever;
};

TransferManager::Continuation Record(Simulator* sim, ContinuationProbe* probe) {
  return [sim, probe](TransferOutcome outcome) {
    ++probe->runs;
    probe->outcome = outcome;
    probe->when = sim->now();
  };
}

// Sum of the route's link latencies, added in the order the manager adds them.
double RouteLatency(const Topology& topo, NodeId src, NodeId dst) {
  double latency = 0.0;
  for (LinkId lid : topo.Route(src, dst)) {
    latency += topo.link(lid).spec.latency_sec;
  }
  return latency;
}

TEST_F(TransferTest, ContinuationRunsExactlyOncePerTransfer) {
  ContinuationProbe flow;
  ContinuationProbe zero_bytes;
  ContinuationProbe same_node;
  ContinuationProbe chained;
  tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), 64 * kMiB, TransferKind::kSwapOut,
                    Record(&sim_, &flow));
  tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), 0, TransferKind::kSwapOut,
                    Record(&sim_, &zero_bytes));
  tm_.StartTransfer(topo_.gpu_node(1), topo_.gpu_node(1), 1000, TransferKind::kOther,
                    Record(&sim_, &same_node));
  // A continuation may start a transfer of its own.
  tm_.StartTransfer(topo_.gpu_node(2), topo_.host_node(), 64 * kMiB, TransferKind::kSwapOut,
                    [this, &chained](TransferOutcome) {
                      tm_.StartTransfer(topo_.host_node(), topo_.gpu_node(2), 64 * kMiB,
                                        TransferKind::kSwapIn, Record(&sim_, &chained));
                    });
  EXPECT_EQ(tm_.continuations_parked(), 4u);
  sim_.RunUntilIdle();
  for (const ContinuationProbe* probe : {&flow, &zero_bytes, &same_node, &chained}) {
    EXPECT_EQ(probe->runs, 1);
    EXPECT_EQ(probe->outcome, TransferOutcome::kCompleted);
  }
  EXPECT_DOUBLE_EQ(same_node.when, 0.0);
  EXPECT_DOUBLE_EQ(zero_bytes.when,
                   RouteLatency(topo_, topo_.gpu_node(0), topo_.host_node()));
  EXPECT_GT(chained.when, flow.when);
  EXPECT_EQ(tm_.flows_completed(), 3);
  EXPECT_EQ(tm_.continuations_parked(), 0u);  // nothing is kept once every one has run
}

TEST_F(TransferTest, ContinuationRunsAfterEventsAlreadyQueuedForItsInstant) {
  // A zero-byte transfer ends after its route latency. An event queued for that instant
  // after the transfer started still runs first: the end schedules the continuation as a
  // fresh event rather than calling it.
  std::vector<std::string> order;
  const NodeId gpu = topo_.gpu_node(0);
  tm_.StartTransfer(gpu, topo_.host_node(), 0, TransferKind::kSwapOut,
                    [&order](TransferOutcome) { order.push_back("zero-byte transfer"); });
  sim_.ScheduleAt(RouteLatency(topo_, gpu, topo_.host_node()),
                  [&order] { order.push_back("queued"); });
  sim_.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"queued", "zero-byte transfer"}));

  // A flow ends at the manager's completion wakeup. An event queued behind that wakeup,
  // for the same instant, still runs before the continuation.
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  SimTime landing = kSimTimeNever;
  {
    Simulator dry_sim;
    TransferManager dry(&dry_sim, &topo_);
    dry.StartTransfer(gpu, topo_.host_node(), bytes, TransferKind::kSwapOut,
                      [&](TransferOutcome) { landing = dry_sim.now(); });
    dry_sim.RunUntilIdle();
  }
  ASSERT_GT(landing, 0.5);
  Simulator sim;
  TransferManager tm(&sim, &topo_);
  order.clear();
  tm.StartTransfer(gpu, topo_.host_node(), bytes, TransferKind::kSwapOut,
                   [&](TransferOutcome) {
                     EXPECT_EQ(sim.now(), landing);
                     order.push_back("flow");
                   });
  sim.ScheduleAt(0.5, [&] {  // the flow has joined; its wakeup is queued for `landing`
    sim.ScheduleAt(landing, [&order] { order.push_back("queued"); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<std::string>{"queued", "flow"}));
}

TEST_F(TransferTest, ContinuationSeesAbortedWhenAnEndpointIsDeadAtStart) {
  tm_.FailNode(topo_.gpu_node(3));
  ContinuationProbe from_dead;
  ContinuationProbe to_dead;
  tm_.StartTransfer(topo_.gpu_node(3), topo_.host_node(), 1000, TransferKind::kSwapOut,
                    Record(&sim_, &from_dead));
  tm_.StartTransfer(topo_.host_node(), topo_.gpu_node(3), 0, TransferKind::kSwapIn,
                    Record(&sim_, &to_dead));
  sim_.RunUntilIdle();
  for (const ContinuationProbe* probe : {&from_dead, &to_dead}) {
    EXPECT_EQ(probe->runs, 1);
    EXPECT_EQ(probe->outcome, TransferOutcome::kAborted);
    EXPECT_DOUBLE_EQ(probe->when, 0.0);
  }
  EXPECT_EQ(tm_.flows_aborted(), 2);
  EXPECT_EQ(tm_.continuations_parked(), 0u);
}

TEST_F(TransferTest, ContinuationSeesAbortedWhenAnEndpointDiesInTheLatencyWindow) {
  ContinuationProbe probe;
  tm_.StartTransfer(topo_.gpu_node(2), topo_.host_node(), 64 * kMiB, TransferKind::kSwapOut,
                    Record(&sim_, &probe));
  tm_.FailNode(topo_.gpu_node(2));  // the flow has not joined its links yet
  sim_.RunUntilIdle();
  EXPECT_EQ(probe.runs, 1);
  EXPECT_EQ(probe.outcome, TransferOutcome::kAborted);
  EXPECT_DOUBLE_EQ(probe.when, RouteLatency(topo_, topo_.gpu_node(2), topo_.host_node()));
  EXPECT_EQ(tm_.flows_completed(), 0);
  EXPECT_EQ(tm_.continuations_parked(), 0u);
}

TEST_F(TransferTest, ContinuationSeesAbortedWhenFailNodeHitsAFlowMidFlight) {
  ContinuationProbe doomed;
  ContinuationProbe survivor;
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut,
                    Record(&sim_, &doomed));
  tm_.StartTransfer(topo_.gpu_node(1), topo_.host_node(), bytes, TransferKind::kSwapOut,
                    Record(&sim_, &survivor));
  sim_.ScheduleAt(0.5, [this] { tm_.FailNode(topo_.gpu_node(0)); });
  sim_.RunUntilIdle();
  EXPECT_EQ(doomed.runs, 1);
  EXPECT_EQ(doomed.outcome, TransferOutcome::kAborted);
  EXPECT_DOUBLE_EQ(doomed.when, 0.5);
  EXPECT_EQ(survivor.runs, 1);
  EXPECT_EQ(survivor.outcome, TransferOutcome::kCompleted);
  EXPECT_GT(survivor.when, 0.5);
  EXPECT_EQ(tm_.continuations_parked(), 0u);
}

// Starts a 1 s swap-out from gpu0 whose continuation records into `probe`, flaps every
// link of its route at t = 0.5 and again at t = 0.7, and runs the simulator dry.
void StartAndFlapTwice(Simulator* sim, TransferManager* tm, const Topology& topo,
                       ContinuationProbe* probe) {
  const NodeId gpu = topo.gpu_node(0);
  tm->StartTransfer(gpu, topo.host_node(), static_cast<Bytes>(GBps(12.8)),
                    TransferKind::kSwapOut, Record(sim, probe));
  const std::vector<LinkId> route = topo.Route(gpu, topo.host_node());
  sim->ScheduleAt(0.5, [tm, route] { tm->FlapLinkFlows(route); });
  sim->ScheduleAt(0.7, [tm, route] { tm->FlapLinkFlows(route); });
  sim->RunUntilIdle();
}

RetryPolicyConfig NoJitterRetries(int max_attempts) {
  RetryPolicyConfig config;
  config.max_attempts = max_attempts;
  config.base_delay_sec = 0.01;
  config.max_delay_sec = 0.04;
  config.jitter_frac = 0.0;
  return config;
}

TEST_F(TransferTest, ContinuationSeesAbortedWhenAFlapFindsNoRetryPolicy) {
  ContinuationProbe probe;
  StartAndFlapTwice(&sim_, &tm_, topo_, &probe);
  EXPECT_EQ(probe.runs, 1);
  EXPECT_EQ(probe.outcome, TransferOutcome::kAborted);
  EXPECT_DOUBLE_EQ(probe.when, 0.5);
  EXPECT_EQ(tm_.continuations_parked(), 0u);
}

TEST_F(TransferTest, ContinuationSeesAbortedWhenAFlapExhaustsTheRetryBudget) {
  const RetryPolicy policy(NoJitterRetries(/*max_attempts=*/2));  // one retry allowed
  tm_.SetRetryPolicy(&policy);
  ContinuationProbe probe;
  StartAndFlapTwice(&sim_, &tm_, topo_, &probe);
  EXPECT_EQ(tm_.flows_retried(), 1);
  EXPECT_EQ(probe.runs, 1);
  EXPECT_EQ(probe.outcome, TransferOutcome::kAborted);
  EXPECT_DOUBLE_EQ(probe.when, 0.7);
  EXPECT_EQ(tm_.continuations_parked(), 0u);
}

TEST_F(TransferTest, ContinuationSeesCompletedWhenARetriedFlowLands) {
  const RetryPolicy policy(NoJitterRetries(/*max_attempts=*/3));
  tm_.SetRetryPolicy(&policy);
  ContinuationProbe probe;
  StartAndFlapTwice(&sim_, &tm_, topo_, &probe);
  EXPECT_EQ(tm_.flows_retried(), 2);
  EXPECT_EQ(probe.runs, 1);
  EXPECT_EQ(probe.outcome, TransferOutcome::kCompleted);
  EXPECT_GT(probe.when, 1.7);  // the second retry restarts from byte zero at ~0.72 s
  EXPECT_EQ(tm_.continuations_parked(), 0u);
}

// Starts A (1 MiB), B and C; once A's continuation has run, starts D, which takes A's freed
// record. At t = 0.5 either flaps every link (no retry policy) or fails the host, which
// ends B, C and D aborted. Returns the order in which the four continuations ran.
std::vector<std::string> EndOrderAfterStrike(const Topology& topo, bool fail_host) {
  Simulator sim;
  TransferManager tm(&sim, &topo);
  std::vector<std::string> order;
  const auto record = [&order](const char* name) {
    return [&order, name](TransferOutcome) { order.emplace_back(name); };
  };
  const Bytes big = static_cast<Bytes>(GBps(12.8));
  tm.StartTransfer(topo.gpu_node(0), topo.host_node(), kMiB, TransferKind::kSwapOut,
                   record("A"));
  tm.StartTransfer(topo.gpu_node(1), topo.host_node(), big, TransferKind::kSwapOut,
                   record("B"));
  tm.StartTransfer(topo.gpu_node(2), topo.host_node(), big, TransferKind::kSwapOut,
                   record("C"));
  sim.ScheduleAt(0.25, [&] {
    EXPECT_EQ(order, std::vector<std::string>{"A"});
    EXPECT_EQ(tm.continuations_parked(), 2u);
    tm.StartTransfer(topo.gpu_node(3), topo.host_node(), big, TransferKind::kSwapOut,
                     record("D"));
  });
  sim.ScheduleAt(0.5, [&] {
    if (fail_host) {
      tm.FailNode(topo.host_node());
      return;
    }
    std::vector<LinkId> every_link(static_cast<std::size_t>(topo.num_links()));
    std::iota(every_link.begin(), every_link.end(), 0);
    EXPECT_EQ(tm.FlapLinkFlows(every_link), 3);
  });
  sim.RunUntilIdle();
  EXPECT_EQ(tm.flows_aborted(), 3);
  EXPECT_EQ(tm.continuations_parked(), 0u);
  return order;
}

TEST_F(TransferTest, VictimsEndInFlowIdOrderWhenARecordIsReused) {
  // D sits in A's old slot, so slot order would end D before B and C; victims end in
  // flow-id (start) order.
  const std::vector<std::string> want = {"A", "B", "C", "D"};
  EXPECT_EQ(EndOrderAfterStrike(topo_, /*fail_host=*/false), want);
  EXPECT_EQ(EndOrderAfterStrike(topo_, /*fail_host=*/true), want);
}

// ---- lockstep bursts ------------------------------------------------------------------------

// A change point queued at a burst's join instant, behind the joins.
enum class BurstStrike { kNone, kRescaleUplink, kFlapUplink, kFailGpu3 };

// What a lockstep burst left behind: when each transfer's continuation ran (by start
// order), the order in which they ran, and how many events the run took.
struct BurstLandings {
  std::vector<SimTime> when;
  std::vector<int> order;
  std::uint64_t events = 0;
};

// Transfer 0, a 256 MiB swap-in to gpu0, starts at t = 0. At t = 0.01 every GPU behind the
// switch starts a 64 MiB swap-in (transfers 1-4). The four joins share one instant on the
// host->switch uplink, and transfer 0's rate falls at each of them. `strike` is queued at
// that instant right behind the joins. Retries use a no-jitter policy.
BurstLandings RunLockstepBurst(const Topology& topo, BurstStrike strike) {
  Simulator sim;
  TransferManager tm(&sim, &topo);
  const RetryPolicy policy(NoJitterRetries(/*max_attempts=*/3));
  tm.SetRetryPolicy(&policy);
  BurstLandings landings;
  landings.when.assign(5, kSimTimeNever);
  const auto start = [&](int i, int gpu, Bytes bytes) {
    tm.StartTransfer(topo.host_node(), topo.gpu_node(gpu), bytes, TransferKind::kSwapIn,
                     [&landings, &sim, i](TransferOutcome) {
                       landings.when[static_cast<std::size_t>(i)] = sim.now();
                       landings.order.push_back(i);
                     });
  };
  start(0, 0, 256 * kMiB);
  const LinkId uplink = topo.Route(topo.host_node(), topo.gpu_node(0)).front();
  sim.ScheduleAt(0.01, [&] {
    for (int gpu = 0; gpu < topo.num_gpus(); ++gpu) {
      start(1 + gpu, gpu, 64 * kMiB);
    }
    if (strike == BurstStrike::kNone) {
      return;
    }
    sim.ScheduleAfter(RouteLatency(topo, topo.host_node(), topo.gpu_node(0)), [&] {
      switch (strike) {
        case BurstStrike::kNone:
          break;
        case BurstStrike::kRescaleUplink:
          tm.SetLinkBandwidthScale(uplink, 0.5);
          break;
        case BurstStrike::kFlapUplink:
          EXPECT_EQ(tm.FlapLinkFlows({uplink}), 5);
          break;
        case BurstStrike::kFailGpu3:
          tm.FailNode(topo.gpu_node(3));
          break;
      }
    });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(tm.continuations_parked(), 0u);
  EXPECT_EQ(tm.DebugCheckConsistency(), "");
  landings.events = sim.events_processed();
  return landings;
}

TEST_F(TransferTest, LockstepBurstLandsBitForBit) {
  const BurstLandings landings = RunLockstepBurst(topo_, BurstStrike::kNone);
  EXPECT_EQ(landings.when, (std::vector<SimTime>{0.041953039999999997, 0.036224399999999997,
                                                 0.036224399999999997, 0.036224399999999997,
                                                 0.036224399999999997}));
  EXPECT_EQ(landings.order, (std::vector<int>{1, 2, 3, 4, 0}));
  // Transfer 0's join and settle; the burst's start, its four joins and their one settle;
  // transfer 0's first wakeup, which the burst made stale; two live wakeups; and five
  // continuations. Re-rating at each join would queue a wakeup per join, three of them
  // stale, and no settle: 17 events.
  EXPECT_EQ(landings.events, 16u);
}

TEST_F(TransferTest, LockstepBurstWithAnUplinkRescaleAtItsInstantLandsBitForBit) {
  const BurstLandings landings = RunLockstepBurst(topo_, BurstStrike::kRescaleUplink);
  EXPECT_EQ(landings.when, (std::vector<SimTime>{0.073896080000000003, 0.062438799999999996,
                                                 0.062438799999999996, 0.062438799999999996,
                                                 0.062438799999999996}));
  EXPECT_EQ(landings.order, (std::vector<int>{1, 2, 3, 4, 0}));
}

TEST_F(TransferTest, LockstepBurstWithAnUplinkFlapAtItsInstantLandsBitForBit) {
  const BurstLandings landings = RunLockstepBurst(topo_, BurstStrike::kFlapUplink);
  EXPECT_EQ(landings.when, (std::vector<SimTime>{0.061963039999999997, 0.046234399999999995,
                                                 0.046234399999999995, 0.046234399999999995,
                                                 0.046234399999999995}));
  EXPECT_EQ(landings.order, (std::vector<int>{1, 2, 3, 4, 0}));
}

TEST_F(TransferTest, LockstepBurstWithAFailStopAtItsInstantLandsBitForBit) {
  const BurstLandings landings = RunLockstepBurst(topo_, BurstStrike::kFailGpu3);
  // Transfer 4 (to gpu3) ends aborted at the burst's join instant.
  EXPECT_EQ(landings.when, (std::vector<SimTime>{0.036710159999999999, 0.030981519999999999,
                                                 0.030981519999999999, 0.030981519999999999,
                                                 0.01001}));
  EXPECT_EQ(landings.order, (std::vector<int>{4, 1, 2, 3, 0}));
}

// Past t = 2^10 s, half an ulp of the clock is longer than a PCIe-rate flow needs for a
// residue just over the 1e-3-byte completion epsilon. A wakeup that finds such a residue
// must complete the flow: re-projecting it to now + residue / rate rounds back to now, and
// re-queueing the wakeup there would run events at one instant forever.
TEST_F(TransferTest, ResidueBelowTheClockResolutionCompletesPastLongHorizons) {
  const LinkSpec pcie = PcieGen3x16();
  const double rate = pcie.bandwidth_bytes_per_sec;            // one flow owns the route
  const double latency = 0.0 + pcie.latency_sec + pcie.latency_sec;  // gpu -> switch -> host
  for (const SimTime start : {1024.5, 4096.5}) {
    // The manager's arithmetic for a lone flow: it joins at start + latency, is projected
    // to land at join + bytes / rate, and at that wakeup has bytes - rate * (land - join)
    // left. Pick the first size whose residue falls in (1e-3, 1.5e-3].
    const SimTime join = start + latency;
    Bytes bytes = 0;
    double residue = 0.0;
    for (Bytes b = 64 * kMiB; b < 64 * kMiB + 100'000 && bytes == 0; ++b) {
      residue = static_cast<double>(b) - rate * ((join + static_cast<double>(b) / rate) - join);
      if (residue > 1e-3 && residue <= 1.5e-3) {
        bytes = b;
      }
    }
    ASSERT_GT(bytes, 0) << "no size leaves a residue in (1e-3, 1.5e-3] bytes at t = " << start;
    const SimTime land = join + static_cast<double>(bytes) / rate;
    ASSERT_EQ(land + residue / rate, land) << "the residue's projection must round to now";

    Simulator sim;
    RecordingTransferManager tm(&sim, &topo_);
    OneShotEvent* landed = nullptr;
    sim.ScheduleAt(start, [&] {
      landed =
          tm.StartTransfer(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut);
    });
    // Start, join, settle, wakeup and continuation: a handful of events, never a budget's
    // worth at one instant.
    for (int events = 0; events < 100 && sim.RunOne(); ++events) {
    }
    EXPECT_TRUE(sim.idle()) << "stuck at t = " << sim.now() << " with " << bytes << " bytes";
    ASSERT_NE(landed, nullptr);
    ASSERT_TRUE(landed->fired());
    EXPECT_FALSE(tm.WasAborted(landed));
    EXPECT_EQ(landed->fire_time(), land);
    EXPECT_EQ(tm.DebugCheckConsistency(), "");
  }
}

// Bandwidth conservation: N concurrent equal flows through the shared uplink take ~N times
// as long as one flow, i.e. aggregate throughput is capped by the bottleneck link.
class UplinkContentionTest : public ::testing::TestWithParam<int> {};

TEST_P(UplinkContentionTest, AggregateThroughputCappedByUplink) {
  const int n = GetParam();
  ServerConfig config;
  config.num_gpus = 8;
  config.gpus_per_switch = 8;
  Topology topo = MakeCommodityServerTopology(config);
  Simulator sim;
  RecordingTransferManager tm(&sim, &topo);
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));  // 1 s alone
  std::vector<OneShotEvent*> done;
  for (int g = 0; g < n; ++g) {
    done.push_back(
        tm.StartTransfer(topo.gpu_node(g), topo.host_node(), bytes, TransferKind::kSwapOut));
  }
  sim.RunUntilIdle();
  for (OneShotEvent* event : done) {
    EXPECT_NEAR(event->fire_time(), static_cast<double>(n), 0.05 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Contention, UplinkContentionTest, ::testing::Values(1, 2, 3, 4, 6, 8));

// Property sweep: random flow sets must respect physical limits — no link ever carries more
// than bandwidth x busy-time, and every flow finishes no sooner than its contention-free
// lower bound.
class RandomFlowTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomFlowTest, ConservationAndLowerBounds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 99);
  ServerConfig config;
  config.num_gpus = 4;
  config.gpus_per_switch = 4;
  Topology topo = MakeCommodityServerTopology(config);
  Simulator sim;
  RecordingTransferManager tm(&sim, &topo);

  struct Expected {
    OneShotEvent* done;
    double start;
    double min_duration;
  };
  std::vector<Expected> flows;
  const int n = 3 + static_cast<int>(rng.NextBounded(10));
  for (int f = 0; f < n; ++f) {
    const double start = rng.NextDouble() * 0.5;
    const int src_gpu = static_cast<int>(rng.NextBounded(4));
    const bool to_host = rng.NextBounded(2) == 0;
    int dst_gpu = static_cast<int>(rng.NextBounded(4));
    if (dst_gpu == src_gpu) {
      dst_gpu = (dst_gpu + 1) % 4;
    }
    const Bytes bytes = static_cast<Bytes>((1 + rng.NextBounded(64)) * 16 * kMiB);
    const NodeId src = topo.gpu_node(src_gpu);
    const NodeId dst = to_host ? topo.host_node() : topo.gpu_node(dst_gpu);
    // Contention-free bound: bytes / min link bandwidth on the route.
    double min_bw = 1e30;
    for (LinkId lid : topo.Route(src, dst)) {
      min_bw = std::min(min_bw, topo.link(lid).spec.bandwidth_bytes_per_sec);
    }
    Expected expected{nullptr, start, static_cast<double>(bytes) / min_bw};
    flows.push_back(expected);
    const std::size_t slot = flows.size() - 1;
    sim.ScheduleAt(start, [&tm, &flows, slot, src, dst, bytes] {
      flows[slot].done =
          tm.StartTransfer(src, dst, bytes, TransferKind::kOther);
    });
  }
  sim.RunUntilIdle();

  for (const Expected& flow : flows) {
    ASSERT_NE(flow.done, nullptr);
    ASSERT_TRUE(flow.done->fired());
    EXPECT_GE(flow.done->fire_time() - flow.start, flow.min_duration - 1e-6);
  }
  // Conservation: a link cannot carry more bytes than bandwidth x busy time.
  for (LinkId lid = 0; lid < topo.num_links(); ++lid) {
    const LinkStats& stats = tm.link_stats(lid);
    EXPECT_LE(static_cast<double>(stats.bytes_carried),
              topo.link(lid).spec.bandwidth_bytes_per_sec * stats.busy_time + 1.0)
        << "link " << lid;
  }
  EXPECT_EQ(tm.flows_completed(), n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFlowTest, ::testing::Range(0, 12));

TEST(TopologyDeathTest, FinalizeWithoutHostAborts) {
  Topology topo;
  topo.AddNode(NodeKind::kGpu, "gpu0");
  EXPECT_DEATH(topo.Finalize(), "host");
}

TEST(TopologyDeathTest, FinalizeRejectsASecondLinkBetweenTwoNodes) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu0");
  topo.AddDuplexLink(host, gpu, PcieGen3x16());
  topo.AddDuplexLink(host, gpu, NvLink2());
  EXPECT_DEATH(topo.Finalize(), "must be a tree: 2 nodes need 2 directed links.*have 4");
}

TEST(TopologyDeathTest, FinalizeRejectsACycle) {
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId sw = topo.AddNode(NodeKind::kSwitch, "pcie-sw0");
  const NodeId gpu = topo.AddNode(NodeKind::kGpu, "gpu0");
  topo.AddDuplexLink(sw, host, PcieGen3x16());
  topo.AddDuplexLink(gpu, sw, PcieGen3x16());
  topo.AddDuplexLink(gpu, host, PcieGen3x16());
  EXPECT_DEATH(topo.Finalize(), "must be a tree: 3 nodes need 4 directed links.*have 6");
}

TEST(TopologyDeathTest, FinalizeRejectsADisconnectedTopology) {
  // Four duplex links for five nodes pass the link count, but the cycle among the switch
  // and two GPUs leaves them cut off from the host.
  Topology topo;
  const NodeId host = topo.AddNode(NodeKind::kHost, "host");
  const NodeId gpu0 = topo.AddNode(NodeKind::kGpu, "gpu0");
  const NodeId sw = topo.AddNode(NodeKind::kSwitch, "pcie-sw0");
  const NodeId gpu1 = topo.AddNode(NodeKind::kGpu, "gpu1");
  const NodeId gpu2 = topo.AddNode(NodeKind::kGpu, "gpu2");
  topo.AddDuplexLink(gpu0, host, PcieGen3x16());
  topo.AddDuplexLink(gpu1, sw, PcieGen3x16());
  topo.AddDuplexLink(gpu2, sw, PcieGen3x16());
  topo.AddDuplexLink(gpu1, gpu2, NvLink2());
  EXPECT_DEATH(topo.Finalize(), "disconnected: 2 of 5 nodes reach host");
}

}  // namespace
}  // namespace harmony
