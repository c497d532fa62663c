// Fault injection + elastic recovery tests.
//
// Three layers: (1) TransferManager under degraded links and fail-stopped nodes, (2) the
// FaultInjector's byte-stable replay trace, (3) RunTraining / RunTrainingElastic — the
// typed failure reports, checkpoint accounting, recovery determinism, and the headline
// property: a Harmony-PP run that loses a GPU mid-iteration resumes on the survivors and
// lands on *bit-for-bit* the weights a failure-free run on those survivors produces from
// the same checkpoint.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/core/recovery.h"
#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/fault_injector.h"
#include "src/hw/transfer_manager.h"
#include "src/numeric/plan_executor.h"
#include "src/numeric/reference.h"
#include "src/runtime/report_io.h"
#include "src/sim/fault_plan.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"
#include "src/util/json.h"
#include "tests/recording_transfer_manager.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

ServerConfig FourGpuServer() {
  ServerConfig config;
  config.num_gpus = 4;
  config.gpus_per_switch = 4;
  return config;
}

// Every directed link incident to `node`.
std::vector<LinkId> IncidentLinks(const Topology& topo, NodeId node) {
  std::vector<LinkId> links;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (topo.link(l).src == node || topo.link(l).dst == node) {
      links.push_back(l);
    }
  }
  return links;
}

// ---- TransferManager under faults -------------------------------------------------------------

class FaultTransferTest : public ::testing::Test {
 protected:
  FaultTransferTest()
      : topo_(MakeCommodityServerTopology(FourGpuServer())), tm_(&sim_, &topo_) {}

  Simulator sim_;
  Topology topo_;
  RecordingTransferManager tm_;
};

TEST_F(FaultTransferTest, DegradedLinkHalvesFlowRate) {
  for (LinkId l : topo_.Route(topo_.gpu_node(0), topo_.host_node())) {
    tm_.SetLinkBandwidthScale(l, 0.5);
  }
  OneShotEvent* done = tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(),
                                         static_cast<Bytes>(GBps(12.8)),
                                         TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired());
  EXPECT_NEAR(done->fire_time(), 2.0, 1e-2);  // 12.8 GB at 6.4 GB/s
  EXPECT_FALSE(tm_.WasAborted(done));
}

TEST_F(FaultTransferTest, MidFlightRestoreReRatesTheFlow) {
  const std::vector<LinkId> route = topo_.Route(topo_.gpu_node(0), topo_.host_node());
  for (LinkId l : route) {
    tm_.SetLinkBandwidthScale(l, 0.5);
  }
  OneShotEvent* done = tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(),
                                         static_cast<Bytes>(GBps(12.8)),
                                         TransferKind::kSwapOut);
  sim_.ScheduleAt(1.0, [&] {
    for (LinkId l : route) {
      tm_.SetLinkBandwidthScale(l, 1.0);
    }
  });
  sim_.RunUntilIdle();
  // 6.4 GB moved in the degraded first second; the remaining 6.4 GB runs at full rate.
  EXPECT_NEAR(done->fire_time(), 1.5, 1e-2);
}

TEST_F(FaultTransferTest, FailNodeAbortsInFlightFlowsAndStillFires) {
  OneShotEvent* doomed = tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(),
                                           static_cast<Bytes>(GBps(12.8)),
                                           TransferKind::kSwapOut);
  OneShotEvent* survivor = tm_.StartTransfer(topo_.gpu_node(1), topo_.host_node(),
                                             static_cast<Bytes>(GBps(12.8)),
                                             TransferKind::kSwapOut);
  sim_.ScheduleAt(0.5, [&] { tm_.FailNode(topo_.gpu_node(0)); });
  sim_.RunUntilIdle();
  ASSERT_TRUE(doomed->fired());
  EXPECT_TRUE(tm_.WasAborted(doomed));
  EXPECT_NEAR(doomed->fire_time(), 0.5, 1e-9);  // aborted at failure time, not completion
  EXPECT_TRUE(tm_.NodeFailed(topo_.gpu_node(0)));
  EXPECT_EQ(tm_.flows_aborted(), 1);
  // The survivor sheds the contention: 3.2 GB moved while sharing the uplink, the
  // remaining 9.6 GB alone at full rate.
  ASSERT_TRUE(survivor->fired());
  EXPECT_FALSE(tm_.WasAborted(survivor));
  EXPECT_NEAR(survivor->fire_time(), 1.25, 1e-2);
}

TEST_F(FaultTransferTest, TransferTouchingDeadNodeAbortsImmediately) {
  tm_.FailNode(topo_.gpu_node(2));
  OneShotEvent* done = tm_.StartTransfer(topo_.gpu_node(2), topo_.host_node(), 1000,
                                         TransferKind::kSwapOut);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired());
  EXPECT_TRUE(tm_.WasAborted(done));
  EXPECT_DOUBLE_EQ(done->fire_time(), 0.0);
}

// ---- FaultInjector ----------------------------------------------------------------------------

TEST(FaultInjectorTest, TraceIsByteStableAcrossRuns) {
  const StatusOr<FaultPlan> plan = ParseFaultSpec(
      "degrade@0.25:gpu1:0.5:1;degrade@0.5:host:0.75:2;mem@1:0.5:0.5;fail@2:gpu3");
  ASSERT_TRUE(plan.ok());
  auto run = [&plan] {
    Topology topo = MakeCommodityServerTopology(FourGpuServer());
    Simulator sim;
    TransferManager tm(&sim, &topo);
    FaultInjector injector(&sim, &tm);
    injector.Arm(plan.value());
    sim.RunUntilIdle();
    return injector.TraceString();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_NE(first.find("apply@"), std::string::npos);
  EXPECT_NE(first.find("expire@"), std::string::npos);
  EXPECT_EQ(first, run());
}

TEST(FaultInjectorTest, OverlappingDegradesComposeAndUnwindExactly) {
  Topology topo = MakeCommodityServerTopology(FourGpuServer());
  Simulator sim;
  TransferManager tm(&sim, &topo);
  FaultInjector injector(&sim, &tm);
  // Two windows on gpu1's links: [1, 5) at 0.5 and [2, 3) at 0.5 — scales multiply while
  // both are in force and unwind to exactly 1.0 (no divide-to-undo drift).
  const StatusOr<FaultPlan> plan =
      ParseFaultSpec("degrade@1:gpu1:0.5:4;degrade@2:gpu1:0.5:1");
  ASSERT_TRUE(plan.ok());
  injector.Arm(plan.value());
  const std::vector<LinkId> links = IncidentLinks(topo, topo.gpu_node(1));
  ASSERT_FALSE(links.empty());
  std::vector<double> samples;
  for (double t : {0.5, 1.5, 2.5, 3.5, 6.0}) {
    sim.ScheduleAt(t, [&, t] { samples.push_back(tm.link_bandwidth_scale(links[0])); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_DOUBLE_EQ(samples[0], 1.0);
  EXPECT_DOUBLE_EQ(samples[1], 0.5);
  EXPECT_DOUBLE_EQ(samples[2], 0.25);
  EXPECT_DOUBLE_EQ(samples[3], 0.5);
  EXPECT_DOUBLE_EQ(samples[4], 1.0);  // exact — the stack pops to the identity
  for (LinkId l : IncidentLinks(topo, topo.gpu_node(0))) {
    EXPECT_DOUBLE_EQ(tm.link_bandwidth_scale(l), 1.0);  // bystander GPUs untouched
  }
}

TEST(FaultInjectorTest, OutOfRangeGpuTargetIsDroppedNotFatal) {
  Topology topo = MakeCommodityServerTopology(FourGpuServer());
  Simulator sim;
  TransferManager tm(&sim, &topo);
  FaultInjector injector(&sim, &tm);
  const StatusOr<FaultPlan> plan = ParseFaultSpec("fail@1:gpu9");
  ASSERT_TRUE(plan.ok());
  injector.Arm(plan.value());
  sim.RunUntilIdle();
  EXPECT_EQ(injector.fail_stops_applied(), 0);
  EXPECT_NE(injector.TraceString().find("drop@"), std::string::npos);
}

// ---- Network-scoped fault targets (nic<i> / rack<i>) ------------------------------------------

ClusterConfig TwoNodeCluster() {
  ClusterConfig config;
  config.num_servers = 2;
  config.server.num_gpus = 2;
  config.server.gpus_per_switch = 2;
  return config;
}

TEST(FaultPlanTest, NetworkTargetsRoundTripThroughToString) {
  const StatusOr<FaultPlan> plan =
      ParseFaultSpec("flow_flap@1:nic0;brownout@2:rack1:0.5:3;flow_flap@4:gpu2;"
                     "brownout@5:host:0.25:inf");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().ToString(),
            "flow_flap@1.000:nic0;brownout@2.000:rack1:0.500:3.000;"
            "flow_flap@4.000:gpu2;brownout@5.000:host:0.250:inf");
  const StatusOr<FaultPlan> again = ParseFaultSpec(plan.value().ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().ToString(), plan.value().ToString());
}

TEST(FaultInjectorTest, NicBrownoutScalesOnlyThatNodesNicLinks) {
  Topology topo = MakeClusterTopology(TwoNodeCluster());
  Simulator sim;
  TransferManager tm(&sim, &topo);
  FaultInjector injector(&sim, &tm);
  const StatusOr<FaultPlan> plan = ParseFaultSpec("brownout@1:nic0:0.5:1");
  ASSERT_TRUE(plan.ok());
  injector.Arm(plan.value());
  const std::vector<LinkId> hit = IncidentLinks(topo, topo.nic_node(0));
  const std::vector<LinkId> bystander = IncidentLinks(topo, topo.nic_node(1));
  ASSERT_FALSE(hit.empty());
  ASSERT_FALSE(bystander.empty());
  std::vector<double> during, after;
  sim.ScheduleAt(1.5, [&] {
    for (LinkId l : hit) {
      during.push_back(tm.link_bandwidth_scale(l));
    }
    for (LinkId l : bystander) {
      during.push_back(tm.link_bandwidth_scale(l) + 10.0);  // tagged: must stay 11.0
    }
  });
  sim.ScheduleAt(3.0, [&] {
    for (LinkId l : hit) {
      after.push_back(tm.link_bandwidth_scale(l));
    }
  });
  sim.RunUntilIdle();
  ASSERT_EQ(during.size(), hit.size() + bystander.size());
  for (std::size_t i = 0; i < hit.size(); ++i) {
    EXPECT_DOUBLE_EQ(during[i], 0.5);  // the node's host<->NIC and NIC<->ToR links
  }
  for (std::size_t i = hit.size(); i < during.size(); ++i) {
    EXPECT_DOUBLE_EQ(during[i], 11.0);  // the other node's NIC untouched
  }
  for (double scale : after) {
    EXPECT_DOUBLE_EQ(scale, 1.0);  // exact unwind after expiry
  }
}

TEST(FaultInjectorTest, RackBrownoutScalesTheTorLinks) {
  ClusterConfig config = TwoNodeCluster();
  config.num_servers = 4;
  config.nodes_per_rack = 2;  // two racks behind a spine
  Topology topo = MakeClusterTopology(config);
  Simulator sim;
  TransferManager tm(&sim, &topo);
  FaultInjector injector(&sim, &tm);
  const StatusOr<FaultPlan> plan = ParseFaultSpec("brownout@1:rack0:0.25:2");
  ASSERT_TRUE(plan.ok());
  injector.Arm(plan.value());
  const std::vector<LinkId> hit = IncidentLinks(topo, topo.tor_node(0));
  const std::vector<LinkId> bystander = IncidentLinks(topo, topo.tor_node(1));
  std::vector<double> during;
  sim.ScheduleAt(2.0, [&] {
    for (LinkId l : hit) {
      during.push_back(tm.link_bandwidth_scale(l));
    }
  });
  sim.RunUntilIdle();
  ASSERT_EQ(during.size(), hit.size());
  for (double scale : during) {
    EXPECT_DOUBLE_EQ(scale, 0.25);
  }
  for (LinkId l : bystander) {
    EXPECT_DOUBLE_EQ(tm.link_bandwidth_scale(l), 1.0);  // rack1 rides out the brownout
  }
}

TEST(FaultInjectorTest, NicFlowFlapAbortsCrossNodeFlowsOnly) {
  Topology topo = MakeClusterTopology(TwoNodeCluster());
  Simulator sim;
  RecordingTransferManager tm(&sim, &topo);
  FaultInjector injector(&sim, &tm);
  // gpu0 -> gpu2 crosses node 0's NIC; gpu0 -> gpu1 stays behind the PCIe switch.
  OneShotEvent* doomed = tm.StartTransfer(topo.gpu_node(0), topo.gpu_node(2),
                                          static_cast<Bytes>(GBps(12.8)),
                                          TransferKind::kPeerToPeer);
  OneShotEvent* survivor = tm.StartTransfer(topo.gpu_node(0), topo.gpu_node(1),
                                            static_cast<Bytes>(GBps(12.8)),
                                            TransferKind::kPeerToPeer);
  const StatusOr<FaultPlan> plan = ParseFaultSpec("flow_flap@0.5:nic0");
  ASSERT_TRUE(plan.ok());
  injector.Arm(plan.value());
  sim.RunUntilIdle();
  ASSERT_TRUE(doomed->fired());
  EXPECT_TRUE(tm.WasAborted(doomed));
  EXPECT_NEAR(doomed->fire_time(), 0.5, 1e-9);
  ASSERT_TRUE(survivor->fired());
  EXPECT_FALSE(tm.WasAborted(survivor));
}

TEST(FaultInjectorTest, OutOfRangeNetworkTargetsAreDroppedNotFatal) {
  // A single commodity server has no NICs and no racks: nic0/rack0 events drop with a
  // typed trace line instead of aborting the run.
  Topology topo = MakeCommodityServerTopology(FourGpuServer());
  Simulator sim;
  TransferManager tm(&sim, &topo);
  FaultInjector injector(&sim, &tm);
  const StatusOr<FaultPlan> plan = ParseFaultSpec("flow_flap@1:nic0;brownout@2:rack0:0.5:1");
  ASSERT_TRUE(plan.ok());
  injector.Arm(plan.value());
  sim.RunUntilIdle();
  EXPECT_NE(injector.TraceString().find("no such NIC on this machine"), std::string::npos);
  EXPECT_NE(injector.TraceString().find("no such rack on this machine"), std::string::npos);
  EXPECT_EQ(injector.TraceString().find("apply@"), std::string::npos);
}

TEST(FaultPlanTest, RandomPlansDrawNetworkTargetsOnlyWhenEnabled) {
  RandomFaultOptions options;
  options.seed = 7;
  options.mtbf = 1.0;
  options.horizon = 60.0;
  options.num_gpus = 4;
  options.transient = true;
  const std::string legacy = MakeRandomFaultPlan(options).ToString();
  EXPECT_EQ(legacy.find("nic"), std::string::npos);
  EXPECT_EQ(legacy.find("rack"), std::string::npos);
  // Same seed with network targets enabled: deterministic, and the widened draw actually
  // lands on the new targets somewhere in a 60 s horizon.
  options.num_nics = 4;
  options.num_racks = 2;
  const std::string widened = MakeRandomFaultPlan(options).ToString();
  EXPECT_EQ(widened, MakeRandomFaultPlan(options).ToString());
  EXPECT_TRUE(widened.find("nic") != std::string::npos ||
              widened.find("rack") != std::string::npos)
      << widened;
}

// ---- Session-level failure reports ------------------------------------------------------------

using test_models::FaultConfig;
using test_models::FaultModel;

TEST(FaultSessionTest, FailStopProducesTypedReportNotCrash) {
  const Model model = FaultModel();
  SessionConfig config = FaultConfig(2, 4);
  config.faults.Add(FaultEvent{0.05, FaultKind::kGpuFailStop, 1, 1.0, 0.0});
  const SessionResult result = RunTraining(model, config);
  EXPECT_TRUE(result.report.failed);
  EXPECT_EQ(result.report.failure_kind, "gpu-fail-stop");
  EXPECT_EQ(result.report.failed_device, 1);
  EXPECT_DOUBLE_EQ(result.report.failure_time, 0.05);
  EXPECT_GE(result.report.makespan, result.report.failure_time);
  EXPECT_NE(result.fault_trace.find("apply@0.050 fail@0.050:gpu1"), std::string::npos);
}

TEST(FaultSessionTest, FailureFreeRunReportsNoFaultState) {
  const Model model = FaultModel();
  const SessionResult result = RunTraining(model, FaultConfig(2, 4));
  EXPECT_FALSE(result.report.failed);
  EXPECT_TRUE(result.fault_trace.empty());
  EXPECT_EQ(result.report.checkpoints_committed, 0);
  EXPECT_EQ(result.report.last_checkpoint_iteration, -1);
}

TEST(FaultSessionTest, QuietWatchdogLeavesMakespanBitIdentical) {
  const Model model = FaultModel();
  const SessionResult plain = RunTraining(model, FaultConfig(2, 4));
  SessionConfig guarded_config = FaultConfig(2, 4);
  guarded_config.watchdog_timeout = 1000.0;  // never trips on a healthy run
  const SessionResult guarded = RunTraining(model, guarded_config);
  EXPECT_FALSE(guarded.report.failed);
  EXPECT_EQ(plain.report.makespan, guarded.report.makespan);  // bitwise
}

TEST(FaultSessionTest, CheckpointsCommitEveryKExceptAfterFinal) {
  const Model model = FaultModel();
  SessionConfig config = FaultConfig(2, 4);
  config.iterations = 6;
  config.checkpoint_every = 2;
  const SessionResult result = RunTraining(model, config);
  EXPECT_FALSE(result.report.failed);
  // k=2 over 6 iterations: after iterations 1 and 3; never after the final one.
  EXPECT_EQ(result.report.checkpoints_committed, 2);
  EXPECT_EQ(result.report.last_checkpoint_iteration, 3);
  EXPECT_GT(result.report.checkpoint_bytes, 0);
  EXPECT_GT(result.report.last_checkpoint_time, 0.0);
}

TEST(FaultSessionTest, DegradeSlowsTheRunThenExpires) {
  const Model model = FaultModel();
  const SessionResult clean = RunTraining(model, FaultConfig(2, 4));
  SessionConfig slow_config = FaultConfig(2, 4);
  // Host uplinks at 30% for most of the run: swap-bound schedules must stretch.
  slow_config.faults.Add(
      FaultEvent{0.0, FaultKind::kHostLinkDegrade, -1, 0.3, clean.report.makespan});
  const SessionResult slow = RunTraining(model, slow_config);
  EXPECT_FALSE(slow.report.failed);
  EXPECT_EQ(slow.report.iterations.size(), clean.report.iterations.size());
  EXPECT_GT(slow.report.makespan, clean.report.makespan);
}

TEST(FaultSessionTest, ValidateRejectsFaultTargetsOutsideTheMachine) {
  const Model model = FaultModel();
  SessionConfig config = FaultConfig(2, 4);
  config.faults.Add(FaultEvent{1.0, FaultKind::kGpuFailStop, 5, 1.0, 0.0});
  const Status status = ValidateSessionConfig(model, config);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("gpu"), std::string::npos);
}

TEST(FaultSessionTest, ValidateRejectsNetworkFaultTargetsOutsideTheCluster) {
  const Model model = FaultModel();
  {
    // A single-node machine has no NICs: nic0 is out of range at validation time.
    SessionConfig config = FaultConfig(2, 4);
    const StatusOr<FaultPlan> plan = ParseFaultSpec("flow_flap@1:nic0");
    ASSERT_TRUE(plan.ok());
    config.faults = plan.value();
    const Status status = ValidateSessionConfig(model, config);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("nic"), std::string::npos);
  }
  {
    // Two nodes in one rack: rack1 does not exist.
    SessionConfig config = FaultConfig(2, 4);
    config.num_nodes = 2;
    config.scheme = Scheme::kHarmonyDp;
    config.microbatches = 2;
    const StatusOr<FaultPlan> plan = ParseFaultSpec("brownout@1:rack1:0.5:1");
    ASSERT_TRUE(plan.ok());
    config.faults = plan.value();
    const Status status = ValidateSessionConfig(model, config);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.message().find("rack"), std::string::npos);
  }
  {
    // In range on a 2-node cluster: accepted.
    SessionConfig config = FaultConfig(2, 4);
    config.num_nodes = 2;
    config.scheme = Scheme::kHarmonyDp;
    config.microbatches = 2;
    const StatusOr<FaultPlan> plan = ParseFaultSpec("flow_flap@1:nic1;brownout@2:rack0:0.5:1");
    ASSERT_TRUE(plan.ok());
    config.faults = plan.value();
    EXPECT_TRUE(ValidateSessionConfig(model, config).ok());
  }
}

// ---- Elastic recovery -------------------------------------------------------------------------

TEST(FaultElasticTest, NoFaultsDegeneratesToOneSegment) {
  const Model model = FaultModel();
  const ElasticResult result = RunTrainingElastic(model, FaultConfig(2, 4));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.segments.size(), 1u);
  EXPECT_EQ(result.stats.failures, 0);
  EXPECT_EQ(result.completed_iterations, 4);
  EXPECT_EQ(result.final_segment().gpus, (std::vector<int>{0, 1}));
}

// With no faults armed the coordinator is exactly one RunTraining call on the config:
// nothing can roll back, so no checkpoint ring is attached, and the report (its
// checkpoint-generation count included) is byte-equal to a direct run's.
TEST(FaultElasticTest, NoFaultsIsExactlyOneRunTrainingCall) {
  const Model model = FaultModel();
  for (const SchemeNameEntry& entry : kSchemeNames) {
    for (const int nodes : {1, 2}) {
      for (const int checkpoint_every : {0, 1}) {
        SessionConfig config = FaultConfig(2, 4);
        config.scheme = entry.scheme;
        config.num_nodes = nodes;
        config.checkpoint_every = checkpoint_every;
        // The baselines need more resident memory than Harmony: grow it until the shape fits.
        for (int doubling = 0; doubling < 8 && !ValidateSessionConfig(model, config).ok();
             ++doubling) {
          config.server.gpu =
              TestGpu(config.server.gpu.memory_bytes * 2, config.server.gpu.peak_flops);
        }
        const ElasticResult elastic = RunTrainingElastic(model, config);
        ASSERT_TRUE(elastic.status.ok()) << entry.name << ": " << elastic.status.ToString();
        ASSERT_EQ(elastic.segments.size(), 1u);
        EXPECT_EQ(ReportToJson(elastic.final_segment().result.report),
                  ReportToJson(RunTraining(model, config).report))
            << entry.name << " on " << nodes << " node(s), checkpoint_every "
            << checkpoint_every;
      }
    }
  }
}

// The harmony-elastic-report export (DESIGN.md §8) parses, names its schema, and carries
// the run's status, progress and recovery counts and one entry per segment whose report
// is that segment's ReportToJson.
TEST(FaultElasticTest, ElasticJsonExportCarriesTheRunAndEverySegment) {
  const Model model = FaultModel();
  SessionConfig config = FaultConfig(4, 4);
  config.iterations = 6;
  config.checkpoint_every = 2;
  // A fail-stop at 60% of the failure-free makespan: mid-run, after a checkpoint.
  config.faults.Add(FaultEvent{0.6 * RunTraining(model, config).report.makespan,
                               FaultKind::kGpuFailStop, 2, 1.0, 0.0});
  const ElasticResult result = RunTrainingElastic(model, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_EQ(result.segments.size(), 2u);

  const std::string json = result.ToJson();
  const StatusOr<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.Find("schema")->as_string(), "harmony-elastic-report");
  EXPECT_EQ(root.Find("version")->as_number(), 1.0);
  EXPECT_EQ(root.Find("status")->as_string(), "OK");
  EXPECT_EQ(root.Find("completed_iterations")->as_number(), 6.0);
  EXPECT_EQ(root.Find("total_makespan_s")->as_number(), result.total_makespan);
  EXPECT_EQ(root.Find("checkpoints_committed")->as_number(),
            static_cast<double>(result.checkpoints_committed));
  const JsonValue* recovery = root.Find("recovery");
  ASSERT_NE(recovery, nullptr);
  EXPECT_EQ(recovery->Find("failures")->as_number(), 1.0);
  EXPECT_EQ(recovery->Find("lost_work_s")->as_number(), result.stats.lost_work_sec);
  EXPECT_EQ(recovery->Find("reswap_bytes")->as_number(),
            static_cast<double>(result.stats.reswap_bytes));
  const JsonValue* segments = root.Find("segments");
  ASSERT_NE(segments, nullptr);
  ASSERT_EQ(segments->as_array().size(), result.segments.size());
  for (std::size_t s = 0; s < result.segments.size(); ++s) {
    const JsonValue& segment = segments->as_array()[s];
    EXPECT_EQ(segment.Find("start_iteration")->as_number(),
              static_cast<double>(result.segments[s].start_iteration));
    EXPECT_EQ(segment.Find("gpus")->as_array().size(), result.segments[s].gpus.size());
    EXPECT_EQ(segment.Find("fault_trace")->as_string(), result.segments[s].result.fault_trace);
    EXPECT_EQ(segment.Find("report")->Find("schema")->as_string(), "harmony-run-report");
    EXPECT_NE(json.find(ReportToJson(result.segments[s].result.report)), std::string::npos)
        << "segment " << s << "'s report is not embedded verbatim";
  }
}

TEST(FaultElasticTest, LastGpuDyingIsATypedError) {
  const Model model = FaultModel(4);
  SessionConfig config = FaultConfig(1, 2);
  config.faults.Add(FaultEvent{0.05, FaultKind::kGpuFailStop, 0, 1.0, 0.0});
  const ElasticResult result = RunTrainingElastic(model, config);
  EXPECT_FALSE(result.status.ok());
  EXPECT_NE(result.status.message().find("no surviving device"), std::string::npos);
  EXPECT_EQ(result.stats.failures, 1);
}

// A config with no GPUs or no nodes is a typed INVALID_ARGUMENT with no segment: the shape
// is checked before the fleet-wide bookkeeping is sized from it.
TEST(FaultElasticTest, ConfigWithNoGpusIsInvalidBeforeAnySegment) {
  const Model model = FaultModel(4);
  for (const auto& [gpus, nodes] : {std::pair{0, 1}, std::pair{-1, 1}, std::pair{2, 0}}) {
    SessionConfig config = FaultConfig(2, 2);
    config.server.num_gpus = gpus;
    config.num_nodes = nodes;
    config.faults.Add(FaultEvent{0.05, FaultKind::kGpuFailStop, 0, 1.0, 0.0});
    const ElasticResult result = RunTrainingElastic(model, config);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
        << gpus << " GPUs x " << nodes << " nodes: " << result.status.ToString();
    EXPECT_NE(result.status.message().find(gpus < 1 ? "num_gpus" : "nodes"),
              std::string::npos)
        << result.status.ToString();
    EXPECT_TRUE(result.segments.empty());
  }
}

// The refusal comes after the rollback, so it still reports the checkpoint the rollback
// verified.
TEST(FaultElasticTest, DpShrinkThatBreaksTheMinibatchIsATypedError) {
  const Model model = FaultModel(4);
  SessionConfig config = FaultConfig(4, 1);
  config.scheme = Scheme::kHarmonyDp;
  config.checkpoint_every = 1;
  // The fail-stop strikes when a fault-free run ends its second iteration, after the first
  // checkpoint has committed.
  const SessionResult clean = RunTraining(model, config);
  ASSERT_GE(clean.report.iterations.size(), 2u);
  const double strike = clean.report.iterations[1].end_time;
  // 4 replicas x 1 microbatch = 4; three survivors cannot split 4 evenly.
  config.faults.Add(FaultEvent{strike, FaultKind::kGpuFailStop, 2, 1.0, 0.0});
  const ElasticResult result = RunTrainingElastic(model, config);
  EXPECT_FALSE(result.status.ok());
  EXPECT_NE(result.status.message().find("does not divide"), std::string::npos);
  EXPECT_EQ(result.stats.failures, 1);
  EXPECT_GE(result.checkpoints_committed, 1);
  EXPECT_EQ(result.stats.ckpt_verified, 1);
  EXPECT_EQ(result.stats.ckpt_corrupt_detected, 0);
  // The refusal still reports the progress the rollback kept: the one iteration the
  // verified checkpoint holds.
  EXPECT_EQ(result.completed_iterations, 1);
}

// A multi-node fleet indexes fault targets across every node, and it cannot shrink: each
// segment keeps the per-node shape, a straggler finishes degraded on the full fleet, and a
// fail-stop is a typed error naming the GPU that died.
SessionConfig TwoNodeDpConfig(const char* faults) {
  SessionConfig config = FaultConfig(4, 2);
  config.num_nodes = 2;
  config.scheme = Scheme::kHarmonyDp;
  config.checkpoint_every = 1;
  config.straggler_threshold = 1.5;
  const StatusOr<FaultPlan> plan = ParseFaultSpec(faults);
  HCHECK(plan.ok()) << plan.status().ToString();
  config.faults = plan.value();
  return config;
}

TEST(FaultElasticTest, MultiNodeStragglerLandsOnItsGpuAndFinishesDegraded) {
  const Model model = FaultModel();
  const SessionConfig config = TwoNodeDpConfig("gpu_slow@0.01:gpu5:0.2:inf");
  ASSERT_TRUE(ValidateSessionConfig(model, config).ok());
  const ElasticResult result = RunTrainingElastic(model, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.completed_iterations, config.iterations);
  EXPECT_EQ(result.stats.failures, 0);
  const std::vector<int> fleet = {0, 1, 2, 3, 4, 5, 6, 7};
  for (const RecoverySegment& segment : result.segments) {
    EXPECT_EQ(segment.gpus, fleet);
    EXPECT_EQ(segment.config.num_nodes, 2);
    EXPECT_EQ(segment.config.server.num_gpus, 4);
    EXPECT_EQ(segment.config.microbatches, 2);
  }
  // Classified once, not excluded: the rest of the run goes on degraded on all 8 GPUs.
  EXPECT_EQ(result.stats.degradations, 1);
  ASSERT_EQ(result.segments.size(), 2u);
  const RunReport& first = result.segments.front().result.report;
  EXPECT_EQ(first.failure_kind, "gpu-straggler");
  EXPECT_EQ(first.straggler_device, 5);
  ASSERT_EQ(first.device_degraded_sec.size(), fleet.size());
  for (int gpu : fleet) {
    if (gpu == 5) {
      EXPECT_GT(first.device_degraded_sec[5], 0.0);
    } else {
      EXPECT_EQ(first.device_degraded_sec[static_cast<std::size_t>(gpu)], 0.0) << gpu;
    }
  }
  EXPECT_NE(result.FaultTrace().find("gpu5"), std::string::npos) << result.FaultTrace();
}

TEST(FaultElasticTest, MultiNodeFailStopIsATypedErrorNamingItsGpu) {
  const Model model = FaultModel();
  const SessionConfig config = TwoNodeDpConfig("fail@0.05:gpu5");
  ASSERT_TRUE(ValidateSessionConfig(model, config).ok());
  const ElasticResult result = RunTrainingElastic(model, config);
  EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition)
      << result.status.ToString();
  EXPECT_NE(result.status.message().find("gpu5"), std::string::npos)
      << result.status.ToString();
  EXPECT_EQ(result.stats.failures, 1);
  ASSERT_EQ(result.segments.size(), 1u);
  EXPECT_EQ(result.segments[0].result.report.failed_device, 5);
  EXPECT_EQ(result.segments[0].result.report.failure_kind, "gpu-fail-stop");
}

TEST(FaultElasticTest, RecoveryIsDeterministicAcrossRuns) {
  const Model model = FaultModel();
  SessionConfig config = FaultConfig(4, 4);
  config.iterations = 6;
  config.checkpoint_every = 2;
  const StatusOr<FaultPlan> plan =
      ParseFaultSpec("degrade@0.1:host:0.5:0.5;fail@0.9:gpu2;mem@1.2:0.5:0.3");
  ASSERT_TRUE(plan.ok());
  config.faults = plan.value();
  const ElasticResult a = RunTrainingElastic(model, config);
  const ElasticResult b = RunTrainingElastic(model, config);
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(a.FaultTrace(), b.FaultTrace());
  EXPECT_EQ(a.segments.size(), b.segments.size());
  EXPECT_EQ(a.total_makespan, b.total_makespan);  // bitwise
  EXPECT_EQ(a.stats.failures, b.stats.failures);
  EXPECT_EQ(a.stats.lost_work_sec, b.stats.lost_work_sec);
  EXPECT_EQ(a.stats.recovery_latency_sec, b.stats.recovery_latency_sec);
  EXPECT_EQ(a.stats.reswap_bytes, b.stats.reswap_bytes);
  EXPECT_EQ(a.checkpoint_bytes, b.checkpoint_bytes);
  for (std::size_t s = 0; s < a.segments.size(); ++s) {
    EXPECT_EQ(a.segments[s].result.report.makespan, b.segments[s].result.report.makespan);
    EXPECT_EQ(a.segments[s].gpus, b.segments[s].gpus);
  }
}

TEST(FaultElasticTest, StraddlingDegradeIsReappliedWithRemainingDuration) {
  std::vector<bool> dead = {false, true, false, false};
  const std::vector<int> alive = {0, 2, 3};
  FaultPlan plan;
  plan.Add(FaultEvent{1.0, FaultKind::kHostLinkDegrade, -1, 0.5, 4.0});   // spans the cut
  plan.Add(FaultEvent{0.5, FaultKind::kGpuLinkDegrade, 1, 0.5, 10.0});    // dead target
  plan.Add(FaultEvent{0.2, FaultKind::kGpuFailStop, 1, 1.0, 0.0});        // already struck
  plan.Add(FaultEvent{3.0, FaultKind::kGpuLinkDegrade, 3, 0.5, 1.0});     // future, remaps
  plan.Add(FaultEvent{0.1, FaultKind::kHostMemPressure, -1, 0.5, 0.5});   // expired
  const FaultPlan shifted = ShiftFaultPlan(plan, /*offset=*/2.0, dead, alive);
  EXPECT_EQ(shifted.ToString(),
            "degrade@0.000:host:0.500:3.000;degrade@1.000:gpu2:0.500:1.000");
}

// ---- The headline property: bit-for-bit resume on the survivors -------------------------------

// A 4-GPU Harmony-PP run loses gpu1 mid-iteration. The elastic coordinator must finish the
// remaining iterations on 3 GPUs, and replaying the rebound segment's plan with real math
// from the checkpoint must produce weights bit-identical to a failure-free 3-GPU run
// started from that same checkpoint — and match the uninterrupted sequential trajectory.
TEST(FaultElasticTest, PpFailStopResumesBitForBitOnSurvivors) {
  const std::vector<int> dims = {6, 8, 8, 8, 4};
  const Model model = MakeMlp(dims);
  SessionConfig config;
  config.server.num_gpus = 4;
  config.server.gpu = TestGpu(64 * kMiB, TFlops(1.0));
  config.scheme = Scheme::kHarmonyPp;
  config.microbatches = 4;
  config.microbatch_size = 2;
  config.iterations = 6;
  config.checkpoint_every = 2;

  // Aim the fail-stop at ~60% of the failure-free makespan: mid-iteration, after at least
  // one checkpoint has committed (the dry run is deterministic, so this is stable).
  const double clean_makespan = RunTraining(model, config).report.makespan;
  config.faults.Add(
      FaultEvent{0.6 * clean_makespan, FaultKind::kGpuFailStop, 1, 1.0, 0.0});

  const ElasticResult elastic = RunTrainingElastic(model, config);
  ASSERT_TRUE(elastic.status.ok()) << elastic.status.ToString();
  ASSERT_EQ(elastic.segments.size(), 2u);
  EXPECT_EQ(elastic.stats.failures, 1);
  EXPECT_EQ(elastic.completed_iterations, 6);
  EXPECT_GT(elastic.stats.lost_work_sec, 0.0);
  EXPECT_GT(elastic.stats.recovery_latency_sec, 0.0);
  EXPECT_GT(elastic.stats.reswap_bytes, 0);

  const RecoverySegment& resumed = elastic.final_segment();
  EXPECT_EQ(resumed.gpus, (std::vector<int>{0, 2, 3}));
  ASSERT_GT(resumed.start_iteration, 0);  // a checkpoint really was used
  ASSERT_EQ(resumed.start_iteration + resumed.iterations, 6);
  EXPECT_EQ(static_cast<int>(resumed.result.report.iterations.size()), resumed.iterations);

  // Ground truth at the checkpoint: the sequential trajectory after start_iteration steps.
  const double lr = 0.05;
  const double momentum = 0.9;
  const DataFn data = SyntheticData(dims, config.microbatch_size, 4242);
  const ReferenceResult checkpoint =
      TrainReference(dims, /*init_seed=*/7, data, resumed.start_iteration,
                     config.microbatches, config.microbatch_size, lr, momentum);
  // The resumed segment sees global iteration indices, so its data stream picks up where
  // the failed run left off.
  const DataFn resumed_data = [&data, &resumed](int iteration, int microbatch, Mat* x,
                                                Mat* y) {
    data(iteration + resumed.start_iteration, microbatch, x, y);
  };

  auto replay = [&](const SessionConfig& segment_config) {
    const Machine machine = MakeCommodityServer(segment_config.server);
    TensorRegistry registry;
    const Plan plan = BuildPlanForConfig(model, machine, &registry, segment_config);
    PlanExecutorConfig exec;
    exec.dims = dims;
    exec.init_seed = 7;
    exec.microbatches_per_replica = segment_config.microbatches;
    exec.lr = lr;
    exec.momentum = momentum;
    exec.initial_params = checkpoint.params;
    PlanExecutor executor(&plan, exec, resumed_data);
    executor.Run();
    return executor.replica_params(0);
  };

  // (a) The rebound segment's own config, exactly as the coordinator produced it.
  const MlpParams recovered = replay(resumed.config);
  // (b) A failure-free 3-GPU run built from scratch over the same remaining iterations.
  SessionConfig failure_free = config;
  failure_free.server.num_gpus = 3;
  failure_free.iterations = resumed.iterations;
  failure_free.faults = FaultPlan();
  failure_free.checkpoint_every = 0;
  const MlpParams clean = replay(failure_free);

  EXPECT_DOUBLE_EQ(MaxParamDiff(recovered, clean), 0.0);  // bit-for-bit

  // And both match the uninterrupted sequential run (fp accumulation tolerance).
  const ReferenceResult resumed_reference = TrainReferenceFrom(
      checkpoint.params, data, resumed.start_iteration, resumed.iterations,
      config.microbatches, config.microbatch_size, lr, momentum);
  const ReferenceResult uninterrupted =
      TrainReference(dims, 7, data, config.iterations, config.microbatches,
                     config.microbatch_size, lr, momentum);
  EXPECT_DOUBLE_EQ(MaxParamDiff(resumed_reference.params, uninterrupted.params), 0.0);
  EXPECT_LT(MaxParamDiff(recovered, uninterrupted.params), 1e-9);
}

// Replaying the same recovery twice (fresh registries, fresh executors) lands on the same
// bits: the whole fault → checkpoint → rebind → resume path is a pure function of config.
TEST(FaultElasticTest, RecoveredWeightsAreBitStableAcrossReplays) {
  const std::vector<int> dims = {6, 8, 8, 4};
  const Model model = MakeMlp(dims);
  SessionConfig config;
  config.server.num_gpus = 3;
  config.server.gpu = TestGpu(64 * kMiB, TFlops(1.0));
  config.scheme = Scheme::kHarmonyPp;
  config.microbatches = 3;
  config.microbatch_size = 2;
  config.iterations = 4;
  config.checkpoint_every = 1;
  const double clean_makespan = RunTraining(model, config).report.makespan;
  config.faults.Add(
      FaultEvent{0.5 * clean_makespan, FaultKind::kGpuFailStop, 0, 1.0, 0.0});

  auto run = [&] {
    const ElasticResult elastic = RunTrainingElastic(model, config);
    HCHECK(elastic.status.ok()) << elastic.status.ToString();
    const RecoverySegment& resumed = elastic.final_segment();
    const DataFn data = SyntheticData(dims, config.microbatch_size, 11);
    const ReferenceResult checkpoint =
        TrainReference(dims, 3, data, resumed.start_iteration, config.microbatches,
                       config.microbatch_size, 0.05);
    const Machine machine = MakeCommodityServer(resumed.config.server);
    TensorRegistry registry;
    const Plan plan = BuildPlanForConfig(model, machine, &registry, resumed.config);
    PlanExecutorConfig exec;
    exec.dims = dims;
    exec.init_seed = 3;
    exec.microbatches_per_replica = resumed.config.microbatches;
    exec.lr = 0.05;
    exec.initial_params = checkpoint.params;
    PlanExecutor executor(&plan, exec,
                          [&data, &resumed](int iteration, int microbatch, Mat* x, Mat* y) {
                            data(iteration + resumed.start_iteration, microbatch, x, y);
                          });
    executor.Run();
    return executor.replica_params(0);
  };
  EXPECT_DOUBLE_EQ(MaxParamDiff(run(), run()), 0.0);
}

}  // namespace
}  // namespace harmony
