// Degraded-mode resilience suite (DESIGN.md §11).
//
// Covers each rung of the absorb -> degrade -> recover ladder in isolation and through
// the session/recovery stack: the deterministic transfer retry policy (unit + death
// tests), TransferManager flap/retry semantics with byte-count-once accounting, the
// checksummed checkpoint ring buffer, the straggler health monitor, and session-level
// scenarios for every new fault kind.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/recovery.h"
#include "src/core/session.h"
#include "src/hw/specs.h"
#include "src/hw/topology.h"
#include "src/hw/transfer_manager.h"
#include "src/runtime/checkpoint_store.h"
#include "src/runtime/health_monitor.h"
#include "src/runtime/retry_policy.h"
#include "src/sim/fault_plan.h"
#include "src/sim/simulator.h"
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

// ---- RetryPolicy -----------------------------------------------------------------------

TEST(RetryPolicyTest, ExhaustionCountsTotalIssues) {
  RetryPolicyConfig config;
  config.max_attempts = 3;
  const RetryPolicy policy(config);
  EXPECT_FALSE(policy.Exhausted(0));
  EXPECT_FALSE(policy.Exhausted(1));
  EXPECT_FALSE(policy.Exhausted(2));
  EXPECT_TRUE(policy.Exhausted(3));
  EXPECT_TRUE(policy.Exhausted(4));
}

TEST(RetryPolicyTest, DelayDoublesThenCapsWithoutJitter) {
  RetryPolicyConfig config;
  config.max_attempts = 10;
  config.base_delay_sec = 0.001;
  config.max_delay_sec = 0.004;
  config.jitter_frac = 0.0;
  const RetryPolicy policy(config);
  EXPECT_DOUBLE_EQ(policy.DelayFor(7, 1), 0.001);
  EXPECT_DOUBLE_EQ(policy.DelayFor(7, 2), 0.002);
  EXPECT_DOUBLE_EQ(policy.DelayFor(7, 3), 0.004);
  EXPECT_DOUBLE_EQ(policy.DelayFor(7, 4), 0.004);  // capped
  EXPECT_DOUBLE_EQ(policy.DelayFor(7, 9), 0.004);
}

TEST(RetryPolicyTest, JitterIsDeterministicBoundedAndStreamDependent) {
  RetryPolicyConfig config;
  config.jitter_frac = 0.5;
  const RetryPolicy policy(config);
  const double base = config.base_delay_sec;
  const double a = policy.DelayFor(1, 1);
  EXPECT_DOUBLE_EQ(a, policy.DelayFor(1, 1));  // pure function of (seed, stream, attempt)
  EXPECT_GT(a, base * (1.0 - config.jitter_frac));
  EXPECT_LE(a, base);  // jitter only shrinks the delay
  EXPECT_NE(policy.DelayFor(2, 1), a);  // distinct streams decorrelate
}

TEST(RetryPolicyDeathTest, RejectsMisconfiguration) {
  RetryPolicyConfig zero_attempts;
  zero_attempts.max_attempts = 0;
  EXPECT_DEATH(RetryPolicy{zero_attempts}, "max_attempts");
  RetryPolicyConfig negative_base;
  negative_base.base_delay_sec = -0.001;
  EXPECT_DEATH(RetryPolicy{negative_base}, "base_delay_sec");
  RetryPolicyConfig cap_below_base;
  cap_below_base.base_delay_sec = 0.1;
  cap_below_base.max_delay_sec = 0.01;
  EXPECT_DEATH(RetryPolicy{cap_below_base}, "max_delay_sec");
  RetryPolicyConfig full_jitter;
  full_jitter.jitter_frac = 1.0;
  EXPECT_DEATH(RetryPolicy{full_jitter}, "jitter_frac");
}

// ---- TransferManager retry tier --------------------------------------------------------

class RetryTransferTest : public ::testing::Test {
 protected:
  RetryTransferTest() : topo_(MakeCommodityServerTopology(FourGpuServer())), tm_(&sim_, &topo_) {}

  std::vector<LinkId> AllLinks() const {
    std::vector<LinkId> links;
    for (LinkId l = 0; l < topo_.num_links(); ++l) {
      links.push_back(l);
    }
    return links;
  }

  Simulator sim_;
  Topology topo_;
  RecordingTransferManager tm_;
};

TEST_F(RetryTransferTest, FlapWithoutPolicyAbortsImmediately) {
  OneShotEvent* done = tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(),
                                         static_cast<Bytes>(GBps(12.8)),
                                         TransferKind::kSwapOut);
  std::int64_t exhausted_flow = -1;
  double exhausted_at = -1.0;
  tm_.SetRetryExhaustedHandler([&](std::int64_t flow, SimTime when) {
    exhausted_flow = flow;
    exhausted_at = when;
  });
  sim_.ScheduleAt(0.5, [this] { tm_.FlapLinkFlows(AllLinks()); });
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired());
  EXPECT_TRUE(tm_.WasAborted(done));
  EXPECT_EQ(tm_.flows_aborted(), 1);
  EXPECT_EQ(tm_.retry_exhausted(), 1);
  EXPECT_EQ(tm_.flows_retried(), 0);
  EXPECT_GE(exhausted_flow, 0);
  EXPECT_DOUBLE_EQ(exhausted_at, 0.5);
}

TEST_F(RetryTransferTest, FlapWithBudgetRetriesAndCompletes) {
  RetryPolicyConfig config;
  config.max_attempts = 3;
  config.base_delay_sec = 0.01;
  config.max_delay_sec = 0.04;
  config.jitter_frac = 0.0;
  const RetryPolicy policy(config);
  tm_.SetRetryPolicy(&policy);

  const Bytes bytes = static_cast<Bytes>(GBps(12.8));
  OneShotEvent* done =
      tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(), bytes, TransferKind::kSwapOut);
  sim_.ScheduleAt(0.5, [this] { tm_.FlapLinkFlows(AllLinks()); });
  sim_.RunUntilIdle();

  ASSERT_TRUE(done->fired());
  EXPECT_FALSE(tm_.WasAborted(done));
  EXPECT_EQ(tm_.flows_retried(), 1);
  EXPECT_EQ(tm_.retry_exhausted(), 0);
  EXPECT_EQ(tm_.flows_aborted(), 0);
  EXPECT_DOUBLE_EQ(tm_.retry_backoff_sec(), 0.01);
  // Full retransmit: the retry restarts from byte zero, so completion lands at
  // roughly flap time + backoff + a full transfer (~1 s), not at ~1 s total.
  EXPECT_GT(done->fire_time(), 1.4);

  // Byte-count-once: ingress/egress accounting happens at StartTransfer and is never
  // re-counted on retry; completed-flow link bytes count the single completion.
  const NodeIoStats& host_io = tm_.node_io(topo_.host_node());
  EXPECT_EQ(host_io.in_by_kind[static_cast<int>(TransferKind::kSwapOut)], bytes);
  Bytes host_link_bytes = 0;
  for (LinkId l = 0; l < topo_.num_links(); ++l) {
    if (topo_.link(l).dst == topo_.host_node()) {
      host_link_bytes += tm_.link_stats(l).bytes_carried;
    }
  }
  EXPECT_EQ(host_link_bytes, bytes);
}

TEST_F(RetryTransferTest, RepeatedFlapsExhaustTheBudget) {
  RetryPolicyConfig config;
  config.max_attempts = 2;  // one retry allowed
  config.base_delay_sec = 0.01;
  config.max_delay_sec = 0.04;
  config.jitter_frac = 0.0;
  const RetryPolicy policy(config);
  tm_.SetRetryPolicy(&policy);
  int exhausted_calls = 0;
  tm_.SetRetryExhaustedHandler([&](std::int64_t, SimTime) { ++exhausted_calls; });

  OneShotEvent* done = tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(),
                                         static_cast<Bytes>(GBps(12.8)),
                                         TransferKind::kSwapOut);
  sim_.ScheduleAt(0.5, [this] { tm_.FlapLinkFlows(AllLinks()); });
  sim_.ScheduleAt(0.7, [this] { tm_.FlapLinkFlows(AllLinks()); });
  sim_.RunUntilIdle();

  ASSERT_TRUE(done->fired());
  EXPECT_TRUE(tm_.WasAborted(done));
  EXPECT_EQ(tm_.flows_retried(), 1);
  EXPECT_EQ(tm_.retry_exhausted(), 1);
  EXPECT_EQ(tm_.flows_aborted(), 1);
  EXPECT_EQ(exhausted_calls, 1);
}

TEST_F(RetryTransferTest, PendingFlowsInLatencyWindowEscapeFlaps) {
  RetryPolicyConfig config;
  const RetryPolicy policy(config);
  tm_.SetRetryPolicy(&policy);
  OneShotEvent* done = tm_.StartTransfer(topo_.gpu_node(0), topo_.host_node(),
                                         static_cast<Bytes>(GBps(12.8)),
                                         TransferKind::kSwapOut);
  // The flow has not joined its links yet (route latency has not elapsed), so a flap
  // right now finds nothing in flight.
  EXPECT_EQ(tm_.FlapLinkFlows(AllLinks()), 0);
  sim_.RunUntilIdle();
  ASSERT_TRUE(done->fired());
  EXPECT_FALSE(tm_.WasAborted(done));
  EXPECT_EQ(tm_.flows_retried(), 0);
  EXPECT_NEAR(done->fire_time(), 1.0, 1e-3);
}

// ---- CheckpointStore -------------------------------------------------------------------

TEST(CheckpointStoreTest, RingKeepsLastKAndVerifiesNewest) {
  CheckpointStore store(3);
  for (int i = 0; i < 5; ++i) {
    store.Commit(i, 0.5 * i, 100 + i);
  }
  EXPECT_EQ(store.committed(), 5);
  EXPECT_EQ(store.resident(), 3);
  const CheckpointGeneration* newest = store.NewestValid();
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->iteration, 4);
  EXPECT_EQ(store.verified_ok(), 1);
  EXPECT_EQ(store.corrupt_detected(), 0);
}

TEST(CheckpointStoreTest, CorruptNewestFallsBackOneGeneration) {
  CheckpointStore store(2);
  store.Commit(0, 1.0, 100);
  store.Commit(1, 2.0, 100);
  ASSERT_TRUE(store.CorruptNewest());
  const CheckpointGeneration* valid = store.NewestValid();
  ASSERT_NE(valid, nullptr);
  EXPECT_EQ(valid->iteration, 0);
  EXPECT_DOUBLE_EQ(valid->time, 1.0);
  EXPECT_EQ(store.corrupt_detected(), 1);
  EXPECT_EQ(store.verified_ok(), 1);
}

TEST(CheckpointStoreTest, NoSurvivingGenerationReturnsNull) {
  CheckpointStore store(1);
  EXPECT_FALSE(store.CorruptNewest());  // empty store: nothing to corrupt
  store.Commit(0, 1.0, 100);
  ASSERT_TRUE(store.CorruptNewest());
  EXPECT_EQ(store.NewestValid(), nullptr);
  EXPECT_EQ(store.corrupt_detected(), 1);
  EXPECT_EQ(store.verified_ok(), 0);
}

TEST(CheckpointStoreTest, BasesMapLocalCommitsToGlobalCoordinates) {
  CheckpointStore store(4);
  store.SetBases(10, 100.0);
  store.Commit(2, 0.5, 64);  // segment-local iteration 2 at local time 0.5
  const CheckpointGeneration* gen = store.NewestValid();
  ASSERT_NE(gen, nullptr);
  EXPECT_EQ(gen->iteration, 12);
  EXPECT_DOUBLE_EQ(gen->time, 100.5);
}

TEST(CheckpointStoreDeathTest, RejectsNonPositiveKeep) {
  EXPECT_DEATH(CheckpointStore{0}, "keep");
}

// ---- HealthMonitor ---------------------------------------------------------------------

TEST(HealthMonitorTest, HealthyDeviceStaysAtUnityAndIsNeverStraggler) {
  HealthMonitorOptions options;
  options.threshold = 1.5;
  HealthMonitor monitor(2, options);
  for (int i = 0; i < 10; ++i) {
    monitor.Observe(0, 0.01, 0.01);
  }
  EXPECT_DOUBLE_EQ(monitor.ewma(0), 1.0);
  EXPECT_FALSE(monitor.IsStraggler(0));
  EXPECT_FALSE(monitor.IsStraggler(1));  // no observations at all
}

TEST(HealthMonitorTest, SlowdownCrossesThresholdAfterMinObservations) {
  HealthMonitorOptions options;
  options.threshold = 1.5;
  options.alpha = 0.5;
  options.min_observations = 3;
  HealthMonitor monitor(1, options);
  monitor.Observe(0, 0.01, 0.05);  // ratio 5: seeds the EWMA
  EXPECT_FALSE(monitor.IsStraggler(0));  // below min_observations
  monitor.Observe(0, 0.01, 0.05);
  EXPECT_FALSE(monitor.IsStraggler(0));
  monitor.Observe(0, 0.01, 0.05);
  EXPECT_TRUE(monitor.IsStraggler(0));
  EXPECT_GT(monitor.ewma(0), options.threshold);
}

TEST(HealthMonitorTest, ZeroThresholdDisablesClassification) {
  HealthMonitor monitor(1, HealthMonitorOptions{});
  for (int i = 0; i < 5; ++i) {
    monitor.Observe(0, 0.01, 1.0);
  }
  EXPECT_FALSE(monitor.IsStraggler(0));
}

// ---- Session-level scenarios -----------------------------------------------------------

TEST(ResilienceSessionTest, GpuSlowStretchesTheRunAndReportsDegradedSeconds) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  const double clean = RunTraining(model, config).report.makespan;

  config.faults = ParseFaultSpec("gpu_slow@0.01:gpu0:0.5:inf").value();
  const RunReport slow = RunTraining(model, config).report;
  EXPECT_FALSE(slow.failed);
  EXPECT_GT(slow.makespan, clean);
  EXPECT_GT(slow.degraded_sec, 0.0);
  ASSERT_EQ(slow.device_degraded_sec.size(), 2u);
  EXPECT_GT(slow.device_degraded_sec[0], 0.0);
  EXPECT_DOUBLE_EQ(slow.device_degraded_sec[1], 0.0);
  EXPECT_LE(slow.device_degraded_sec[0], slow.makespan);
}

TEST(ResilienceSessionTest, StragglerDegradesGracefullyWithoutRollback) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(4, 4);
  config.straggler_threshold = 1.5;
  config.faults = ParseFaultSpec("gpu_slow@0.01:gpu0:0.2:inf").value();
  const ElasticResult elastic = RunTrainingElastic(model, config);
  ASSERT_TRUE(elastic.status.ok()) << elastic.status.ToString();
  EXPECT_EQ(elastic.stats.degradations, 1);
  EXPECT_EQ(elastic.stats.failures, 0);
  EXPECT_EQ(elastic.stats.retry_exhaustions, 0);
  EXPECT_DOUBLE_EQ(elastic.stats.lost_work_sec, 0.0);  // no rollback on the middle rung
  ASSERT_EQ(elastic.segments.size(), 2u);
  const RunReport& first = elastic.segments[0].result.report;
  EXPECT_EQ(first.failure_kind, "gpu-straggler");
  EXPECT_EQ(first.straggler_device, 0);
  // The second segment resumes where the first stopped, on the healthy devices only.
  EXPECT_EQ(elastic.segments[1].start_iteration,
            static_cast<int>(first.iterations.size()));
  EXPECT_EQ(elastic.segments[1].gpus.size(), 3u);
  for (int gpu : elastic.segments[1].gpus) {
    EXPECT_NE(gpu, 0);
  }
  EXPECT_EQ(elastic.completed_iterations, config.iterations);
}

TEST(ResilienceSessionTest, SingleDeviceRunCompletesDegradedInsteadOfDegrading) {
  // With one device there is nowhere to shift work: the monitor may classify, but the
  // run must complete (degraded), not abort.
  const Model model = test_models::FaultModel(4);
  SessionConfig config = test_models::FaultConfig(1, 2);
  config.server.gpu = TestGpu(90 * kMiB, TFlops(1.0));
  config.straggler_threshold = 1.5;
  config.faults = ParseFaultSpec("gpu_slow@0.001:gpu0:0.2:inf").value();
  const RunReport report = RunTraining(model, config).report;
  EXPECT_FALSE(report.failed);
  EXPECT_GT(report.degraded_sec, 0.0);
}

TEST(ResilienceSessionTest, RetryBudgetAbsorbsFlowFlap) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  config.retry_max = 3;
  config.faults = ParseFaultSpec("flow_flap@0.02:host").value();
  const RunReport report = RunTraining(model, config).report;
  EXPECT_FALSE(report.failed) << report.failure_kind;
  EXPECT_GT(report.flows_retried, 0);
  EXPECT_EQ(report.retry_exhausted, 0);
}

TEST(ResilienceSessionTest, FlapWithoutBudgetEscalatesToTypedFailure) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  config.faults = ParseFaultSpec("flow_flap@0.02:host").value();
  const RunReport report = RunTraining(model, config).report;
  ASSERT_TRUE(report.failed);
  EXPECT_EQ(report.failure_kind, "transfer-retry-exhausted");
  EXPECT_GT(report.retry_exhausted, 0);
  EXPECT_EQ(report.flows_retried, 0);
}

TEST(ResilienceSessionTest, RetryExhaustionRollsBackWithoutExcludingDevices) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  config.checkpoint_every = 1;
  config.faults = ParseFaultSpec("flow_flap@0.02:host").value();
  const ElasticResult elastic = RunTrainingElastic(model, config);
  ASSERT_TRUE(elastic.status.ok()) << elastic.status.ToString();
  EXPECT_EQ(elastic.stats.retry_exhaustions, 1);
  EXPECT_EQ(elastic.stats.failures, 0);
  EXPECT_EQ(elastic.stats.rollbacks(), 1);
  ASSERT_GE(elastic.segments.size(), 2u);
  // The fabric failed, not a GPU: the next segment keeps the full device set.
  EXPECT_EQ(elastic.segments[1].gpus.size(), 2u);
  EXPECT_EQ(elastic.completed_iterations, config.iterations);
}

TEST(ResilienceSessionTest, BrownoutIsAbsorbedByRetryTier) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  config.retry_max = 4;
  const double clean = RunTraining(model, config).report.makespan;
  config.faults = ParseFaultSpec("brownout@0.02:host:0.25:0.05").value();
  const RunReport report = RunTraining(model, config).report;
  EXPECT_FALSE(report.failed) << report.failure_kind;
  EXPECT_GT(report.flows_retried, 0);
  EXPECT_GE(report.makespan, clean);  // the brownout window slows the swap tier
}

TEST(ResilienceSessionTest, CorruptCheckpointFallsBackToOlderGeneration) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  config.checkpoint_every = 1;
  config.ckpt_keep = 2;
  const double clean = RunTraining(model, config).report.makespan;
  // Corrupt the newest generation late in the run, then fail a GPU: recovery must fall
  // back past the corrupt generation to the older resident one.
  char spec[96];
  std::snprintf(spec, sizeof(spec), "ckpt_corrupt@%.6f;fail@%.6f:gpu1", 0.90 * clean,
                0.92 * clean);
  config.faults = ParseFaultSpec(spec).value();
  const ElasticResult elastic = RunTrainingElastic(model, config);
  ASSERT_TRUE(elastic.status.ok()) << elastic.status.ToString();
  EXPECT_EQ(elastic.stats.failures, 1);
  EXPECT_EQ(elastic.stats.ckpt_corrupt_detected, 1);
  EXPECT_GE(elastic.stats.ckpt_verified, 1);
  ASSERT_EQ(elastic.segments.size(), 2u);
  const RunReport& first = elastic.segments[0].result.report;
  // The newest commit was corrupted, so the resume point is strictly older than it.
  EXPECT_LT(elastic.segments[1].start_iteration, first.last_checkpoint_iteration + 1);
  EXPECT_EQ(elastic.completed_iterations, config.iterations);
}

TEST(ResilienceSessionTest, AllGenerationsCorruptIsATypedError) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  config.checkpoint_every = 1;
  config.ckpt_keep = 1;  // a single resident generation: corrupting it leaves nothing
  const double clean = RunTraining(model, config).report.makespan;
  char spec[96];
  std::snprintf(spec, sizeof(spec), "ckpt_corrupt@%.6f;fail@%.6f:gpu1", 0.90 * clean,
                0.92 * clean);
  config.faults = ParseFaultSpec(spec).value();
  const ElasticResult elastic = RunTrainingElastic(model, config);
  ASSERT_FALSE(elastic.status.ok());
  EXPECT_NE(elastic.status.message().find("failed digest verification"), std::string::npos)
      << elastic.status.ToString();
  EXPECT_EQ(elastic.stats.ckpt_corrupt_detected, 1);
}

TEST(ResilienceSessionTest, ValidationRejectsBadResilienceKnobs) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  config.retry_max = -1;
  EXPECT_FALSE(ValidateSessionConfig(model, config).ok());
  config = test_models::FaultConfig(2, 4);
  config.ckpt_keep = 0;
  EXPECT_FALSE(ValidateSessionConfig(model, config).ok());
  config = test_models::FaultConfig(2, 4);
  config.straggler_threshold = 0.5;  // must be 0 or > 1
  EXPECT_FALSE(ValidateSessionConfig(model, config).ok());
  config = test_models::FaultConfig(2, 4);
  config.faults = ParseFaultSpec("gpu_slow@1:gpu7:0.5:1").value();
  EXPECT_FALSE(ValidateSessionConfig(model, config).ok());  // gpu7 not on the machine
}

}  // namespace
}  // namespace harmony
