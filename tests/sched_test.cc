// Multi-tenant scheduler tier (ctest label `sched`, DESIGN.md §13).
//
// Six layers of evidence that the job-stream layer is trustworthy:
//   1. Grammar — --jobs / --trace / --quota specs round-trip (ToString re-parses to
//      itself) and malformed specs return typed errors carrying the byte offset.
//   2. Serving plans — forward-only task shape, and weights never write back (evictions
//      are clean drops: a served model's weights are immutable).
//   3. Determinism — seeded traces x {fifo, priority}, each run twice, produce
//      byte-identical run signatures (ClusterReport::Render).
//   4. Conservation — every job's arrival→finish interval partitions exactly into
//      queueing and service; completed jobs lose zero iterations; per-tenant GPU-seconds
//      sum to the cluster's busy total.
//   5. Preemption — the checkpoint → release → re-admit → restore cycle commits real
//      checkpoint traffic, pays a real restore, and still completes every iteration.
//   6. Session memo — one simulation per distinct segment shape: the shape holds every
//      input of an inner session (bandwidth share and drain checkpoint included) and
//      nothing else (priority, tenant name), and the memo lives for one stream.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/runtime/cluster_scheduler.h"

namespace harmony {
namespace {

ClusterSchedulerConfig SmallCluster(int nodes = 1, int gpus_per_node = 4) {
  ClusterSchedulerConfig config;
  config.server.num_gpus = gpus_per_node;
  config.num_nodes = nodes;
  return config;
}

JobSpec TrainJob(double arrival, const std::string& tenant, int gpus, int iters,
                 int priority = 0) {
  JobSpec job;
  job.kind = JobKind::kTraining;
  job.arrival = arrival;
  job.tenant = tenant;
  job.model = "toy";
  job.scheme = Scheme::kHarmonyPp;
  job.gpus = gpus;
  job.iterations = iters;
  job.priority = priority;
  return job;
}

// ---- 1. grammar -------------------------------------------------------------------------

TEST(JobsSpecTest, ParsesAndRoundTripsThroughToString) {
  const StatusOr<std::vector<JobSpec>> jobs = ParseJobsSpec(
      "train@0:tenant=a,gpus=2,iters=3,prio=1,scheme=harmony-dp;"
      "serve@1.5:tenant=b,model=toy,mb=8,mbs=1");
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  ASSERT_EQ(jobs.value().size(), 2u);
  const JobSpec& train = jobs.value()[0];
  EXPECT_EQ(train.kind, JobKind::kTraining);
  EXPECT_EQ(train.scheme, Scheme::kHarmonyDp);
  EXPECT_EQ(train.gpus, 2);
  EXPECT_EQ(train.iterations, 3);
  EXPECT_EQ(train.priority, 1);
  const JobSpec& serve = jobs.value()[1];
  EXPECT_EQ(serve.kind, JobKind::kServing);
  EXPECT_EQ(serve.scheme, Scheme::kServing);
  EXPECT_DOUBLE_EQ(serve.arrival, 1.5);
  EXPECT_EQ(serve.microbatches, 8);

  // ToString is the canonical spelling: it re-parses to an identical ToString.
  for (const JobSpec& job : jobs.value()) {
    const StatusOr<std::vector<JobSpec>> again = ParseJobsSpec(job.ToString());
    ASSERT_TRUE(again.ok()) << job.ToString() << ": " << again.status().ToString();
    ASSERT_EQ(again.value().size(), 1u);
    EXPECT_EQ(again.value()[0].ToString(), job.ToString());
  }
}

TEST(JobsSpecTest, ArrivalRenderingKeepsMillisecondStaggerAtLargeTimes) {
  // Bursty traces stagger burst arrivals by 1e-3; at day-scale t a 6-significant-digit
  // rendering would collapse them. ToString must round-trip the exact double.
  const StatusOr<std::vector<JobSpec>> jobs =
      ParseJobsSpec("train@86400.001;train@86400.002");
  ASSERT_TRUE(jobs.ok()) << jobs.status().ToString();
  ASSERT_EQ(jobs.value().size(), 2u);
  EXPECT_NE(jobs.value()[0].ToString(), jobs.value()[1].ToString());
  for (const JobSpec& job : jobs.value()) {
    const StatusOr<std::vector<JobSpec>> again = ParseJobsSpec(job.ToString());
    ASSERT_TRUE(again.ok()) << job.ToString() << ": " << again.status().ToString();
    ASSERT_EQ(again.value().size(), 1u);
    EXPECT_EQ(again.value()[0].arrival, job.arrival) << job.ToString();
  }
}

TEST(JobsSpecTest, MalformedSpecsReturnTypedByteOffsetErrors) {
  const struct {
    const char* spec;
    const char* why_fragment;
    int offset;
  } cases[] = {
      {"train", "expected (train|serve)@", 0},
      {"poke@0", "job kind must be 'train' or 'serve'", 0},
      {"train@x", "arrival time must be a finite number >= 0", 6},
      {"train@0:bogus=1", "unknown job option 'bogus'", 8},
      {"train@0:gpus=2,gpus=4", "duplicate job option 'gpus'", 15},
      {"train@0:gpus=0", "must be an integer in [1,", 13},
      {"train@0:tenant=", "tenant must be a nonempty", 15},
      {"serve@0:scheme=harmony-pp", "serving jobs have a fixed scheme", 8},
      {"train@0:scheme=warp", "unknown training scheme 'warp'", 15},
      {"train@0:scheme=serving", "unknown training scheme 'serving'", 15},
      {"train@0;serve@y", "arrival time must be a finite number >= 0", 14},
  };
  for (const auto& c : cases) {
    const StatusOr<std::vector<JobSpec>> parsed = ParseJobsSpec(c.spec);
    ASSERT_FALSE(parsed.ok()) << c.spec;
    const std::string message = parsed.status().ToString();
    EXPECT_NE(message.find("malformed jobs spec"), std::string::npos) << message;
    EXPECT_NE(message.find(c.why_fragment), std::string::npos) << message;
    EXPECT_NE(message.find("(at byte " + std::to_string(c.offset) + ";"),
              std::string::npos)
        << c.spec << " -> " << message;
  }
}

TEST(QuotaSpecTest, ParsesFallbackAndPerTenantEntries) {
  const StatusOr<QuotaMap> quotas = ParseQuotaSpec("*:mem_gib=64;a:mem_gib=8,bw=0.5;b:bw=1");
  ASSERT_TRUE(quotas.ok()) << quotas.status().ToString();
  EXPECT_EQ(quotas.value().fallback.host_mem_bytes, 64 * kGiB);
  EXPECT_DOUBLE_EQ(quotas.value().fallback.bw_fraction, 1.0);
  EXPECT_EQ(quotas.value().For("a").host_mem_bytes, 8 * kGiB);
  EXPECT_DOUBLE_EQ(quotas.value().For("a").bw_fraction, 0.5);
  EXPECT_LT(quotas.value().For("b").host_mem_bytes, 0);  // unlimited
  // Unlisted tenants inherit the fallback.
  EXPECT_EQ(quotas.value().For("zzz").host_mem_bytes, 64 * kGiB);
}

TEST(QuotaSpecTest, MalformedSpecsReturnTypedByteOffsetErrors) {
  const struct {
    const char* spec;
    const char* why_fragment;
    int offset;
  } cases[] = {
      {"a", "expected <tenant|*>:key=value", 0},
      {"a:mem_gib=8;a:bw=0.5", "duplicate quota for tenant 'a'", 12},
      {"a:speed=9", "unknown quota option 'speed'", 2},
      {"a:bw=0.5,bw=0.5", "duplicate quota option 'bw'", 9},
      {"a:bw=1.5", "bw must be a bandwidth fraction in (0, 1]", 5},
      {"a:bw=0", "bw must be a bandwidth fraction in (0, 1]", 5},
      {"a:mem_gib=lots", "mem_gib must be a finite number >= 0", 10},
      {"t!:bw=0.5", "tenant must be '*' or a", 0},
  };
  for (const auto& c : cases) {
    const StatusOr<QuotaMap> parsed = ParseQuotaSpec(c.spec);
    ASSERT_FALSE(parsed.ok()) << c.spec;
    const std::string message = parsed.status().ToString();
    EXPECT_NE(message.find("malformed quota spec"), std::string::npos) << message;
    EXPECT_NE(message.find(c.why_fragment), std::string::npos) << message;
    EXPECT_NE(message.find("(at byte " + std::to_string(c.offset) + ";"),
              std::string::npos)
        << c.spec << " -> " << message;
  }
}

TEST(TraceSpecTest, SameSeedSameTrace) {
  const std::string spec = "poisson:seed=11,rate=0.5,horizon=20,serve_frac=0.5";
  const StatusOr<std::vector<JobSpec>> a = GenerateTrace(spec, 4, 2, "toy");
  const StatusOr<std::vector<JobSpec>> b = GenerateTrace(spec, 4, 2, "toy");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  ASSERT_FALSE(a.value().empty());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (std::size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].ToString(), b.value()[i].ToString()) << i;
    EXPECT_LE(a.value()[i].arrival, 20.0);
  }
  // A different seed draws a different stream.
  const StatusOr<std::vector<JobSpec>> c =
      GenerateTrace("poisson:seed=12,rate=0.5,horizon=20,serve_frac=0.5", 4, 2, "toy");
  ASSERT_TRUE(c.ok());
  std::string sig_a, sig_c;
  for (const JobSpec& j : a.value()) sig_a += j.ToString() + ";";
  for (const JobSpec& j : c.value()) sig_c += j.ToString() + ";";
  EXPECT_NE(sig_a, sig_c);
}

TEST(TraceSpecTest, BurstyAddsSynchronizedBursts) {
  const StatusOr<std::vector<JobSpec>> trace =
      GenerateTrace("bursty:seed=3,rate=0.1,horizon=10,burst=3,period=5", 4, 1, "toy");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  // Two burst instants (t=5, t=10) of 3 jobs each ride on top of the Poisson base.
  int at_bursts = 0;
  for (const JobSpec& job : trace.value()) {
    if (job.arrival >= 5.0 && job.arrival < 5.01) ++at_bursts;
    if (job.arrival >= 10.0 && job.arrival < 10.01) ++at_bursts;
  }
  EXPECT_GE(at_bursts, 6);
}

TEST(TraceSpecTest, MalformedTracesReturnTypedErrors) {
  const struct {
    const char* spec;
    const char* why_fragment;
  } cases[] = {
      {"steady:seed=1,rate=1,horizon=5", "trace kind must be poisson, bursty, or diurnal"},
      {"poisson:rate=1,horizon=5", "seed=, rate=, and horizon= are required"},
      {"poisson:seed=1,rate=0,horizon=5", "rate must be > 0"},
      {"poisson:seed=1,rate=1,horizon=5,burst=2", "burst=/period= do not apply to poisson"},
      {"poisson:seed=1,rate=1,horizon=5,period=3", "burst=/period= do not apply to poisson"},
      {"bursty:seed=1,rate=1,horizon=5", "bursty traces require burst= and period="},
      {"diurnal:seed=1,rate=1,horizon=5", "diurnal traces require period="},
      // period= is *required* for diurnal, so only burst= may be called foreign here.
      {"diurnal:seed=1,rate=1,horizon=5,period=3,burst=2",
       "burst= only applies to bursty traces"},
      {"poisson:seed=1,rate=1,horizon=5,seed=2", "duplicate trace option 'seed'"},
      // strtoull would wrap a negative seed to 2^64 - 1.
      {"poisson:seed=-1,rate=1,horizon=5",
       "seed must be an unsigned integer, got '-1' (at byte 13;"},
      {"poisson:seed=18446744073709551616,rate=1,horizon=5",
       "seed must be an unsigned integer"},
      {"poisson:seed=1,rate=999,horizon=99999", "lower rate or horizon"},
  };
  for (const auto& c : cases) {
    const StatusOr<std::vector<JobSpec>> parsed = GenerateTrace(c.spec, 4, 1, "toy");
    ASSERT_FALSE(parsed.ok()) << c.spec;
    EXPECT_NE(parsed.status().ToString().find(c.why_fragment), std::string::npos)
        << c.spec << " -> " << parsed.status().ToString();
  }
}

TEST(ValidateJobsTest, RejectsBadGangsModelsAndHopelessQuotas) {
  ClusterSchedulerConfig config = SmallCluster(/*nodes=*/2, /*gpus_per_node=*/4);
  {
    const Status bad = ValidateJobs({TrainJob(0, "a", 6, 2)}, config);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("whole-node multiples"), std::string::npos)
        << bad.message();
  }
  {
    const Status bad = ValidateJobs({TrainJob(0, "a", 16, 2)}, config);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("exceeds the cluster"), std::string::npos);
  }
  {
    JobSpec job = TrainJob(0, "a", 2, 2);
    job.model = "nonexistent-model";
    EXPECT_FALSE(ValidateJobs({job}, config).ok());
  }
  {
    // Each cluster-spec factor may be up to 1<<20, so the unwidened product overflows
    // int; the widened total must be bounded for library callers too (ParseClusterSpec
    // only guards the CLI path).
    ClusterSchedulerConfig huge = SmallCluster(/*nodes=*/1 << 20, /*gpus_per_node=*/1 << 20);
    const Status bad = ValidateJobs({}, huge);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("exceeds the supported maximum"), std::string::npos)
        << bad.message();
    // The limit itself stays admissible.
    ClusterSchedulerConfig at_limit = SmallCluster(/*nodes=*/1 << 18, /*gpus_per_node=*/4);
    EXPECT_TRUE(ValidateJobs({}, at_limit).ok());
  }
  {
    // toy training state (weights + grads + opt) is 3 GiB: a 2 GiB quota means the job
    // could never be admitted, which is a spec error rather than an eternal queue stall.
    config.quotas.tenants["a"].host_mem_bytes = 2 * kGiB;
    const Status bad = ValidateJobs({TrainJob(0, "a", 2, 2)}, config);
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.message().find("could never be admitted"), std::string::npos)
        << bad.message();
  }
}

TEST(ValidateJobsTest, AProbedShapeStillChecksEachJobsIterationCount) {
  // The fit probe runs once per iteration-free shape, but the shape check sees every
  // job's own iteration count. Built as JobSpecs: the --jobs parser rejects iters=0 first.
  const std::vector<JobSpec> jobs = {TrainJob(0, "a", 2, /*iters=*/2),
                                     TrainJob(1, "a", 2, /*iters=*/0)};
  const Status bad = ValidateJobs(jobs, SmallCluster());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.message(),
            "job 1 (" + jobs[1].ToString() + "): iterations must be >= 1, got 0");
}

TEST(ValidateJobsTest, ANewShapeAfterProbedShapesIsFitChecked) {
  std::vector<JobSpec> jobs = {TrainJob(0, "a", 2, 2), TrainJob(1, "a", 4, 3),
                               TrainJob(2, "a", 2, 2)};
  ASSERT_TRUE(ValidateJobs(jobs, SmallCluster()).ok());
  jobs[2].microbatch_size = 4096;  // one task's working set is far past the 11 GiB GPU
  const Status bad = ValidateJobs(jobs, SmallCluster());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(bad.message().starts_with("job 2 (" + jobs[2].ToString() +
                                        "): infeasible configuration"))
      << bad.message();
}

// ---- 2. serving plans -------------------------------------------------------------------

TEST(ServingTest, PlansAreForwardOnly) {
  const Model model = ModelByName("toy").value();
  SessionConfig config;
  config.server.num_gpus = 4;
  config.scheme = Scheme::kServing;
  config.microbatches = 4;
  config.microbatch_size = 1;
  config.iterations = 2;
  ASSERT_TRUE(ValidateSessionConfig(model, config).ok());
  Machine machine = MakeSessionMachine(config);
  TensorRegistry registry;
  const Plan plan = BuildPlanForConfig(model, machine, &registry, config);
  ASSERT_FALSE(plan.tasks.empty());
  for (const Task& task : plan.tasks) {
    EXPECT_EQ(task.kind, TaskKind::kForward) << TaskKindName(task.kind);
  }
  EXPECT_EQ(plan.num_iterations, 2);
  EXPECT_EQ(plan.samples_per_iteration, 4);
}

TEST(ServingTest, WeightsNeverWriteBack) {
  const Model model = ModelByName("toy").value();
  SessionConfig config;
  config.server.num_gpus = 4;
  config.scheme = Scheme::kServing;
  config.microbatches = 4;
  config.microbatch_size = 1;
  config.iterations = 3;
  const SessionResult result = RunTraining(model, config);
  ASSERT_FALSE(result.report.failed);
  ASSERT_EQ(result.report.iterations.size(), 3u);
  for (const IterationStats& it : result.report.iterations) {
    // A served model is immutable: weight evictions are clean drops, and no gradient or
    // optimizer state exists at all.
    EXPECT_EQ(it.swap_out_by_class[static_cast<int>(TensorClass::kWeight)], 0);
    EXPECT_EQ(it.swap_in_by_class[static_cast<int>(TensorClass::kWeightGrad)], 0);
    EXPECT_EQ(it.swap_out_by_class[static_cast<int>(TensorClass::kWeightGrad)], 0);
    EXPECT_EQ(it.swap_in_by_class[static_cast<int>(TensorClass::kOptimizerState)], 0);
    EXPECT_EQ(it.swap_out_by_class[static_cast<int>(TensorClass::kOptimizerState)], 0);
  }
}

// ---- 3 + 4. determinism and conservation ------------------------------------------------

void CheckConservation(const ClusterReport& report) {
  double busy = 0.0;
  for (const JobOutcome& job : report.jobs) {
    ASSERT_TRUE(job.completed) << "job " << job.spec.id;
    // Zero lost iterations: preempted or not, every planned iteration ran exactly once.
    EXPECT_EQ(job.iterations_done, job.spec.iterations) << "job " << job.spec.id;
    EXPECT_EQ(static_cast<int>(job.iteration_sec.size()), job.iterations_done);
    EXPECT_GT(job.samples_done, 0);
    // Time conservation: arrival→finish partitions exactly into queueing and service.
    EXPECT_NEAR(job.finish - job.spec.arrival, job.queue_wait + job.service, 1e-6)
        << "job " << job.spec.id;
    double service = 0.0;
    for (const SegmentOutcome& seg : job.segments) {
      EXPECT_GE(seg.duration, 0.0);
      service += seg.duration;
      busy += seg.duration * static_cast<double>(job.spec.gpus);
      if (!seg.preempted) {
        EXPECT_EQ(seg.checkpoint, 0) << "only preemption drains commit checkpoints";
      }
      if (seg.start_iteration == 0) {
        EXPECT_EQ(seg.restore, 0) << "first admission restores nothing";
      } else {
        EXPECT_GT(seg.restore, 0) << "re-admission must re-stage model state";
      }
    }
    EXPECT_NEAR(service, job.service, 1e-6);
    EXPECT_LE(job.spec.arrival, job.first_start);
  }
  EXPECT_NEAR(busy, report.gpu_seconds_busy, 1e-6);
  double tenant_busy = 0.0;
  int tenant_jobs = 0;
  for (const TenantSlo& slo : report.tenants) {
    tenant_busy += slo.gpu_seconds;
    tenant_jobs += slo.jobs;
  }
  EXPECT_NEAR(tenant_busy, report.gpu_seconds_busy, 1e-6);
  EXPECT_EQ(tenant_jobs, static_cast<int>(report.jobs.size()));
}

TEST(SchedDeterminismTest, TracePolicyGridIsByteIdenticalAcrossTwoRuns) {
  const char* traces[] = {
      "poisson:seed=7,rate=0.5,horizon=12,serve_frac=0.4",
      "bursty:seed=19,rate=0.2,horizon=12,burst=2,period=6",
      "diurnal:seed=5,rate=0.6,horizon=12,period=8",
  };
  for (const char* trace : traces) {
    for (const SchedPolicy policy : {SchedPolicy::kFifo, SchedPolicy::kPriority}) {
      ClusterSchedulerConfig config = SmallCluster(/*nodes=*/2, /*gpus_per_node=*/4);
      config.policy = policy;
      config.quotas.tenants["t0"].bw_fraction = 0.5;
      const StatusOr<std::vector<JobSpec>> jobs =
          GenerateTrace(trace, config.server.num_gpus, config.num_nodes, "toy");
      ASSERT_TRUE(jobs.ok()) << trace << ": " << jobs.status().ToString();
      const StatusOr<ClusterReport> report = RunJobStream(jobs.value(), config);
      ASSERT_TRUE(report.ok()) << trace << ": " << report.status().ToString();
      CheckConservation(report.value());
      const StatusOr<ClusterReport> again = RunJobStream(jobs.value(), config);
      ASSERT_TRUE(again.ok()) << trace << ": " << again.status().ToString();
      EXPECT_EQ(again.value().Render(), report.value().Render())
          << trace << " policy=" << SchedPolicyName(policy) << ": the second run diverged";
      // The session memo lives for one stream: the second run simulates as much as the
      // first instead of reading the first run's sessions.
      EXPECT_GT(report.value().sessions_simulated, 0);
      EXPECT_EQ(again.value().sessions_simulated, report.value().sessions_simulated)
          << trace << " policy=" << SchedPolicyName(policy);
    }
  }
}

// ---- 5. preemption ----------------------------------------------------------------------

TEST(PreemptionTest, CheckpointReleaseReadmitRestoreLosesNothing) {
  ClusterSchedulerConfig config = SmallCluster(/*nodes=*/1, /*gpus_per_node=*/4);
  config.policy = SchedPolicy::kPriority;
  const std::vector<JobSpec> jobs = {
      TrainJob(0.0, "low", /*gpus=*/4, /*iters=*/4, /*priority=*/0),
      TrainJob(1.0, "hi", /*gpus=*/4, /*iters=*/2, /*priority=*/5),
  };
  const StatusOr<ClusterReport> report = RunJobStream(jobs, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());
  EXPECT_EQ(report.value().preemptions, 1);

  const JobOutcome& low = report.value().jobs[0];
  const JobOutcome& hi = report.value().jobs[1];
  ASSERT_EQ(low.spec.tenant, "low");
  EXPECT_EQ(low.preemptions, 1);
  ASSERT_EQ(low.segments.size(), 2u);
  EXPECT_TRUE(low.segments[0].preempted);
  EXPECT_GT(low.segments[0].iterations, 0) << "the in-flight iteration completes";
  EXPECT_GT(low.segments[0].checkpoint, 0) << "the drain commits a real checkpoint";
  EXPECT_FALSE(low.segments[1].preempted);
  EXPECT_GT(low.segments[1].restore, 0) << "re-admission pays the model-state re-stage";
  EXPECT_EQ(low.segments[0].iterations + low.segments[1].iterations, 4);

  // The high-priority job starts as soon as the victim's drain releases the gang, and is
  // never preempted itself.
  EXPECT_EQ(hi.preemptions, 0);
  ASSERT_EQ(hi.segments.size(), 1u);
  EXPECT_NEAR(hi.first_start, low.segments[0].start + low.segments[0].duration, 1e-9);
  // The victim resumes only after the high-priority job finishes.
  EXPECT_GE(low.segments[1].start, hi.finish - 1e-9);
}

TEST(PreemptionTest, FinalIterationDrainDoesNotDisablePreemption) {
  // When the victim's final iteration is already in flight, Preempt() lets the segment
  // finish naturally: the job drains through OnComplete, not OnRelease. The draining
  // counter must drop there too, or priority preemption stays gated off for the rest of
  // the job stream.
  ClusterSchedulerConfig config = SmallCluster(/*nodes=*/1, /*gpus_per_node=*/4);
  config.policy = SchedPolicy::kPriority;
  // A is mid final (only) iteration when B arrives, so B's preemption attempt takes the
  // drain-to-natural-completion path.
  const JobSpec a = TrainJob(0.0, "low", /*gpus=*/4, /*iters=*/1, /*priority=*/0);
  const JobSpec b = TrainJob(0.1, "hi", /*gpus=*/4, /*iters=*/2, /*priority=*/5);

  // Probe run pins B's finish time so the second high-priority job can be dropped one
  // second into C's segment (C is granted the instant B releases the gang).
  const StatusOr<ClusterReport> probe = RunJobStream({a, b}, config);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  ASSERT_TRUE(probe.value().jobs[1].completed);
  EXPECT_EQ(probe.value().preemptions, 0) << "a natural drain is not a preemption";
  // B waits out A's in-flight iteration rather than cutting it short.
  EXPECT_NEAR(probe.value().jobs[1].first_start, probe.value().jobs[0].finish, 1e-9);
  const double b_finish = probe.value().jobs[1].finish;

  const std::vector<JobSpec> jobs = {
      a, b,
      TrainJob(0.2, "low2", /*gpus=*/4, /*iters=*/4, /*priority=*/0),       // C
      TrainJob(b_finish + 1.0, "hi", /*gpus=*/4, /*iters=*/2, /*priority=*/5),  // D
  };
  const StatusOr<ClusterReport> report = RunJobStream(jobs, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());

  const JobOutcome& a_out = report.value().jobs[0];
  const JobOutcome& c_out = report.value().jobs[2];
  const JobOutcome& d_out = report.value().jobs[3];
  // A drained to its natural end: one unpreempted segment, no preemption counted.
  EXPECT_EQ(a_out.preemptions, 0);
  ASSERT_EQ(a_out.segments.size(), 1u);
  EXPECT_FALSE(a_out.segments[0].preempted);
  // The leak would leave draining_ stuck at 1, silently downgrading D to waiting; the
  // later preemption must still fire.
  EXPECT_EQ(report.value().preemptions, 1);
  EXPECT_EQ(c_out.preemptions, 1);
  ASSERT_GE(c_out.segments.size(), 2u);
  EXPECT_TRUE(c_out.segments[0].preempted);
  // D runs as soon as C's drain releases the gang, well before C's natural finish.
  EXPECT_LT(d_out.first_start, c_out.finish);
}

TEST(PreemptionTest, FifoNeverPreempts) {
  ClusterSchedulerConfig config = SmallCluster(/*nodes=*/1, /*gpus_per_node=*/4);
  config.policy = SchedPolicy::kFifo;
  const std::vector<JobSpec> jobs = {
      TrainJob(0.0, "low", 4, 4, /*priority=*/0),
      TrainJob(1.0, "hi", 4, 2, /*priority=*/5),
  };
  const StatusOr<ClusterReport> report = RunJobStream(jobs, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());
  EXPECT_EQ(report.value().preemptions, 0);
  // Arrival order wins regardless of priority: hi waits for low to finish.
  EXPECT_GE(report.value().jobs[1].first_start, report.value().jobs[0].finish - 1e-9);
}

// ---- quotas -----------------------------------------------------------------------------

TEST(QuotaTest, MemoryQuotaDefersWithoutBlockingOtherTenants) {
  ClusterSchedulerConfig config = SmallCluster(/*nodes=*/1, /*gpus_per_node=*/4);
  // toy training state is 3 GiB; a 4 GiB cap lets tenant `a` run one job at a time.
  config.quotas.tenants["a"].host_mem_bytes = 4 * kGiB;
  const std::vector<JobSpec> jobs = {
      TrainJob(0.0, "a", 2, 2),
      TrainJob(0.1, "a", 2, 2),
      TrainJob(0.2, "b", 2, 2),
  };
  const StatusOr<ClusterReport> report = RunJobStream(jobs, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());
  const JobOutcome& a0 = report.value().jobs[0];
  const JobOutcome& a1 = report.value().jobs[1];
  const JobOutcome& b = report.value().jobs[2];
  // The second `a` job was passed over while the first held the tenant's budget...
  EXPECT_TRUE(a1.quota_deferred);
  EXPECT_GE(a1.first_start, a0.finish - 1e-9);
  // ...but it did not block tenant `b`, which ran alongside a0 on the free GPUs.
  EXPECT_FALSE(b.quota_deferred);
  EXPECT_LT(b.first_start, a0.finish);
  for (const TenantSlo& slo : report.value().tenants) {
    if (slo.tenant == "a") {
      EXPECT_EQ(slo.quota_deferred, 1);
    }
  }
}

TEST(QuotaTest, BandwidthReservationsSerializeWhenOversubscribed) {
  ClusterSchedulerConfig config = SmallCluster(/*nodes=*/1, /*gpus_per_node=*/4);
  // Two 0.6 reservations cannot share one node's uplink (0.6 + 0.6 > 1): the second job
  // waits even though half the GPUs are free.
  config.quotas.tenants["a"].bw_fraction = 0.6;
  const std::vector<JobSpec> jobs = {
      TrainJob(0.0, "a", 2, 2),
      TrainJob(0.1, "a", 2, 2),
  };
  const StatusOr<ClusterReport> report = RunJobStream(jobs, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());
  EXPECT_GE(report.value().jobs[1].first_start, report.value().jobs[0].finish - 1e-9);

  // The same pair with full-bandwidth (best-effort) tenants co-runs immediately.
  ClusterSchedulerConfig relaxed = SmallCluster(/*nodes=*/1, /*gpus_per_node=*/4);
  const StatusOr<ClusterReport> co = RunJobStream(jobs, relaxed);
  ASSERT_TRUE(co.ok());
  EXPECT_LT(co.value().jobs[1].first_start, co.value().jobs[0].finish);
}

TEST(QuotaTest, BandwidthQuotaSlowsASessionDown) {
  // The reservation is enforced inside the inner session: a half-bandwidth tenant's job
  // takes strictly longer than the same job at full bandwidth (weight staging and swaps
  // ride the capped host uplink).
  const std::vector<JobSpec> jobs = {TrainJob(0.0, "a", 2, 2)};
  ClusterSchedulerConfig full = SmallCluster();
  ClusterSchedulerConfig halved = SmallCluster();
  halved.quotas.tenants["a"].bw_fraction = 0.5;
  const StatusOr<ClusterReport> fast = RunJobStream(jobs, full);
  const StatusOr<ClusterReport> slow = RunJobStream(jobs, halved);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  EXPECT_GT(slow.value().jobs[0].service, fast.value().jobs[0].service);
}

// ---- 6. session memo --------------------------------------------------------------------

// `n` one-GPU copies of one job, a tenth of a second apart.
std::vector<JobSpec> Copies(int n, const std::string& tenant) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(TrainJob(0.1 * i, tenant, /*gpus=*/1, /*iters=*/2));
  }
  return jobs;
}

void ExpectNoneWaits(const ClusterReport& report) {
  for (const JobOutcome& job : report.jobs) {
    EXPECT_EQ(job.queue_wait, 0.0) << "job " << job.spec.id;
    EXPECT_EQ(job.segments.size(), 1u) << "job " << job.spec.id;
  }
}

TEST(SessionMemoTest, IdenticalJobsSimulateOnce) {
  const StatusOr<ClusterReport> report = RunJobStream(Copies(4, "a"), SmallCluster());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());
  ExpectNoneWaits(report.value());
  EXPECT_EQ(report.value().sessions_simulated, 1);
}

TEST(SessionMemoTest, BandwidthQuotasSplitTheShape) {
  // A tenant's bandwidth share is an input of its sessions. Two nodes, so the four
  // reservations (0.25 + 0.25 + 0.5 + 0.5) never make a job wait.
  ClusterSchedulerConfig config = SmallCluster(/*nodes=*/2, /*gpus_per_node=*/4);
  config.quotas.tenants["a"].bw_fraction = 0.25;
  config.quotas.tenants["b"].bw_fraction = 0.5;
  std::vector<JobSpec> jobs = Copies(4, "a");
  jobs[2].tenant = "b";
  jobs[3].tenant = "b";
  const StatusOr<ClusterReport> report = RunJobStream(jobs, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());
  ExpectNoneWaits(report.value());
  EXPECT_EQ(report.value().sessions_simulated, 2);
}

TEST(SessionMemoTest, PriorityAndUnquotedTenantsShareAShape) {
  // Neither a job's priority nor the name of a tenant without quotas reaches its
  // session; a quota on some other tenant changes nothing for them.
  ClusterSchedulerConfig config = SmallCluster();
  config.quotas.tenants["q"].bw_fraction = 0.5;
  std::vector<JobSpec> jobs = Copies(4, "x");
  jobs[1].priority = 2;
  jobs[2].tenant = "y";
  jobs[3].tenant = "y";
  jobs[3].priority = 1;
  const StatusOr<ClusterReport> report = RunJobStream(jobs, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());
  ExpectNoneWaits(report.value());
  EXPECT_EQ(report.value().sessions_simulated, 1);
}

TEST(SessionMemoTest, APreemptionDrainIsItsOwnShape) {
  // The drain cuts `low` after one iteration and ends with a checkpoint; `hi` runs one
  // plain iteration of the same shape. The two must stay two sessions.
  ClusterSchedulerConfig config = SmallCluster(/*nodes=*/1, /*gpus_per_node=*/4);
  config.policy = SchedPolicy::kPriority;
  const std::vector<JobSpec> jobs = {
      TrainJob(0.0, "low", /*gpus=*/4, /*iters=*/4, /*priority=*/0),
      TrainJob(1.0, "hi", /*gpus=*/4, /*iters=*/1, /*priority=*/5),
  };
  const StatusOr<ClusterReport> report = RunJobStream(jobs, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckConservation(report.value());
  const JobOutcome& low = report.value().jobs[0];
  const JobOutcome& hi = report.value().jobs[1];
  ASSERT_EQ(low.segments.size(), 2u);
  ASSERT_TRUE(low.segments[0].preempted);
  ASSERT_EQ(low.segments[0].iterations, 1);
  EXPECT_GT(low.segments[0].checkpoint, 0);
  ASSERT_EQ(hi.segments.size(), 1u);
  EXPECT_EQ(hi.segments[0].checkpoint, 0);
  // low's grant (4 iterations), its drain (1 + checkpoint), hi (1), low's resume (3).
  EXPECT_EQ(report.value().sessions_simulated, 4);
}

}  // namespace
}  // namespace harmony
