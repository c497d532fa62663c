// Static plan linter suite (runtime/plan_lint.h).
//
// Three layers of evidence that the linter is both sound and sharp:
//   1. Handcrafted broken plans trigger every check class (unit tests).
//   2. Every scheduler x model-zoo x seed configuration that the observability suite runs
//      (metrics_test's exact draw sequence) lints clean under the full deep pass, as do
//      the eight golden-bench configurations — the linter never cries wolf on plans the
//      engine demonstrably executes correctly.
//   3. Mutation testing: deleting a load-bearing cross-device ordering edge, swapping a
//      task's device binding, or dropping an all-reduce participant from a valid plan is
//      detected with >= 95% hit rate over 100 seeded mutations per class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/specs.h"
#include "src/runtime/plan_lint.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "tests/plan_edit.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

// Builds a plan (without executing it) plus the per-device capacities the linter's
// feasibility check needs. Heap-allocated because TensorRegistry is move-averse.
struct BuiltPlan {
  TensorRegistry registry;
  Plan plan;
  std::vector<Bytes> capacities;
};

std::unique_ptr<BuiltPlan> Build(const Model& model, const SessionConfig& config) {
  auto built = std::make_unique<BuiltPlan>();
  Machine machine = MakeCommodityServer(config.server);
  built->plan = BuildPlanForConfig(model, machine, &built->registry, config);
  for (const GpuSpec& gpu : machine.gpus) {
    built->capacities.push_back(gpu.memory_bytes);
  }
  return built;
}

LintReport DeepLint(const BuiltPlan& built, bool with_capacities = true) {
  LintOptions options;
  options.deep = true;
  if (with_capacities) {
    options.device_capacities = built.capacities;
  }
  return LintPlan(built.plan, built.registry, options);
}

bool HasCheck(const LintReport& report, LintCheck check) {
  return std::any_of(report.findings.begin(), report.findings.end(),
                     [check](const LintFinding& f) { return f.check == check; });
}

// ---- handcrafted broken plans: every check class fires ----------------------------------------

// Minimal two-device scaffold: one tensor per role, one task per device, valid as built.
// Tests then break one invariant at a time.
struct TinyPlan {
  TensorRegistry registry;
  Plan plan;
  TensorId weight;
  TensorId act;

  TinyPlan() {
    weight = registry.Create("w0", 4 * kMiB, TensorClass::kWeight, /*host_valid=*/true);
    act = registry.Create("x0", 2 * kMiB, TensorClass::kActivation, /*host_valid=*/false);
    plan.scheme = "tiny";
    plan.num_iterations = 1;
    plan.per_device_order.resize(2);
    Task producer;
    producer.kind = TaskKind::kForward;
    producer.device = 0;
    plan.per_device_order[0] = {plan.AddTask(producer)};
    plan.Append(TaskList::kFetch, weight);
    plan.Append(TaskList::kAllocate, act);
    plan.Append(TaskList::kDirty, act);
    Task consumer;
    consumer.kind = TaskKind::kForward;
    consumer.device = 1;
    plan.per_device_order[1] = {plan.AddTask(consumer)};
    plan.Append(TaskList::kDeps, 0);
    plan.Append(TaskList::kFetch, act);
  }

  LintReport Lint(std::vector<Bytes> capacities = {}) {
    LintOptions options;
    options.deep = true;
    options.device_capacities = std::move(capacities);
    return LintPlan(plan, registry, options);
  }
};

TEST(PlanLintUnit, ValidTinyPlanIsClean) {
  TinyPlan tiny;
  const LintReport report = tiny.Lint();
  EXPECT_TRUE(report.clean()) << report.Render();
  EXPECT_TRUE(report.deep_ran);
}

TEST(PlanLintUnit, DetectsDependencyCycle) {
  TinyPlan tiny;
  SetList(&tiny.plan, TaskList::kDeps, 0, {1});  // 0 -> 1 (dep) and 1 -> 0 (dep): cycle
  const LintReport report = tiny.Lint();
  EXPECT_GT(report.num_errors(), 0);
  EXPECT_TRUE(HasCheck(report, LintCheck::kStructure)) << report.Render();
  EXPECT_FALSE(report.deep_ran) << "deep checks must not run on a cyclic graph";
}

TEST(PlanLintUnit, DetectsQueueCycleAgainstDeps) {
  TinyPlan tiny;
  // Same-device queue order contradicting the dep edge: move both tasks to device 0 with
  // the consumer queued first.
  tiny.plan.tasks[1].device = 0;
  tiny.plan.per_device_order[0] = {1, 0};
  tiny.plan.per_device_order[1] = {};
  const LintReport report = tiny.Lint();
  EXPECT_TRUE(HasCheck(report, LintCheck::kStructure)) << report.Render();
}

TEST(PlanLintUnit, DetectsDanglingTaskAndTensorIds) {
  TinyPlan tiny;
  SetList(&tiny.plan, TaskList::kDeps, 1, {7});  // no task 7
  const LintReport bad_task = tiny.Lint();
  EXPECT_TRUE(HasCheck(bad_task, LintCheck::kStructure)) << bad_task.Render();

  TinyPlan tiny2;
  SetList(&tiny2.plan, TaskList::kFetch, 1, {tiny2.act, 99});  // no tensor 99
  const LintReport bad_tensor = tiny2.Lint();
  EXPECT_TRUE(HasCheck(bad_tensor, LintCheck::kDanglingReference)) << bad_tensor.Render();
}

// Every check reads the lists through their flat offsets, so the lint checks the offsets'
// shape first: a truncated, overrunning or decreasing offset run is a structure error, not
// an out-of-bounds read (the ASan pass runs this suite).
TEST(PlanLintUnit, MisshapenListOffsetsAreAStructureError) {
  auto expect_structure_error = [](TinyPlan& tiny, const std::string& what) {
    const LintReport report = tiny.Lint();
    ASSERT_EQ(report.num_errors(), 1) << report.Render();
    EXPECT_EQ(report.findings[0].check, LintCheck::kStructure) << report.Render();
    EXPECT_NE(report.findings[0].message.find(what), std::string::npos) << report.Render();
    EXPECT_FALSE(report.deep_ran);
  };
  TinyPlan truncated;
  truncated.plan.lists[static_cast<std::size_t>(TaskList::kFetch)].offsets.pop_back();
  expect_structure_error(truncated, "fetch list is not one run per task: its 2 offsets");

  TinyPlan overrun;
  overrun.plan.lists[static_cast<std::size_t>(TaskList::kDeps)].offsets.back() = 5;
  expect_structure_error(overrun, "dep list is not one run per task");

  TinyPlan decreasing;
  IdColumn& allocate = decreasing.plan.lists[static_cast<std::size_t>(TaskList::kAllocate)];
  allocate.offsets = {0, 2, 1};  // ends at the id count, but task 0's run overruns it
  expect_structure_error(decreasing, "allocate list is not one run per task");
}

TEST(PlanLintUnit, DetectsDoublePinInOneWorkingSet) {
  TinyPlan tiny;
  SetList(&tiny.plan, TaskList::kFetch, 1, {tiny.act, tiny.act});  // act fetched twice
  const LintReport report = tiny.Lint();
  EXPECT_TRUE(HasCheck(report, LintCheck::kPinBalance)) << report.Render();
}

TEST(PlanLintUnit, DetectsFreeOutsideWorkingSetAndDoubleFree) {
  TinyPlan tiny;
  SetList(&tiny.plan, TaskList::kFreeAfter, 0, {tiny.act, tiny.act});  // duplicate frees
  const LintReport dup = tiny.Lint();
  EXPECT_TRUE(HasCheck(dup, LintCheck::kPinBalance)) << dup.Render();

  TinyPlan tiny2;
  SetList(&tiny2.plan, TaskList::kFreeAfter, 0, {tiny2.act});  // in producer's WS: fine
  SetList(&tiny2.plan, TaskList::kFreeAfter, 1, {tiny2.act});  // second freeing task
  const LintReport twice = tiny2.Lint();
  EXPECT_TRUE(HasCheck(twice, LintCheck::kLifetime)) << twice.Render();
}

TEST(PlanLintUnit, DetectsUseAfterFree) {
  TinyPlan tiny;
  // The producer frees its own output; the downstream consumer then fetches a dead tensor.
  SetList(&tiny.plan, TaskList::kFreeAfter, 0, {tiny.act});
  const LintReport report = tiny.Lint();
  EXPECT_TRUE(HasCheck(report, LintCheck::kLifetime)) << report.Render();
}

TEST(PlanLintUnit, DetectsUninitializedReadWhenProducerEdgeMissing) {
  TinyPlan tiny;
  SetList(&tiny.plan, TaskList::kDeps, 1, {});  // consumer now unordered with the producer
  const LintReport report = tiny.Lint();
  EXPECT_GT(report.num_errors(), 0) << report.Render();
  EXPECT_TRUE(HasCheck(report, LintCheck::kCrossDeviceHazard)) << report.Render();
}

TEST(PlanLintUnit, DetectsInfeasibleSingleTaskWorkingSet) {
  TinyPlan tiny;
  const LintReport report = tiny.Lint({3 * kMiB, 3 * kMiB});  // < weight + act
  EXPECT_TRUE(HasCheck(report, LintCheck::kFeasibility)) << report.Render();
}

// Appends a two-member all-reduce group whose replicas are {0, 2}: replica 1 is a hole in
// {0..k-1}.
void AddReplicaHoleGroup(TinyPlan* tiny) {
  for (int i = 0; i < 2; ++i) {
    Task ar;
    ar.kind = TaskKind::kAllReduce;
    ar.device = i;
    ar.replica = i == 0 ? 0 : 2;
    ar.collective_group = 0;
    ar.collective_bytes = kMiB;
    tiny->plan.per_device_order[static_cast<std::size_t>(i)].push_back(tiny->plan.AddTask(ar));
  }
}

// Appends two groups, one member each per device, queued in opposite orders: group 0 waits
// for device 1's member which sits behind group 1's member, which waits for device 0's
// member behind group 0's. The plain task graph is acyclic; only the rendezvous view
// deadlocks.
void AddCrossedGroups(TinyPlan* tiny) {
  for (int g = 0; g < 2; ++g) {
    for (int d = 0; d < 2; ++d) {
      Task ar;
      ar.kind = TaskKind::kAllReduce;
      ar.device = d;
      ar.replica = d;
      ar.collective_group = g;
      ar.collective_bytes = kMiB;
      tiny->plan.AddTask(ar);
    }
  }
  // device 0 runs group 0 then group 1; device 1 runs group 1 then group 0.
  tiny->plan.per_device_order[0].push_back(2);  // group 0
  tiny->plan.per_device_order[0].push_back(4);  // group 1
  tiny->plan.per_device_order[1].push_back(5);  // group 1
  tiny->plan.per_device_order[1].push_back(3);  // group 0
}

TEST(PlanLintUnit, DetectsCollectiveReplicaHoleAndByteMismatch) {
  TinyPlan tiny;
  AddReplicaHoleGroup(&tiny);
  const LintReport report = tiny.Lint();
  EXPECT_TRUE(HasCheck(report, LintCheck::kCollective)) << report.Render();
}

TEST(PlanLintUnit, DetectsCrossedCollectiveRendezvousDeadlock) {
  TinyPlan tiny;
  AddCrossedGroups(&tiny);
  const LintReport report = tiny.Lint();
  EXPECT_TRUE(HasCheck(report, LintCheck::kCollective)) << report.Render();
  const std::string rendered = report.Render();
  EXPECT_NE(rendered.find("deadlock"), std::string::npos) << rendered;
}

TEST(PlanLintUnit, JsonReportRoundTripsThroughParser) {
  TinyPlan tiny;
  SetList(&tiny.plan, TaskList::kDeps, 1, {});  // produce at least one finding
  const LintReport report = tiny.Lint();
  ASSERT_GT(report.num_errors(), 0);
  const StatusOr<JsonValue> parsed = ParseJson(report.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.Find("schema")->as_string(), "harmony-lint-report");
  EXPECT_EQ(root.Find("version")->as_number(), 1.0);
  EXPECT_EQ(root.Find("scheme")->as_string(), "tiny");
  EXPECT_EQ(static_cast<int>(root.Find("errors")->as_number()), report.num_errors());
  const std::vector<JsonValue>& findings = root.Find("findings")->as_array();
  ASSERT_EQ(findings.size(), report.findings.size());
  EXPECT_FALSE(findings[0].Find("check")->as_string().empty());
  EXPECT_FALSE(findings[0].Find("message")->as_string().empty());
}

// ---- every scheduler x model zoo x seed lints clean -------------------------------------------

// Mirrors metrics_test's ConservationTest draw sequence exactly (seed * 62989 + 11,
// churn ranges, scheme forced from the seed, minimal feasible capacity): the plans the
// conservation suite executes successfully must also lint clean under the deep pass.
class PlanLintGridTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanLintGridTest, SeededMetricsConfigLintsClean) {
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 62989 + 11);
  const Model model = test_models::RandomUniformModel(rng, test_models::ChurnModelRanges());
  SessionConfig config = test_models::RandomChurnSession(rng, model.num_layers());
  config.audit_eviction = false;
  config.scheme = test_models::kAllSchemes[seed % test_models::kNumSchemes];
  test_models::FitMinimalCapacity(model, &config);
  const std::unique_ptr<BuiltPlan> built = Build(model, config);
  const LintReport report = DeepLint(*built);
  SCOPED_TRACE(report.scheme);
  EXPECT_TRUE(report.deep_ran);
  EXPECT_TRUE(report.clean()) << report.Render();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanLintGridTest, ::testing::Range(0, 25));

// ---- the eight golden bench configurations lint clean -----------------------------------------

// One representative (model, config) per golden bench. fig1 (a static table) and fig2b
// (raw transfer microbenchmarks) run no training session; they are represented by the
// 4-GPU commodity-server workload their narrative is about.
struct GoldenCase {
  std::string name;
  Model model;
  SessionConfig config;
};

std::vector<GoldenCase> GoldenBenchCases() {
  std::vector<GoldenCase> cases;
  const Model bert = MakeBertLarge();

  UniformModelConfig analytic;
  analytic.name = "analytic-uniform";
  analytic.num_layers = 4;
  analytic.param_bytes = 8 * kMiB;
  analytic.act_bytes_per_sample = 2 * kMiB;
  analytic.optimizer_state_factor = 1.0;
  analytic.fwd_flops_per_sample = 1e9;

  UniformModelConfig toy4;
  toy4.name = "toy-4layer";
  toy4.num_layers = 4;
  toy4.param_bytes = 256 * kMiB;
  toy4.act_bytes_per_sample = 64 * kMiB;
  toy4.fwd_flops_per_sample = 4e11;
  toy4.optimizer_state_factor = 1.0;

  {  // bench_fig1_model_growth: the 4x 1080Ti reference server training BERT-large.
    GoldenCase c{"fig1_model_growth", bert, {}};
    c.config.server.num_gpus = 4;
    c.config.scheme = Scheme::kHarmonyPp;
    c.config.microbatches = 8;
    c.config.microbatch_size = 5;
    c.config.pack_size = 2;
    cases.push_back(std::move(c));
  }
  {  // bench_fig2a_dp_swap: baseline-DP, batch 5 per GPU, 4 GPUs.
    GoldenCase c{"fig2a_dp_swap", bert, {}};
    c.config.server.num_gpus = 4;
    c.config.server.gpus_per_switch = 4;
    c.config.scheme = Scheme::kBaselineDp;
    c.config.microbatches = 1;
    c.config.microbatch_size = 5;
    c.config.iterations = 3;
    cases.push_back(std::move(c));
  }
  {  // bench_fig2b_interconnect: the oversubscribed 4-GPU topology, swap-heavy workload.
    GoldenCase c{"fig2b_interconnect", bert, {}};
    c.config.server.num_gpus = 4;
    c.config.server.gpus_per_switch = 4;
    c.config.scheme = Scheme::kBaselineDp;
    c.config.microbatches = 1;
    c.config.microbatch_size = 5;
    cases.push_back(std::move(c));
  }
  {  // bench_fig2c_pp_imbalance: 1F1B over 4 stages, 8 microbatches of 8.
    GoldenCase c{"fig2c_pp_imbalance", bert, {}};
    c.config.server.num_gpus = 4;
    c.config.scheme = Scheme::kBaselinePp;
    c.config.microbatches = 8;
    c.config.microbatch_size = 8;
    c.config.iterations = 3;
    cases.push_back(std::move(c));
  }
  {  // bench_fig4_schedule: Harmony-PP toy schedule, 4 layers, 2 GPUs, 2 microbatches.
    GoldenCase c{"fig4_schedule", MakeUniformModel(toy4), {}};
    c.config.server.num_gpus = 2;
    c.config.server.gpu = TestGpu(2 * kGiB, TFlops(4.0));
    c.config.scheme = Scheme::kHarmonyPp;
    c.config.microbatches = 2;
    c.config.microbatch_size = 4;
    c.config.iterations = 1;
    cases.push_back(std::move(c));
  }
  {  // bench_fig5_swap_volume: analytic uniform model at one-layer capacity, harmony-pp.
    GoldenCase c{"fig5_swap_volume", MakeUniformModel(analytic), {}};
    c.config.server.num_gpus = 4;
    c.config.server.gpu = TestGpu(26 * kMiB, TFlops(1.0));
    c.config.scheme = Scheme::kHarmonyPp;
    c.config.microbatches = 8;  // m * n at m = 2, n = 4
    c.config.microbatch_size = 1;
    c.config.iterations = 3;
    c.config.prefetch = false;
    cases.push_back(std::move(c));
  }
  {  // bench_ablation_opts: the BERT base configuration every ablation arm starts from.
    GoldenCase c{"ablation_opts", bert, {}};
    c.config.server.num_gpus = 4;
    c.config.scheme = Scheme::kHarmonyPp;
    c.config.microbatches = 8;
    c.config.microbatch_size = 5;
    c.config.iterations = 3;
    c.config.pack_size = 2;
    cases.push_back(std::move(c));
  }
  {  // bench_e2e_comparison: the headline Harmony-PP arm (pack 2, microbatch 8).
    GoldenCase c{"e2e_comparison", bert, {}};
    c.config.server.num_gpus = 4;
    c.config.scheme = Scheme::kHarmonyPp;
    c.config.microbatch_size = 8;
    c.config.microbatches = 4;
    c.config.pack_size = 2;
    c.config.iterations = 3;
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(PlanLintGolden, AllEightGoldenBenchConfigsLintClean) {
  const std::vector<GoldenCase> cases = GoldenBenchCases();
  ASSERT_EQ(cases.size(), 8u);
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.name);
    const std::unique_ptr<BuiltPlan> built = Build(c.model, c.config);
    const LintReport report = DeepLint(*built);
    EXPECT_TRUE(report.deep_ran);
    EXPECT_TRUE(report.clean()) << c.name << ":\n" << report.Render();
  }
}

// ---- mutation testing: detection power --------------------------------------------------------

// Pipeline-family plan with >= 2 devices: guarantees cross-device dependency edges (stage
// boundaries) and queue-order-carried weight versions (iteration boundaries).
std::unique_ptr<BuiltPlan> BuildPipelinePlan(Rng& rng) {
  UniformModelConfig mc;
  mc.name = "mut";
  mc.num_layers = 4 + static_cast<int>(rng.NextBounded(4));
  mc.param_bytes = (2 + static_cast<Bytes>(rng.NextBounded(6))) * kMiB;
  mc.act_bytes_per_sample = (1 + static_cast<Bytes>(rng.NextBounded(3))) * kMiB;
  mc.stash_bytes_per_sample = static_cast<Bytes>(rng.NextBounded(3)) * kMiB;
  mc.optimizer_state_factor = 1.0;
  mc.fwd_flops_per_sample = 1e8;
  const Model model = MakeUniformModel(mc);

  SessionConfig config;
  config.scheme = rng.NextBounded(2) == 0 ? Scheme::kBaselinePp : Scheme::kHarmonyPp;
  config.server.num_gpus = 2 + static_cast<int>(rng.NextBounded(3));  // 2..4 <= layers
  config.microbatches = 2 + static_cast<int>(rng.NextBounded(3));
  config.microbatch_size = 1 + static_cast<int>(rng.NextBounded(2));
  config.iterations = 2;
  config.pack_size = 1 + static_cast<int>(rng.NextBounded(2));
  config.jit_updates = rng.NextBounded(2) == 0;
  config.grouping = rng.NextBounded(2) == 0;
  return Build(model, config);
}

// Data-parallel / tensor-parallel plan: guarantees all-reduce groups.
std::unique_ptr<BuiltPlan> BuildCollectivePlan(Rng& rng) {
  UniformModelConfig mc;
  mc.name = "mut-ar";
  mc.num_layers = 2 + static_cast<int>(rng.NextBounded(4));
  mc.param_bytes = (2 + static_cast<Bytes>(rng.NextBounded(6))) * kMiB;
  mc.act_bytes_per_sample = (1 + static_cast<Bytes>(rng.NextBounded(3))) * kMiB;
  mc.optimizer_state_factor = 1.0;
  mc.fwd_flops_per_sample = 1e8;
  const Model model = MakeUniformModel(mc);

  SessionConfig config;
  const Scheme schemes[] = {Scheme::kBaselineDp, Scheme::kHarmonyDp, Scheme::kHarmonyTp};
  config.scheme = schemes[rng.NextBounded(3)];
  config.server.num_gpus = 2 + static_cast<int>(rng.NextBounded(3));
  config.microbatches = 1 + static_cast<int>(rng.NextBounded(3));
  config.microbatch_size = 1 + static_cast<int>(rng.NextBounded(2));
  config.iterations = 2;
  config.jit_updates = rng.NextBounded(2) == 0;
  config.grouping = rng.NextBounded(2) == 0;
  return Build(model, config);
}

// True iff `from` still reaches `to` over deps + per-device order when the single dep edge
// (skip_task's dep on `from`) is removed — i.e. the edge is transitively redundant.
bool ReachesWithoutEdge(const Plan& plan, TaskId from, TaskId to) {
  const std::size_t n = plan.tasks.size();
  std::vector<std::vector<TaskId>> out(n);
  for (const Task& t : plan.tasks) {
    for (TaskId dep : plan.deps(t.id)) {
      if (dep == from && t.id == to) {
        continue;  // the candidate edge itself
      }
      out[static_cast<std::size_t>(dep)].push_back(t.id);
    }
  }
  for (const auto& order : plan.per_device_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      out[static_cast<std::size_t>(order[i - 1])].push_back(order[i]);
    }
  }
  std::vector<char> seen(n, 0);
  std::vector<TaskId> stack = {from};
  seen[static_cast<std::size_t>(from)] = 1;
  while (!stack.empty()) {
    const TaskId v = stack.back();
    stack.pop_back();
    if (v == to) {
      return true;
    }
    for (TaskId s : out[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(s)]) {
        seen[static_cast<std::size_t>(s)] = 1;
        stack.push_back(s);
      }
    }
  }
  return false;
}

// Mutation (a): delete a load-bearing cross-device dependency edge. Transitively redundant
// edges are resampled — removing one leaves the happens-before relation (and therefore the
// plan's semantics) intact, so there is nothing for any analysis to detect.
bool MutateDeleteEdge(Plan* plan, Rng& rng) {
  std::vector<std::pair<TaskId, std::size_t>> candidates;  // (task, dep index)
  for (const Task& t : plan->tasks) {
    const std::span<const TaskId> deps = plan->deps(t.id);
    for (std::size_t i = 0; i < deps.size(); ++i) {
      const Task& dep = plan->tasks[static_cast<std::size_t>(deps[i])];
      if (dep.device != t.device) {
        candidates.emplace_back(t.id, i);
      }
    }
  }
  // Random order, first load-bearing candidate wins.
  for (std::size_t i = candidates.size(); i > 1; --i) {
    std::swap(candidates[i - 1], candidates[rng.NextBounded(i)]);
  }
  for (const auto& [task_id, dep_index] : candidates) {
    const std::span<const TaskId> deps = plan->deps(task_id);
    if (ReachesWithoutEdge(*plan, deps[dep_index], task_id)) {
      continue;
    }
    std::vector<TaskId> kept(deps.begin(), deps.end());
    kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(dep_index));
    SetList(plan, TaskList::kDeps, task_id, std::move(kept));
    return true;
  }
  return false;
}

// Ground truth for the swap class, implemented independently of the linter: after a swap,
// either the graph gained a cycle, or some weight the victim fetches has its latest
// earlier-iteration update no longer ordered before the victim. Either way the mutant is
// semantically broken and a sound analysis must flag it.
bool SwapBreaksPlan(const Plan& plan, const TensorRegistry& registry, TaskId victim) {
  const std::size_t n = plan.tasks.size();
  std::vector<std::vector<TaskId>> out(n);
  std::vector<int> indegree(n, 0);
  for (const Task& t : plan.tasks) {
    for (TaskId dep : plan.deps(t.id)) {
      out[static_cast<std::size_t>(dep)].push_back(t.id);
      ++indegree[static_cast<std::size_t>(t.id)];
    }
  }
  for (const auto& order : plan.per_device_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      out[static_cast<std::size_t>(order[i - 1])].push_back(order[i]);
      ++indegree[static_cast<std::size_t>(order[i])];
    }
  }
  // Cycle check (Kahn).
  std::vector<TaskId> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      ready.push_back(static_cast<TaskId>(i));
    }
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const TaskId v = ready.back();
    ready.pop_back();
    ++processed;
    for (TaskId s : out[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) {
        ready.push_back(s);
      }
    }
  }
  if (processed != n) {
    return true;  // queue/dep cycle: the schedule deadlocks
  }
  // Version check: for each weight the victim fetches, BFS from the latest
  // earlier-iteration update; the victim must be reachable.
  const Task& reader = plan.tasks[static_cast<std::size_t>(victim)];
  for (TensorId w : plan.fetch(victim)) {
    if (registry.meta(w).cls != TensorClass::kWeight) {
      continue;
    }
    TaskId latest = kInvalidTask;
    for (const Task& t : plan.tasks) {
      if (t.kind != TaskKind::kUpdate || t.iteration >= reader.iteration) {
        continue;
      }
      const std::span<const TensorId> dirty = plan.dirty_outputs(t.id);
      if (std::find(dirty.begin(), dirty.end(), w) == dirty.end()) {
        continue;
      }
      if (latest == kInvalidTask ||
          t.iteration > plan.tasks[static_cast<std::size_t>(latest)].iteration) {
        latest = t.id;
      }
    }
    if (latest == kInvalidTask) {
      continue;
    }
    std::vector<char> seen(n, 0);
    std::vector<TaskId> stack = {latest};
    seen[static_cast<std::size_t>(latest)] = 1;
    bool reaches = false;
    while (!stack.empty() && !reaches) {
      const TaskId v = stack.back();
      stack.pop_back();
      if (v == victim) {
        reaches = true;
        break;
      }
      for (TaskId s : out[static_cast<std::size_t>(v)]) {
        if (!seen[static_cast<std::size_t>(s)]) {
          seen[static_cast<std::size_t>(s)] = 1;
          stack.push_back(s);
        }
      }
    }
    if (!reaches) {
      return true;  // stale weight version
    }
  }
  return false;
}

// Mutation (b): move one task to a different device queue (consistently: binding and queue
// agree, so the mutant stays structurally well-formed). Candidates are weight readers past
// the first iteration — tasks whose view of the weight version is carried purely by
// same-device queue order. A drawn swap can land in a position where surrounding queue
// edges accidentally preserve every ordering (an *equivalent mutant* — semantically
// harmless, hence undetectable by any sound analysis); those are verified against the
// independent ground-truth check above and redrawn, per standard mutation-testing
// methodology.
bool MutateSwapDevice(Plan* plan, const TensorRegistry& registry, Rng& rng) {
  if (plan->num_devices() < 2) {
    return false;
  }
  std::vector<TaskId> candidates;
  for (const Task& t : plan->tasks) {
    if (t.iteration < 1) {
      continue;
    }
    const std::span<const TensorId> fetch = plan->fetch(t.id);
    const bool reads_weight =
        std::any_of(fetch.begin(), fetch.end(),
                    [&](TensorId id) { return registry.meta(id).cls == TensorClass::kWeight; });
    if (reads_weight) {
      candidates.push_back(t.id);
    }
  }
  if (candidates.empty()) {
    return false;
  }
  for (int attempt = 0; attempt < 20; ++attempt) {
    Plan trial = *plan;
    const TaskId victim = candidates[rng.NextBounded(candidates.size())];
    Task& task = trial.tasks[static_cast<std::size_t>(victim)];
    const int old_device = task.device;
    int new_device = static_cast<int>(rng.NextBounded(
        static_cast<std::uint64_t>(trial.num_devices() - 1)));
    if (new_device >= old_device) {
      ++new_device;
    }
    auto& old_queue = trial.per_device_order[static_cast<std::size_t>(old_device)];
    old_queue.erase(std::find(old_queue.begin(), old_queue.end(), victim));
    auto& new_queue = trial.per_device_order[static_cast<std::size_t>(new_device)];
    const std::size_t pos = rng.NextBounded(new_queue.size() + 1);
    new_queue.insert(new_queue.begin() + static_cast<std::ptrdiff_t>(pos), victim);
    task.device = new_device;
    if (SwapBreaksPlan(trial, registry, victim)) {
      *plan = std::move(trial);
      return true;
    }
  }
  return false;
}

// Mutation (c): drop one all-reduce participant from the plan entirely (DropTask splices
// its dependents onto its dependencies and renumbers ids, so the result is structurally
// valid; only the collective view is broken).
bool MutateDropParticipant(Plan* plan, Rng& rng) {
  std::vector<TaskId> members;
  for (const Task& t : plan->tasks) {
    if (t.kind == TaskKind::kAllReduce && t.collective_group >= 0) {
      members.push_back(t.id);
    }
  }
  if (members.empty()) {
    return false;
  }
  DropTask(plan, members[rng.NextBounded(members.size())]);
  return true;
}

constexpr int kMutationsPerClass = 100;
constexpr int kRequiredHits = 95;

enum class Mutation { kDeleteEdge, kSwapDevice, kDropParticipant };

// Seed `seed`'s plan of one mutation class, mutated; null when the draw held nothing to
// mutate (such a draw does not count).
std::unique_ptr<BuiltPlan> SeededMutant(Mutation mutation, int seed) {
  const std::uint64_t s = static_cast<std::uint64_t>(seed);
  std::unique_ptr<BuiltPlan> built;
  bool mutated = false;
  switch (mutation) {
    case Mutation::kDeleteEdge: {
      Rng rng(s * 7919 + 3);
      built = BuildPipelinePlan(rng);
      EXPECT_TRUE(built->plan.Validate().ok()) << "unmutated plan must be valid";
      mutated = MutateDeleteEdge(&built->plan, rng);
      break;
    }
    case Mutation::kSwapDevice: {
      Rng rng(s * 104729 + 17);
      built = BuildPipelinePlan(rng);
      mutated = MutateSwapDevice(&built->plan, built->registry, rng);
      break;
    }
    case Mutation::kDropParticipant: {
      Rng rng(s * 15485863 + 29);
      built = BuildCollectivePlan(rng);
      mutated = MutateDropParticipant(&built->plan, rng);
      break;
    }
  }
  return mutated ? std::move(built) : nullptr;
}

// Lints `kMutationsPerClass` seeded mutants of one class under both tiers and checks that
// at least `kRequiredHits` percent of them are flagged.
void ExpectDetected(Mutation mutation) {
  int applied = 0, detected = 0;
  for (int seed = 0; seed < kMutationsPerClass; ++seed) {
    const std::unique_ptr<BuiltPlan> built = SeededMutant(mutation, seed);
    if (built == nullptr) {
      continue;
    }
    ++applied;
    const LintReport report = DeepLint(*built, /*with_capacities=*/false);
    if (report.num_errors() > 0) {
      ++detected;
    }
  }
  ASSERT_GE(applied, kMutationsPerClass * 9 / 10)
      << "mutation generator found something to mutate too rarely";
  EXPECT_GE(detected * kMutationsPerClass, kRequiredHits * applied)
      << "detected " << detected << "/" << applied;
}

TEST(PlanLintMutation, DetectsDeletedOrderingEdges) { ExpectDetected(Mutation::kDeleteEdge); }

TEST(PlanLintMutation, DetectsSwappedDeviceBindings) { ExpectDetected(Mutation::kSwapDevice); }

TEST(PlanLintMutation, DetectsDroppedAllReduceParticipants) {
  ExpectDetected(Mutation::kDropParticipant);
}

// ---- parity: the findings' order and text are pinned -----------------------------------------

// The hand-broken plans of the PlanLintUnit cases, each linted as its test lints it.
std::vector<LintReport> UnitCaseReports() {
  std::vector<LintReport> reports;
  auto broken = [&reports](const std::function<void(TinyPlan*)>& edit,
                           std::vector<Bytes> capacities = {}) {
    TinyPlan tiny;
    edit(&tiny);
    reports.push_back(tiny.Lint(std::move(capacities)));
  };
  broken([](TinyPlan*) {});
  broken([](TinyPlan* t) { SetList(&t->plan, TaskList::kDeps, 0, {1}); });
  broken([](TinyPlan* t) {
    t->plan.tasks[1].device = 0;
    t->plan.per_device_order[0] = {1, 0};
    t->plan.per_device_order[1] = {};
  });
  broken([](TinyPlan* t) { SetList(&t->plan, TaskList::kDeps, 1, {7}); });
  broken([](TinyPlan* t) { SetList(&t->plan, TaskList::kFetch, 1, {t->act, 99}); });
  broken([](TinyPlan* t) {
    t->plan.lists[static_cast<std::size_t>(TaskList::kFetch)].offsets.pop_back();
  });
  broken([](TinyPlan* t) {
    t->plan.lists[static_cast<std::size_t>(TaskList::kDeps)].offsets.back() = 5;
  });
  broken([](TinyPlan* t) {
    t->plan.lists[static_cast<std::size_t>(TaskList::kAllocate)].offsets = {0, 2, 1};
  });
  broken([](TinyPlan* t) { SetList(&t->plan, TaskList::kFetch, 1, {t->act, t->act}); });
  broken([](TinyPlan* t) { SetList(&t->plan, TaskList::kFreeAfter, 0, {t->act, t->act}); });
  broken([](TinyPlan* t) {
    SetList(&t->plan, TaskList::kFreeAfter, 0, {t->act});
    SetList(&t->plan, TaskList::kFreeAfter, 1, {t->act});
  });
  broken([](TinyPlan* t) { SetList(&t->plan, TaskList::kFreeAfter, 0, {t->act}); });
  broken([](TinyPlan* t) { SetList(&t->plan, TaskList::kDeps, 1, {}); });
  broken([](TinyPlan*) {}, {3 * kMiB, 3 * kMiB});
  broken(AddReplicaHoleGroup);
  broken(AddCrossedGroups);
  return reports;
}

// FNV-1a, 64 bits, as 16 hex digits.
std::string Fnv1aHex(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

// Every finding the lint emits on the unit cases and on the seeded mutants of all three
// classes (cheap tier alone, then both tiers as the mutation tests run them), as JSON
// reports concatenated in that order. The digest was recorded before the cheap tier was
// rewritten over flat arrays and before tensor names became rendered on demand; both
// changes had to keep every byte of it.
TEST(PlanLintParity, FindingsMatchTheRecordedDigest) {
  std::string all;
  for (const LintReport& report : UnitCaseReports()) {
    all += report.ToJson();
    all += '\n';
  }
  for (const Mutation mutation :
       {Mutation::kDeleteEdge, Mutation::kSwapDevice, Mutation::kDropParticipant}) {
    for (int seed = 0; seed < kMutationsPerClass; ++seed) {
      const std::unique_ptr<BuiltPlan> built = SeededMutant(mutation, seed);
      if (built == nullptr) {
        continue;
      }
      LintOptions cheap;
      cheap.deep = false;
      all += LintPlan(built->plan, built->registry, cheap).ToJson();
      all += '\n';
      all += DeepLint(*built, /*with_capacities=*/false).ToJson();
      all += '\n';
    }
  }
  EXPECT_EQ(all.size(), 321730u);
  EXPECT_EQ(Fnv1aHex(all), "a0bec4bf722dc715");
}

}  // namespace
}  // namespace harmony
