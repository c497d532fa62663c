#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/graph/model_zoo.h"
#include "src/graph/plan_builder.h"
#include "src/graph/task.h"
#include "tests/plan_edit.h"

namespace harmony {
namespace {

Model SmallModel(int layers = 3, Bytes stash = 0) {
  UniformModelConfig config;
  config.num_layers = layers;
  config.param_bytes = 1000;
  config.act_bytes_per_sample = 100;
  config.stash_bytes_per_sample = stash;
  config.workspace_bytes_per_sample = 16;
  config.fwd_flops_per_sample = 1e6;
  return MakeUniformModel(config);
}

// Builds a minimal sequential single-device plan: fwd all, loss, bwd all, upd all.
Plan SequentialPlan(const Model& model, TensorRegistry* registry, int microbatches = 1,
                    bool recompute = false, int iterations = 1) {
  DecomposerOptions options;
  options.microbatches = microbatches;
  options.recompute = recompute;
  options.iterations = iterations;
  PlanBuilder builder(&model, registry, 1, options);
  const int R = model.num_layers();
  for (int it = 0; it < iterations; ++it) {
    builder.BeginIteration(it);
    for (int mb = 0; mb < microbatches; ++mb) {
      TaskId prev = kInvalidTask;
      for (int l = 0; l < R; ++l) {
        prev = builder.AddForward(0, l, l + 1, mb, 0,
                                  prev == kInvalidTask ? std::vector<TaskId>{}
                                                       : std::vector<TaskId>{prev});
      }
      prev = builder.AddLoss(0, mb, 0, {prev});
      for (int l = R - 1; l >= 0; --l) {
        prev = builder.AddBackward(0, l, l + 1, mb, 0, {prev});
      }
    }
    for (int l = 0; l < R; ++l) {
      builder.AddUpdate(0, l, l + 1, 0, {});
    }
  }
  return builder.Finish("sequential");
}

TEST(PlanBuilderTest, ForwardWorkingSetShape) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  const Task& fwd0 = plan.tasks[0];
  EXPECT_EQ(fwd0.kind, TaskKind::kForward);
  // fetch: X[0] + W[0]; allocate: X[1].
  ASSERT_EQ(plan.fetch(0).size(), 2u);
  EXPECT_EQ(plan.allocate(0).size(), 1u);
  EXPECT_EQ(registry.meta(plan.fetch(0)[0]).cls, TensorClass::kInput);
  EXPECT_EQ(registry.meta(plan.fetch(0)[1]).cls, TensorClass::kWeight);
  EXPECT_EQ(fwd0.scratch_bytes, 16);
  EXPECT_DOUBLE_EQ(fwd0.flops, 1e6);
}

TEST(PlanBuilderTest, BackwardAccumulatesGradsAndFreesStash) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  // First backward task is for the top layer (R-1).
  const Task* bwd = nullptr;
  for (const Task& task : plan.tasks) {
    if (task.kind == TaskKind::kBackward) {
      bwd = &task;
      break;
    }
  }
  ASSERT_NE(bwd, nullptr);
  EXPECT_EQ(bwd->layer_begin, 2);
  ASSERT_EQ(plan.accumulate(bwd->id).size(), 1u);
  EXPECT_EQ(registry.meta(plan.accumulate(bwd->id)[0]).cls, TensorClass::kWeightGrad);
  // frees dX[3] (the loss grad) and X[2] (its input activation).
  EXPECT_EQ(plan.free_after(bwd->id).size(), 2u);
  EXPECT_DOUBLE_EQ(bwd->flops, 2e6);
}

TEST(PlanBuilderTest, UpdateTouchesOptimizerStateAndFreesGrad) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  const Task* upd = nullptr;
  for (const Task& task : plan.tasks) {
    if (task.kind == TaskKind::kUpdate) {
      upd = &task;
    }
  }
  ASSERT_NE(upd, nullptr);
  // fetch: W, dW, K.
  EXPECT_EQ(plan.fetch(upd->id).size(), 3u);
  ASSERT_EQ(plan.free_after(upd->id).size(), 1u);
  EXPECT_EQ(registry.meta(plan.free_after(upd->id)[0]).cls, TensorClass::kWeightGrad);
  // W and K marked dirty (mutated in place).
  EXPECT_EQ(plan.dirty_outputs(upd->id).size(), 2u);
}

TEST(PlanBuilderTest, EveryEphemeralTensorFreedExactlyOnce) {
  const Model model = SmallModel(4, /*stash=*/50);
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry, /*microbatches=*/3, false,
                                   /*iterations=*/2);
  std::map<TensorId, int> freed;
  for (const Task& task : plan.tasks) {
    for (TensorId id : plan.free_after(task.id)) {
      ++freed[id];
    }
  }
  for (TensorId id = 0; id < registry.size(); ++id) {
    const TensorClass cls = registry.meta(id).cls;
    if (cls == TensorClass::kWeight || cls == TensorClass::kOptimizerState) {
      EXPECT_EQ(freed.count(id), 0u) << registry.meta(id).name;
    } else {
      EXPECT_EQ(freed[id], 1) << registry.meta(id).name << " freed " << freed[id] << " times";
    }
  }
}

TEST(PlanBuilderTest, RecomputeSkipsStashesAndAddsFlops) {
  const Model model = SmallModel(3, /*stash=*/50);
  TensorRegistry plain_reg;
  const Plan plain = SequentialPlan(model, &plain_reg, 1, /*recompute=*/false);
  TensorRegistry rc_reg;
  const Plan rc = SequentialPlan(model, &rc_reg, 1, /*recompute=*/true);

  // Recompute creates fewer tensors (no stashes)...
  EXPECT_LT(rc_reg.size(), plain_reg.size());
  EXPECT_EQ(rc_reg.TotalBytes(TensorClass::kActivation),
            plain_reg.TotalBytes(TensorClass::kActivation) -
                3 * 50);  // three stash tensors gone
  // ...and its backward tasks re-run the forward math.
  double plain_bwd = 0.0;
  double rc_bwd = 0.0;
  for (const Task& task : plain.tasks) {
    if (task.kind == TaskKind::kBackward) {
      plain_bwd += task.flops;
    }
  }
  for (const Task& task : rc.tasks) {
    if (task.kind == TaskKind::kBackward) {
      rc_bwd += task.flops;
    }
  }
  EXPECT_GT(rc_bwd, plain_bwd);
}

TEST(PlanBuilderTest, PackedForwardCoversLayerRange) {
  const Model model = SmallModel(4);
  TensorRegistry registry;
  DecomposerOptions options;
  PlanBuilder builder(&model, &registry, 1, options);
  builder.BeginIteration(0);
  const TaskId id = builder.AddForward(0, 0, 4, 0, 0, {});
  Plan plan = builder.Finish("packed");
  const Task& task = plan.tasks[static_cast<std::size_t>(id)];
  // fetch: X[0] + 4 weights; allocate: X[1..4].
  EXPECT_EQ(plan.fetch(task.id).size(), 5u);
  EXPECT_EQ(plan.allocate(task.id).size(), 4u);
  EXPECT_DOUBLE_EQ(task.flops, 4e6);
}

TEST(PlanBuilderTest, MicrobatchSizeScalesTensorsAndFlops) {
  const Model model = SmallModel();
  TensorRegistry registry;
  DecomposerOptions options;
  options.microbatch_size = 8;
  PlanBuilder builder(&model, &registry, 1, options);
  builder.BeginIteration(0);
  const TaskId id = builder.AddForward(0, 0, 1, 0, 0, {});
  Plan plan = builder.Finish("scaled");
  const Task& task = plan.tasks[static_cast<std::size_t>(id)];
  EXPECT_DOUBLE_EQ(task.flops, 8e6);
  EXPECT_EQ(registry.meta(plan.allocate(task.id)[0]).bytes, 800);
  EXPECT_EQ(plan.samples_per_iteration, 8);
}

TEST(PlanBuilderTest, WeightsSharedAcrossIterationsGradsAreNot) {
  const Model model = SmallModel();
  TensorRegistry registry;
  DecomposerOptions options;
  options.iterations = 2;
  PlanBuilder builder(&model, &registry, 1, options);
  builder.BeginIteration(0);
  const TensorId w0 = builder.Weight(0, 0);
  const TensorId g0 = builder.WeightGrad(0, 0);
  builder.BeginIteration(1);
  EXPECT_EQ(builder.Weight(0, 0), w0);
  EXPECT_NE(builder.WeightGrad(0, 0), g0);
}

TEST(PlanValidateTest, AcceptsWellFormedPlan) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry, 2);
  EXPECT_TRUE(plan.Validate().ok());
}

TEST(PlanValidateTest, RejectsTaskQueuedTwice) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  plan.per_device_order[0].push_back(plan.per_device_order[0].front());
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanValidateTest, RejectsMissingTask) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  plan.per_device_order[0].pop_back();
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanValidateTest, RejectsDependencyCycle) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  // Task 0 depends on the last task: cycle through the queue edges.
  ASSERT_TRUE(plan.deps(0).empty());
  SetList(&plan, TaskList::kDeps, 0, {plan.tasks.back().id});
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanValidateTest, RejectsMisshapenListStorage) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  plan.lists[static_cast<std::size_t>(TaskList::kFetch)].offsets.pop_back();
  const Status status = plan.Validate();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("fetch list"), std::string::npos) << status.ToString();
}

TEST(PlanValidateTest, RejectsWrongDeviceInQueue) {
  const Model model = SmallModel();
  TensorRegistry registry;
  Plan plan = SequentialPlan(model, &registry);
  plan.per_device_order.emplace_back();  // phantom device 1
  plan.per_device_order[1].push_back(plan.per_device_order[0].back());
  plan.per_device_order[0].pop_back();
  EXPECT_FALSE(plan.Validate().ok());
}

// A plan's lists are flat arrays, so a finished plan holds no per-task heap blocks: every
// list of every task lives in one of six columns, one run per task in task order.
TEST(PlanTest, ListsAreOneRunPerTaskInTaskOrder) {
  const Model model = SmallModel(3, /*stash=*/50);
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry, /*microbatches=*/2, false,
                                   /*iterations=*/2);
  ASSERT_TRUE(plan.CheckListShape().ok());
  for (const IdColumn& column : plan.lists) {
    ASSERT_EQ(column.offsets.size(), plan.tasks.size() + 1);
    EXPECT_EQ(column.offsets.back(), column.ids.size());
  }
  std::size_t entries = 0;
  for (const Task& task : plan.tasks) {
    for (int l = 0; l < kNumTaskLists; ++l) {
      entries += plan.list(static_cast<TaskList>(l), task.id).size();
    }
  }
  std::size_t stored = 0;
  for (const IdColumn& column : plan.lists) {
    stored += column.ids.size();
  }
  EXPECT_EQ(entries, stored);
}

// AddDep and FreeAfter may name any earlier task; Finish folds those late entries in after
// the task's own entries, in call order, and leaves every other task's list untouched.
TEST(PlanTest, LateAppendsLandAfterTheTasksOwnEntriesInCallOrder) {
  const Model model = SmallModel();
  TensorRegistry registry;
  DecomposerOptions options;
  options.microbatches = 2;
  PlanBuilder builder(&model, &registry, 2, options);
  builder.BeginIteration(0);
  const TaskId a = builder.AddForward(0, 0, 1, 0, 0, {});
  const TaskId b = builder.AddForward(1, 0, 1, 1, 0, {});
  const TaskId c = builder.AddForward(0, 1, 2, 0, 0, {a});
  const TaskId d = builder.AddForward(1, 1, 2, 1, 0, {b});
  // Baseline-pp style: an edge to an earlier task, added once later tasks exist.
  builder.AddDep(c, d);
  builder.AddDep(a, b);
  builder.AddDep(c, b);
  // Serving style: frees appended to tasks that are no longer the newest.
  const TensorId x1 = builder.Activation(1, 0, 0);
  const TensorId x0 = builder.Activation(0, 0, 0);
  builder.FreeAfter(c, x1);
  builder.FreeAfter(a, x0);
  const Plan plan = builder.Finish("late");

  ASSERT_TRUE(plan.CheckListShape().ok());
  EXPECT_EQ(std::vector<TaskId>(plan.deps(a).begin(), plan.deps(a).end()),
            std::vector<TaskId>({b}));
  EXPECT_TRUE(plan.deps(b).empty());
  EXPECT_EQ(std::vector<TaskId>(plan.deps(c).begin(), plan.deps(c).end()),
            std::vector<TaskId>({a, d, b}));
  EXPECT_EQ(std::vector<TaskId>(plan.deps(d).begin(), plan.deps(d).end()),
            std::vector<TaskId>({b}));
  EXPECT_EQ(std::vector<TensorId>(plan.free_after(a).begin(), plan.free_after(a).end()),
            std::vector<TensorId>({x0}));
  EXPECT_EQ(std::vector<TensorId>(plan.free_after(c).begin(), plan.free_after(c).end()),
            std::vector<TensorId>({x1}));
  EXPECT_TRUE(plan.free_after(b).empty());
  EXPECT_TRUE(plan.free_after(d).empty());
  // The other lists are untouched by the fold.
  EXPECT_EQ(plan.fetch(c).size(), 2u);
  EXPECT_EQ(plan.fetch(c)[0], x1);
}

// Serving frees each stage's input after the stage reads it, and the last stage also frees
// the logits it produced: both frees arrive through FreeAfter, in that order.
TEST(PlanTest, ServingFreesLandInCallOrder) {
  const Model model = SmallModel(4);
  ServerConfig server;
  server.num_gpus = 2;
  const Machine machine = MakeCommodityServer(server);
  TensorRegistry registry;
  ServingPlanOptions options;
  options.requests = 2;
  options.batches = 2;
  const Plan plan = BuildServingPlan(model, machine, &registry, options);
  ASSERT_TRUE(plan.Validate().ok());
  for (const Task& task : plan.tasks) {
    const std::span<const TensorId> frees = plan.free_after(task.id);
    const bool last_stage = task.layer_end == model.num_layers();
    ASSERT_EQ(frees.size(), last_stage ? 2u : 1u) << task.DebugName();
    EXPECT_EQ(frees[0], plan.fetch(task.id)[0]) << task.DebugName();
    if (last_stage) {
      EXPECT_EQ(frees[1], plan.allocate(task.id).back()) << task.DebugName();
    }
  }
}

TEST(PlanTest, PeakTaskWorkingSet) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  const auto peaks = plan.PeakTaskWorkingSet(registry);
  ASSERT_EQ(peaks.size(), 1u);
  // The heaviest single task working set is a few KB in this toy model.
  EXPECT_GT(peaks[0], 1000);
  EXPECT_LT(peaks[0], 10000);
}

TEST(PlanTest, StatsCountsKinds) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry, 2);
  const std::string stats = plan.Stats();
  EXPECT_NE(stats.find("6 fwd"), std::string::npos);
  EXPECT_NE(stats.find("2 loss"), std::string::npos);
  EXPECT_NE(stats.find("6 bwd"), std::string::npos);
  EXPECT_NE(stats.find("3 upd"), std::string::npos);
}

TEST(PlanTest, DebugNameIsReadable) {
  const Model model = SmallModel();
  TensorRegistry registry;
  const Plan plan = SequentialPlan(model, &registry);
  EXPECT_NE(plan.tasks[0].DebugName().find("FWD[L0]"), std::string::npos);
  EXPECT_NE(plan.tasks[0].DebugName().find("@gpu0"), std::string::npos);
}

}  // namespace
}  // namespace harmony
