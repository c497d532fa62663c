#include <gtest/gtest.h>

#include "src/graph/model_zoo.h"
#include "src/graph/plan_builder.h"
#include "src/hw/transfer_manager.h"
#include "src/mem/memory_manager.h"
#include "src/runtime/collective.h"
#include "src/runtime/demand.h"
#include "src/runtime/engine.h"
#include "src/sim/simulator.h"

namespace harmony {
namespace {

// ---- CollectiveEngine ----------------------------------------------------------------------

class CollectiveTest : public ::testing::Test {
 protected:
  CollectiveTest() {
    ServerConfig config;
    config.num_gpus = 4;
    topo_ = MakeCommodityServerTopology(config);
    tm_ = std::make_unique<TransferManager>(&sim_, &topo_);
    collective_ = std::make_unique<CollectiveEngine>(&sim_, tm_.get());
  }

  Simulator sim_;
  Topology topo_;
  std::unique_ptr<TransferManager> tm_;
  std::unique_ptr<CollectiveEngine> collective_;
};

TEST_F(CollectiveTest, SingleParticipantCompletesImmediately) {
  bool done = false;
  collective_->Arrive(0, 0, 1000, 1, [&] { done = true; });
  sim_.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_EQ(tm_->bytes_by_kind(TransferKind::kCollective), 0);
}

TEST_F(CollectiveTest, WaitsForAllParticipants) {
  int completions = 0;
  collective_->Arrive(1, 0, 1000, 3, [&] { ++completions; });
  collective_->Arrive(1, 1, 1000, 3, [&] { ++completions; });
  sim_.RunUntilIdle();
  EXPECT_EQ(completions, 0);
  collective_->Arrive(1, 2, 1000, 3, [&] { ++completions; });
  sim_.RunUntilIdle();
  EXPECT_EQ(completions, 3);
}

TEST_F(CollectiveTest, RingCostMatchesFormula) {
  // Ring all-reduce of B bytes over N GPUs: 2(N-1) rounds of B/N bytes; with disjoint ring
  // links each round takes (B/N)/bw, so total = 2(N-1)/N * B / bw.
  const Bytes bytes = static_cast<Bytes>(GBps(12.8));  // 1 s at full bandwidth
  double end_time = -1.0;
  for (int g = 0; g < 4; ++g) {
    collective_->Arrive(7, g, bytes, 4, [&] { end_time = sim_.now(); });
  }
  sim_.RunUntilIdle();
  EXPECT_NEAR(end_time, 2.0 * 3.0 / 4.0, 0.02);
  // Bytes moved: 2(N-1) rounds * N flows * B/N per flow = 2(N-1) * B.
  EXPECT_NEAR(static_cast<double>(tm_->bytes_by_kind(TransferKind::kCollective)),
              6.0 * static_cast<double>(bytes), 64.0);
}

TEST_F(CollectiveTest, ZeroBytesCompletesWithoutFlows) {
  int completions = 0;
  for (int g = 0; g < 4; ++g) {
    collective_->Arrive(9, g, 0, 4, [&] { ++completions; });
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(completions, 4);
  EXPECT_EQ(tm_->flows_completed(), 0);
}

TEST_F(CollectiveTest, IndependentGroupsDoNotInterfere) {
  int done_a = 0;
  int done_b = 0;
  collective_->Arrive(10, 0, 100, 2, [&] { ++done_a; });
  collective_->Arrive(11, 2, 100, 2, [&] { ++done_b; });
  collective_->Arrive(11, 3, 100, 2, [&] { ++done_b; });
  sim_.RunUntilIdle();
  EXPECT_EQ(done_a, 0);  // group 10 still waiting
  EXPECT_EQ(done_b, 2);
}

// ---- Engine --------------------------------------------------------------------------------

struct EngineHarness {
  explicit EngineHarness(int num_gpus, Bytes capacity, MemoryPolicy policy,
                         double gpu_flops = 1e9) {
    ServerConfig server;
    server.num_gpus = num_gpus;
    machine = MakeCommodityServer(server);
    for (auto& gpu : machine.gpus) {
      gpu = TestGpu(capacity, gpu_flops);
    }
    transfers = std::make_unique<TransferManager>(&sim, &machine.topology);
    memory = std::make_unique<MemorySystem>(
        &sim, transfers.get(), &registry, &machine.topology,
        std::vector<Bytes>(static_cast<std::size_t>(num_gpus), capacity), policy);
    collective = std::make_unique<CollectiveEngine>(&sim, transfers.get());
  }

  RunReport Run(const Plan& plan, EngineOptions options = {}) {
    engine = std::make_unique<Engine>(&sim, &machine, memory.get(), transfers.get(),
                                      collective.get(), &plan, options);
    return engine->Run();
  }

  Simulator sim;
  Machine machine;
  TensorRegistry registry;
  std::unique_ptr<TransferManager> transfers;
  std::unique_ptr<MemorySystem> memory;
  std::unique_ptr<CollectiveEngine> collective;
  std::unique_ptr<Engine> engine;
};

Model TinyModel() {
  UniformModelConfig config;
  config.num_layers = 3;
  config.param_bytes = 1 * kMiB;
  config.act_bytes_per_sample = 256 * kKiB;
  config.fwd_flops_per_sample = 1e8;  // 0.1 s per fwd task at 1 GFLOP/s
  config.optimizer_state_factor = 1.0;
  return MakeUniformModel(config);
}

Plan TinySequentialPlan(const Model& model, TensorRegistry* registry, int iterations = 1) {
  DecomposerOptions options;
  options.iterations = iterations;
  PlanBuilder builder(&model, registry, 1, options);
  for (int it = 0; it < iterations; ++it) {
    builder.BeginIteration(it);
    TaskId prev = kInvalidTask;
    for (int l = 0; l < model.num_layers(); ++l) {
      prev = builder.AddForward(0, l, l + 1, 0, 0,
                                prev == kInvalidTask ? std::vector<TaskId>{}
                                                     : std::vector<TaskId>{prev});
    }
    prev = builder.AddLoss(0, 0, 0, {prev});
    for (int l = model.num_layers() - 1; l >= 0; --l) {
      prev = builder.AddBackward(0, l, l + 1, 0, 0, {prev});
    }
    for (int l = 0; l < model.num_layers(); ++l) {
      builder.AddUpdate(0, l, l + 1, 0, {prev});
    }
  }
  return builder.Finish("tiny-seq");
}

TEST(EngineTest, ExecutesAllTasksAndReportsBusyTime) {
  const Model model = TinyModel();
  EngineHarness h(1, 64 * kMiB, HarmonyPolicy());
  const Plan plan = TinySequentialPlan(model, &h.registry);
  const RunReport report = h.Run(plan);
  ASSERT_EQ(report.iterations.size(), 1u);
  // 3 fwd @0.1s + 3 bwd @0.2s + small loss/update ~= 0.9 s of compute.
  EXPECT_NEAR(report.device_busy[0], 0.9, 0.05);
  EXPECT_GT(report.makespan, report.device_busy[0]);  // swap time adds up
}

TEST(EngineTest, TimelineRespectsDependencies) {
  const Model model = TinyModel();
  EngineHarness h(1, 64 * kMiB, HarmonyPolicy());
  const Plan plan = TinySequentialPlan(model, &h.registry);
  EngineOptions options;
  options.record_timeline = true;
  h.Run(plan, options);
  const auto& timeline = h.engine->timeline();
  ASSERT_EQ(timeline.size(), plan.tasks.size());
  std::map<TaskId, double> start, end;
  for (const TaskTrace& trace : timeline) {
    start[trace.task] = trace.start;
    end[trace.task] = trace.end;
  }
  for (const Task& task : plan.tasks) {
    for (TaskId dep : plan.deps(task.id)) {
      EXPECT_GE(start[task.id], end[dep]) << task.DebugName();
    }
  }
}

TEST(EngineTest, SwapsWhenModelExceedsCapacity) {
  const Model model = TinyModel();  // ~3 MiB weights + grads + opt
  EngineHarness tight(1, 4 * kMiB, HarmonyPolicy());
  const Plan plan = TinySequentialPlan(model, &tight.registry);
  const RunReport report = tight.Run(plan);
  EXPECT_GT(report.total_swap_in, 0);

  EngineHarness roomy(1, 64 * kMiB, HarmonyPolicy());
  const Plan plan2 = TinySequentialPlan(model, &roomy.registry);
  const RunReport report2 = roomy.Run(plan2);
  EXPECT_LT(report2.total_swap_out, report.total_swap_out);
  EXPECT_LT(report2.makespan, report.makespan);
}

TEST(EngineTest, MultipleIterationsProduceSteadyStats) {
  const Model model = TinyModel();
  EngineHarness h(1, 8 * kMiB, HarmonyPolicy());
  const Plan plan = TinySequentialPlan(model, &h.registry, /*iterations=*/4);
  const RunReport report = h.Run(plan);
  ASSERT_EQ(report.iterations.size(), 4u);
  for (const IterationStats& it : report.iterations) {
    EXPECT_GT(it.duration(), 0.0);
  }
  // Interior iterations stay within a narrow band of each other (exact periodicity is not
  // guaranteed at marginal pressure: LRU state can alternate between iterations).
  const Bytes a = report.iterations[1].swap_in;
  const Bytes b = report.iterations[2].swap_in;
  EXPECT_GT(a, 0);
  EXPECT_GT(b, 0);
  EXPECT_LE(std::max(a, b), 2 * std::min(a, b));
  EXPECT_GT(report.steady_throughput(), 0.0);
}

TEST(EngineTest, PrefetchOverlapsAndNeverChangesResults) {
  const Model model = TinyModel();
  EngineHarness plain(1, 8 * kMiB, HarmonyPolicy());
  const Plan plan1 = TinySequentialPlan(model, &plain.registry, 2);
  EngineOptions no_prefetch;
  no_prefetch.prefetch = false;
  const RunReport without = plain.Run(plan1, no_prefetch);

  EngineHarness pf(1, 8 * kMiB, HarmonyPolicy());
  const Plan plan2 = TinySequentialPlan(model, &pf.registry, 2);
  EngineOptions with_prefetch;
  with_prefetch.prefetch = true;
  const RunReport with = pf.Run(plan2, with_prefetch);

  // Same work either way; prefetch should not be slower.
  EXPECT_LE(with.makespan, without.makespan + 1e-9);
}

// Only lookahead eviction consults the next-use oracle, so the engine builds the index and
// installs the oracle under that policy alone; an LRU run carries neither.
TEST(EngineTest, InstallsNextUseOracleOnlyUnderLookahead) {
  const Model model = TinyModel();
  for (const EvictionPolicy eviction : {EvictionPolicy::kLru, EvictionPolicy::kLookahead}) {
    MemoryPolicy policy = HarmonyPolicy();
    policy.eviction = eviction;
    EngineHarness h(1, 4 * kMiB, policy);
    const Plan plan = TinySequentialPlan(model, &h.registry, /*iterations=*/2);
    ASSERT_EQ(h.memory->next_use_oracle(), nullptr);
    h.engine = std::make_unique<Engine>(&h.sim, &h.machine, h.memory.get(), h.transfers.get(),
                                        h.collective.get(), &plan);
    const bool lookahead = eviction == EvictionPolicy::kLookahead;
    EXPECT_EQ(h.memory->next_use_oracle() != nullptr, lookahead);
    const RunReport report = h.engine->Run();
    EXPECT_GT(report.total_swap_in, 0);  // evictions ran under both policies
  }
}

TEST(EngineDeathTest, MissingDependencyDataIsFatal) {
  const Model model = TinyModel();
  EngineHarness h(1, 64 * kMiB, HarmonyPolicy());
  DecomposerOptions options;
  PlanBuilder builder(&model, &h.registry, 1, options);
  builder.BeginIteration(0);
  // Backward without any forward: the stashed activation has no valid copy anywhere.
  builder.AddBackward(0, 2, 3, 0, 0, {});
  const Plan plan = builder.Finish("broken");
  EXPECT_DEATH(h.Run(plan), "no valid copy");
}

// ---- Demand analysis -----------------------------------------------------------------------

TEST(DemandTest, SequentialDemandMatchesLiveSetIntuition) {
  const Model model = TinyModel();
  TensorRegistry registry;
  const Plan plan = TinySequentialPlan(model, &registry);
  const auto demand = ComputeMemoryDemand(plan, registry);
  ASSERT_EQ(demand.size(), 1u);
  // At least weights+grads+opt of one layer plus activations; at most the whole model state.
  EXPECT_GT(demand[0], model.total_param_bytes());
  EXPECT_LE(demand[0], model.SingleDeviceFootprint(1, 1) + model.total_param_bytes());
}

TEST(DemandTest, DemandGrowsWithMicrobatches) {
  const Model model = TinyModel();
  auto demand_for = [&](int microbatches) {
    TensorRegistry registry;
    DecomposerOptions options;
    options.microbatches = microbatches;
    PlanBuilder builder(&model, &registry, 1, options);
    builder.BeginIteration(0);
    std::vector<TaskId> last_bwd;
    for (int mb = 0; mb < microbatches; ++mb) {
      TaskId prev = kInvalidTask;
      for (int l = 0; l < model.num_layers(); ++l) {
        prev = builder.AddForward(0, l, l + 1, mb, 0,
                                  prev == kInvalidTask ? std::vector<TaskId>{}
                                                       : std::vector<TaskId>{prev});
      }
    }
    const Plan plan = builder.Finish("fwd-only");
    return ComputeMemoryDemand(plan, registry)[0];
  };
  EXPECT_GT(demand_for(4), demand_for(1));
}

}  // namespace
}  // namespace harmony
