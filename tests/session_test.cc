// Tests for the session-level surface and the newer mechanisms: PrepareSession and the
// one-iteration fit probe, the performance tuner, schedule rendering and trace export,
// multi-server topologies, partial input-batch grouping, the pack balancers, flag parsing,
// and defragmentation.
#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "src/core/packer.h"
#include "src/core/schedule_render.h"
#include "src/core/session.h"
#include "src/core/tuner.h"
#include "src/graph/model_zoo.h"
#include "src/runtime/cluster_scheduler.h"
#include "src/runtime/report_io.h"
#include "src/runtime/trace_export.h"
#include "src/util/flags.h"
#include "src/util/rng.h"
#include "src/util/text_file.h"
#include "tests/plan_edit.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

Model TightModel(int layers = 8) {
  UniformModelConfig config;
  config.num_layers = layers;
  config.param_bytes = 8 * kMiB;
  config.act_bytes_per_sample = 2 * kMiB;
  config.optimizer_state_factor = 1.0;
  config.fwd_flops_per_sample = 1e9;
  return MakeUniformModel(config);
}

SessionConfig TightConfig(Scheme scheme, int n_gpus, int microbatches) {
  SessionConfig config;
  config.server.num_gpus = n_gpus;
  config.server.gpu = TestGpu(26 * kMiB, TFlops(1.0));
  config.scheme = scheme;
  config.microbatches = microbatches;
  config.iterations = 3;
  config.prefetch = false;
  return config;
}

// ---- PrepareSession and the one-iteration fit probe ------------------------------------------

// Per-device peak task working set of `config`'s plan built at `iterations` iterations.
std::vector<Bytes> PlanPeaks(const Model& model, SessionConfig config, int iterations) {
  config.iterations = iterations;
  const Machine machine = MakeSessionMachine(config);
  TensorRegistry registry;
  return BuildPlanForConfig(model, machine, &registry, config).PeakTaskWorkingSet(registry);
}

// Validation's fit probe builds one iteration. That is sound only if every iteration's
// tasks have the same working sets, so the peaks must not move with the iteration count.
void ExpectPeaksIndependentOfIterations(const Model& model, const SessionConfig& config) {
  const std::vector<Bytes> one = PlanPeaks(model, config, 1);
  EXPECT_EQ(ProbePeakWorkingSet(model, config), one);
  for (int iterations : {2, 3, 5}) {
    EXPECT_EQ(PlanPeaks(model, config, iterations), one) << "iterations=" << iterations;
  }
}

TEST(FitProbeTest, PeaksIgnoreIterationCountOnTheFuzzGrid) {
  for (int seed = 0; seed < 40; ++seed) {  // fuzz_test's RandomRunTest draws
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 17);
    const Model model = test_models::RandomUniformModel(rng, test_models::FuzzModelRanges());
    const SessionConfig config = test_models::RandomFuzzSession(rng, model.num_layers());
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " + SchemeName(config.scheme));
    ExpectPeaksIndependentOfIterations(model, config);
  }
}

TEST(FitProbeTest, PeaksIgnoreIterationCountOnTheModelZoo) {
  for (const char* name : {"lenet", "alexnet", "gnmt", "amoebanet", "bert-base", "bert-large",
                           "gpt2-xl", "toy"}) {
    const Model model = ModelByName(name).value();
    for (Scheme scheme : {Scheme::kBaselineDp, Scheme::kBaselinePp, Scheme::kHarmonyDp,
                          Scheme::kHarmonyPp, Scheme::kHarmonyTp, Scheme::kServing}) {
      for (int nodes : {1, 2}) {
        SessionConfig config;
        config.scheme = scheme;
        config.num_nodes = nodes;
        config.microbatches = 2;
        config.microbatch_size = 2;
        config.pack_size = 2;
        if ((scheme == Scheme::kBaselinePp || scheme == Scheme::kServing) &&
            model.num_layers() < config.total_gpus()) {
          continue;  // one pipeline stage per GPU needs a layer per GPU
        }
        SCOPED_TRACE(std::string(name) + ", " + SchemeName(scheme) + ", " +
                     std::to_string(nodes) + " node(s)");
        ExpectPeaksIndependentOfIterations(model, config);
      }
    }
  }
}

// ---- tensor names ------------------------------------------------------------------------

// The expressions PlanBuilder used to spell each name with, back when every tensor stored
// its name: the oracle for TensorRegistry::name. X and dX were created with
// meta.layer = layer - 1.
std::string BuilderName(const Model& model, const TensorMeta& m) {
  const std::string r = std::to_string(m.replica_gpu);
  const std::string i = std::to_string(m.iteration);
  switch (m.form) {
    case TensorNameForm::kWeight:
      return "W[" + model.layer(m.layer).name + "]r" + r;
    case TensorNameForm::kOptState:
      return "K[" + model.layer(m.layer).name + "]r" + r;
    case TensorNameForm::kWeightGrad:
      return "dW[" + model.layer(m.layer).name + "]r" + r + "i" + i;
    case TensorNameForm::kActivation:
      return "X" + std::to_string(m.layer + 1) + "mb" + std::to_string(m.microbatch) + "r" + r +
             "i" + i;
    case TensorNameForm::kActivationGrad:
      return "dX" + std::to_string(m.layer + 1) + "mb" + std::to_string(m.microbatch) + "r" +
             r + "i" + i;
    case TensorNameForm::kStash:
      return "S" + std::to_string(m.layer) + "mb" + std::to_string(m.microbatch) + "r" + r +
             "i" + i;
    case TensorNameForm::kLiteral:
      break;
  }
  return "<literal>";
}

// The class each generated form is created with.
bool FormMatchesClass(const TensorMeta& m) {
  switch (m.form) {
    case TensorNameForm::kWeight:
      return m.cls == TensorClass::kWeight;
    case TensorNameForm::kOptState:
      return m.cls == TensorClass::kOptimizerState;
    case TensorNameForm::kWeightGrad:
      return m.cls == TensorClass::kWeightGrad;
    case TensorNameForm::kActivation:
      return m.cls == (m.layer < 0 ? TensorClass::kInput : TensorClass::kActivation);
    case TensorNameForm::kActivationGrad:
      return m.cls == TensorClass::kActivationGrad;
    case TensorNameForm::kStash:
      return m.cls == TensorClass::kActivation;
    case TensorNameForm::kLiteral:
      break;
  }
  return false;
}

// Every tensor of every plan on FitProbeTest's zoo grid, plus a 12-replica, 11-iteration
// point for multi-digit numbers, renders the name the builder used to store. Forward tasks
// also pin the names to the plan's structure: a forward fetches X[layer_begin] of its own
// microbatch, replica and iteration, then W of each layer it covers.
TEST(TensorNameTest, RenderedNamesMatchTheBuilderSpelling) {
  struct Point {
    const char* model;
    Scheme scheme;
    int nodes;
    int iterations;
  };
  std::vector<Point> grid;
  for (const char* name : {"lenet", "alexnet", "gnmt", "amoebanet", "bert-base", "bert-large",
                           "gpt2-xl", "toy"}) {
    for (Scheme scheme : {Scheme::kBaselineDp, Scheme::kBaselinePp, Scheme::kHarmonyDp,
                          Scheme::kHarmonyPp, Scheme::kHarmonyTp, Scheme::kServing}) {
      for (int nodes : {1, 2}) {
        grid.push_back({name, scheme, nodes, 3});
      }
    }
  }
  grid.push_back({"lenet", Scheme::kHarmonyDp, 3, 11});

  std::set<TensorNameForm> forms;
  bool input = false, multi_digit_replica = false, multi_digit_iteration = false;
  for (const Point& point : grid) {
    const Model model = ModelByName(point.model).value();
    SessionConfig config;
    config.scheme = point.scheme;
    config.num_nodes = point.nodes;
    config.iterations = point.iterations;
    config.microbatches = 2;
    config.microbatch_size = 2;
    config.pack_size = 2;
    if ((point.scheme == Scheme::kBaselinePp || point.scheme == Scheme::kServing) &&
        model.num_layers() < config.total_gpus()) {
      continue;  // one pipeline stage per GPU needs a layer per GPU
    }
    SCOPED_TRACE(std::string(point.model) + ", " + SchemeName(point.scheme) + ", " +
                 std::to_string(point.nodes) + " node(s)");
    TensorRegistry registry;
    const TensorId literal =
        registry.Create("loader-batch", kMiB, TensorClass::kInput, /*host_valid=*/true);
    const Plan plan =
        BuildPlanForConfig(model, MakeSessionMachine(config), &registry, config);
    ASSERT_EQ(registry.name(literal), "loader-batch");
    for (TensorId id = literal + 1; id < registry.size(); ++id) {
      const TensorMeta& m = registry.meta(id);
      ASSERT_NE(m.form, TensorNameForm::kLiteral) << "tensor " << id;
      EXPECT_TRUE(FormMatchesClass(m)) << registry.name(id);
      ASSERT_EQ(registry.name(id), BuilderName(model, m)) << "tensor " << id;
      forms.insert(m.form);
      input = input || (m.form == TensorNameForm::kActivation && m.layer == -1);
      multi_digit_replica = multi_digit_replica || m.replica_gpu >= 10;
      multi_digit_iteration = multi_digit_iteration || m.iteration >= 10;
    }
    for (const Task& t : plan.tasks) {
      if (t.kind != TaskKind::kForward) {
        continue;
      }
      const std::span<const TensorId> fetch = plan.fetch(t.id);
      const std::string r = "r" + std::to_string(t.replica);
      ASSERT_EQ(fetch.size(), static_cast<std::size_t>(1 + t.layer_end - t.layer_begin));
      EXPECT_EQ(registry.name(fetch[0]), "X" + std::to_string(t.layer_begin) + "mb" +
                                             std::to_string(t.microbatch) + r + "i" +
                                             std::to_string(t.iteration));
      for (int l = t.layer_begin; l < t.layer_end; ++l) {
        EXPECT_EQ(registry.name(fetch[static_cast<std::size_t>(1 + l - t.layer_begin)]),
                  "W[" + model.layer(l).name + "]" + r);
      }
    }
  }
  EXPECT_EQ(forms.size(), 6u) << "every generated form is reached";
  EXPECT_TRUE(input) << "the layer-0 input X0 is reached";
  EXPECT_TRUE(multi_digit_replica);
  EXPECT_TRUE(multi_digit_iteration);
}

TEST(PrepareSessionTest, RunExecutesThePreparedPlan) {
  const Model model = TightModel();
  const SessionConfig config = TightConfig(Scheme::kHarmonyPp, 2, 4);
  StatusOr<PreparedSession> prepared = PrepareSession(model, config);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const Task* tasks = prepared.value().plan.tasks.data();
  const std::size_t num_tasks = prepared.value().plan.tasks.size();
  const std::vector<Bytes> peaks = prepared.value().peak_task_working_set;
  EXPECT_EQ(peaks, ProbePeakWorkingSet(model, config));

  const SessionResult result = RunTraining(std::move(prepared).value());
  EXPECT_EQ(result.plan.tasks.data(), tasks) << "the run built a plan of its own";
  EXPECT_EQ(result.plan.tasks.size(), num_tasks);
  EXPECT_EQ(result.peak_task_working_set, peaks);
  EXPECT_EQ(ReportToJson(result.report), ReportToJson(RunTraining(model, config).report));
}

TEST(PrepareSessionTest, RejectsWhatValidationRejectsWithTheSameError) {
  const Model model = test_models::FaultModel();
  std::vector<SessionConfig> invalid;
  const auto add = [&invalid](const std::function<void(SessionConfig*)>& edit) {
    SessionConfig config = test_models::FaultConfig(2, 4);
    edit(&config);
    invalid.push_back(config);
  };
  // fault_test: fault targets outside the machine.
  add([](SessionConfig* c) {
    c->faults.Add(FaultEvent{1.0, FaultKind::kGpuFailStop, 5, 1.0, 0.0});
  });
  add([](SessionConfig* c) { c->faults = ParseFaultSpec("flow_flap@1:nic0").value(); });
  add([](SessionConfig* c) {
    c->num_nodes = 2;
    c->scheme = Scheme::kHarmonyDp;
    c->microbatches = 2;
    c->faults = ParseFaultSpec("brownout@1:rack1:0.5:1").value();
  });
  // resilience_test: bad resilience knobs.
  add([](SessionConfig* c) { c->retry_max = -1; });
  add([](SessionConfig* c) { c->ckpt_keep = 0; });
  add([](SessionConfig* c) { c->straggler_threshold = 0.5; });
  add([](SessionConfig* c) { c->faults = ParseFaultSpec("gpu_slow@1:gpu7:0.5:1").value(); });
  // The shape checks see the real iteration count; the fit check sees the working sets.
  add([](SessionConfig* c) { c->iterations = 0; });
  add([](SessionConfig* c) { c->server.gpu = TestGpu(4 * kMiB, TFlops(1.0)); });
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    const Status validated = ValidateSessionConfig(model, invalid[i]);
    const StatusOr<PreparedSession> prepared = PrepareSession(model, invalid[i]);
    ASSERT_FALSE(validated.ok()) << "case " << i;
    ASSERT_FALSE(prepared.ok()) << "case " << i;
    EXPECT_EQ(prepared.status().ToString(), validated.ToString()) << "case " << i;
  }
  EXPECT_TRUE(PrepareSession(model, test_models::FaultConfig(2, 4)).ok());
}

TEST(PrepareSessionTest, BaselinePpNeedsALayerPerStage) {
  // One 1F1B stage per GPU: 8 GPUs over a 4-layer model would leave stages empty.
  const Model model = TightModel(4);
  for (const auto& [gpus, nodes] : {std::pair{8, 1}, std::pair{4, 2}}) {
    SessionConfig config = TightConfig(Scheme::kBaselinePp, gpus, 8);
    config.num_nodes = nodes;
    const Status status = ValidateSessionConfig(model, config);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("baseline-pp needs at least one layer per pipeline "
                                    "stage: model has 4 layers but the machine has 8 GPUs"),
              std::string::npos)
        << status.ToString();
    EXPECT_EQ(PrepareSession(model, config).status().ToString(), status.ToString());
  }
  EXPECT_TRUE(ValidateSessionConfig(model, TightConfig(Scheme::kBaselinePp, 4, 8)).ok());
}

// ---- Scheme names ---------------------------------------------------------------------------

// The names in `message` between `before` and the next ')', a ", "-separated list whose last
// entry may read "or <name>".
std::vector<std::string> ListedSchemes(const std::string& message, const std::string& before) {
  const std::size_t begin = message.find(before);
  if (begin == std::string::npos) {
    return {};
  }
  const std::size_t start = begin + before.size();
  std::string list = message.substr(start, message.find(')', start) - start);
  std::vector<std::string> names;
  for (std::size_t pos = 0; pos <= list.size();) {
    const std::size_t comma = std::min(list.find(", ", pos), list.size());
    std::string name = list.substr(pos, comma - pos);
    names.push_back(name.starts_with("or ") ? name.substr(3) : name);
    pos = comma + 2;
  }
  return names;
}

TEST(SchemeNameTest, EveryEntryRoundTripsAndBothMessagesListTheTable) {
  std::vector<std::string> all;
  std::vector<std::string> training;
  for (const SchemeNameEntry& entry : kSchemeNames) {
    EXPECT_STREQ(SchemeName(entry.scheme), entry.name);
    const StatusOr<Scheme> back = SchemeByName(SchemeName(entry.scheme));
    ASSERT_TRUE(back.ok()) << entry.name;
    EXPECT_EQ(back.value(), entry.scheme) << entry.name;
    all.emplace_back(entry.name);
    if (entry.scheme != Scheme::kServing) {
      training.emplace_back(entry.name);
    }
  }
  const StatusOr<Scheme> unknown = SchemeByName("warp");
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().message().starts_with("unknown scheme 'warp' (expected "))
      << unknown.status().message();
  EXPECT_EQ(ListedSchemes(unknown.status().message(), "(expected "), all);

  const StatusOr<std::vector<JobSpec>> jobs = ParseJobsSpec("train@0:scheme=warp");
  ASSERT_FALSE(jobs.ok());
  EXPECT_EQ(ListedSchemes(jobs.status().message(), "training schemes are "), training)
      << jobs.status().message();
}

// ---- Partial input-batch grouping ------------------------------------------------------------

TEST(GroupSizeTest, WeightTrafficDecreasesWithGroupSize) {
  const Model model = TightModel();
  auto weight_units = [&](int group_size) {
    SessionConfig config = TightConfig(Scheme::kHarmonyPp, 2, 8);
    config.group_size = group_size;
    const SessionResult result = RunTraining(model, config);
    return static_cast<double>(result.report.iterations[1].weight_swap_volume()) /
           static_cast<double>(8 * kMiB);
  };
  const double g1 = weight_units(1);
  const double g2 = weight_units(2);
  const double g4 = weight_units(4);
  const double g_all = weight_units(0);
  EXPECT_GE(g1, g2);
  EXPECT_GE(g2, g4);
  EXPECT_GE(g4, g_all);
  EXPECT_GT(g1, g_all);  // the span is strict: grouping really amortizes weight swaps
}

TEST(GroupSizeTest, GroupedPlansStayValid) {
  const Model model = TightModel();
  const Machine machine = MakeCommodityServer(ServerConfig{});
  for (int group : {0, 1, 2, 3, 5, 8}) {
    TensorRegistry registry;
    SessionConfig config = TightConfig(Scheme::kHarmonyPp, 4, 8);
    config.group_size = group;
    const Plan plan = BuildPlanForConfig(model, machine, &registry, config);
    EXPECT_TRUE(plan.Validate().ok()) << "group=" << group;
    EXPECT_EQ(plan.tasks.size(),
              BuildPlanForConfig(model, machine,
                                 []() -> TensorRegistry* {
                                   static TensorRegistry r;
                                   return &r;
                                 }(),
                                 TightConfig(Scheme::kHarmonyPp, 4, 8))
                  .tasks.size())
        << "group size must not change the task count";
  }
}

// ---- Packer: zigzag / balanced ----------------------------------------------------------------

TEST(PackerTest, ZigzagAlternatesDirectionPerRound) {
  EXPECT_EQ(AssignPacksZigzag(8, 2), (std::vector<int>{0, 1, 1, 0, 0, 1, 1, 0}));
  EXPECT_EQ(AssignPacksZigzag(6, 3), (std::vector<int>{0, 1, 2, 2, 1, 0}));
}

TEST(PackerTest, BalancedPrefersRoundRobinOnUniformCosts) {
  const std::vector<double> costs(8, 1.0);
  EXPECT_EQ(AssignPacksBalanced(costs, 2), AssignPacksRoundRobin(8, 2));
}

TEST(PackerTest, BalancedPicksZigzagForAlternatingHeavyLayers) {
  // Round-robin piles both heavy packs on device 0; zigzag splits them at equal max load
  // to LPT but with better adjacency, so it wins the tie-break... when it actually ties.
  const std::vector<double> costs = {4, 1, 4, 1, 1, 1, 1, 1};
  const auto assignment = AssignPacksBalanced(costs, 2);
  EXPECT_LT(MaxDeviceLoad(costs, assignment, 2),
            MaxDeviceLoad(costs, AssignPacksRoundRobin(8, 2), 2));
}

TEST(PackerTest, BalancedFallsBackToLptWhenStrictlyBetter) {
  const std::vector<double> costs = {9, 1, 1, 1};
  const auto assignment = AssignPacksBalanced(costs, 2);
  EXPECT_DOUBLE_EQ(MaxDeviceLoad(costs, assignment, 2), 9.0);
}

// ---- Tuner -------------------------------------------------------------------------------------

TEST(TunerTest, FindsFeasibleBestAndFlagsInfeasible) {
  const Model model = TightModel(4);
  SessionConfig base = TightConfig(Scheme::kHarmonyPp, 2, 1);
  TunerOptions options;
  options.pack_sizes = {1, 4};  // pack 4 = whole model on one device: working set too big
  options.microbatch_sizes = {1, 2};
  options.minibatch_samples = 4;
  options.iterations = 2;
  const TunerResult result = TunePp(model, base, options).value();
  EXPECT_FALSE(result.points.empty());
  bool saw_infeasible = false;
  for (const TunerPoint& point : result.points) {
    if (!point.feasible) {
      saw_infeasible = true;
      EXPECT_GT(point.peak_working_set, base.server.gpu.memory_bytes);
    }
  }
  EXPECT_TRUE(saw_infeasible);
  EXPECT_TRUE(result.best.feasible);
  EXPECT_GT(result.best.throughput, 0.0);
  for (const TunerPoint& point : result.points) {
    if (point.feasible) {
      EXPECT_LE(point.throughput, result.best.throughput + 1e-12);
    }
  }
}

TEST(TunerTest, TableRendersBestMarkerAndInfeasibleRows) {
  const Model model = TightModel(4);
  SessionConfig base = TightConfig(Scheme::kHarmonyPp, 2, 1);
  TunerOptions options;
  options.pack_sizes = {1, 4};
  options.microbatch_sizes = {1};
  options.minibatch_samples = 4;
  options.iterations = 2;
  const std::string table = RenderTunerTable(TunePp(model, base, options).value());
  EXPECT_NE(table.find("<< best"), std::string::npos);
  EXPECT_NE(table.find("infeasible"), std::string::npos);
}

// ---- Schedule rendering / trace export ---------------------------------------------------------

class TimelineTest : public ::testing::Test {
 protected:
  TimelineTest() {
    UniformModelConfig mc;
    mc.num_layers = 4;
    mc.param_bytes = 64 * kMiB;
    mc.act_bytes_per_sample = 16 * kMiB;
    mc.fwd_flops_per_sample = 1e11;
    const Model model = MakeUniformModel(mc);
    SessionConfig config;
    config.server.num_gpus = 2;
    config.server.gpu = TestGpu(1 * kGiB, TFlops(1.0));
    config.scheme = Scheme::kHarmonyPp;
    config.microbatches = 2;
    config.iterations = 1;
    config.record_timeline = true;
    result_ = RunTraining(model, config);
  }
  SessionResult result_;
};

TEST_F(TimelineTest, RenderShowsEveryDeviceRow) {
  const std::string render = RenderTimeline(result_.plan, result_.timeline);
  EXPECT_NE(render.find("gpu0"), std::string::npos);
  EXPECT_NE(render.find("gpu1"), std::string::npos);
  EXPECT_NE(render.find("timeline"), std::string::npos);
}

TEST_F(TimelineTest, ListIsSortedByStartTime) {
  const std::string listing = ListTimeline(result_.plan, result_.timeline);
  EXPECT_NE(listing.find("FWD[L0]"), std::string::npos);
  EXPECT_NE(listing.find("UPD[L0]"), std::string::npos);
  // Forward of layer 0 microbatch 0 appears before its update in the text.
  EXPECT_LT(listing.find("FWD[L0]"), listing.find("UPD[L0]"));
}

TEST_F(TimelineTest, ChromeTraceContainsEventsAndTrackNames) {
  const std::string json = TimelineToChromeTrace(result_.plan, result_.timeline);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"forward\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"update\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("gpu1"), std::string::npos);
}

TEST_F(TimelineTest, WriteChromeTraceCreatesFile) {
  const std::string path = ::testing::TempDir() + "harmony_trace_test.json";
  ASSERT_TRUE(WriteTextFile(path, TimelineToChromeTrace(result_.plan, result_.timeline)).ok());
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string contents((std::istreambuf_iterator<char>(file)),
                       std::istreambuf_iterator<char>());
  EXPECT_GT(contents.size(), 100u);
  std::remove(path.c_str());
}

TEST(TraceExportTest, RejectsUnwritablePath) {
  Plan plan;
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/trace.json", TimelineToChromeTrace(plan, {})).ok());
}

// /dev/full opens fine and fails only when the buffered text is flushed, which is the case
// a writer that checks the stream before closing it reports as success. Every export
// reaches disk through WriteTextFile.
TEST_F(TimelineTest, WritersReportAFullDevice) {
  for (const std::string& text :
       {ReportToCsv(result_.report), ReportToJson(result_.report),
        TimelineToChromeTrace(result_.plan, result_.timeline, &result_.report),
        ClusterReportToJson(ClusterReport{})}) {
    const Status written = WriteTextFile("/dev/full", text);
    ASSERT_FALSE(written.ok());
    EXPECT_EQ(written.code(), StatusCode::kInternal);
    EXPECT_NE(written.message().find("failed writing /dev/full"), std::string::npos)
        << written.ToString();
  }
}

// ---- Multi-server cluster topology -------------------------------------------------------------

TEST(ClusterTest, TwoServersShareTheFabric) {
  ClusterConfig config;
  config.num_servers = 2;
  config.server.num_gpus = 2;
  config.server.gpus_per_switch = 2;
  const Topology topo = MakeClusterTopology(config);
  EXPECT_EQ(topo.num_gpus(), 4);
  EXPECT_EQ(topo.num_hosts(), 2);
}

TEST(ClusterTest, GpusSwapToTheirOwnHost) {
  ClusterConfig config;
  config.num_servers = 2;
  config.server.num_gpus = 2;
  config.server.gpus_per_switch = 2;
  const Topology topo = MakeClusterTopology(config);
  EXPECT_EQ(topo.HostNodeForGpu(0), topo.HostNodeForGpu(1));
  EXPECT_EQ(topo.HostNodeForGpu(2), topo.HostNodeForGpu(3));
  EXPECT_NE(topo.HostNodeForGpu(0), topo.HostNodeForGpu(2));
}

TEST(ClusterTest, CrossServerRouteTraversesBothHostsAndFabric) {
  ClusterConfig config;
  config.num_servers = 2;
  config.server.num_gpus = 2;
  config.server.gpus_per_switch = 2;
  const Topology topo = MakeClusterTopology(config);
  // gpu -> switch -> host -> nic -> tor -> nic -> host -> switch -> gpu = 8 hops.
  EXPECT_EQ(topo.Route(topo.gpu_node(0), topo.gpu_node(2)).size(), 8u);
  EXPECT_FALSE(topo.RouteAvoidsHost(topo.gpu_node(0), topo.gpu_node(2)));
  EXPECT_TRUE(topo.RouteAvoidsHost(topo.gpu_node(0), topo.gpu_node(1)));
}

// A Harmony-PP plan for a 2-server cluster, with the low-level stack that runs it built by
// hand instead of through RunTraining.
struct HandBuiltCluster {
  HandBuiltCluster() {
    ClusterConfig cluster;
    cluster.num_servers = 2;
    cluster.server.num_gpus = 2;
    cluster.server.gpu = TestGpu(512 * kMiB, TFlops(1.0));
    machine = MakeCluster(cluster);

    UniformModelConfig mc;
    mc.num_layers = 4;
    mc.param_bytes = 32 * kMiB;
    mc.act_bytes_per_sample = 8 * kMiB;
    mc.fwd_flops_per_sample = 1e10;
    const Model model = MakeUniformModel(mc);
    SessionConfig config;
    config.scheme = Scheme::kHarmonyPp;
    config.microbatches = 4;
    config.iterations = 2;
    plan = BuildPlanForConfig(model, machine, &registry, config);
  }

  // Builds the stack and the engine, which lints the plan, and runs it.
  RunReport Run() {
    Simulator sim;
    TransferManager transfers(&sim, &machine.topology);
    MemorySystem memory(&sim, &transfers, &registry, &machine.topology,
                        std::vector<Bytes>(4, 512 * kMiB), HarmonyPolicy());
    CollectiveEngine collective(&sim, &transfers);
    Engine engine(&sim, &machine, &memory, &transfers, &collective, &plan, EngineOptions{});
    return engine.Run();
  }

  Machine machine;
  TensorRegistry registry;
  Plan plan;
};

TEST(ClusterTest, ClusterTrainingRunsEndToEnd) {
  // Drive a full Harmony-PP run on a cluster machine through the low-level stack.
  HandBuiltCluster cluster;
  ASSERT_EQ(cluster.machine.num_gpus(), 4);
  const RunReport report = cluster.Run();
  EXPECT_GT(report.makespan, 0.0);
  EXPECT_EQ(report.iterations.size(), 2u);
}

// The engine lints every plan it is handed, so a hand-built stack gets the same gate as
// RunTraining: a dep on a task that does not exist stops at the constructor.
TEST(ClusterDeathTest, HandBuiltEngineRefusesAPlanThatFailsLint) {
  HandBuiltCluster cluster;
  SetList(&cluster.plan, TaskList::kDeps, 0, {static_cast<TaskId>(cluster.plan.tasks.size())});
  EXPECT_DEATH(cluster.Run(), "refusing to run");
}

// ---- Lookahead (Belady) eviction -----------------------------------------------------------------

TEST(LookaheadEvictionTest, StaysWithinBandOfLruOnRealSchedules) {
  // Belady is not universally better once write-back costs and prefetch enter the picture,
  // but it must stay close and the runs must remain deterministic/complete.
  const Model model = TightModel();
  for (Scheme scheme : {Scheme::kHarmonyPp, Scheme::kHarmonyDp}) {
    auto swap_for = [&](bool lookahead) {
      SessionConfig config = TightConfig(scheme, 2, 4);
      config.lookahead_eviction = lookahead;
      const SessionResult result = RunTraining(model, config);
      return result.report.iterations[1].swap_total();
    };
    const Bytes lru = swap_for(false);
    const Bytes belady = swap_for(true);
    EXPECT_LE(static_cast<double>(belady), static_cast<double>(lru) * 1.15)
        << SchemeName(scheme);
  }
}

TEST(LookaheadEvictionTest, BeatsLruOnCyclicAccess) {
  // The classic LRU pathology: cyclic access A,B,C,... with capacity for all but one. LRU
  // misses every access; Belady keeps most of the loop resident.
  ServerConfig server;
  server.num_gpus = 1;
  const int kTensors = 4;
  const int kRounds = 6;
  auto run = [&](EvictionPolicy eviction) {
    Topology topo = MakeCommodityServerTopology(server);
    Simulator sim;
    TransferManager tm(&sim, &topo);
    TensorRegistry reg;
    MemoryPolicy policy = HarmonyPolicy();
    policy.eviction = eviction;
    MemorySystem system(&sim, &tm, &reg, &topo, {(kTensors - 1) * 256}, policy);
    std::vector<TensorId> ids;
    for (int t = 0; t < kTensors; ++t) {
      ids.push_back(reg.Create("T" + std::to_string(t), 256, TensorClass::kWeight, true));
    }
    // Oracle: next use of tensor t from access step `now` in the cyclic schedule.
    std::uint64_t now_step = 0;
    system.SetNextUseOracle([&](TensorId id, int) -> std::uint64_t {
      const std::uint64_t phase = static_cast<std::uint64_t>(id);
      std::uint64_t step = now_step;
      while (step % kTensors != phase) {
        ++step;
        if (step > now_step + 2 * kTensors) {
          return std::numeric_limits<std::uint64_t>::max();
        }
      }
      return step;
    });
    for (int access = 0; access < kTensors * kRounds; ++access) {
      now_step = static_cast<std::uint64_t>(access);
      WorkingSet set;
      set.fetch = {ids[static_cast<std::size_t>(access % kTensors)]};
      auto acq = system.manager(0).Acquire(set);
      sim.RunUntilIdle();
      EXPECT_TRUE(acq.ready->fired());
      system.manager(0).Release(acq.handle);
      sim.RunUntilIdle();
    }
    return system.manager(0).counters().total_swap_in();
  };
  const Bytes lru = run(EvictionPolicy::kLru);
  const Bytes belady = run(EvictionPolicy::kLookahead);
  EXPECT_LT(belady, lru);
  EXPECT_EQ(lru, 256 * kTensors * kRounds);  // LRU misses every single access
}

TEST(LookaheadEvictionTest, KeepsSoonNeededTensorResident) {
  // Three tensors, capacity for two. LRU order says evict A (oldest), but A is the next
  // task's input while B is never used again: Belady must evict B.
  ServerConfig server;
  server.num_gpus = 1;
  Topology topo = MakeCommodityServerTopology(server);
  Simulator sim;
  TransferManager tm(&sim, &topo);
  TensorRegistry reg;
  MemoryPolicy policy = HarmonyPolicy();
  policy.eviction = EvictionPolicy::kLookahead;
  MemorySystem system(&sim, &tm, &reg, &topo, {768}, policy);

  const TensorId a = reg.Create("A", 256, TensorClass::kWeight, true);
  const TensorId b = reg.Create("B", 256, TensorClass::kWeight, true);
  const TensorId c = reg.Create("C", 512, TensorClass::kWeight, true);
  system.SetNextUseOracle([&](TensorId id, int) -> std::uint64_t {
    if (id == a) {
      return 1;  // needed immediately
    }
    if (id == b) {
      return std::numeric_limits<std::uint64_t>::max();  // never again
    }
    return 2;
  });

  WorkingSet wa;
  wa.fetch = {a};
  auto acq_a = system.manager(0).Acquire(wa);
  WorkingSet wb;
  wb.fetch = {b};
  auto acq_b = system.manager(0).Acquire(wb);
  sim.RunUntilIdle();
  system.manager(0).Release(acq_a.handle);
  system.manager(0).Release(acq_b.handle);

  WorkingSet wc;
  wc.fetch = {c};  // forces one eviction
  auto acq_c = system.manager(0).Acquire(wc);
  sim.RunUntilIdle();
  ASSERT_TRUE(acq_c.ready->fired());
  EXPECT_EQ(reg.state(a).residency, Residency::kResident);  // the LRU victim survived
  EXPECT_EQ(reg.state(b).residency, Residency::kNone);      // Belady evicted the dead one
}

// ---- Defragmentation ---------------------------------------------------------------------------

TEST(DefragTest, TightHarmonyDpRunTriggersAndSurvivesDefrag) {
  // This configuration historically deadlocked on fragmentation (10 MiB free, no 8 MiB
  // contiguous block, nothing evictable); the VMM-style remap must kick in.
  const Model model = TightModel(4);
  const SessionResult result = RunTraining(model, TightConfig(Scheme::kHarmonyDp, 1, 1));
  std::int64_t defrags = 0;
  for (std::int64_t d : result.report.device_defrags) {
    defrags += d;
  }
  EXPECT_GT(defrags, 0);
  EXPECT_GT(result.report.device_evictions[0], 0);
}

// ---- Report serialization ----------------------------------------------------------------------

TEST_F(TimelineTest, CsvHasOneRowPerIterationPlusHeader) {
  const std::string csv = ReportToCsv(result_.report);
  const std::size_t rows = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, result_.report.iterations.size() + 1);
  EXPECT_NE(csv.find("duration_s"), std::string::npos);
  EXPECT_NE(csv.find("in_weight"), std::string::npos);
}

TEST_F(TimelineTest, WriteReportCsvRoundTrips) {
  const std::string path = ::testing::TempDir() + "harmony_report_test.csv";
  ASSERT_TRUE(WriteTextFile(path, ReportToCsv(result_.report)).ok());
  std::ifstream file(path);
  std::string first_line;
  std::getline(file, first_line);
  EXPECT_NE(first_line.find("iteration"), std::string::npos);
  std::remove(path.c_str());
}

// ---- FlagParser --------------------------------------------------------------------------------

TEST(FlagsTest, ParsesAllForms) {
  FlagParser flags;
  flags.Define("alpha", "1", "")
      .Define("beta", "x", "")
      .Define("gamma", "false", "")
      .Define("delta", "0.5", "");
  const char* argv[] = {"prog", "--alpha=7", "--beta", "hello", "--gamma"};
  ASSERT_TRUE(flags.Parse(5, argv).ok());
  ASSERT_TRUE(flags.GetCheckedInt("alpha").ok());
  EXPECT_EQ(flags.GetCheckedInt("alpha").value(), 7);
  EXPECT_EQ(flags.Get("beta"), "hello");
  ASSERT_TRUE(flags.GetCheckedBool("gamma").ok());
  EXPECT_TRUE(flags.GetCheckedBool("gamma").value());
  ASSERT_TRUE(flags.GetCheckedDouble("delta").ok());
  EXPECT_DOUBLE_EQ(flags.GetCheckedDouble("delta").value(), 0.5);  // default preserved
  // Malformed text is an error naming the flag, never a silent zero.
  EXPECT_FALSE(flags.GetCheckedInt("beta").ok());
  EXPECT_FALSE(flags.GetCheckedDouble("beta").ok());
  EXPECT_FALSE(flags.GetCheckedBool("beta").ok());
}

TEST(FlagsTest, RejectsUnknownFlagAndPositional) {
  FlagParser flags;
  flags.Define("alpha", "1", "");
  const char* bad_flag[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.Parse(2, bad_flag).ok());
  FlagParser flags2;
  flags2.Define("alpha", "1", "");
  const char* positional[] = {"prog", "value"};
  EXPECT_FALSE(flags2.Parse(2, positional).ok());
}

TEST(FlagsTest, UsageListsFlagsWithDefaults) {
  FlagParser flags;
  flags.Define("alpha", "42", "the alpha knob");
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("42"), std::string::npos);
  EXPECT_NE(usage.find("the alpha knob"), std::string::npos);
}

}  // namespace
}  // namespace harmony
