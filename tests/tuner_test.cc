// Tests for the parallel profiling substrate: the ThreadPool itself, the determinism
// guarantee of the tuner sweep across thread counts, and that every sweep point is a real
// run of its own configuration. These are the tests the TSan build
// (HARMONY_SANITIZE=thread) exercises via `ctest -R tuner`.
#include <atomic>
#include <cstddef>
#include <future>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/tuner.h"
#include "src/graph/model_zoo.h"
#include "src/util/thread_pool.h"

namespace harmony {
namespace {

// ---- ThreadPool ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { count.fetch_add(1); }));
  }
  for (auto& future : futures) {
    future.get();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  std::future<int> forty_two = pool.Submit([] { return 42; });
  EXPECT_EQ(forty_two.get(), 42);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_EQ(pool.Submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(pool, hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelMapOrdersResultsByIndexNotCompletion) {
  ThreadPool pool(4);
  const std::vector<std::size_t> squares =
      ParallelMap(pool, 64, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 64u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ThreadPoolTest, ResolveThreadCountHonorsExplicitAndDetectsDefault) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-5), 1);
}

// Regression: ParallelFor used to rethrow on the first failed future, unwinding the
// callback (captured by reference) while queued tasks still referenced it. Every task must
// be joined first, then the lowest-index exception rethrown — deterministically.
TEST(ThreadPoolTest, ParallelForJoinsEveryTaskBeforeRethrowing) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    ParallelFor(pool, 64, [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i % 8 == 3) {
        throw std::runtime_error("task " + std::to_string(i));
      }
    });
    FAIL() << "ParallelFor swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");  // the first failing index, not a racing later one
  }
  EXPECT_EQ(ran.load(), 64);  // nothing was abandoned in the queue
}

TEST(ThreadPoolTest, ParallelMapJoinsEveryTaskBeforeRethrowing) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    ParallelMap(pool, 32, [&ran](std::size_t i) -> int {
      ran.fetch_add(1);
      if (i == 5 || i == 20) {
        throw std::runtime_error("map " + std::to_string(i));
      }
      return static_cast<int>(i);
    });
    FAIL() << "ParallelMap swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "map 5");
  }
  EXPECT_EQ(ran.load(), 32);
}

// ---- tuner determinism across thread counts ----------------------------------------------

Model TinyUniformModel() {
  UniformModelConfig config;
  config.name = "tuner-test-uniform";
  config.num_layers = 6;
  config.param_bytes = 8 * kMiB;
  config.act_bytes_per_sample = 2 * kMiB;
  config.optimizer_state_factor = 1.0;
  config.fwd_flops_per_sample = 1e9;
  return MakeUniformModel(config);
}

SessionConfig TinyBase() {
  SessionConfig config;
  config.server.num_gpus = 2;
  config.server.gpu = TestGpu(192 * kMiB, TFlops(1.0));
  config.scheme = Scheme::kHarmonyPp;
  return config;
}

TunerOptions SweepOptions(int num_threads) {
  TunerOptions options;
  options.pack_sizes = {1, 2, 3};
  options.microbatch_sizes = {1, 2, 4};
  options.minibatch_samples = 8;
  options.iterations = 2;
  options.num_threads = num_threads;
  return options;
}

// Bitwise comparison: the ISSUE requirement is bit-identical results for any thread count,
// so every double is compared with ==, not a tolerance.
void ExpectPointsIdentical(const TunerPoint& a, const TunerPoint& b) {
  EXPECT_EQ(a.pack_size, b.pack_size);
  EXPECT_EQ(a.group_size, b.group_size);
  EXPECT_EQ(a.microbatch_size, b.microbatch_size);
  EXPECT_EQ(a.microbatches, b.microbatches);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.iteration_time, b.iteration_time);
  EXPECT_EQ(a.swap_volume, b.swap_volume);
  EXPECT_EQ(a.peak_working_set, b.peak_working_set);
}

TEST(TunerTest, ParallelSweepBitIdenticalToSerial) {
  const Model model = TinyUniformModel();
  const SessionConfig base = TinyBase();
  const TunerResult serial = TunePp(model, base, SweepOptions(/*num_threads=*/1)).value();
  const TunerResult parallel = TunePp(model, base, SweepOptions(/*num_threads=*/4)).value();

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    ExpectPointsIdentical(serial.points[i], parallel.points[i]);
  }
  ExpectPointsIdentical(serial.best, parallel.best);
  EXPECT_TRUE(serial.best.feasible);
  EXPECT_GT(serial.best.throughput, 0.0);
}

TEST(TunerTest, SweepEnumeratesFullCrossProductInKnobOrder) {
  const TunerResult result =
      TunePp(TinyUniformModel(), TinyBase(), SweepOptions(/*num_threads=*/2)).value();
  ASSERT_EQ(result.points.size(), 9u);  // 3 pack sizes x 1 group x 3 microbatch sizes
  // Candidate enumeration happens up front in deterministic knob order; profiling threads
  // must not reorder the assembled result.
  EXPECT_EQ(result.points[0].pack_size, 1);
  EXPECT_EQ(result.points[0].microbatch_size, 1);
  EXPECT_EQ(result.points[1].microbatch_size, 2);
  EXPECT_EQ(result.points[8].pack_size, 3);
  EXPECT_EQ(result.points[8].microbatch_size, 4);
  for (const TunerPoint& point : result.points) {
    EXPECT_EQ(point.microbatches * point.microbatch_size, 8);
  }
}

// A bad sweep is a typed error before anything is built: each point's shape is checked up
// front, and a sweep without a feasible point names its smallest peak and the capacity.
TEST(TunerTest, BadSweepsAreTypedErrors) {
  const Model model = TinyUniformModel();
  SessionConfig no_gpus = TinyBase();
  no_gpus.server.num_gpus = 0;
  const StatusOr<TunerResult> shape = TunePp(model, no_gpus, SweepOptions(1));
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(shape.status().message().find("num_gpus must be >= 1"), std::string::npos);

  SessionConfig tiny_gpu = TinyBase();
  tiny_gpu.server.gpu.memory_bytes = 1;
  const StatusOr<TunerResult> infeasible = TunePp(model, tiny_gpu, SweepOptions(1));
  ASSERT_FALSE(infeasible.ok());
  EXPECT_EQ(infeasible.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(infeasible.status().message().find("no feasible"), std::string::npos);
  EXPECT_NE(infeasible.status().message().find("exceeds gpu memory (1 B)"), std::string::npos)
      << infeasible.status().ToString();
}

// ---- every point is a run of its own configuration ----------------------------------------

// A second sweep in the same process, on another machine shape (two nodes) with
// checkpoints on, reports that shape: each feasible point equals a direct run of its
// config, bit for bit, and nothing is carried over from the first sweep.
TEST(TunerTest, ResweepOnAnotherMachineMatchesDirectRuns) {
  const Model model = TinyUniformModel();
  const TunerOptions options = SweepOptions(/*num_threads=*/2);
  ASSERT_TRUE(TunePp(model, TinyBase(), options).ok());

  SessionConfig base = TinyBase();
  base.num_nodes = 2;
  base.checkpoint_every = 1;
  const TunerResult result = TunePp(model, base, options).value();
  int feasible = 0;
  for (const TunerPoint& point : result.points) {
    if (!point.feasible) {
      continue;
    }
    ++feasible;
    SessionConfig config = base;
    config.pack_size = point.pack_size;
    config.group_size = point.group_size;
    config.microbatch_size = point.microbatch_size;
    config.microbatches = point.microbatches;
    config.iterations = options.iterations;
    const RunReport direct = RunTraining(model, config).report;
    EXPECT_EQ(direct.num_devices(), 4);
    EXPECT_EQ(direct.checkpoints_committed, options.iterations - 1);
    EXPECT_EQ(point.iteration_time, direct.steady_iteration_time())
        << "pack " << point.pack_size << ", microbatch " << point.microbatch_size;
    EXPECT_EQ(point.throughput, direct.steady_throughput());
    EXPECT_EQ(point.swap_volume, direct.steady_swap_total());
    EXPECT_EQ(point.why, Attribute(direct).Summary());
  }
  EXPECT_GT(feasible, 0);
}

}  // namespace
}  // namespace harmony
