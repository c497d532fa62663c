// Chaos harness: seeded random fault plans x all schedulers.
//
// Each case draws a random fault plan over the full extended grammar (flaps, brownouts,
// stragglers, checkpoint corruption, fail-stops), runs the elastic recovery coordinator
// twice, and asserts:
//   1. byte-identical outcome across the two runs: the harmony-elastic-report export
//      (status, counts, fault traces, bitwise makespans, and the full JSON report of
//      every segment);
//   2. the PR 4 conservation invariant holds on every completed segment even when the
//      retry tier re-issued flows (per-device time buckets sum to the makespan);
//   3. completion-or-typed-error: either training finishes all iterations or the
//      coordinator returns a typed Status — never a hang, never an HCHECK.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/recovery.h"
#include "src/core/session.h"
#include "src/hw/specs.h"
#include "src/sim/fault_plan.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

constexpr int kChaosSeeds = 50;

// One deterministic chaos scenario per seed: the scheme cycles through all five
// schedulers, the plan through the full extended fault grammar.
SessionConfig ChaosConfig(const Model& model, int seed) {
  SessionConfig config = test_models::FaultConfig(4, 4);
  config.scheme = test_models::kAllSchemes[seed % test_models::kNumSchemes];
  config.checkpoint_every = 1;
  config.ckpt_keep = 2;
  config.retry_max = 2;
  config.retry_base = 0.001;
  config.straggler_threshold = 2.0;

  RandomFaultOptions fault_options;
  fault_options.seed = static_cast<std::uint64_t>(seed) + 1;
  fault_options.horizon = 6.0;
  fault_options.mtbf = 1.0 + 0.1 * static_cast<double>(seed % 10);
  fault_options.num_gpus = config.server.num_gpus;
  fault_options.transient = true;
  fault_options.ckpt_faults = true;
  config.faults = MakeRandomFaultPlan(fault_options);

  // The baseline schedulers need more resident capacity than harmony; grow the per-GPU
  // memory (deterministically) until the initial configuration is feasible so segment 0
  // never dies on a working-set check.
  for (int doubling = 0; doubling < 8; ++doubling) {
    if (ValidateSessionConfig(model, config).ok()) {
      break;
    }
    config.server.gpu =
        TestGpu(config.server.gpu.memory_bytes * 2, config.server.gpu.peak_flops);
  }
  EXPECT_TRUE(ValidateSessionConfig(model, config).ok())
      << "seed " << seed << " never became feasible";
  return config;
}

class ChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(ChaosTest, SeededFaultPlanIsDeterministicConservedAndTyped) {
  const int seed = GetParam();
  const Model model = test_models::FaultModel();
  const SessionConfig config = ChaosConfig(model, seed);
  const ElasticResult result = RunTrainingElastic(model, config);

  // (3) completion-or-typed-error.
  if (result.status.ok()) {
    EXPECT_EQ(result.completed_iterations, config.iterations) << "seed " << seed;
  } else {
    EXPECT_FALSE(result.status.message().empty()) << "seed " << seed;
  }
  ASSERT_FALSE(result.segments.empty()) << "seed " << seed;

  // (2) conservation under retries: every completed segment's per-device buckets
  // telescope to its makespan, retried flows and degraded intervals included.
  for (std::size_t s = 0; s < result.segments.size(); ++s) {
    const RunReport& report = result.segments[s].result.report;
    if (report.failed) {
      continue;  // a truncated segment stops mid-bucket by design
    }
    for (std::size_t d = 0; d < report.device_time.size(); ++d) {
      EXPECT_NEAR(report.device_time[d].total(), report.makespan,
                  1e-9 * std::max(1.0, report.makespan))
          << "seed " << seed << " segment " << s << " gpu " << d;
    }
  }

  // (1) byte-identical across two runs of the same binary. The harmony-elastic-report
  // export is everything observable about an elastic run: status, progress and recovery
  // counts, every segment's fault trace and its full run report with shortest-round-trip
  // doubles, so bitwise equality of the simulation implies byte equality here and vice
  // versa. Any nondeterminism anywhere in the stack shows up as a diff.
  EXPECT_EQ(RunTrainingElastic(model, config).ToJson(), result.ToJson())
      << "seed " << seed << ": the second run diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Range(0, kChaosSeeds));

// The sweep above must actually exercise the ladder, not just fault-free runs: across all
// seeds, some plans are absorbed by the retry tier, some degrade, and some roll back.
TEST(ChaosCoverageTest, SweepExercisesEveryRungOfTheLadder) {
  const Model model = test_models::FaultModel();
  std::int64_t retried = 0;
  int degradations = 0;
  int rollbacks = 0;
  int corrupt_events = 0;
  int completions = 0;
  for (int seed = 0; seed < kChaosSeeds; ++seed) {
    const SessionConfig config = ChaosConfig(model, seed);
    for (const FaultEvent& event : config.faults.events()) {
      if (event.kind == FaultKind::kCkptCorrupt) {
        ++corrupt_events;
      }
    }
    const ElasticResult result = RunTrainingElastic(model, config);
    retried += result.stats.flows_retried;
    degradations += result.stats.degradations;
    rollbacks += result.stats.rollbacks();
    if (result.status.ok()) {
      ++completions;
    }
  }
  EXPECT_GT(retried, 0) << "no seed exercised the retry tier";
  EXPECT_GT(degradations + rollbacks, 0) << "no seed escalated past absorb";
  // Corruption *detection* needs a rollback to land while the corrupt generation is
  // still resident — a timing coincidence random plans cannot guarantee, so the
  // deterministic fallback path lives in resilience_test. Here we only require the
  // sweep to have armed the fault at all.
  EXPECT_GT(corrupt_events, 0) << "no seed drew a ckpt_corrupt event";
  // Typed errors are legal outcomes (a DP shrink that cannot preserve the minibatch,
  // every generation corrupt), but a sweep where nothing completes is miscalibrated.
  EXPECT_GT(completions, 0) << "no seed completed training";
}

}  // namespace
}  // namespace harmony
