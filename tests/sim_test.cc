#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/sim/fault_plan.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "tests/test_models.h"

namespace harmony {
namespace {

TEST(SimulatorTest, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.RunOne());
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(2.0, [&] { order.push_back(2); });
  sim.ScheduleAt(1.0, [&] { order.push_back(1); });
  sim.ScheduleAt(3.0, [&] { order.push_back(3); });
  sim.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  sim.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.ScheduleAt(5.0, [&] { sim.ScheduleAfter(2.5, [&] { fired_at = sim.now(); }); });
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) {
      sim.ScheduleAfter(1.0, recurse);
    }
  };
  sim.ScheduleAfter(0.0, recurse);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAfter(static_cast<double>(i), [] {});
  }
  sim.RunUntilIdle();
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(SimulatorDeathTest, SchedulingIntoPastAborts) {
  Simulator sim;
  sim.ScheduleAt(5.0, [] {});
  sim.RunUntilIdle();
  EXPECT_DEATH(sim.ScheduleAt(1.0, [] {}), "past");
}

TEST(SimulatorDeathTest, EventBudgetCatchesLivelock) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.ScheduleAfter(0.0, forever); };
  sim.ScheduleAfter(0.0, forever);
  EXPECT_DEATH(sim.RunUntilIdle(/*max_events=*/1000), "budget");
}

TEST(OneShotEventTest, WaitersRunAfterFire) {
  Simulator sim;
  OneShotEvent event(&sim);
  int fired = 0;
  event.OnFired([&] { ++fired; });
  event.OnFired([&] { ++fired; });
  EXPECT_FALSE(event.fired());
  sim.ScheduleAt(3.0, [&] { event.Fire(); });
  sim.RunUntilIdle();
  EXPECT_TRUE(event.fired());
  EXPECT_DOUBLE_EQ(event.fire_time(), 3.0);
  EXPECT_EQ(fired, 2);
}

TEST(OneShotEventTest, LateWaiterStillRuns) {
  Simulator sim;
  OneShotEvent event(&sim);
  sim.ScheduleAt(1.0, [&] { event.Fire(); });
  sim.RunUntilIdle();
  int fired = 0;
  event.OnFired([&] { ++fired; });
  EXPECT_EQ(fired, 0);  // asynchronous even when already fired
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 1);
}

TEST(OneShotEventDeathTest, DoubleFireAborts) {
  Simulator sim;
  OneShotEvent event(&sim);
  event.Fire();
  EXPECT_DEATH(event.Fire(), "twice");
}

TEST(CountdownEventTest, FiresAtZero) {
  Simulator sim;
  CountdownEvent countdown(&sim, 3);
  bool fired = false;
  countdown.OnFired([&] { fired = true; });
  countdown.Arrive();
  countdown.Arrive();
  sim.RunUntilIdle();
  EXPECT_FALSE(fired);
  countdown.Arrive();
  sim.RunUntilIdle();
  EXPECT_TRUE(fired);
}

TEST(CountdownEventTest, ZeroCountFiresImmediately) {
  Simulator sim;
  CountdownEvent countdown(&sim, 0);
  EXPECT_TRUE(countdown.fired());
}

TEST(CountdownEventTest, ExpectAddsArrivals) {
  Simulator sim;
  CountdownEvent countdown(&sim, 1);
  countdown.Expect(2);
  countdown.Arrive();
  countdown.Arrive();
  EXPECT_FALSE(countdown.fired());
  countdown.Arrive();
  EXPECT_TRUE(countdown.fired());
}

TEST(SimulatorPropertyTest, DeterministicAcrossRuns) {
  auto run = [] {
    Simulator sim;
    std::vector<double> times;
    for (int i = 0; i < 50; ++i) {
      sim.ScheduleAfter(static_cast<double>((i * 7) % 13),
                        [&times, &sim] { times.push_back(sim.now()); });
    }
    sim.RunUntilIdle();
    return times;
  };
  EXPECT_EQ(run(), run());
}

TEST(CountdownEventDeathTest, ExpectAfterFireAborts) {
  Simulator sim;
  CountdownEvent countdown(&sim, 1);
  countdown.Arrive();
  ASSERT_TRUE(countdown.fired());
  EXPECT_DEATH(countdown.Expect(1), "after fire");
}

// ---- queue order against a reference -----------------------------------------------------------

// Logs every event's (when, seq) as it is scheduled — seq being the scheduling index — and
// every executed seq. Callbacks schedule children at now() and later, as the runtime does.
struct QueueOrderHarness {
  static constexpr std::size_t kMaxEvents = 2000;

  explicit QueueOrderHarness(std::uint64_t seed) : rng(seed) {}

  void Schedule(double when) {
    const int seq = static_cast<int>(scheduled.size());
    scheduled.emplace_back(when, seq);
    sim.ScheduleAt(when, [this, seq, when] { Run(seq, when); });
  }

  void Run(int seq, double when) {
    EXPECT_EQ(sim.now(), when);
    EXPECT_FALSE(std::signbit(sim.now())) << "-0.0 must run as +0.0";
    executed.push_back(seq);
    const int children = static_cast<int>(rng.NextBounded(3));
    for (int c = 0; c < children && scheduled.size() < kMaxEvents; ++c) {
      const bool same_time = rng.NextBounded(2) == 0;
      Schedule(sim.now() + (same_time ? 0.0 : static_cast<double>(rng.NextBounded(8)) * 0.25));
    }
  }

  Simulator sim;
  Rng rng;
  std::vector<std::pair<double, int>> scheduled;
  std::vector<int> executed;
};

TEST(SimulatorPropertyTest, ExecutionIsScheduleLogSortedByWhenThenSeq) {
  Rng seeds(1234);
  for (int round = 0; round < 20; ++round) {
    QueueOrderHarness harness(seeds.NextU64());
    const int initial = 50 + static_cast<int>(harness.rng.NextBounded(150));
    for (int i = 0; i < initial; ++i) {
      // A coarse grid makes duplicate timestamps common; -0.0 stands in for time zero.
      const std::uint64_t tick = harness.rng.NextBounded(41);
      harness.Schedule(tick == 0 ? -0.0 : static_cast<double>(tick) * 0.25);
    }
    harness.sim.RunUntilIdle();

    std::vector<std::pair<double, int>> reference = harness.scheduled;
    std::sort(reference.begin(), reference.end(), [](const auto& a, const auto& b) {
      return a.first < b.first || (a.first == b.first && a.second < b.second);
    });
    std::vector<int> expected;
    for (const auto& [when, seq] : reference) {
      expected.push_back(seq);
    }
    // Equal to a permutation of every seq: each event ran exactly once, in (when, seq) order.
    EXPECT_EQ(harness.executed, expected) << "round " << round;
    EXPECT_EQ(harness.sim.events_processed(), harness.scheduled.size()) << "round " << round;
  }
}

// ---- event arena -------------------------------------------------------------------------------

TEST(SimulatorArenaTest, SlotsAreReusedAcrossRuns) {
  Simulator sim;
  for (int cycle = 0; cycle < 20; ++cycle) {
    for (int i = 0; i < 1000; ++i) {
      sim.ScheduleAfter(static_cast<double>(i % 7), [] {});
    }
    sim.RunUntilIdle();
    EXPECT_EQ(sim.arena_in_use(), 0u);
  }
  // 1000 outstanding events fit in one 4096-slot slab; churn must not grow the arena.
  EXPECT_EQ(sim.arena_capacity(), 4096u);
}

TEST(SimulatorArenaTest, ReservePresizesAndGrowsOnDemand) {
  Simulator sim;
  sim.Reserve(10000);
  EXPECT_GE(sim.arena_capacity(), 10000u);
  const std::size_t reserved = sim.arena_capacity();
  int fired = 0;
  for (int i = 0; i < 20000; ++i) {  // more outstanding events than reserved
    sim.ScheduleAfter(1.0, [&fired] { ++fired; });
  }
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 20000);
  EXPECT_GT(sim.arena_capacity(), reserved);
}

TEST(SimulatorArenaTest, OversizedClosuresFallBackToHeap) {
  // Captures beyond the inline buffer take the heap path inside InlineFunction; the event
  // must still run (and destroy its captures) correctly.
  Simulator sim;
  std::array<double, 16> big{};
  big[0] = 1.0;
  big[15] = 2.0;
  auto counter = std::make_shared<int>(0);
  double sum = 0.0;
  sim.ScheduleAfter(1.0, [big, counter, &sum] {
    sum = big[0] + big[15] + static_cast<double>(*counter);
  });
  EXPECT_EQ(counter.use_count(), 2);
  sim.RunUntilIdle();
  EXPECT_DOUBLE_EQ(sum, 3.0);
  EXPECT_EQ(counter.use_count(), 1);  // captures destroyed when the slot was freed
}

// ---- FaultPlan ---------------------------------------------------------------------------------

TEST(FaultPlanTest, AddKeepsEventsSortedWithStableTies) {
  FaultPlan plan;
  plan.Add(FaultEvent{2.0, FaultKind::kGpuFailStop, 1, 1.0, 0.0});
  plan.Add(FaultEvent{1.0, FaultKind::kGpuLinkDegrade, 0, 0.5, 1.0});
  plan.Add(FaultEvent{1.0, FaultKind::kHostMemPressure, -1, 0.5, 1.0});  // tie: after degrade
  ASSERT_EQ(plan.size(), 3);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kGpuLinkDegrade);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kHostMemPressure);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kGpuFailStop);
}

TEST(FaultPlanTest, ParseRendersBackByteStable) {
  const StatusOr<FaultPlan> plan = ParseFaultSpec(
      "fail@1.5:gpu2;degrade@0.25:gpu0:0.5:2;degrade@1:host:0.75:inf;mem@2.5:0.5:1");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().ToString(),
            "degrade@0.250:gpu0:0.500:2.000;degrade@1.000:host:0.750:inf;"
            "fail@1.500:gpu2;mem@2.500:0.500:1.000");
}

TEST(FaultPlanTest, ExtendedKindsParseAndRenderByteStable) {
  const StatusOr<FaultPlan> plan = ParseFaultSpec(
      "flow_flap@0.5:gpu1;flow_flap@1:host;brownout@2:gpu0:0.25:3;"
      "brownout@2.5:host:0.5:inf;gpu_slow@3:gpu2:0.5:4;ckpt_corrupt@5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().ToString(),
            "flow_flap@0.500:gpu1;flow_flap@1.000:host;brownout@2.000:gpu0:0.250:3.000;"
            "brownout@2.500:host:0.500:inf;gpu_slow@3.000:gpu2:0.500:4.000;"
            "ckpt_corrupt@5.000");
}

TEST(FaultPlanTest, EmptySpecAndEmptyEventsAreFine) {
  ASSERT_TRUE(ParseFaultSpec("").ok());
  EXPECT_TRUE(ParseFaultSpec("").value().empty());
  const StatusOr<FaultPlan> plan = ParseFaultSpec(";fail@1:gpu0;;");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().size(), 1);
}

TEST(FaultPlanTest, MalformedSpecsReturnActionableErrors) {
  const char* bad[] = {
      "fail@x:gpu0",            // non-numeric time
      "fail@-1:gpu0",           // negative time
      "fail@1:cpu0",            // bad target
      "fail@1:gpu",             // missing index
      "fail@1",                 // missing target
      "degrade@1:gpu0:1.5:1",   // scale out of (0, 1]
      "degrade@1:gpu0:0:1",     // scale zero
      "degrade@1:gpu0:0.5:-1",  // negative duration
      "degrade@1:gpu0:0.5",     // missing duration
      "mem@1:0.5",              // missing duration
      "explode@1:gpu0",         // unknown kind
      "rand:seed=1,mtbf=0",     // non-positive mtbf
      "rand:nope=1",            // unknown rand option
      "degrade@1:gpu0:0.5:0",   // zero duration (use 'inf' for permanent)
      "degrade@1:gpu0:0.5:nan", // NaN duration
      "mem@1:nan:1",            // NaN scale
      "flow_flap@1",            // missing target
      "flow_flap@1:cpu0",       // bad target
      "brownout@1:gpu0:0.5",    // missing duration
      "brownout@1:gpu0:0:1",    // scale zero
      "gpu_slow@1:host:0.5:1",  // gpu_slow must target a GPU
      "gpu_slow@1:gpu0:0.5:0",  // zero duration
      "ckpt_corrupt@1:gpu0",    // takes no target
      "rand:ext=2",             // ext must be 0|1
      // Indices past INT_MAX must reject, not wrap to a small index when narrowed.
      "fail@1:gpu4294967296",                          // would strike gpu0
      "degrade@1:gpu4294967295:0.5:1",                 // would render as a host degrade
      "flow_flap@1:nic4294967296",                     // would strike nic0
      "rand:seed=1,mtbf=1,horizon=3,nics=4294967297",  // would read as nics=1
  };
  for (const char* spec : bad) {
    const StatusOr<FaultPlan> plan = ParseFaultSpec(spec);
    EXPECT_FALSE(plan.ok()) << spec;
    EXPECT_NE(plan.status().message().find("malformed fault event"), std::string::npos)
        << spec;
  }
}

TEST(FaultPlanTest, ParseErrorsCarryByteOffsets) {
  // The offset points into the original spec string, like util/json.cc errors.
  const StatusOr<FaultPlan> plan = ParseFaultSpec("fail@1:gpu0;degrade@2:gpu0:0.5:0");
  ASSERT_FALSE(plan.ok());
  const std::string& message = plan.status().message();
  EXPECT_NE(message.find("duration must be > 0 seconds or 'inf'"), std::string::npos)
      << message;
  // The bad duration field starts at byte 31 of the spec.
  EXPECT_NE(message.find("(at byte 31;"), std::string::npos) << message;
  EXPECT_NE(message.find("--faults grammar"), std::string::npos) << message;
}

TEST(FaultPlanTest, RoundTripFuzzOverExtendedGrammar) {
  // parse(render(plan)) must render identically for random plans drawn over the full
  // grammar, including the transient and checkpoint kinds.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    RandomFaultOptions options;
    options.seed = seed;
    options.mtbf = 0.4;
    options.horizon = 12.0;
    options.num_gpus = 1 + static_cast<int>(seed % 4);
    options.transient = true;
    options.ckpt_faults = seed % 2 == 0;
    const FaultPlan plan = MakeRandomFaultPlan(options);
    const std::string rendered = plan.ToString();
    const StatusOr<FaultPlan> reparsed = ParseFaultSpec(rendered);
    ASSERT_TRUE(reparsed.ok()) << "seed " << seed << ": " << reparsed.status().ToString()
                               << "\nrendered: " << rendered;
    EXPECT_EQ(reparsed.value().ToString(), rendered) << "seed " << seed;
  }
}

TEST(FaultPlanTest, RandomPlanDrawSequenceUnchangedWhenExtensionsOff) {
  // ext=0,ckpt=0 must reproduce the historical draw sequence bit-for-bit — seeds pinned
  // by older tests and benches must keep generating the same plans.
  RandomFaultOptions options;
  options.seed = 9;
  options.mtbf = 0.5;
  options.horizon = 10.0;
  const FaultPlan baseline = MakeRandomFaultPlan(options);
  for (const FaultEvent& event : baseline.events()) {
    EXPECT_TRUE(event.kind == FaultKind::kGpuFailStop ||
                event.kind == FaultKind::kGpuLinkDegrade ||
                event.kind == FaultKind::kHostLinkDegrade ||
                event.kind == FaultKind::kHostMemPressure);
  }
}

TEST(FaultPlanTest, RandomPlanWithExtensionsDrawsNewKinds) {
  RandomFaultOptions options;
  options.seed = 3;
  options.mtbf = 0.2;
  options.horizon = 50.0;
  options.num_gpus = 4;
  options.transient = true;
  options.ckpt_faults = true;
  const FaultPlan plan = MakeRandomFaultPlan(options);
  int extended = 0;
  for (const FaultEvent& event : plan.events()) {
    if (event.kind == FaultKind::kFlowFlap || event.kind == FaultKind::kLinkBrownout ||
        event.kind == FaultKind::kGpuSlow || event.kind == FaultKind::kCkptCorrupt) {
      ++extended;
    }
  }
  EXPECT_GT(extended, 0);
}

TEST(FaultPlanTest, RandomPlanIsSeedDeterministic) {
  RandomFaultOptions options;
  options.seed = 9;
  options.mtbf = 0.5;
  options.horizon = 10.0;
  const FaultPlan a = MakeRandomFaultPlan(options);
  const FaultPlan b = MakeRandomFaultPlan(options);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.ToString(), b.ToString());
  options.seed = 10;
  EXPECT_NE(MakeRandomFaultPlan(options).ToString(), a.ToString());
}

TEST(FaultPlanTest, RandomPlanHonorsHorizonAndFailStopBudget) {
  RandomFaultOptions options;
  options.seed = 4;
  options.mtbf = 0.25;
  options.horizon = 20.0;
  options.num_gpus = 4;
  const FaultPlan plan = MakeRandomFaultPlan(options);
  int fail_stops = 0;
  for (const FaultEvent& event : plan.events()) {
    EXPECT_GE(event.time, 0.0);
    EXPECT_LT(event.time, options.horizon);
    if (event.kind == FaultKind::kGpuFailStop) {
      ++fail_stops;
    } else {
      EXPECT_GT(event.scale, 0.0);
      EXPECT_LE(event.scale, 1.0);
    }
    if (event.kind == FaultKind::kGpuFailStop || event.kind == FaultKind::kGpuLinkDegrade) {
      EXPECT_GE(event.gpu, 0);
      EXPECT_LT(event.gpu, options.num_gpus);
    }
  }
  EXPECT_LE(fail_stops, 1);  // at most one amputation per plan

  options.allow_fail_stop = false;
  const FaultPlan no_fail = MakeRandomFaultPlan(options);
  for (const FaultEvent& event : no_fail.events()) {
    EXPECT_NE(event.kind, FaultKind::kGpuFailStop);
  }
}

// ---- Watchdog deadline arithmetic (absolute re-arm; DESIGN.md §11) ---------------------

// Watchdog period k must land at exactly k * timeout: re-arming relative to the
// callback's fire time accumulates FP round-off across periods, and the drifted
// deadlines diverge between runs that replay different prefixes of the schedule.
TEST(WatchdogDeadlineTest, StallTimeIsExactPeriodMultipleAcrossTwoRuns) {
  const Model model = test_models::FaultModel();
  SessionConfig clean = test_models::FaultConfig(2, 4);
  const double makespan = RunTraining(model, clean).report.makespan;
  ASSERT_GT(makespan, 0.0);

  const double timeout = makespan / 16.0;
  SessionConfig config = clean;
  config.watchdog_timeout = timeout;
  // A near-total host-link collapse late in the run: swaps crawl, no task completes,
  // and the watchdog flags the stall at the next period boundary.
  char spec[64];
  std::snprintf(spec, sizeof(spec), "degrade@%.6f:host:0.001:inf", 0.82 * makespan);
  const StatusOr<FaultPlan> faults = ParseFaultSpec(spec);
  ASSERT_TRUE(faults.ok()) << faults.status().ToString();
  config.faults = faults.value();

  const SessionResult result = RunTraining(model, config);
  ASSERT_TRUE(result.report.failed);
  EXPECT_EQ(result.report.failure_kind, "watchdog-stall");
  const double periods = std::round(result.report.failure_time / timeout);
  EXPECT_GE(periods, 1.0);
  // Bitwise: the detection time IS an exact period multiple, not merely close to one.
  EXPECT_EQ(result.report.failure_time, periods * timeout);
  EXPECT_EQ(RunTraining(model, config).report.failure_time, result.report.failure_time)
      << "a second run detected the stall at a different time";
}

// An armed-but-never-tripped watchdog must not perturb the measured run: the report's
// makespan matches the watchdog-free run bit for bit.
TEST(WatchdogDeadlineTest, HealthyRunIsByteIdenticalWithWatchdogArmed) {
  const Model model = test_models::FaultModel();
  SessionConfig config = test_models::FaultConfig(2, 4);
  const RunReport plain = RunTraining(model, config).report;
  config.watchdog_timeout = plain.makespan;  // generous: one period covers the whole run
  const RunReport guarded = RunTraining(model, config).report;
  EXPECT_FALSE(guarded.failed);
  EXPECT_EQ(guarded.makespan, plain.makespan);
  EXPECT_EQ(guarded.iterations.size(), plain.iterations.size());
}

TEST(FaultPlanTest, RangeAndSeedErrorsPointAtTheirField) {
  const struct {
    const char* spec;
    const char* why_fragment;
    int offset;
  } cases[] = {
      {"fail@1:gpu4294967296", "expected a target like 'gpu0'", 7},
      {"degrade@1:gpu4294967295:0.5:1", "expected a target like 'gpu0'", 10},
      {"flow_flap@1:nic4294967296", "expected a target like 'nic0'", 12},
      {"rand:seed=1,mtbf=1,horizon=3,nics=4294967297",
       "nics must be an integer in [0, 2147483647]", 34},
      {"rand:seed=abc,mtbf=1,horizon=3", "seed must be an unsigned integer", 10},
      {"rand:seed=-1,mtbf=1,horizon=3", "seed must be an unsigned integer", 10},
      {"rand:seed=1,mtbf=1,horizon=3,gpus=4x", "gpus must be an integer in [1, 2147483647]",
       34},
      {"rand:seed=1,seed=2,mtbf=1,horizon=3", "duplicate rand option 'seed'", 12},
      {"fail@1:gpu0;rand:mtbf=0", "mtbf must be a positive number", 22},
  };
  for (const auto& c : cases) {
    const StatusOr<FaultPlan> plan = ParseFaultSpec(c.spec);
    ASSERT_FALSE(plan.ok()) << c.spec << " parsed as " << plan.value().ToString();
    const std::string message = plan.status().ToString();
    EXPECT_NE(message.find("INVALID_ARGUMENT"), std::string::npos) << message;
    EXPECT_NE(message.find(c.why_fragment), std::string::npos) << message;
    EXPECT_NE(message.find("(at byte " + std::to_string(c.offset) + ";"), std::string::npos)
        << c.spec << " -> " << message;
  }
}

TEST(FaultPlanTest, RandBooleansTakeTheFlagVocabulary) {
  const StatusOr<FaultPlan> words = ParseFaultSpec("rand:seed=3,mtbf=1,horizon=8,fail=no,ext=on");
  const StatusOr<FaultPlan> digits = ParseFaultSpec("rand:seed=3,mtbf=1,horizon=8,fail=0,ext=1");
  ASSERT_TRUE(words.ok()) << words.status().ToString();
  ASSERT_TRUE(digits.ok()) << digits.status().ToString();
  EXPECT_EQ(words.value().ToString(), digits.value().ToString());
}

TEST(FaultPlanTest, RandSpecMatchesDirectConstruction) {
  RandomFaultOptions options;
  options.seed = 7;
  options.mtbf = 1.0;
  options.horizon = 5.0;
  options.num_gpus = 2;
  const StatusOr<FaultPlan> parsed =
      ParseFaultSpec("rand:seed=7,mtbf=1,horizon=5,gpus=2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().ToString(), MakeRandomFaultPlan(options).ToString());
}

}  // namespace
}  // namespace harmony
