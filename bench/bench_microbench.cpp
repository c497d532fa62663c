// Substrate micro-benchmarks (google-benchmark): the cost of the pieces every experiment
// leans on — event queue throughput, allocator churn, fair-share rate recomputation, plan
// construction, and a full small training simulation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/hw/transfer_manager.h"
#include "src/mem/allocator.h"
#include "src/mem/memory_manager.h"
#include "src/runtime/next_use.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace harmony {
namespace {

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    const int n = static_cast<int>(state.range(0));
    sim.Reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      sim.ScheduleAfter(static_cast<double>(i % 97), [] {});
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventThroughput)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Arg(10000000);

void BM_AllocatorChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    DeviceAllocator alloc(1 * kGiB);
    std::vector<std::pair<Bytes, Bytes>> blocks;
    for (int i = 0; i < n; ++i) {
      const Bytes size = 1 * kMiB + (i % 7) * 128 * kKiB;
      const Bytes offset = alloc.Allocate(size);
      if (offset >= 0) {
        blocks.emplace_back(offset, size);
      }
      if (i % 3 == 0 && !blocks.empty()) {
        alloc.Free(blocks.back().first, blocks.back().second);
        blocks.pop_back();
      }
    }
    for (const auto& [offset, size] : blocks) {
      alloc.Free(offset, size);
    }
    benchmark::DoNotOptimize(alloc.free_bytes());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AllocatorChurn)->Arg(256)->Arg(1024);

void BM_FairShareFlows(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ServerConfig config;
    config.num_gpus = 8;
    config.gpus_per_switch = 8;
    Topology topo = MakeCommodityServerTopology(config);
    Simulator sim;
    TransferManager tm(&sim, &topo);
    for (int f = 0; f < flows; ++f) {
      tm.StartTransfer(topo.gpu_node(f % 8), topo.host_node(), 64 * kMiB,
                       TransferKind::kSwapOut, [](TransferOutcome) {});
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(tm.flows_completed());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FairShareFlows)->Arg(16)->Arg(64)->Arg(256);

// Sustained arrival/departure churn with ~1k concurrent flows: random sizes and staggered
// deterministic arrivals keep the incremental re-rate and completion-heap paths hot, unlike
// BM_FairShareFlows' single synchronized wave.
void BM_FlowChurn(benchmark::State& state) {
  const int flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ServerConfig config;
    config.num_gpus = 8;
    config.gpus_per_switch = 4;
    Topology topo = MakeCommodityServerTopology(config);
    Simulator sim;
    TransferManager tm(&sim, &topo);
    Rng rng(0xC0FFEE);
    for (int f = 0; f < flows; ++f) {
      const NodeId src = topo.gpu_node(static_cast<int>(rng.NextBounded(8)));
      const bool to_host = rng.NextBounded(4) != 0;  // mostly swap traffic, some p2p
      const NodeId dst =
          to_host ? topo.host_node()
                  : topo.gpu_node(static_cast<int>(rng.NextBounded(8)));
      const Bytes bytes = static_cast<Bytes>(1 + rng.NextBounded(16)) * kMiB;
      const double start = rng.NextDouble(0.0, 0.05);
      const TransferKind kind = to_host ? TransferKind::kSwapOut : TransferKind::kPeerToPeer;
      sim.ScheduleAfter(start, [&tm, src, dst, bytes, kind] {
        tm.StartTransfer(src, dst, bytes, kind, [](TransferOutcome) {});
      });
    }
    sim.RunUntilIdle();
    benchmark::DoNotOptimize(tm.flows_completed());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowChurn)->Arg(1000);

// ---- Eviction hot path: indexed victim selection vs the O(residents) reference scan ----
//
// Steady-state churn on one device: the population is twice what fits, so every acquisition
// of the round-robin next tensor evicts exactly one resident. args: {residents,
// reference_scan, lookahead}. The reference arm forces the retained full scan through
// MemorySystem::set_reference_scan_eviction. The scan visits every member of the same LRU
// list the indexed pick walks from its head, and index maintenance still runs, so the delta
// is purely victim-selection cost.
class EvictionChurnHarness {
 public:
  EvictionChurnHarness(int residents, bool reference_scan, bool lookahead) {
    ServerConfig config;
    config.num_gpus = 1;
    topo_ = MakeCommodityServerTopology(config);
    tm_ = std::make_unique<TransferManager>(&sim_, &topo_);
    MemoryPolicy policy = HarmonyPolicy();  // clean evictions drop for free (no write-back)
    policy.allow_p2p = false;
    if (lookahead) {
      policy.eviction = EvictionPolicy::kLookahead;
    }
    const Bytes capacity = static_cast<Bytes>(residents) * 256;
    system_ = std::make_unique<MemorySystem>(&sim_, tm_.get(), &reg_, &topo_,
                                             std::vector<Bytes>{capacity}, policy);
    system_->set_reference_scan_eviction(reference_scan);
    if (lookahead) {
      // Static distances: a fixed pseudo-random next use per tensor (some "never"), so the
      // scan arm pays one oracle call per candidate — exactly the pre-index cost model.
      system_->SetNextUseOracle([](TensorId tensor, int device) -> std::uint64_t {
        std::uint64_t h =
            static_cast<std::uint64_t>(tensor) * std::uint64_t{0x9E3779B97F4A7C15} +
            static_cast<std::uint64_t>(device + 1) * std::uint64_t{0xBF58476D1CE4E5B9};
        h ^= h >> 31;
        h *= std::uint64_t{0x94D049BB133111EB};
        h ^= h >> 27;
        return h % 5 == 0 ? std::numeric_limits<std::uint64_t>::max() : h % 100000;
      });
    }
    const int population = residents * 2;
    ids_.reserve(static_cast<std::size_t>(population));
    for (int i = 0; i < population; ++i) {
      ids_.push_back(reg_.Create("t" + std::to_string(i), 256, TensorClass::kActivation,
                                 /*host_valid=*/true));
    }
    for (int i = 0; i < residents; ++i) {
      Step();  // warm until the device is full; churn steady-state begins at `residents`
    }
  }

  void Step() {
    WorkingSet set;
    set.fetch = {ids_[next_]};
    next_ = (next_ + 1) % ids_.size();
    auto acq = system_->manager(0).Acquire(std::move(set));
    sim_.RunUntilIdle();
    system_->manager(0).Release(acq.handle);
    sim_.RunUntilIdle();
  }

  std::int64_t evictions() const { return system_->manager(0).counters().evictions; }

 private:
  Simulator sim_;
  Topology topo_;
  TensorRegistry reg_;
  std::unique_ptr<TransferManager> tm_;
  std::unique_ptr<MemorySystem> system_;
  std::vector<TensorId> ids_;
  std::size_t next_ = 0;
};

void BM_EvictionChurn(benchmark::State& state) {
  EvictionChurnHarness harness(static_cast<int>(state.range(0)), state.range(1) != 0,
                               state.range(2) != 0);
  const std::int64_t warm_evictions = harness.evictions();
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      harness.Step();
    }
  }
  state.SetItemsProcessed(state.iterations() * 32);
  state.counters["evictions"] =
      static_cast<double>(harness.evictions() - warm_evictions);
}
BENCHMARK(BM_EvictionChurn)
    ->Args({1024, /*reference_scan=*/0, /*lookahead=*/0})
    ->Args({1024, /*reference_scan=*/1, /*lookahead=*/0})
    ->Args({1024, /*reference_scan=*/0, /*lookahead=*/1})
    ->Args({1024, /*reference_scan=*/1, /*lookahead=*/1})
    ->Args({4096, /*reference_scan=*/0, /*lookahead=*/1})
    ->Args({4096, /*reference_scan=*/1, /*lookahead=*/1});

// The engine's next-use oracle substrate: monotone per-tensor cursors (next_use.h) vs the
// pre-index map-of-use-lists with a binary search per query. Both arms build their structure
// and then sweep positions 0..N querying two tensors per position — the engine's access
// pattern (queries' positions never decrease). arg: 0 = cursors, 1 = map + lower_bound.
void BM_NextUseOracle(benchmark::State& state) {
  const bool reference = state.range(0) != 0;
  constexpr int kTensors = 512;
  constexpr std::uint64_t kPositions = 512 * 64;
  // Deterministic use lists, identical for both arms.
  Rng rng(0x5EED);
  std::vector<std::vector<std::uint64_t>> uses(kTensors);
  for (std::uint64_t pos = 0; pos < kPositions; ++pos) {
    uses[rng.NextBounded(kTensors)].push_back(pos);
  }
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t sink = 0;
  for (auto _ : state) {
    if (reference) {
      std::map<TensorId, std::vector<std::uint64_t>> index;
      for (int t = 0; t < kTensors; ++t) {
        index.emplace(t, uses[static_cast<std::size_t>(t)]);
      }
      for (std::uint64_t pos = 0; pos < kPositions; ++pos) {
        for (int k = 0; k < 2; ++k) {
          const TensorId t = static_cast<TensorId>((pos * 7 + static_cast<std::uint64_t>(k) * 131) % kTensors);
          const auto it = index.find(t);
          const auto& list = it->second;
          const auto use = std::lower_bound(list.begin(), list.end(), pos);
          sink += use == list.end() ? kNever : *use;
        }
      }
    } else {
      NextUseIndex index(/*num_devices=*/1);
      for (int t = 0; t < kTensors; ++t) {
        for (std::uint64_t pos : uses[static_cast<std::size_t>(t)]) {
          index.AddUse(t, /*device=*/0, pos);
        }
      }
      for (std::uint64_t pos = 0; pos < kPositions; ++pos) {
        for (int k = 0; k < 2; ++k) {
          const TensorId t = static_cast<TensorId>((pos * 7 + static_cast<std::uint64_t>(k) * 131) % kTensors);
          sink += index.NextUseAtOrAfter(t, /*device=*/0, pos);
        }
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kPositions) * 2);
}
BENCHMARK(BM_NextUseOracle)->Arg(0)->Arg(1);

void BM_PlanConstructionBertLarge(benchmark::State& state) {
  const Model bert = MakeBertLarge();
  const Machine machine = MakeCommodityServer(ServerConfig{});
  for (auto _ : state) {
    TensorRegistry registry;
    SessionConfig config;
    config.scheme = Scheme::kHarmonyPp;
    config.microbatches = 8;
    config.microbatch_size = 5;
    config.iterations = 2;
    Plan plan = BuildPlanForConfig(bert, machine, &registry, config);
    benchmark::DoNotOptimize(plan.tasks.size());
  }
}
BENCHMARK(BM_PlanConstructionBertLarge);

void BM_FullTrainingSimulation(benchmark::State& state) {
  const Model bert = MakeBertBase();
  for (auto _ : state) {
    SessionConfig config;
    config.server.num_gpus = 4;
    config.scheme = Scheme::kHarmonyPp;
    config.microbatches = 4;
    config.microbatch_size = 4;
    config.iterations = 2;
    const SessionResult result = RunTraining(bert, config);
    benchmark::DoNotOptimize(result.report.makespan);
  }
}
BENCHMARK(BM_FullTrainingSimulation);

}  // namespace
}  // namespace harmony

// Like BENCHMARK_MAIN(), plus a default JSON report (BENCH_microbench.json in the working
// directory) so runs are machine-comparable without remembering the flags. Any explicit
// --benchmark_out on the command line wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_microbench.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool user_specified_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      user_specified_out = true;
    }
  }
  if (!user_specified_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
