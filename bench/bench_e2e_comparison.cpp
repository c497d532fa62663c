// End-to-end comparison: all four schemes training BERT-large (whose training state
// exceeds a single 11 GB GPU) on the simulated 4x1080Ti commodity server, at a fixed global
// minibatch of 32 sequences.
//
// The baselines run as stock scripts (the paper's point: their schedule is rigid). The
// Harmony rows use the system's Performance Tuner (Fig. 3): each scheme is profiled over a
// small configuration space (microbatch split, pack size, activation recomputation) and the
// best feasible point is reported — that freedom *is* the contribution being measured.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/graph/model_zoo.h"
#include "src/util/table.h"

#include "bench/bench_timer.h"

namespace {

struct Outcome {
  std::string label;
  harmony::RunReport report;
};

Outcome RunBest(const char* name, const harmony::Model& model,
                const std::vector<std::pair<std::string, harmony::SessionConfig>>& candidates) {
  using namespace harmony;
  const Outcome* best = nullptr;
  std::vector<Outcome> outcomes;
  outcomes.reserve(candidates.size());
  for (const auto& [suffix, config] : candidates) {
    const auto peaks = ProbePeakWorkingSet(model, config);
    if (*std::max_element(peaks.begin(), peaks.end()) > config.server.gpu.memory_bytes) {
      continue;  // infeasible point
    }
    outcomes.push_back(Outcome{std::string(name) + suffix, RunTraining(model, config).report});
    // Attribution goes to stderr: the golden-stdout gate pins this bench's stdout.
    std::fprintf(stderr, "[explain] %s: %s\n", outcomes.back().label.c_str(),
                 Attribute(outcomes.back().report).Summary().c_str());
    if (best == nullptr ||
        outcomes.back().report.steady_throughput() > best->report.steady_throughput()) {
      best = &outcomes.back();
    }
  }
  return *best;
}

}  // namespace

int main() {
  harmony::BenchWallClock wall_clock("bench_e2e_comparison");
  using namespace harmony;
  std::cout << "=== End-to-end: BERT-large on 4x 1080Ti (global minibatch 32 seqs) ===\n\n";
  const Model bert = MakeBertLarge();
  std::cout << bert.Summary() << "\n\n";

  SessionConfig base;
  base.server.num_gpus = 4;
  base.iterations = 3;

  std::vector<Outcome> rows;

  {  // Stock DDP script: per-GPU batch 8 as one microbatch, LMS virtualization.
    SessionConfig config = base;
    config.scheme = Scheme::kBaselineDp;
    config.microbatches = 1;
    config.microbatch_size = 8;
    rows.push_back(Outcome{"baseline-DP (DDP + LMS)", RunTraining(bert, config).report});
    std::fprintf(stderr, "[explain] %s: %s\n", rows.back().label.c_str(),
                 Attribute(rows.back().report).Summary().c_str());
  }
  {  // Stock 1F1B script: 4 stages, 4 microbatches of 8.
    SessionConfig config = base;
    config.scheme = Scheme::kBaselinePp;
    config.microbatches = 4;
    config.microbatch_size = 8;
    rows.push_back(Outcome{"baseline-PP (1F1B + LMS)", RunTraining(bert, config).report});
    std::fprintf(stderr, "[explain] %s: %s\n", rows.back().label.c_str(),
                 Attribute(rows.back().report).Summary().c_str());
  }
  {  // Harmony-DP, tuner over microbatch split x recompute.
    std::vector<std::pair<std::string, SessionConfig>> candidates;
    for (int m : {1, 2, 4}) {
      for (bool recompute : {false, true}) {
        SessionConfig config = base;
        config.scheme = Scheme::kHarmonyDp;
        config.microbatches = m;
        config.microbatch_size = 8 / m;
        config.recompute = recompute;
        candidates.emplace_back(" [m=" + std::to_string(m) +
                                    (recompute ? ",recompute]" : "]"),
                                config);
      }
    }
    rows.push_back(RunBest("Harmony-DP", bert, candidates));
  }
  {  // Harmony-PP, tuner over pack size x microbatch split x recompute.
    std::vector<std::pair<std::string, SessionConfig>> candidates;
    for (int pack : {2, 4, 8}) {
      for (int mbs : {4, 8}) {
        for (bool recompute : {false, true}) {
          SessionConfig config = base;
          config.scheme = Scheme::kHarmonyPp;
          config.microbatch_size = mbs;
          config.microbatches = 32 / mbs;
          config.pack_size = pack;
          config.recompute = recompute;
          candidates.emplace_back(" [pack=" + std::to_string(pack) + ",ub=" +
                                      std::to_string(mbs) +
                                      (recompute ? ",recompute]" : "]"),
                                  config);
        }
      }
    }
    rows.push_back(RunBest("Harmony-PP", bert, candidates));
  }

  TablePrinter table({"scheme", "throughput (seqs/s)", "iter (s)", "swap (GB/iter)",
                      "p2p (GB/iter)", "allreduce (GB/iter)", "speedup vs baseline-DP"});
  const double base_throughput = rows.front().report.steady_throughput();
  for (const Outcome& row : rows) {
    const auto& it = row.report.iterations[1];
    table.Row()
        .Cell(row.label)
        .Cell(row.report.steady_throughput(), 2)
        .Cell(row.report.steady_iteration_time(), 2)
        .Cell(static_cast<double>(row.report.steady_swap_total()) / kGB, 2)
        .Cell(static_cast<double>(row.report.steady_p2p()) / kGB, 2)
        .Cell(static_cast<double>(it.collective_bytes) / kGB, 2)
        .Cell(row.report.steady_throughput() / base_throughput, 2);
  }
  table.Print(std::cout);

  const double dp_gain =
      rows[2].report.steady_throughput() / rows[0].report.steady_throughput();
  const double pp_gain =
      rows[3].report.steady_throughput() / rows[1].report.steady_throughput();
  std::printf(
      "\nShape check vs paper: Harmony variants dominate their per-GPU-virtualization "
      "baselines (DP: %.2fx, PP: %.2fx), with Harmony-PP best overall. %s\n",
      dp_gain, pp_gain,
      (dp_gain > 1.0 && pp_gain > 1.0) ? "REPRODUCED" : "NOT REPRODUCED");
  return 0;
}
