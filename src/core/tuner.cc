#include "src/core/tuner.h"

#include <algorithm>

#include "src/util/table.h"
#include "src/util/thread_pool.h"

namespace harmony {

StatusOr<TunerResult> TunePp(const Model& model, const SessionConfig& base,
                             const TunerOptions& options) {
  const Bytes capacity = base.server.gpu.memory_bytes;

  // Phase 1: enumerate the whole candidate frontier up front (cheap), so profiling becomes
  // an index-addressed batch that can run in any order.
  struct Candidate {
    TunerPoint point;
    SessionConfig config;
  };
  std::vector<Candidate> candidates;
  for (int pack : options.pack_sizes) {
    for (int group : options.group_sizes) {
      for (int mbs : options.microbatch_sizes) {
        if (options.minibatch_samples % mbs != 0) {
          continue;  // keep the minibatch (SGD semantics) identical across the sweep
        }
        Candidate candidate;
        candidate.point.pack_size = pack;
        candidate.point.group_size = group;
        candidate.point.microbatch_size = mbs;
        candidate.point.microbatches = options.minibatch_samples / mbs;

        candidate.config = base;
        candidate.config.scheme = Scheme::kHarmonyPp;
        candidate.config.pack_size = pack;
        candidate.config.group_size = group;
        candidate.config.microbatch_size = mbs;
        candidate.config.microbatches = candidate.point.microbatches;
        candidate.config.iterations = options.iterations;
        HARMONY_RETURN_IF_ERROR(CheckSessionShape(model, candidate.config));
        candidates.push_back(std::move(candidate));
      }
    }
  }

  // Phase 2: probe + profile every point across the pool. Each point is written back to its
  // own slot, so the assembled vector matches the serial sweep order bit-for-bit.
  ThreadPool pool(ResolveThreadCount(options.num_threads));
  ParallelFor(pool, candidates.size(), [&](std::size_t i) {
    Candidate& candidate = candidates[i];
    TunerPoint& point = candidate.point;
    const std::vector<Bytes> peaks = ProbePeakWorkingSet(model, candidate.config);
    point.peak_working_set = *std::max_element(peaks.begin(), peaks.end());
    point.feasible = point.peak_working_set <= capacity;
    if (point.feasible) {
      const RunReport report = RunTraining(model, candidate.config).report;
      point.iteration_time = report.steady_iteration_time();
      point.throughput = report.steady_throughput();
      point.swap_volume = report.steady_swap_total();
      point.why = Attribute(report).Summary();
    }
  });

  TunerResult result;
  result.points.reserve(candidates.size());
  for (Candidate& candidate : candidates) {
    result.points.push_back(candidate.point);
  }

  const TunerPoint* best = nullptr;
  const TunerPoint* smallest = nullptr;
  for (const TunerPoint& point : result.points) {
    if (point.feasible && (best == nullptr || point.throughput > best->throughput)) {
      best = &point;
    }
    if (smallest == nullptr || point.peak_working_set < smallest->peak_working_set) {
      smallest = &point;
    }
  }
  if (smallest == nullptr) {
    return InvalidArgumentError("tuner sweep is empty: no microbatch size divides the " +
                                std::to_string(options.minibatch_samples) +
                                "-sample minibatch");
  }
  if (best == nullptr) {
    return InvalidArgumentError(
        "tuner found no feasible (pack, microbatch) configuration: the smallest single-task "
        "working set in the sweep (" +
        FormatBytes(smallest->peak_working_set) + ") exceeds gpu memory (" +
        FormatBytes(capacity) + ")");
  }
  result.best = *best;
  return result;
}

std::string RenderTunerTable(const TunerResult& result) {
  TablePrinter table({"pack", "group", "ubatch", "m", "peak WS", "swap/iter", "iter time",
                      "samples/s", "note"});
  for (const TunerPoint& point : result.points) {
    auto row = table.Row();
    row.Cell(std::to_string(point.pack_size))
        .Cell(point.group_size == 0 ? std::string("all") : std::to_string(point.group_size))
        .Cell(point.microbatch_size)
        .Cell(point.microbatches)
        .Cell(FormatBytes(point.peak_working_set));
    if (point.feasible) {
      row.Cell(FormatBytesDecimal(static_cast<double>(point.swap_volume)))
          .Cell(point.iteration_time, 4)
          .Cell(point.throughput, 2)
          .Cell(point.pack_size == result.best.pack_size &&
                        point.group_size == result.best.group_size &&
                        point.microbatch_size == result.best.microbatch_size
                    ? "<< best"
                    : "");
    } else {
      row.Cell("-").Cell("-").Cell("-").Cell("infeasible");
    }
  }
  return table.ToString();
}

}  // namespace harmony
