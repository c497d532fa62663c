// Performance Tuner (Fig. 3): profile-guided search over the "memory-performance tango"
// knobs of Sec. 4 — pack size and microbatch size under a fixed minibatch sample budget.
//
// Each candidate is checked for feasibility (largest single-task working set must fit the
// device; ProbePeakWorkingSet builds one iteration of its plan) and then profiled by
// running it: one RunTraining per feasible point. The tuner returns the whole swept
// frontier so benches can print the trade-off surface, plus the best point.
//
// Profiling is the cost center of the whole system (search cost grows multiplicatively with
// every knob), so sweep points profile concurrently on a ThreadPool: each one is a
// self-contained single-threaded Simulator. Results are assembled by sweep index, making
// the TunerResult bit-identical to the serial order for any `num_threads`.
#ifndef HARMONY_SRC_CORE_TUNER_H_
#define HARMONY_SRC_CORE_TUNER_H_

#include <string>
#include <vector>

#include "src/core/session.h"

namespace harmony {

struct TunerPoint {
  int pack_size = 1;
  int group_size = 0;  // 0 = whole minibatch
  int microbatch_size = 1;
  int microbatches = 1;  // derived: minibatch_samples / microbatch_size
  bool feasible = false;
  double throughput = 0.0;       // samples/sec (steady state); 0 when infeasible
  double iteration_time = 0.0;
  Bytes swap_volume = 0;         // steady-state swap bytes per iteration
  Bytes peak_working_set = 0;    // max across devices
  // One-line bottleneck attribution for feasible points (AttributionReport::Summary()):
  // the winning configuration carries *why* it wins. Not part of RenderTunerTable, whose
  // output the golden benches pin byte-for-byte.
  std::string why;
};

struct TunerOptions {
  std::vector<int> pack_sizes = {1, 2, 4};
  std::vector<int> group_sizes = {0};  // input-batch group sweep (0 = whole minibatch)
  std::vector<int> microbatch_sizes = {1, 2, 4};
  int minibatch_samples = 16;  // fixed SGD semantics across the sweep
  int iterations = 2;
  // Worker threads profiling sweep points (<= 0 = one per hardware thread). The result is
  // bit-identical across thread counts; see the header comment.
  int num_threads = 0;
};

struct TunerResult {
  std::vector<TunerPoint> points;
  TunerPoint best;  // feasible point with max throughput
};

// Sweeps Harmony-PP configurations derived from `base` (scheme/pack/microbatch fields are
// overwritten per point). Every point must pass CheckSessionShape before anything is built
// (else that error comes back); a sweep with no feasible point is INVALID_ARGUMENT naming
// its smallest peak working set and the device capacity.
StatusOr<TunerResult> TunePp(const Model& model, const SessionConfig& base,
                             const TunerOptions& options);

std::string RenderTunerTable(const TunerResult& result);

}  // namespace harmony

#endif  // HARMONY_SRC_CORE_TUNER_H_
