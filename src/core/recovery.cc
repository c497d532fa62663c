#include "src/core/recovery.h"

#include <numeric>
#include <sstream>
#include <utility>

#include "src/mem/tensor.h"
#include "src/runtime/report_io.h"
#include "src/util/json.h"

namespace harmony {
namespace {

bool IsDataParallel(Scheme scheme) {
  return scheme == Scheme::kBaselineDp || scheme == Scheme::kHarmonyDp;
}

// Fire-and-forget kinds with no time window: either they happen inside the segment or
// they already happened.
bool Instantaneous(const FaultEvent& event) {
  return event.kind == FaultKind::kGpuFailStop || event.kind == FaultKind::kFlowFlap ||
         event.kind == FaultKind::kCkptCorrupt;
}

// Upper bound on recovery segments: a fault plan is finite, so a run that keeps failing
// past this is looping (e.g. rolling back into the same permanent fault forever).
constexpr std::size_t kMaxSegments = 64;

}  // namespace

std::string ElasticResult::FaultTrace() const {
  std::string out;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    out += "--- segment " + std::to_string(i) + " ---\n";
    out += segments[i].result.fault_trace;
  }
  return out;
}

std::string ElasticResult::ToJson() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"harmony-elastic-report\",\n  \"version\": 1,\n";
  os << "  \"status\": " << JsonString(status.ToString()) << ",\n";
  os << "  \"completed_iterations\": " << completed_iterations << ",\n";
  os << "  \"total_makespan_s\": " << JsonNumber(total_makespan) << ",\n";
  os << "  \"checkpoints_committed\": " << checkpoints_committed << ",\n";
  os << "  \"checkpoint_bytes\": " << checkpoint_bytes << ",\n";
  os << "  \"recovery\": {\"failures\": " << stats.failures
     << ", \"degradations\": " << stats.degradations
     << ", \"retry_exhaustions\": " << stats.retry_exhaustions
     << ", \"flows_retried\": " << stats.flows_retried
     << ", \"retry_backoff_s\": " << JsonNumber(stats.retry_backoff_sec)
     << ", \"ckpt_verified\": " << stats.ckpt_verified
     << ", \"ckpt_corrupt_detected\": " << stats.ckpt_corrupt_detected
     << ", \"lost_work_s\": " << JsonNumber(stats.lost_work_sec)
     << ", \"recovery_latency_s\": " << JsonNumber(stats.recovery_latency_sec)
     << ", \"reswap_bytes\": " << stats.reswap_bytes << "},\n";
  os << "  \"segments\": [";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const RecoverySegment& segment = segments[i];
    os << (i > 0 ? "," : "") << "\n    {\"start_iteration\": " << segment.start_iteration
       << ", \"iterations\": " << segment.iterations << ", \"gpus\": [";
    for (std::size_t g = 0; g < segment.gpus.size(); ++g) {
      os << (g > 0 ? ", " : "") << segment.gpus[g];
    }
    // Each segment's run report is embedded verbatim, so it reads as it would on its own.
    os << "],\n     \"fault_trace\": " << JsonString(segment.result.fault_trace)
       << ",\n     \"report\": " << ReportToJson(segment.result.report) << "    }";
  }
  os << "\n  ]\n}\n";
  return std::move(os).str();
}

FaultPlan ShiftFaultPlan(const FaultPlan& plan, double offset, const std::vector<bool>& dead,
                         const std::vector<int>& alive) {
  std::vector<int> local(dead.size(), -1);
  for (std::size_t i = 0; i < alive.size(); ++i) {
    local[static_cast<std::size_t>(alive[i])] = static_cast<int>(i);
  }
  FaultPlan shifted;
  for (FaultEvent event : plan.events()) {
    if (event.targets_gpu() && dead[static_cast<std::size_t>(event.gpu)]) {
      continue;  // the target died in an earlier segment; its links no longer exist
    }
    const double local_time = event.time - offset;
    if (Instantaneous(event)) {
      if (local_time < 0.0) {
        continue;  // already struck
      }
      event.time = local_time;
    } else if (local_time < 0.0) {
      // A degradation that began before the segment boundary: still in force if permanent
      // or if its window extends past the boundary — re-apply at local 0 for the remainder.
      if (event.duration == 0.0) {
        event.time = 0.0;
      } else if (event.time + event.duration > offset) {
        event.duration = event.time + event.duration - offset;
        event.time = 0.0;
      } else {
        continue;  // expired before the segment started
      }
    } else {
      event.time = local_time;
    }
    if (event.targets_gpu()) {
      event.gpu = local[static_cast<std::size_t>(event.gpu)];
    }
    shifted.Add(event);
  }
  return shifted;
}

ElasticResult RunTrainingElastic(const Model& model, const SessionConfig& config) {
  ElasticResult result;
  // The bookkeeping below sizes itself by the config's GPU count, so the shape is checked
  // before anything is sized.
  result.status = CheckSessionShape(model, config);
  if (!result.status.ok()) {
    return result;
  }
  // Fault targets index GPUs across the whole fleet, so the bookkeeping does too.
  const int total_gpus = config.total_gpus();
  // Rebinding re-plans one server onto its survivors. A multi-node fleet keeps its
  // per-node shape in every segment, so it cannot drop a GPU: a fail-stop there is a
  // typed error and a straggler finishes degraded.
  const bool can_shrink = config.num_nodes <= 1;
  const bool data_parallel = IsDataParallel(config.scheme);
  // DP configs give microbatches per GPU; the minibatch (hence SGD semantics) must survive
  // the shrink, so carry the total and re-divide per segment.
  const int total_microbatches =
      data_parallel ? config.microbatches * total_gpus : config.microbatches;

  std::vector<int> alive(static_cast<std::size_t>(total_gpus));
  std::iota(alive.begin(), alive.end(), 0);
  std::vector<bool> dead(static_cast<std::size_t>(total_gpus), false);
  double offset = 0.0;     // global sim time consumed by earlier segments
  int next_iteration = 0;  // first global iteration the next segment must run

  // The checkpoint ring buffer outlives segments: a corrupted newest generation falls
  // back to an older one, possibly committed before the current segment began.
  CheckpointStore store(config.ckpt_keep);
  // Dropped to 0 when a straggler cannot be excluded (the run completes degraded on the
  // full device set instead of re-classifying the same straggler every segment).
  double straggler_threshold = config.straggler_threshold;

  // Every exit below leaves the loop with `result.status` set, so the store's counts are
  // recorded on one path whether the run completed or was refused. Progress is recorded
  // before anything can exit: the committed iterations at the top of each pass, and once
  // more after each segment runs.
  for (;;) {
    result.completed_iterations = next_iteration;
    if (alive.empty()) {
      result.status = FailedPreconditionError(
          "every GPU has fail-stopped; no surviving device to rebind onto");
      break;
    }
    if (result.segments.size() >= kMaxSegments) {
      result.status = ResourceExhaustedError(
          "recovery did not converge after " + std::to_string(kMaxSegments) +
          " segments — the fault plan keeps striking faster than progress commits");
      break;
    }

    RecoverySegment segment;
    segment.start_iteration = next_iteration;
    segment.iterations = config.iterations - next_iteration;
    segment.gpus = alive;
    segment.config = config;
    if (can_shrink) {
      segment.config.server.num_gpus = static_cast<int>(alive.size());
    }
    segment.config.iterations = segment.iterations;
    segment.config.straggler_threshold = straggler_threshold;
    // Segment-local commits land in the shared ring as global (iteration, time) pairs.
    // Without faults nothing can roll back to them, so the run keeps no ring.
    store.SetBases(next_iteration, offset);
    segment.config.checkpoint_store = config.faults.empty() ? nullptr : &store;
    if (data_parallel) {
      if (total_microbatches % static_cast<int>(alive.size()) != 0) {
        result.status = FailedPreconditionError(
            "cannot shrink data parallelism to " + std::to_string(alive.size()) +
            " GPUs: the minibatch of " + std::to_string(total_microbatches) +
            " microbatches does not divide evenly — SGD semantics would change");
        break;
      }
      segment.config.microbatches = total_microbatches / static_cast<int>(alive.size());
    }
    segment.config.faults = ShiftFaultPlan(config.faults, offset, dead, alive);

    // Rebinding onto fewer devices concentrates layers/replicas, so every segment is
    // validated as it is built; the run then executes exactly that plan.
    StatusOr<PreparedSession> prepared = PrepareSession(model, segment.config);
    if (!prepared.ok()) {
      result.status = result.segments.empty()
                          ? prepared.status()
                          : FailedPreconditionError(
                                "surviving configuration on " + std::to_string(alive.size()) +
                                " GPUs is infeasible: " + prepared.status().message());
      break;
    }
    segment.result = RunTraining(std::move(prepared).value());
    // The store is owned by this coordinator; don't leak a dangling pointer into the
    // replayable per-segment config.
    segment.config.checkpoint_store = nullptr;
    const RunReport& report = segment.result.report;
    result.total_makespan += report.makespan;
    result.checkpoints_committed += report.checkpoints_committed;
    result.checkpoint_bytes += report.checkpoint_bytes;
    result.stats.flows_retried += report.flows_retried;
    result.stats.retry_backoff_sec += report.retry_backoff_sec;
    const int segment_completed = static_cast<int>(report.iterations.size());
    result.completed_iterations = next_iteration + segment_completed;
    const bool all_done = segment_completed == segment.iterations;
    const bool failed = report.failed;
    const std::string failure_kind = report.failure_kind;
    const int failed_local = report.failed_device;
    const double failure_time = report.failure_time;
    const double makespan = report.makespan;
    result.segments.push_back(std::move(segment));

    if (all_done || !failed) {
      result.status = Status::Ok();
      break;
    }

    if (failure_kind == "gpu-straggler") {
      // Middle rung of the ladder: the segment closed on a complete iteration boundary,
      // so progress is kept as-is — no rollback, no lost work. Rebind away from the slow
      // device when the workload allows it; otherwise finish degraded on the full set.
      ++result.stats.degradations;
      result.stats.recovery_latency_sec += makespan - failure_time;
      next_iteration += segment_completed;
      offset += makespan;
      const bool can_exclude =
          can_shrink && failed_local >= 0 && alive.size() > 1 &&
          (!data_parallel ||
           total_microbatches % static_cast<int>(alive.size() - 1) == 0);
      if (can_exclude) {
        const int dead_original = alive.at(static_cast<std::size_t>(failed_local));
        dead[static_cast<std::size_t>(dead_original)] = true;
        alive.erase(alive.begin() + failed_local);
      } else {
        straggler_threshold = 0.0;
      }
      continue;
    }

    if (failure_kind == "gpu-fail-stop" || failure_kind == "transfer-retry-exhausted") {
      // Bottom rung: roll back to the newest checkpoint generation that passes digest
      // verification (possibly older than this segment), then rebind. Retry exhaustion
      // keeps the full device set — the fabric failed, not a GPU.
      const CheckpointGeneration* generation = store.NewestValid();
      if (store.committed() > 0 && generation == nullptr) {
        result.status = FailedPreconditionError(
            "all " + std::to_string(store.committed()) +
            " committed checkpoint generation(s) failed digest verification — nothing "
            "valid to roll back to");
        break;
      }
      const double rollback_time = generation != nullptr ? generation->time : offset;
      result.stats.lost_work_sec += (offset + failure_time) - rollback_time;
      result.stats.recovery_latency_sec += makespan - failure_time;
      if (failure_kind == "gpu-fail-stop") {
        ++result.stats.failures;
        const int dead_original = alive.at(static_cast<std::size_t>(failed_local));
        if (!can_shrink) {
          result.status = FailedPreconditionError(
              "gpu" + std::to_string(dead_original) + " fail-stopped, but a fleet of " +
              std::to_string(config.num_nodes) +
              " nodes cannot drop a GPU: recovery rebinds onto one server's survivors only");
          break;
        }
        dead[static_cast<std::size_t>(dead_original)] = true;
        alive.erase(alive.begin() + failed_local);
      } else {
        ++result.stats.retry_exhaustions;
      }
      if (generation != nullptr) {
        next_iteration = generation->iteration + 1;
      }  // no valid generation ever committed: restart the segment from its start
      offset += makespan;
      continue;
    }

    result.status = FailedPreconditionError(
        "schedule stalled (watchdog) at sim time " + std::to_string(failure_time) +
        " — rebinding cannot fix a livelocked configuration");
    break;
  }
  result.stats.ckpt_verified = store.verified_ok();
  result.stats.ckpt_corrupt_detected = store.corrupt_detected();
  if (!result.status.ok()) {
    return result;
  }

  // Checkpoint fan-out cost: weights + optimizer state the survivors had to re-stage in
  // each recovery segment's first iteration.
  for (std::size_t i = 1; i < result.segments.size(); ++i) {
    const RunReport& report = result.segments[i].result.report;
    if (!report.iterations.empty()) {
      const IterationStats& first = report.iterations.front();
      result.stats.reswap_bytes +=
          first.swap_in_by_class[static_cast<int>(TensorClass::kWeight)] +
          first.swap_in_by_class[static_cast<int>(TensorClass::kOptimizerState)];
    }
  }
  return result;
}

}  // namespace harmony
