#include "src/runtime/metrics.h"

#include <algorithm>
#include <sstream>

#include "src/util/check.h"

namespace harmony {
namespace {

// Averages `get(it)` over steady-state iterations.
template <typename Fn>
double SteadyAverage(const std::vector<IterationStats>& iterations, Fn get) {
  HCHECK(!iterations.empty());
  if (iterations.size() == 1) {
    return get(iterations[0]);
  }
  double total = 0.0;
  for (std::size_t i = 1; i < iterations.size(); ++i) {
    total += get(iterations[i]);
  }
  return total / static_cast<double>(iterations.size() - 1);
}

}  // namespace

const char* TimeClassName(TimeClass cls) {
  switch (cls) {
    case TimeClass::kCompute:
      return "compute";
    case TimeClass::kStallDependency:
      return "stall-dependency";
    case TimeClass::kStallMemory:
      return "stall-memory";
    case TimeClass::kStallTransfer:
      return "stall-transfer";
    case TimeClass::kStallCollective:
      return "stall-collective";
    case TimeClass::kIdle:
      return "idle";
  }
  return "unknown";
}

double DeviceTimeBreakdown::total() const {
  double sum = 0.0;
  for (double s : seconds) {
    sum += s;
  }
  return sum;
}

TimeClass DeviceTimeBreakdown::DominantStall() const {
  TimeClass best = TimeClass::kStallDependency;
  for (int c = static_cast<int>(TimeClass::kStallDependency); c < kNumTimeClasses; ++c) {
    if (seconds[c] > seconds[static_cast<int>(best)]) {
      best = static_cast<TimeClass>(c);
    }
  }
  return best;
}

std::int64_t RunReport::TensorChurn::refetches() const {
  const std::int64_t fetches = swap_ins + p2p_ins;
  return fetches > 0 ? fetches - 1 : 0;
}

double RunReport::steady_iteration_time() const {
  return SteadyAverage(iterations, [](const IterationStats& it) { return it.duration(); });
}

double RunReport::steady_throughput() const {
  const double t = steady_iteration_time();
  HCHECK_GT(t, 0.0);
  return static_cast<double>(samples_per_iteration) / t;
}

Bytes RunReport::steady_swap_in() const {
  return static_cast<Bytes>(SteadyAverage(
      iterations, [](const IterationStats& it) { return static_cast<double>(it.swap_in); }));
}

Bytes RunReport::steady_swap_out() const {
  return static_cast<Bytes>(SteadyAverage(
      iterations, [](const IterationStats& it) { return static_cast<double>(it.swap_out); }));
}

Bytes RunReport::steady_p2p() const {
  return static_cast<Bytes>(SteadyAverage(
      iterations, [](const IterationStats& it) { return static_cast<double>(it.p2p_in); }));
}

const RunReport::LinkUsage* RunReport::BottleneckLink() const {
  const LinkUsage* best = nullptr;
  for (const LinkUsage& link : links) {
    if (link.bytes > 0 && (best == nullptr || link.utilization > best->utilization)) {
      best = &link;
    }
  }
  return best;
}

std::string RunReport::Summary() const {
  std::ostringstream os;
  os << scheme << ": makespan " << FormatSeconds(makespan);
  if (iterations.empty()) {
    os << ", no iteration completed";  // a recovery segment cut short in its first one
    return os.str();
  }
  os << ", steady iter " << FormatSeconds(steady_iteration_time()) << " ("
     << FormatBytesDecimal(static_cast<double>(steady_swap_total())) << " swap/iter, "
     << FormatBytesDecimal(static_cast<double>(steady_p2p())) << " p2p/iter), throughput ";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.2f samples/s", steady_throughput());
  os << buffer;
  return os.str();
}

AttributionReport Attribute(const RunReport& report, int top_tensors) {
  AttributionReport out;
  double worst_fraction = -1.0;
  const int devices_with_breakdown =
      std::min(report.num_devices(), static_cast<int>(report.device_time.size()));
  for (int d = 0; d < devices_with_breakdown; ++d) {
    const DeviceTimeBreakdown& time = report.device_time[static_cast<std::size_t>(d)];
    AttributionReport::DeviceStall stall;
    stall.device = d;
    stall.dominant = time.DominantStall();
    stall.seconds = time.of(stall.dominant);
    stall.fraction = report.makespan > 0.0 ? stall.seconds / report.makespan : 0.0;
    if (stall.fraction > worst_fraction) {
      worst_fraction = stall.fraction;
      out.worst_device = d;
    }
    out.devices.push_back(stall);
  }
  if (const RunReport::LinkUsage* link = report.BottleneckLink()) {
    out.bottleneck_link = link->name;
    out.bottleneck_utilization = link->utilization;
    out.bottleneck_queue_depth = link->avg_queue_depth;
    out.bottleneck_bytes = link->bytes;
  }
  // Copy out only the entries returned. Tensor ids are unique, so the order is total and
  // the selection equals the prefix of a full sort.
  const std::size_t churned = report.tensor_churn.size();
  const std::size_t keep =
      top_tensors < 0 ? churned : std::min(churned, static_cast<std::size_t>(top_tensors));
  out.top_churn.resize(keep);
  std::partial_sort_copy(report.tensor_churn.begin(), report.tensor_churn.end(),
                         out.top_churn.begin(), out.top_churn.end(),
                         [](const RunReport::TensorChurn& a, const RunReport::TensorChurn& b) {
                           if (a.moved_bytes() != b.moved_bytes()) {
                             return a.moved_bytes() > b.moved_bytes();
                           }
                           return a.tensor < b.tensor;
                         });
  out.tiers = report.tiers;
  out.flows_retried = report.flows_retried;
  out.retry_exhausted = report.retry_exhausted;
  out.retry_backoff_sec = report.retry_backoff_sec;
  out.degraded_sec = report.degraded_sec;
  out.straggler_device = report.straggler_device;
  out.ckpt_verified_ok = report.ckpt_verified_ok;
  out.ckpt_corrupt_detected = report.ckpt_corrupt_detected;
  return out;
}

std::string AttributionReport::Summary() const {
  std::ostringstream os;
  char buffer[160];
  if (worst_device >= 0) {
    const DeviceStall& stall = devices[static_cast<std::size_t>(worst_device)];
    std::snprintf(buffer, sizeof(buffer), "gpu%d %s %.0f%%", stall.device,
                  TimeClassName(stall.dominant), stall.fraction * 100.0);
    os << buffer;
  } else {
    os << "no devices";
  }
  if (!bottleneck_link.empty()) {
    std::snprintf(buffer, sizeof(buffer), "; hot link %s %.0f%%", bottleneck_link.c_str(),
                  bottleneck_utilization * 100.0);
    os << buffer;
  }
  if (!top_churn.empty()) {
    os << "; top churn " << top_churn.front().name << " ("
       << FormatBytes(top_churn.front().moved_bytes()) << " moved, "
       << top_churn.front().refetches() << " re-fetches)";
  }
  return os.str();
}

std::string AttributionReport::Render() const {
  std::ostringstream os;
  char buffer[200];
  os << "bottleneck attribution:\n";
  for (const DeviceStall& stall : devices) {
    std::snprintf(buffer, sizeof(buffer),
                  "  gpu%d: dominant stall %-16s %8.3f s (%5.1f%% of makespan)%s\n",
                  stall.device, TimeClassName(stall.dominant), stall.seconds,
                  stall.fraction * 100.0, stall.device == worst_device ? "  <-- worst" : "");
    os << buffer;
  }
  if (!bottleneck_link.empty()) {
    std::snprintf(buffer, sizeof(buffer),
                  "  top contended link: %s (%.1f%% busy, avg queue %.2f, %s carried)\n",
                  bottleneck_link.c_str(), bottleneck_utilization * 100.0,
                  bottleneck_queue_depth, FormatBytes(bottleneck_bytes).c_str());
    os << buffer;
  } else {
    os << "  top contended link: none (no traffic)\n";
  }
  // Multi-node machines get the per-tier byte split; the section is absent on
  // single-server runs (tiers empty), keeping historical output byte-identical.
  if (!tiers.empty()) {
    os << "  tier byte split:\n";
    for (const RunReport::TierUsage& tier : tiers) {
      std::snprintf(buffer, sizeof(buffer),
                    "    %-5s %s carried (%lld flows, %.3f s link-busy; collective %s, "
                    "swap %s)\n",
                    tier.name.c_str(), FormatBytes(tier.bytes).c_str(),
                    static_cast<long long>(tier.flows), tier.busy_time,
                    FormatBytes(tier.of(TransferKind::kCollective)).c_str(),
                    FormatBytes(tier.of(TransferKind::kSwapIn) +
                                tier.of(TransferKind::kSwapOut))
                        .c_str());
      os << buffer;
    }
  }
  if (top_churn.empty()) {
    os << "  top churn tensors: none\n";
  } else {
    os << "  top churn tensors:\n";
    for (const RunReport::TensorChurn& churn : top_churn) {
      std::snprintf(buffer, sizeof(buffer),
                    "    %-24s %s moved (%lld evictions, %lld re-fetches, %lld clean-drops, "
                    "%lld write-backs)\n",
                    churn.name.c_str(), FormatBytes(churn.moved_bytes()).c_str(),
                    static_cast<long long>(churn.evictions),
                    static_cast<long long>(churn.refetches()),
                    static_cast<long long>(churn.clean_drops),
                    static_cast<long long>(churn.write_backs));
      os << buffer;
    }
  }
  // Only printed when the run actually exercised the resilience tier, so failure-free
  // output stays byte-identical to the pre-resilience renderer.
  if (flows_retried > 0 || retry_exhausted > 0 || degraded_sec > 0.0 ||
      straggler_device >= 0 || ckpt_verified_ok > 0 || ckpt_corrupt_detected > 0) {
    os << "  degraded-mode resilience:\n";
    if (flows_retried > 0 || retry_exhausted > 0) {
      std::snprintf(buffer, sizeof(buffer),
                    "    transfer retries: %lld reissued (%.3f s backoff), %lld exhausted\n",
                    static_cast<long long>(flows_retried), retry_backoff_sec,
                    static_cast<long long>(retry_exhausted));
      os << buffer;
    }
    if (degraded_sec > 0.0 || straggler_device >= 0) {
      std::snprintf(buffer, sizeof(buffer),
                    "    degraded compute: %.3f device-seconds at reduced scale%s\n",
                    degraded_sec,
                    straggler_device >= 0 ? " (straggler classified)" : "");
      os << buffer;
      if (straggler_device >= 0) {
        std::snprintf(buffer, sizeof(buffer), "    straggler device: gpu%d\n",
                      straggler_device);
        os << buffer;
      }
    }
    if (ckpt_verified_ok > 0 || ckpt_corrupt_detected > 0) {
      std::snprintf(buffer, sizeof(buffer),
                    "    checkpoint verification: %d ok, %d corrupt\n", ckpt_verified_ok,
                    ckpt_corrupt_detected);
      os << buffer;
    }
  }
  return os.str();
}

}  // namespace harmony
