#include "perfbench/checks.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/hw/transfer_manager.h"

namespace perfbench {
namespace {

using harmony::Bytes;
using harmony::ClusterReport;
using harmony::JobOutcome;
using harmony::RunReport;
using harmony::TimeClass;
using harmony::TransferKind;

constexpr int kSwapKinds[] = {static_cast<int>(TransferKind::kSwapIn),
                              static_cast<int>(TransferKind::kSwapOut)};

// The same relative tolerance the repository's own conservation tests use for sums of
// doubles; byte and flow counts are compared exactly.
bool NearlyEqual(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

void CheckTiers(const RunReport& report, std::vector<std::string>* violations) {
  if (report.tiers.empty()) {
    return;  // single-server machines have no tier rollup
  }
  Bytes link_bytes = 0, tier_bytes = 0;
  std::int64_t link_flows = 0, tier_flows = 0;
  Bytes link_by_kind[harmony::kNumTransferKinds] = {};
  Bytes tier_by_kind[harmony::kNumTransferKinds] = {};
  for (const RunReport::LinkUsage& link : report.links) {
    link_bytes += link.bytes;
    link_flows += link.flows;
    for (int k = 0; k < harmony::kNumTransferKinds; ++k) {
      link_by_kind[k] += link.bytes_by_kind[k];
    }
  }
  for (const RunReport::TierUsage& tier : report.tiers) {
    tier_bytes += tier.bytes;
    tier_flows += tier.flows;
    for (int k = 0; k < harmony::kNumTransferKinds; ++k) {
      tier_by_kind[k] += tier.bytes_by_kind[k];
    }
    if (tier.name != "pcie") {
      for (int k : kSwapKinds) {
        if (tier.bytes_by_kind[k] != 0) {
          violations->push_back(tier.name + " tier carries swap bytes");
        }
      }
    }
  }
  if (tier_bytes != link_bytes || tier_flows != link_flows ||
      !std::equal(std::begin(tier_by_kind), std::end(tier_by_kind),
                  std::begin(link_by_kind))) {
    violations->push_back("tiers do not partition the link totals");
  }
}

}  // namespace

std::vector<std::string> CheckRunReport(const RunReport& report, int expected_iterations) {
  std::vector<std::string> violations;
  if (report.failed) {
    violations.push_back("run failed: " + report.failure_kind);
  }
  if (static_cast<int>(report.iterations.size()) != expected_iterations) {
    violations.push_back("completed " + std::to_string(report.iterations.size()) + " of " +
                         std::to_string(expected_iterations) + " iterations");
  }
  if (report.device_time.size() != report.device_busy.size()) {
    violations.push_back("time breakdown missing for some devices");
  }
  const std::size_t devices = std::min(report.device_time.size(), report.device_busy.size());
  for (std::size_t d = 0; d < devices; ++d) {
    const harmony::DeviceTimeBreakdown& time = report.device_time[d];
    if (!NearlyEqual(time.total(), report.makespan)) {
      violations.push_back("gpu" + std::to_string(d) + " time classes do not sum to makespan");
    }
    if (time.of(TimeClass::kCompute) != report.device_busy[d]) {
      violations.push_back("gpu" + std::to_string(d) + " compute time != device_busy");
    }
  }
  CheckTiers(report, &violations);
  return violations;
}

std::vector<std::string> CheckJob(const JobOutcome& job) {
  std::vector<std::string> violations;
  if (!job.completed || job.iterations_done != job.spec.iterations) {
    violations.push_back("job " + std::to_string(job.spec.id) + " finished " +
                         std::to_string(job.iterations_done) + " of " +
                         std::to_string(job.spec.iterations) + " iterations");
  }
  return violations;
}

std::vector<std::string> CheckGpuSeconds(const ClusterReport& report) {
  double busy = 0.0;
  for (const JobOutcome& job : report.jobs) {
    for (const harmony::SegmentOutcome& segment : job.segments) {
      busy += segment.duration * static_cast<double>(job.spec.gpus);
    }
  }
  if (!NearlyEqual(busy, report.gpu_seconds_busy)) {
    return {"segment gpu-seconds do not sum to gpu_seconds_busy"};
  }
  return {};
}

JsonFingerprint Fingerprint(std::string_view json) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : json) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  return {json.size(), hash};
}

std::vector<std::string> UncaughtTamperings(const RunReport& sound, int expected_iterations) {
  using Tamper = std::function<void(RunReport*)>;
  std::vector<std::pair<std::string, Tamper>> tamperings = {
      {"idle time added", [](RunReport* r) { r->device_time[0].of(TimeClass::kIdle) += 1e-3; }},
      {"device_busy skewed", [](RunReport* r) { r->device_busy[0] += 1e-3; }},
      {"iteration dropped", [](RunReport* r) { r->iterations.pop_back(); }},
      {"run marked failed", [](RunReport* r) { r->failed = true; }},
  };
  if (!sound.tiers.empty()) {
    tamperings.push_back({"tier bytes inflated", [](RunReport* r) { r->tiers[0].bytes += 1; }});
    // Moves swap-in bytes from the pcie tier onto another tier: the partition still holds,
    // so only the zero-network-swap check can flag it.
    tamperings.push_back({"swap bytes on the network", [](RunReport* r) {
                            const int in = static_cast<int>(TransferKind::kSwapIn);
                            r->tiers[0].bytes_by_kind[in] -= 1;
                            r->tiers.back().bytes_by_kind[in] += 1;
                          }});
  }
  std::vector<std::string> uncaught;
  for (const auto& [name, tamper] : tamperings) {
    RunReport copy = sound;
    tamper(&copy);
    if (CheckRunReport(copy, expected_iterations).empty()) {
      uncaught.push_back(name);
    }
  }
  return uncaught;
}

std::vector<std::string> UncaughtTamperings(const ClusterReport& sound) {
  std::vector<std::string> uncaught;
  if (sound.jobs.empty()) {
    return {"no jobs to tamper with"};
  }
  ClusterReport copy = sound;
  copy.jobs[0].iterations_done -= 1;
  if (CheckJob(copy.jobs[0]).empty()) {
    uncaught.push_back("job iteration dropped");
  }
  copy = sound;
  copy.gpu_seconds_busy += 1e-3;
  if (CheckGpuSeconds(copy).empty()) {
    uncaught.push_back("gpu_seconds_busy skewed");
  }
  return uncaught;
}

}  // namespace perfbench
