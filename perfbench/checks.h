// Output checks for the benchmark: the conservation invariants a sound report satisfies.
// Every check returns the list of violated invariants (empty = sound), so the caller can
// count a violation as a failed operation and still print what broke.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/runtime/cluster_scheduler.h"
#include "src/runtime/metrics.h"

namespace perfbench {

// Single-session invariants: the run did not fail and completed every iteration; on every
// device the six time classes sum to the makespan and the compute class equals
// device_busy; the per-tier rollup partitions the link totals; the NIC and rack tiers
// carry zero swap bytes.
std::vector<std::string> CheckRunReport(const harmony::RunReport& report,
                                        int expected_iterations);

// Job-stream invariants for one job: it completed every iteration it asked for.
std::vector<std::string> CheckJob(const harmony::JobOutcome& job);

// Job-stream invariant over the whole stream: the sum of segment duration x gang size
// equals gpu_seconds_busy.
std::vector<std::string> CheckGpuSeconds(const harmony::ClusterReport& report);

// Fingerprint of a report's JSON export; two runs of one workload in one process must
// produce the same bytes, hence the same fingerprint.
struct JsonFingerprint {
  std::size_t size = 0;
  std::uint64_t fnv1a = 0;
  bool operator==(const JsonFingerprint&) const = default;
};
JsonFingerprint Fingerprint(std::string_view json);

// Checker self-tests: tamper with copies of a sound report, one invariant at a time, and
// return the names of the tamperings the checks above failed to flag. Empty = every
// tampered report would have been counted as a failure. The export comparison tests
// itself where it runs (perfbench.cc, Tally::SameAsFirst).
std::vector<std::string> UncaughtTamperings(const harmony::RunReport& sound,
                                            int expected_iterations);
std::vector<std::string> UncaughtTamperings(const harmony::ClusterReport& sound);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
