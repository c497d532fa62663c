#ifndef HARMONY_RUNTIME_RETRY_POLICY_H_
#define HARMONY_RUNTIME_RETRY_POLICY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "src/util/check.h"

namespace harmony {

// Configuration for the transfer retry policy (DESIGN.md §11). A transfer may be
// issued at most `max_attempts` times in total; the delay before re-issuing attempt
// n (1-based count of failures so far) is
//
//   min(base_delay_sec * 2^(n-1), max_delay_sec) * (1 - jitter_frac * u)
//
// where u in [0, 1) is a deterministic hash of (seed, stream id, n). Jitter shrinks
// the delay (never grows it) so the cap is a true upper bound, and because it is a
// pure function of the flow identity the whole backoff schedule is reproducible on
// the simulator clock.
struct RetryPolicyConfig {
  int max_attempts = 3;          // total attempts per transfer, including the first; >= 1
  double base_delay_sec = 1e-3;  // first backoff; > 0 and finite
  double max_delay_sec = 64e-3;  // cap on the exponential; >= base_delay_sec
  double jitter_frac = 0.5;      // fraction of the delay randomized away; in [0, 1)
  std::uint64_t seed = 0x5eed;   // jitter stream seed
};

class RetryPolicy {
 public:
  explicit RetryPolicy(const RetryPolicyConfig& config) : config_(config) {
    HCHECK(config.max_attempts >= 1)
        << "retry policy: max_attempts must be >= 1, got " << config.max_attempts;
    HCHECK(config.base_delay_sec > 0.0 && std::isfinite(config.base_delay_sec))
        << "retry policy: base_delay_sec must be finite and > 0, got "
        << config.base_delay_sec;
    HCHECK(config.max_delay_sec >= config.base_delay_sec &&
           std::isfinite(config.max_delay_sec))
        << "retry policy: max_delay_sec must be finite and >= base_delay_sec";
    HCHECK(config.jitter_frac >= 0.0 && config.jitter_frac < 1.0)
        << "retry policy: jitter_frac must be in [0, 1), got " << config.jitter_frac;
  }

  const RetryPolicyConfig& config() const { return config_; }

  // True once `failed_attempts` issues of the transfer have failed and the budget
  // allows no further re-issue.
  bool Exhausted(int failed_attempts) const {
    return failed_attempts >= config_.max_attempts;
  }

  // Backoff before re-issuing a transfer whose `attempt`-th issue just failed
  // (attempt is 1-based). Deterministic in (config, stream_id, attempt).
  double DelayFor(std::int64_t stream_id, int attempt) const {
    HCHECK(attempt >= 1) << "retry policy: attempt must be >= 1, got " << attempt;
    double delay = config_.base_delay_sec * std::ldexp(1.0, attempt - 1);
    delay = std::min(delay, config_.max_delay_sec);
    if (config_.jitter_frac > 0.0) {
      const double u = JitterU(stream_id, attempt);
      delay *= 1.0 - config_.jitter_frac * u;
    }
    return delay;
  }

 private:
  // SplitMix64 finalizer over (seed, stream, attempt) mapped to [0, 1).
  double JitterU(std::int64_t stream_id, int attempt) const {
    constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15;
    constexpr std::uint64_t kMix1 = 0xbf58476d1ce4e5b9;
    constexpr std::uint64_t kMix2 = 0x94d049bb133111eb;
    std::uint64_t x = config_.seed;
    x += kGamma * (static_cast<std::uint64_t>(stream_id) + 1);
    x += kMix1 * static_cast<std::uint64_t>(attempt);
    x ^= x >> 30;
    x *= kMix1;
    x ^= x >> 27;
    x *= kMix2;
    x ^= x >> 31;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  RetryPolicyConfig config_;
};

}  // namespace harmony

#endif  // HARMONY_RUNTIME_RETRY_POLICY_H_
