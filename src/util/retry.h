// Deterministic retry with capped exponential backoff: the one retry loop
// and the one backoff draw behind every layer that rehearses faults
// (feature services, the serving tier, artifact IO).
//
// Backoff is accounted, never slept, and its jitter is drawn from a stream
// keyed by (layer seed, request key, attempt), so every total is a pure
// function of the fault plan. Each layer keeps its own seeds, counters and
// retryable codes: artifact IO retries Unavailable and IOError; services and
// serving retry Unavailable and DeadlineExceeded.

#ifndef CROSSMODAL_UTIL_RETRY_H_
#define CROSSMODAL_UTIL_RETRY_H_

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/random.h"
#include "util/result.h"

namespace crossmodal {

/// How often one logical request is tried and how long to back off.
struct RetryPolicy {
  /// Total tries per logical request (1 = no retries).
  int max_attempts = 3;
  /// Backoff before retry k + 1 is min(base << k, max) scaled by a
  /// deterministic jitter in [0.5, 1.0] (see BackoffUs); accounted, never
  /// slept.
  uint64_t base_backoff_us = 1000;
  uint64_t max_backoff_us = 50000;
};

/// The random stream of one attempt at one keyed request. `key_seed` is
/// DeriveSeed(layer seed, request key); the attempt is offset by one so
/// attempt 0 is not the raw key stream.
inline Rng AttemptRng(uint64_t key_seed, int attempt) {
  return Rng(DeriveSeed(key_seed, static_cast<uint64_t>(attempt) + 1));
}

/// Backoff in microseconds after failed attempt `retry`: min(base << retry,
/// max), where the shift stops growing at 32 and saturates instead of
/// wrapping, jittered into [capped / 2, capped] by one draw from `jitter`.
inline uint64_t BackoffUs(const RetryPolicy& policy, int retry, Rng jitter) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  const int shift = std::min(retry, 32);
  const uint64_t base = policy.base_backoff_us;
  const uint64_t uncapped = base > (kMax >> shift) ? kMax : base << shift;
  const uint64_t capped = std::min(uncapped, policy.max_backoff_us);
  return capped / 2 + jitter.UniformInt(capped / 2 + 1);
}

/// The status of one attempt's outcome, for RetryWithBackoff.
inline const Status& OutcomeStatus(const Status& status) { return status; }
template <typename T>
const Status& OutcomeStatus(const Result<T>& result) {
  return result.status();
}

/// Calls `attempt(k)` for k = 0, 1, ... until an attempt succeeds, fails
/// with a code `retryable` rejects, or `max_attempts` tries (at least one)
/// are spent, and returns the last outcome (a Status or a Result<T>).
/// Before each retry it calls `backoff(k)` with the failed attempt's index,
/// where the layer accounts its backoff.
template <typename AttemptFn, typename RetryableFn, typename BackoffFn>
auto RetryWithBackoff(int max_attempts, AttemptFn&& attempt,
                      RetryableFn&& retryable, BackoffFn&& backoff) {
  const int budget = std::max(1, max_attempts);
  auto outcome = attempt(0);
  for (int k = 1; k < budget; ++k) {
    const Status& status = OutcomeStatus(outcome);
    if (status.ok() || !retryable(status.code())) break;
    backoff(k - 1);
    outcome = attempt(k);
  }
  return outcome;
}

}  // namespace crossmodal

#endif  // CROSSMODAL_UTIL_RETRY_H_
