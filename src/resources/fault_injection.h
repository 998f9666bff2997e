// Deterministic fault injection and retry/backoff for organizational
// services.
//
// The paper's feature space is assembled from *other teams'* services
// (§3.1), and in production those services flake, time out, get deprecated,
// or return partial results (the unreliable organizational infrastructure
// Snorkel DryBell stresses). This layer simulates that failure surface
// while keeping the repo's determinism contract:
//
//   * FaultInjectingService wraps any FeatureService and injects transient
//     failures, deadline timeouts, simulated latency, and permanent outages.
//     Every fault decision is a pure function of
//     (fault seed, service name, entity id, attempt index) via the
//     DeriveSeed chain, so a faulty run is bit-reproducible across runs and
//     thread counts — cmaudit audits the pipeline *with* faults enabled.
//   * RetryingService layers capped deterministic exponential backoff with
//     jitter and a per-service retry budget on top; transient faults
//     (Unavailable / DeadlineExceeded) are retried, permanent outages
//     (FailedPrecondition) are not.
//   * When the budget is exhausted the service degrades gracefully: Apply()
//     records a missing value, feature generation leaves the slot empty,
//     LFs over the feature abstain, and the pipeline reports per-service
//     degradation stats instead of aborting.
//
// The one knob that is *not* order-independent is a mid-range permanent
// outage (0 < down_after < kNeverDown): which entities hit the outage
// depends on request arrival order, so it is only deterministic under
// serial feature generation. down_after == 0 (hard down) and the rate-based
// faults are safe under any parallelism; FaultPlan::IsScheduleDeterministic
// tells the determinism harness which plans are auditable.

#ifndef CROSSMODAL_RESOURCES_FAULT_INJECTION_H_
#define CROSSMODAL_RESOURCES_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "io/io_faults.h"
#include "resources/feature_service.h"
#include "util/result.h"
#include "util/retry.h"

namespace crossmodal {

/// Fault profile of one upstream service.
struct ServiceFaultConfig {
  /// Sentinel: the service never goes permanently down.
  static constexpr uint64_t kNeverDown = std::numeric_limits<uint64_t>::max();

  /// P(one attempt fails with Unavailable), drawn deterministically per
  /// (fault seed, service, entity, attempt).
  double transient_rate = 0.0;
  /// P(one attempt fails with DeadlineExceeded), drawn the same way.
  double timeout_rate = 0.0;
  /// Simulated upstream latency added to the health stats per successful
  /// call (no real sleeping; wall time stays test-friendly).
  uint64_t latency_us = 0;
  /// Permanent outage after this many requests: 0 = down from the first
  /// call (deterministic under any parallelism), kNeverDown = disabled.
  /// Mid-range values count real arrivals and are order-sensitive — see the
  /// file comment.
  uint64_t down_after = kNeverDown;
  /// P(one write attempt tears). Meaningful only on the reserved `io:`
  /// target (see kIoFaultService); feature services ignore it.
  double torn_write_rate = 0.0;
  /// P(a surviving write silently flips one byte). `io:` target only.
  double corrupt_rate = 0.0;
};

/// The codes services and the serving tier retry: transient failures and
/// timeouts. A permanent outage (FailedPrecondition) is not retried.
inline bool IsTransientFault(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded;
}

/// Point-in-time health snapshot of one service (see ServiceHealthCounters
/// for field semantics).
struct ServiceHealth {
  std::string service;
  uint64_t requests = 0;
  uint64_t attempts = 0;
  uint64_t successes = 0;
  uint64_t transient_failures = 0;
  uint64_t timeouts = 0;
  uint64_t permanent_failures = 0;
  uint64_t retries = 0;
  uint64_t abstains_served = 0;
  uint64_t degraded_misses = 0;
  uint64_t backoff_us = 0;
  uint64_t simulated_latency_us = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  /// True if the service ever served a degraded (fault-exhausted) miss or a
  /// permanent failure.
  bool degraded() const {
    return degraded_misses > 0 || permanent_failures > 0;
  }
};

/// Lock-free per-service health counters, shared between the registry and
/// the fault/retry decorators wrapping that service. All increments are
/// relaxed: each field is an independent statistic, and every count is a sum
/// of per-entity deterministic contributions, so totals are
/// schedule-independent whenever the underlying fault plan is.
class ServiceHealthCounters {
 public:
  ServiceHealthCounters() = default;
  ServiceHealthCounters(const ServiceHealthCounters&) = delete;
  ServiceHealthCounters& operator=(const ServiceHealthCounters&) = delete;

  /// Top-level applications routed through the registry.
  std::atomic<uint64_t> requests{0};
  /// Individual tries, including retries.
  std::atomic<uint64_t> attempts{0};
  std::atomic<uint64_t> successes{0};
  std::atomic<uint64_t> transient_failures{0};
  std::atomic<uint64_t> timeouts{0};
  std::atomic<uint64_t> permanent_failures{0};
  /// Retries issued by a RetryingService after a transient failure.
  std::atomic<uint64_t> retries{0};
  /// Requests answered with a (genuine) abstention.
  std::atomic<uint64_t> abstains_served{0};
  /// Requests where the retry budget ran out and a missing value was
  /// recorded instead — the degraded-mode contract.
  std::atomic<uint64_t> degraded_misses{0};
  /// Total deterministic backoff the retry layer would have waited.
  std::atomic<uint64_t> backoff_us{0};
  /// Total simulated upstream latency of successful calls.
  std::atomic<uint64_t> simulated_latency_us{0};
  /// Requests answered straight from the response cache / forwarded past it
  /// (resources/response_cache.h; both zero with no cache installed).
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};

  void Add(std::atomic<uint64_t>& field, uint64_t n = 1) {
    field.fetch_add(n, std::memory_order_relaxed);
  }

  /// Copies the counters into a plain snapshot.
  ServiceHealth Snapshot(std::string service_name) const;

  /// Zeroes every counter (e.g. between benchmark arms).
  void Reset();
};

/// Reserved FaultPlan target naming the serving tier (ShardedServer's
/// request path) instead of a registry feature service. Only an *exact*
/// `serving:` entry reaches the serving hook — the `*` wildcard keeps its
/// original meaning of "every feature service" so existing plans do not
/// silently start faulting the serving path.
inline constexpr char kServingFaultService[] = "serving";

/// Reserved FaultPlan target naming the artifact IO layer (io/io_faults.h)
/// instead of a registry feature service. Exact-match only, like `serving:`;
/// supports the extra keys `torn=` (torn-write rate) and `corrupt=` (silent
/// byte-flip rate) alongside `transient=` (open-failure rate) and the
/// retry/backoff keys.
inline constexpr char kIoFaultService[] = "io";

/// Which services a fault campaign hits and how. Parsed from the
/// `--fault-plan` CLI spec:
///
///   plan    := directive (';' directive)*
///   directive := "seed=" U64 | service ':' kv (',' kv)*
///   service := service name | '*'            (matches every service)
///   kv      := "transient=" F | "timeout=" F | "latency_us=" U64
///            | "down_after=" U64 | "down"    (down_after=0, hard outage)
///            | "attempts=" INT | "backoff_us=" U64 | "max_backoff_us=" U64
///            | "torn=" F | "corrupt=" F      (io: target only)
///
/// e.g. "*:transient=0.1;topic_primary:down;kg_entities:timeout=0.3,attempts=4".
/// For each service the *last* matching entry wins. Two reserved service
/// names address non-registry targets: "serving" (the serving tier, see
/// kServingFaultService) and "io" (the artifact IO layer, see
/// kIoFaultService). Neither is matched by "*". Pass WithoutReserved() to
/// ResourceRegistry::InstallFaultLayer — the registry would reject either
/// reserved name as an unknown service.
struct FaultPlan {
  struct Entry {
    std::string service;  ///< Exact service name, or "*" for all.
    ServiceFaultConfig fault;
    RetryPolicy retry;
  };

  /// Root of the deterministic fault schedule; every decorator derives its
  /// stream as DeriveSeed(DeriveSeed(seed, service name), entity, attempt).
  uint64_t seed = 0xFA17;
  std::vector<Entry> entries;

  bool empty() const { return entries.empty(); }

  /// Last entry matching `service_name` (exact match beats nothing; "*"
  /// matches everything), or nullptr.
  const Entry* FindEntry(const std::string& service_name) const;

  /// True when every fault decision is a pure function of
  /// (seed, service, entity, attempt) — i.e. no entry uses a mid-range
  /// down_after counter. Only such plans may be used under parallel feature
  /// generation / the determinism audit.
  bool IsScheduleDeterministic() const;

  /// Last entry whose service is exactly `service`, or nullptr. This is how
  /// the reserved targets (kServingFaultService, kIoFaultService) are
  /// looked up: the "*" wildcard does not reach them.
  const Entry* ExactEntry(const char* service) const;

  /// The plan minus every reserved-target entry (serving + io): what the
  /// feature-service registry should install.
  FaultPlan WithoutReserved() const;

  /// Parses the CLI spec above; an empty string yields an empty plan.
  [[nodiscard]] static Result<FaultPlan> Parse(const std::string& spec);
};

/// Maps a plan's `io:` entry onto the IO layer's fault config
/// (io/io_faults.h): transient= becomes the open-failure rate, torn= /
/// corrupt= map directly, the retry keys set the IO retry budget, and the
/// injector seed derives from the plan seed. A plan without an io entry
/// yields the all-zero-rate default.
IoFaultConfig IoFaultConfigFromPlan(const FaultPlan& plan);

/// Decorator injecting deterministic faults into an upstream service.
class FaultInjectingService : public FeatureService {
 public:
  /// `counters` may be null (no stats recorded); when provided it must
  /// outlive the service.
  FaultInjectingService(FeatureServicePtr inner, ServiceFaultConfig config,
                        uint64_t fault_seed,
                        ServiceHealthCounters* counters = nullptr);

  const FeatureDef& output_def() const override {
    return inner_->output_def();
  }
  ResourceKind kind() const override { return inner_->kind(); }

  /// Degrades failures to a missing value (LFs abstain downstream).
  FeatureValue Apply(const Entity& entity) const override;

  using FeatureService::Call;
  [[nodiscard]] Result<FeatureValue> Call(const Entity& entity,
                                          int attempt) const override;

 private:
  FeatureServicePtr inner_;
  ServiceFaultConfig config_;
  uint64_t service_seed_;  // DeriveSeed(fault_seed, service name)
  std::string subject_;    // "service '<name>'", for fault errors
  ServiceHealthCounters* counters_;
  /// Arrival counter for mid-range down_after (order-sensitive by design).
  mutable std::atomic<uint64_t> arrivals_{0};
};

/// Decorator retrying transient failures with capped deterministic
/// exponential backoff.
class RetryingService : public FeatureService {
 public:
  RetryingService(FeatureServicePtr inner, RetryPolicy policy,
                  uint64_t fault_seed,
                  ServiceHealthCounters* counters = nullptr);

  const FeatureDef& output_def() const override {
    return inner_->output_def();
  }
  ResourceKind kind() const override { return inner_->kind(); }

  /// Degrades an exhausted retry budget to a missing value.
  FeatureValue Apply(const Entity& entity) const override;

  using FeatureService::Call;
  [[nodiscard]] Result<FeatureValue> Call(const Entity& entity,
                                          int attempt) const override;

 private:
  FeatureServicePtr inner_;
  RetryPolicy policy_;
  uint64_t retry_seed_;  // DeriveSeed(fault_seed, "retry/<service name>")
  ServiceHealthCounters* counters_;
};

/// Deterministic fault source for the serving tier (the ROADMAP's "extend
/// injection to the serving path" item). Unlike the service decorators it
/// wraps no upstream: the serving tier probes it before scoring a request,
/// retries transient verdicts with the entry's RetryPolicy (backoff
/// accounted, never slept), and sheds the request when the budget runs out.
/// Every verdict is a pure function of (plan seed, entity id, attempt), so
/// which requests fail is independent of shard count, batch boundaries, and
/// thread interleaving — the determinism audit runs with the hook active.
class ServingFaultHook {
 public:
  /// Inactive hook: Probe always returns OK.
  ServingFaultHook() = default;

  /// Hook configured from a plan's serving entry (see
  /// kServingFaultService). `counters` may be null; when provided it must
  /// outlive the hook and records attempts/faults/retries/backoff.
  ServingFaultHook(const FaultPlan::Entry& entry, uint64_t plan_seed,
                   ServiceHealthCounters* counters);

  /// Builds the hook from `plan`'s serving entry; a plan without one yields
  /// an inactive hook.
  static ServingFaultHook FromPlan(const FaultPlan& plan,
                                   ServiceHealthCounters* counters);

  /// True when a serving entry configured this hook.
  bool active() const { return active_; }

  /// Retry policy of the configuring entry (meaningful only when active).
  const RetryPolicy& retry() const { return retry_; }

  /// Deterministic verdict for one attempt of one request: OK, Unavailable,
  /// DeadlineExceeded, or FailedPrecondition (hard outage).
  [[nodiscard]] Status Probe(EntityId entity, int attempt) const;

  /// Accounts the deterministic backoff before retry `attempt + 1` and
  /// returns it in microseconds (recorded, never slept).
  uint64_t AccountRetryBackoff(EntityId entity, int attempt) const;

 private:
  bool active_ = false;
  ServiceFaultConfig config_;
  RetryPolicy retry_;
  uint64_t serving_seed_ = 0;  // DeriveSeed(plan seed, "serving")
  uint64_t retry_seed_ = 0;    // DeriveSeed(DeriveSeed(plan seed, "retry"), "serving")
  ServiceHealthCounters* counters_ = nullptr;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_RESOURCES_FAULT_INJECTION_H_
