// ModelServer: the deployment-side wrapper around a fitted cross-modal
// model (§2.3's production constraints).
//
// Two constraints from the paper's production setting are enforced here:
//   * nonservable features must never be required at inference time (§6.4)
//     — Create refuses a model whose serving feature list or whose
//     CrossModalModel::input_features() names a nonservable feature, so a
//     served model never reads one and rows are scored as they arrive, with
//     no per-request copy or strip;
//   * user-facing models need low inference latency — the server records
//     every request's latency in a fixed-size log-bucket histogram
//     (LatencyHistogram, ~10 KB however many requests it serves) and
//     reports count/mean/max exactly and p50/p95 within 1/64 (< 2%)
//     relative error.

#ifndef CROSSMODAL_SERVING_MODEL_SERVER_H_
#define CROSSMODAL_SERVING_MODEL_SERVER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"
#include "fusion/fusion.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace crossmodal {

/// Request-latency summary in microseconds. count, mean and max are exact;
/// p50/p95 come from a LatencyHistogram and are within its stated error of
/// the nearest-rank sample (see NearestRankPercentile); p100 always equals
/// max.
struct LatencyStats {
  size_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p100_us = 0.0;
  double max_us = 0.0;
};

/// Nearest-rank percentile over an ascending-sorted, non-empty sample:
/// the smallest element with at least ceil(q * N) observations at or below
/// it (rank ceil(q*N), clamped to [1, N]). Exact sample values only — no
/// interpolation — so p50 of {1, 2} is 1 (rank 1) and p100 is always the
/// max. `q` must be in [0, 1]; q = 0 returns the minimum.
[[nodiscard]] double NearestRankPercentile(const std::vector<double>& sorted,
                                           double q);

/// Bounded-memory latency recorder: a fixed array of log-spaced buckets,
/// 32 equal-width buckets per power of two over [2^-10, 2^32) µs (about
/// 1 ns to 71 minutes), plus the exact count, sum and max. A percentile
/// reports the midpoint of the bucket that holds the nearest-rank sample,
/// clamped to max, so for samples inside that range it is within
/// kMaxRelativeError of NearestRankPercentile over the same samples.
/// Samples below the range count in the lowest bucket, samples above it in
/// the highest. Not thread-safe; ModelServer guards its instance.
class LatencyHistogram {
 public:
  /// Bound on |reported - exact| / exact for p50 and p95 (1/64 ≈ 1.6%):
  /// half a bucket's width over the bucket's lower edge.
  static constexpr double kMaxRelativeError = 1.0 / 64;

  void Record(double us);

  /// Requests recorded.
  size_t count() const { return count_; }

  /// Summary over every sample recorded; all zero when there is none.
  LatencyStats Summary() const;

 private:
  static constexpr int kSubBuckets = 32;
  // Exponents e of the lowest and highest covered octave [2^(e-1), 2^e).
  static constexpr int kMinExponent = -9;
  static constexpr int kMaxExponent = 32;
  static constexpr size_t kBuckets =
      static_cast<size_t>(kMaxExponent - kMinExponent + 1) * kSubBuckets;

  static size_t BucketOf(double us);
  static double BucketMidpoint(size_t bucket);
  /// Midpoint of the bucket holding the nearest-rank sample, clamped to
  /// max; needs count_ > 0.
  double Percentile(double q) const;

  std::array<uint64_t, kBuckets> buckets_{};
  size_t count_ = 0;
  double sum_us_ = 0.0;
  double max_us_ = 0.0;
};

/// Owns a fitted model and serves scores over feature rows.
///
/// Thread-safe: Score/ScoreBatch may be called concurrently from many
/// request threads (the fitted model is immutable after Create; the latency
/// histogram is mutex-guarded).
class ModelServer {
 public:
  /// Validates `serving_features` (the features the deployed model reads)
  /// and the model's own input_features() against the schema's servability
  /// flags. Fails with InvalidArgument on an id outside the schema and with
  /// FailedPrecondition naming the offending feature when one is
  /// nonservable.
  [[nodiscard]] static Result<ModelServer> Create(
      CrossModalModelPtr model, const FeatureSchema* schema,
      std::vector<FeatureId> serving_features);

  /// Same, but sharing an immutable fitted model — the sharded serving tier
  /// hands one model to every shard without cloning it.
  [[nodiscard]] static Result<ModelServer> Create(
      std::shared_ptr<const CrossModalModel> model, const FeatureSchema* schema,
      std::vector<FeatureId> serving_features);

  ModelServer(ModelServer&&) = default;
  ModelServer& operator=(ModelServer&&) = default;

  /// Scores one row (latency recorded).
  double Score(const FeatureVector& row) CM_LOCKS_EXCLUDED(stats_mu_);

  /// Scores a batch in order. Each row's latency is recorded individually
  /// (same contract as Score), with one lock acquisition for the whole
  /// batch.
  std::vector<double> ScoreBatch(const std::vector<const FeatureVector*>& rows)
      CM_LOCKS_EXCLUDED(stats_mu_);

  /// Latency summary over all requests so far.
  LatencyStats latency() const CM_LOCKS_EXCLUDED(stats_mu_);

  /// Requests served.
  size_t requests() const CM_LOCKS_EXCLUDED(stats_mu_);

 private:
  explicit ModelServer(std::shared_ptr<const CrossModalModel> model);

  std::shared_ptr<const CrossModalModel> model_;
  // unique_ptr keeps ModelServer movable (Result<ModelServer> needs it)
  // while giving the latency histogram a stable, annotated lock.
  std::unique_ptr<Mutex> stats_mu_;
  LatencyHistogram latencies_ CM_GUARDED_BY(*stats_mu_);
};

}  // namespace crossmodal

#endif  // CROSSMODAL_SERVING_MODEL_SERVER_H_
