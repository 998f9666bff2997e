#include "serving/model_server.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "util/check.h"
#include "util/timer.h"

namespace crossmodal {

namespace {

/// Nearest rank ceil(q * n), clamped to [1, n].
size_t NearestRank(size_t n, double q) {
  CM_DCHECK_GE(q, 0.0);
  CM_DCHECK_LE(q, 1.0);
  const double raw = std::ceil(q * static_cast<double>(n));
  return raw < 1.0 ? 1 : std::min(static_cast<size_t>(raw), n);
}

/// Fails unless every id in `features` names a servable schema feature.
Status CheckServable(const FeatureSchema& schema,
                     const std::vector<FeatureId>& features,
                     const char* what) {
  for (FeatureId f : features) {
    if (f < 0 || static_cast<size_t>(f) >= schema.size()) {
      return Status::InvalidArgument(std::string("unknown ") + what +
                                     " id " + std::to_string(f));
    }
    const FeatureDef& def = schema.def(f);
    if (!def.servable) {
      return Status::FailedPrecondition(
          "model requires nonservable feature '" + def.name +
          "'; nonservable features may only feed offline training-data "
          "curation (see §6.4)");
    }
  }
  return Status::OK();
}

}  // namespace

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  CM_CHECK(!sorted.empty());
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t LatencyHistogram::BucketOf(double us) {
  // IEEE-754 bits of the covered range's ends: biased exponent << 52.
  constexpr uint64_t kLowBits = uint64_t{1023 + kMinExponent - 1} << 52;
  constexpr uint64_t kHighBits = uint64_t{1023 + kMaxExponent} << 52;
  // Written so that NaN lands low and +inf high.
  if (!(us >= std::bit_cast<double>(kLowBits))) return 0;
  if (!(us < std::bit_cast<double>(kHighBits))) return kBuckets - 1;
  // A positive double's bits >> 47 are its biased exponent followed by the
  // top log2(K) = 5 fraction bits: (octave, bucket within it), in order.
  static_assert(kSubBuckets == 32);
  return (std::bit_cast<uint64_t>(us) - kLowBits) >> 47;
}

double LatencyHistogram::BucketMidpoint(size_t bucket) {
  // Bucket (e, s) spans 2^(e-1) * [1 + s/K, 1 + (s+1)/K).
  const int exponent = static_cast<int>(bucket / kSubBuckets) + kMinExponent;
  const double sub = static_cast<double>(bucket % kSubBuckets);
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, exponent - 1);
}

void LatencyHistogram::Record(double us) {
  ++buckets_[BucketOf(us)];
  ++count_;
  sum_us_ += us;
  max_us_ = std::max(max_us_, us);
}

double LatencyHistogram::Percentile(double q) const {
  const size_t rank = NearestRank(count_, q);
  size_t bucket = 0;
  for (uint64_t seen = buckets_[0]; seen < rank; seen += buckets_[bucket]) {
    ++bucket;
  }
  return std::min(BucketMidpoint(bucket), max_us_);
}

LatencyStats LatencyHistogram::Summary() const {
  LatencyStats stats;
  stats.count = count_;
  if (count_ == 0) return stats;
  stats.mean_us = sum_us_ / static_cast<double>(count_);
  stats.p50_us = Percentile(0.50);
  stats.p95_us = Percentile(0.95);
  stats.p100_us = max_us_;
  stats.max_us = max_us_;
  return stats;
}

Result<ModelServer> ModelServer::Create(
    CrossModalModelPtr model, const FeatureSchema* schema,
    std::vector<FeatureId> serving_features) {
  return Create(std::shared_ptr<const CrossModalModel>(std::move(model)),
                schema, std::move(serving_features));
}

Result<ModelServer> ModelServer::Create(
    std::shared_ptr<const CrossModalModel> model, const FeatureSchema* schema,
    std::vector<FeatureId> serving_features) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  if (schema == nullptr) return Status::InvalidArgument("schema is null");
  CM_RETURN_IF_ERROR(
      CheckServable(*schema, serving_features, "serving feature"));
  CM_RETURN_IF_ERROR(
      CheckServable(*schema, model->input_features(), "model input feature"));
  return ModelServer(std::move(model));
}

ModelServer::ModelServer(std::shared_ptr<const CrossModalModel> model)
    : model_(std::move(model)),
      stats_mu_(std::make_unique<Mutex>("model_server_stats")) {}

double ModelServer::Score(const FeatureVector& row) {
  Timer timer;
  const double score = model_->Score(row);
  const double elapsed_us = timer.ElapsedSeconds() * 1e6;
  MutexLock lock(stats_mu_.get());
  latencies_.Record(elapsed_us);
  return score;
}

std::vector<double> ModelServer::ScoreBatch(
    const std::vector<const FeatureVector*>& rows) {
  std::vector<double> out;
  out.reserve(rows.size());
  std::vector<double> elapsed_us;
  elapsed_us.reserve(rows.size());
  for (const FeatureVector* row : rows) {
    CM_CHECK(row != nullptr);
    Timer timer;
    out.push_back(model_->Score(*row));
    elapsed_us.push_back(timer.ElapsedSeconds() * 1e6);
  }
  // One acquisition for the whole batch keeps the stats lock off the
  // per-row hot path while preserving Score's per-request latency contract.
  MutexLock lock(stats_mu_.get());
  for (double us : elapsed_us) latencies_.Record(us);
  return out;
}

size_t ModelServer::requests() const {
  MutexLock lock(stats_mu_.get());
  return latencies_.count();
}

LatencyStats ModelServer::latency() const {
  MutexLock lock(stats_mu_.get());
  return latencies_.Summary();
}

}  // namespace crossmodal
