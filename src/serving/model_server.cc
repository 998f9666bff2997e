#include "serving/model_server.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"
#include "util/timer.h"

namespace crossmodal {

double NearestRankPercentile(const std::vector<double>& sorted, double q) {
  CM_CHECK(!sorted.empty());
  CM_DCHECK_GE(q, 0.0);
  CM_DCHECK_LE(q, 1.0);
  const size_t n = sorted.size();
  // rank = ceil(q * n) in [1, n]; index = rank - 1. The old +0.5 rounding
  // over (n - 1) read past the intended rank at small counts (e.g. p50 of
  // two samples returned the larger one).
  const double raw = std::ceil(q * static_cast<double>(n));
  const size_t rank = raw < 1.0 ? 1 : static_cast<size_t>(raw);
  return sorted[std::min(rank, n) - 1];
}

namespace {

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
  latencies_us_.push_back(elapsed_us);
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
  latencies_us_.insert(latencies_us_.end(), elapsed_us.begin(),
                       elapsed_us.end());
  return out;
}

size_t ModelServer::requests() const {
  MutexLock lock(stats_mu_.get());
  return latencies_us_.size();
}

LatencyStats ModelServer::latency() const {
  std::vector<double> sorted;
  {
    MutexLock lock(stats_mu_.get());
    sorted = latencies_us_;
  }
  LatencyStats stats;
  stats.count = sorted.size();
  if (sorted.empty()) return stats;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  for (double v : sorted) total += v;
  stats.mean_us = total / static_cast<double>(sorted.size());
  stats.p50_us = NearestRankPercentile(sorted, 0.50);
  stats.p95_us = NearestRankPercentile(sorted, 0.95);
  stats.p100_us = NearestRankPercentile(sorted, 1.0);
  stats.max_us = sorted.back();
  return stats;
}

}  // namespace crossmodal
