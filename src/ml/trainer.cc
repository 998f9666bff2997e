#include "ml/trainer.h"

#include <algorithm>

#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace crossmodal {

namespace {

/// Prediction-averaging ensemble over independently seeded members.
class EnsembleModel : public Model {
 public:
  explicit EnsembleModel(std::vector<ModelPtr> members)
      : members_(std::move(members)) {
    CM_CHECK(!members_.empty());
    for (const auto& m : members_) embed_dim_ += m->embed_dim();
  }

  double Predict(const SparseRow& x) const override {
    double total = 0.0;
    for (const auto& m : members_) total += m->Predict(x);
    return total / static_cast<double>(members_.size());
  }

  std::vector<double> Embed(const SparseRow& x) const override {
    std::vector<double> out;
    out.reserve(embed_dim_);
    for (const auto& m : members_) {
      const auto e = m->Embed(x);
      out.insert(out.end(), e.begin(), e.end());
    }
    return out;
  }

  size_t embed_dim() const override { return embed_dim_; }

  double PredictFromEmbedding(const std::vector<double>& e) const override {
    CM_CHECK(e.size() == embed_dim_);
    double total = 0.0;
    size_t offset = 0;
    for (const auto& m : members_) {
      const std::vector<double> slice(e.begin() + offset,
                                      e.begin() + offset + m->embed_dim());
      total += m->PredictFromEmbedding(slice);
      offset += m->embed_dim();
    }
    return total / static_cast<double>(members_.size());
  }

  size_t num_parameters() const override {
    size_t total = 0;
    for (const auto& m : members_) total += m->num_parameters();
    return total;
  }

 private:
  std::vector<ModelPtr> members_;
  size_t embed_dim_ = 0;
};

Result<ModelPtr> TrainSingle(const Dataset& data, const ModelSpec& spec) {
  switch (spec.kind) {
    case ModelKind::kLogisticRegression: {
      CM_ASSIGN_OR_RETURN(LogisticRegression lr,
                          LogisticRegression::Train(data, spec.train));
      return ModelPtr(std::make_unique<LogisticRegression>(std::move(lr)));
    }
    case ModelKind::kMlp: {
      MlpOptions options;
      options.train = spec.train;
      options.hidden = spec.hidden;
      CM_ASSIGN_OR_RETURN(Mlp mlp, Mlp::Train(data, options));
      return ModelPtr(std::make_unique<Mlp>(std::move(mlp)));
    }
  }
  return Status::InvalidArgument("unknown model kind");
}

}  // namespace

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLogisticRegression:
      return "logistic_regression";
    case ModelKind::kMlp:
      return "mlp";
  }
  return "?";
}

Result<ModelPtr> TrainModel(const Dataset& data, const ModelSpec& spec) {
  if (spec.ensemble_size <= 1) return TrainSingle(data, spec);
  // Members are independent (own derived seed, read-only data), so they
  // train concurrently, each serially, into per-member slots; the ensemble
  // is assembled in member order and the lowest-index error is returned,
  // whatever the schedule.
  const size_t n = static_cast<size_t>(spec.ensemble_size);
  std::vector<ModelPtr> members(n);
  std::vector<Status> status(n);
  ParallelConfig config;
  config.num_threads = std::min(spec.train.parallel.num_threads, n);
  StagePool pool(config);
  ForEachSlice(pool.get(), n, n, [&](size_t k, size_t, size_t) {
    ModelSpec member_spec = spec;
    member_spec.ensemble_size = 1;
    member_spec.train.seed = DeriveSeed(spec.train.seed, k);
    Result<ModelPtr> member = TrainSingle(data, member_spec);
    status[k] = member.status();
    if (member.ok()) members[k] = std::move(member).value();
  });
  for (const Status& s : status) CM_RETURN_IF_ERROR(s);
  return ModelPtr(std::make_unique<EnsembleModel>(std::move(members)));
}

namespace {
double ValidationAuprc(const Model& model, const Dataset& val) {
  std::vector<double> scores(val.size());
  std::vector<int> labels(val.size());
  for (size_t i = 0; i < val.size(); ++i) {
    const Example& ex = val.examples[i];
    scores[i] = model.Predict(ex.x);
    labels[i] = ex.target >= 0.5f ? 1 : 0;
  }
  return AveragePrecision(scores, labels);
}
}  // namespace

Result<TuneResult> GridSearch(const Dataset& train, const Dataset& val,
                              const ModelSpec& base,
                              const TunerOptions& options) {
  if (val.empty()) return Status::InvalidArgument("empty validation set");
  TuneResult result;
  result.best_spec = base;
  result.best_val_auprc = -1.0;

  // Candidate hidden stacks (MLP only; each entry is a full stack).
  const std::vector<std::vector<int>> stacks =
      base.kind == ModelKind::kMlp ? std::vector<std::vector<int>>{{16}, {32}}
                                   : std::vector<std::vector<int>>{{}};
  for (double lr : options.learning_rates) {
    for (double l2 : options.l2s) {
      for (const auto& stack : stacks) {
        ModelSpec spec = base;
        spec.train.learning_rate = lr;
        spec.train.l2 = l2;
        if (base.kind == ModelKind::kMlp) spec.hidden = stack;
        CM_ASSIGN_OR_RETURN(ModelPtr model, TrainModel(train, spec));
        const double auprc = ValidationAuprc(*model, val);
        ++result.trials;
        if (auprc > result.best_val_auprc) {
          result.best_val_auprc = auprc;
          result.best_spec = spec;
        }
      }
    }
  }
  return result;
}

}  // namespace crossmodal
