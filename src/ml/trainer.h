// Unified model training entry point + the "Vizier-lite" grid tuner (§6.3).

#ifndef CROSSMODAL_ML_TRAINER_H_
#define CROSSMODAL_ML_TRAINER_H_

#include <vector>

#include "ml/dataset.h"
#include "ml/model.h"

namespace crossmodal {

/// Which end model to train (the two the paper's TFX pipelines support).
enum class ModelKind { kLogisticRegression, kMlp };

const char* ModelKindName(ModelKind kind);

/// Full model specification.
struct ModelSpec {
  ModelKind kind = ModelKind::kMlp;
  TrainOptions train;
  std::vector<int> hidden = {32};  ///< MLP only.
  /// Number of models trained with derived seeds and averaged (seed
  /// ensembling); > 1 substantially reduces training variance on
  /// imbalanced AUPRC at proportional training cost.
  int ensemble_size = 1;
};

/// Trains the specified model on `data`. Ensemble members train
/// concurrently on min(spec.train.parallel.num_threads, ensemble_size)
/// workers, each serially with its own derived seed, so the model is the
/// same at every thread count. If members fail, returns the error of the
/// lowest-index one.
[[nodiscard]] Result<ModelPtr> TrainModel(const Dataset& data, const ModelSpec& spec);

/// Grid-search tuning configuration.
struct TunerOptions {
  std::vector<double> learning_rates = {0.01, 0.03, 0.1};
  std::vector<double> l2s = {1e-6, 1e-4};
};

/// Result of a tuning run.
struct TuneResult {
  ModelSpec best_spec;
  double best_val_auprc = 0.0;
  size_t trials = 0;
};

/// Deterministic grid search maximizing validation AUPRC (validation targets
/// must be hard labels). The stand-in for the paper's Vizier service. Arms
/// run one after another; each arm's ensemble members train concurrently
/// as in TrainModel.
[[nodiscard]] Result<TuneResult> GridSearch(const Dataset& train, const Dataset& val,
                              const ModelSpec& base,
                              const TunerOptions& options);

}  // namespace crossmodal

#endif  // CROSSMODAL_ML_TRAINER_H_
