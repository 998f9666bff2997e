// Model-based automatic LF generation in the style of Snuba [66].
//
// The paper (§4.3) rejected model-based LF generators as "too costly to
// immediately integrate ... and justify" and used frequent itemset mining
// instead; this module implements a compact version of the rejected
// alternative so the trade-off is measurable (see the LF-generator
// ablation bench): each candidate LF is a tiny model (a decision stump or a
// two-feature logistic model) trained on a bootstrap of the dev set, kept
// if it beats precision/recall floors and adds coverage the committee does
// not already have — Snuba's diversity criterion.

#ifndef CROSSMODAL_MINING_MODEL_LF_GENERATOR_H_
#define CROSSMODAL_MINING_MODEL_LF_GENERATOR_H_

#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"
#include "labeling/labeling_function.h"
#include "util/result.h"

namespace crossmodal {

/// Snuba-style generation parameters.
struct ModelLfOptions {
  /// Committee rounds (each adds at most one LF).
  int max_lfs = 20;
  /// Precision floor on the dev set.
  double min_precision = 0.6;
  /// Feature ids the generator may use (empty = all categorical/numeric).
  std::vector<FeatureId> allowed_features;
};

/// Outcome of a generation run.
struct ModelLfResult {
  std::vector<LabelingFunctionPtr> lfs;
  size_t candidates_trained = 0;
  double elapsed_seconds = 0.0;
};

/// Generates LFs from tiny models over a labeled dev set.
class ModelLfGenerator {
 public:
  ModelLfGenerator(const FeatureSchema* schema, ModelLfOptions options);

  /// Runs the committee loop over dev rows/labels (labels in {0,1}).
  [[nodiscard]] Result<ModelLfResult> Generate(
      const std::vector<const FeatureVector*>& rows,
      const std::vector<int>& labels) const;

 private:
  const FeatureSchema* schema_;
  ModelLfOptions options_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_MINING_MODEL_LF_GENERATOR_H_
