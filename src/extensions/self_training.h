// Self-training on top of the cross-modal pipeline (§6.4 cites [53]).
//
// After the weakly supervised model is deployed, its own most confident
// predictions on unlabeled traffic are recycled as pseudo-labels and the
// model retrains — the zero-reviewer counterpart to active learning.

#ifndef CROSSMODAL_EXTENSIONS_SELF_TRAINING_H_
#define CROSSMODAL_EXTENSIONS_SELF_TRAINING_H_

#include <vector>

#include "fusion/fusion.h"
#include "ml/trainer.h"
#include "util/result.h"

namespace crossmodal {

/// Self-training parameters.
struct SelfTrainingOptions {
  /// Predictions at/above this probability become positive pseudo-labels.
  double positive_threshold = 0.9;
  /// Predictions at/below this become negative pseudo-labels.
  double negative_threshold = 0.02;
  /// Per-round cap on adopted pseudo-labels per polarity (0 = no cap).
  size_t max_per_polarity = 500;
  int rounds = 1;
};

/// Outcome of a self-training run.
struct SelfTrainingResult {
  CrossModalModelPtr model;
  size_t pseudo_positives = 0;
  size_t pseudo_negatives = 0;
};

/// Runs `rounds` of predict -> adopt-confident -> retrain over the
/// candidate pool. Adopted entities replace their weak-label versions in
/// the training set. Fails on empty inputs or inverted thresholds.
[[nodiscard]] Result<SelfTrainingResult> RunSelfTraining(
    const FusionInput& base_input, const std::vector<EntityId>& candidates,
    const ModelSpec& spec, const SelfTrainingOptions& options);

}  // namespace crossmodal

#endif  // CROSSMODAL_EXTENSIONS_SELF_TRAINING_H_
