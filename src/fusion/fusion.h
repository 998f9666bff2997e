// Multi-modal model training (pipeline step C, §5).
//
// Three ways to jointly train over the new and existing modalities under the
// induced common feature space:
//   * Early fusion      — merge features of all modalities into one dataset
//                         and train a single model (missing-feature slots
//                         for modality-specific features);
//   * Intermediate fusion — train one model per modality, concatenate their
//                         penultimate embeddings, train a head model on a
//                         second pass over all data;
//   * DeViSE            — train and freeze a model over existing modalities,
//                         pre-train a model on the weakly supervised new
//                         modality, learn a projection from the latter's
//                         embedding space to the former's, and serve through
//                         the frozen old-modality prediction layer.
// The paper finds early fusion the strongest (§6.6); the benches verify.

#ifndef CROSSMODAL_FUSION_FUSION_H_
#define CROSSMODAL_FUSION_FUSION_H_

#include <memory>
#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"
#include "ml/trainer.h"

namespace crossmodal {

/// One (possibly weakly) labeled training point.
struct TrainPoint {
  EntityId id = 0;
  Modality modality = Modality::kText;
  float target = 0.0f;  ///< Soft label in [0,1].
  float weight = 1.0f;
};

/// Everything the fusion trainers need.
struct FusionInput {
  const FeatureStore* store = nullptr;
  std::vector<TrainPoint> points;
  /// Features visible to each modality's channel (factor-analysis configs
  /// like "T + AB, I + A" restrict these independently, §6.5).
  std::vector<FeatureId> text_features;
  std::vector<FeatureId> image_features;
};

/// A trained cross-modal model scoring new-modality (image) rows.
class CrossModalModel {
 public:
  virtual ~CrossModalModel() = default;

  /// P(y = 1) for an image-modality feature row.
  virtual double Score(const FeatureVector& row) const = 0;

  /// Every feature Score reads; Score treats all others as missing. The
  /// serving tier refuses a model that lists a nonservable feature here.
  virtual std::vector<FeatureId> input_features() const = 0;

  /// Descriptive name ("early_fusion", ...).
  virtual const char* method_name() const = 0;
};

using CrossModalModelPtr = std::unique_ptr<CrossModalModel>;

/// Fusion method selector.
enum class FusionMethod { kEarly = 0, kIntermediate = 1, kDeViSE = 2 };

const char* FusionMethodName(FusionMethod method);

[[nodiscard]] Result<CrossModalModelPtr> TrainEarlyFusion(const FusionInput& input,
                                            const ModelSpec& spec);
[[nodiscard]] Result<CrossModalModelPtr> TrainIntermediateFusion(const FusionInput& input,
                                                   const ModelSpec& spec);
[[nodiscard]] Result<CrossModalModelPtr> TrainDeViSE(const FusionInput& input,
                                       const ModelSpec& spec);

/// Dispatches on `method`.
[[nodiscard]] Result<CrossModalModelPtr> TrainFused(const FusionInput& input,
                                      const ModelSpec& spec,
                                      FusionMethod method);

// ---- Shared helpers (exposed for tests) -----------------------------------

/// Copy of `row` with every feature outside `allowed` forced missing.
FeatureVector MaskRow(const FeatureVector& row,
                      const std::vector<FeatureId>& allowed, size_t arity);

/// The features a train point's modality may see.
const std::vector<FeatureId>& FeaturesFor(const FusionInput& input,
                                          Modality modality);

}  // namespace crossmodal

#endif  // CROSSMODAL_FUSION_FUSION_H_
