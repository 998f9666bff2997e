// Resource-quality validation (§7.1).
//
// "A low quality feature/organizational resource might negatively impact
// performance if it were selected via automated processes without
// validation; ... quality must be validated in advance." (§6.5)
//
// ValidateResources measures, per service, its coverage on each modality
// and the best mined order-1 item's dev-set quality, and flags services
// that fail the thresholds. CorruptedService simulates a broken upstream
// resource (random outputs uncorrelated with anything) for failure
// injection in tests and ablations.

#ifndef CROSSMODAL_RESOURCES_VALIDATION_H_
#define CROSSMODAL_RESOURCES_VALIDATION_H_

#include <string>
#include <vector>

#include "resources/feature_service.h"
#include "resources/registry.h"
#include "util/result.h"

namespace crossmodal {

/// Per-service audit result.
struct ResourceQualityReport {
  std::string name;
  FeatureId feature = -1;
  double coverage_old = 0.0;  ///< Fraction of old-modality rows populated.
  double coverage_new = 0.0;  ///< Fraction of new-modality rows populated.
  /// Best mined order-1 item's F1 / precision on the labeled dev rows
  /// (0 for embedding features, which are validated by similarity use).
  double best_item_f1 = 0.0;
  double best_item_precision = 0.0;
  /// L1 distance between the feature's category distributions on the old
  /// vs new modality (categorical features only). A feature in a *common*
  /// space should keep roughly the same marginal across modalities; a
  /// value near 2 means the channels share nothing but the vocabulary —
  /// the signature of a modality-specific (spurious) resource.
  double marginal_shift = 0.0;
  bool suspect = false;  ///< Failed a threshold; exclude or review.
};

/// Audits every feature of `registry` against labeled old-modality rows
/// (`dev_entities`/`dev_labels`) and unlabeled new-modality rows, all of
/// which must be present in `store`. The thresholds that mark a service
/// suspect are fixed constants in validation.cc.
[[nodiscard]] Result<std::vector<ResourceQualityReport>> ValidateResources(
    const ResourceRegistry& registry, const FeatureStore& store,
    const std::vector<EntityId>& old_entities,
    const std::vector<int>& old_labels,
    const std::vector<EntityId>& new_entities);

/// How a CorruptedService misbehaves.
enum class CorruptionMode {
  /// Uniformly random categories, unrelated to anything. Harmless in
  /// practice: mining thresholds filter items whose precision sits at the
  /// class prior, and models learn near-zero weights.
  kNoise,
  /// The dangerous failure (§6.5): on the OLD modality the output
  /// correlates with the label (a leaky/text-channel-specific artifact),
  /// so mined LFs adopt it with excellent dev precision — but on the NEW
  /// modality it is uniform noise, poisoning the transferred weak labels.
  kSpuriousTextOnly,
};

/// A broken upstream resource (deterministic per entity).
class CorruptedService : public FeatureService {
 public:
  /// `name` must be unique in the registry; `vocab` is the fake vocabulary.
  CorruptedService(std::string name, int32_t vocab, uint64_t seed,
                   CorruptionMode mode = CorruptionMode::kNoise,
                   ServiceSet set = ServiceSet::kD);

  const FeatureDef& output_def() const override { return def_; }
  ResourceKind kind() const override {
    return ResourceKind::kModelBasedService;
  }
  FeatureValue Apply(const Entity& entity) const override;

 private:
  FeatureDef def_;
  uint64_t seed_;
  CorruptionMode mode_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_RESOURCES_VALIDATION_H_
