// FeatureEncoder: common-feature-space rows -> sparse model inputs.
//
// Categorical features become multi-hot blocks sized by their declared
// vocabulary, with values scaled by 1/sqrt(set size) so rows with many
// categories do not dominate the linear layer; numeric features are
// standardized (mean/std fit on training rows); embeddings pass through;
// every feature gets a missing-indicator slot so models can distinguish
// absent from zero (modality-specific features are systematically missing
// for the other modality in early fusion, §5).

#ifndef CROSSMODAL_ML_ENCODER_H_
#define CROSSMODAL_ML_ENCODER_H_

#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"
#include "ml/dataset.h"
#include "util/result.h"

namespace crossmodal {

/// Encoder configuration.
struct EncoderOptions {
  /// Features to encode, in order. Must be non-empty.
  std::vector<FeatureId> features;
};

/// Fitted encoder (immutable after Fit).
class FeatureEncoder {
 public:
  /// Fits numeric standardization on `rows` (typically the training split).
  /// Fails when options.features is empty or names an unknown feature.
  [[nodiscard]] static Result<FeatureEncoder> Fit(const FeatureSchema& schema,
                                    const std::vector<const FeatureVector*>& rows,
                                    EncoderOptions options);

  /// Total encoded dimensionality.
  size_t dim() const { return dim_; }

  /// Encodes one row.
  SparseRow Encode(const FeatureVector& row) const;

  const std::vector<FeatureId>& features() const { return options_.features; }

 private:
  struct Slot {
    FeatureId feature;
    FeatureType type;
    uint32_t offset = 0;    ///< First dense index of this feature's block.
    uint32_t width = 0;     ///< Block width (vocab, 1, or embedding dim).
    uint32_t missing_slot = 0;  ///< Index of the missing indicator.
    double mean = 0.0, inv_std = 1.0;  ///< Numeric standardization.
  };

  EncoderOptions options_;
  std::vector<Slot> slots_;
  size_t dim_ = 0;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_ML_ENCODER_H_
