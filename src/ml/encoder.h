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

#include <cstdint>
#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"
#include "ml/dataset.h"
#include "util/result.h"

namespace crossmodal {

/// Feature-membership flags indexed by FeatureId: a nonzero entry admits the
/// feature. Built once by MakeFeatureMask and handed to
/// FeatureEncoder::Encode so scoring can mask a row without copying it.
using FeatureMask = std::vector<uint8_t>;

/// Mask over a schema of `arity` features admitting exactly `allowed`.
FeatureMask MakeFeatureMask(const std::vector<FeatureId>& allowed,
                            size_t arity);

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

  /// Encodes `row` into `out` as if every feature `mask` does not admit
  /// were missing: the same entries as Encode(MaskRow(row, allowed, arity))
  /// for mask = MakeFeatureMask(allowed, arity), without copying the row.
  /// `out` is cleared and reserved to the encoder's upper bound on entries,
  /// so a reused scratch row allocates only on its first call.
  void Encode(const FeatureVector& row, const FeatureMask& mask,
              SparseRow* out) const;

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

  /// The one encode loop; a null `mask` admits every feature.
  void EncodeInto(const FeatureVector& row, const FeatureMask* mask,
                  SparseRow* out) const;

  EncoderOptions options_;
  std::vector<Slot> slots_;
  size_t dim_ = 0;
  /// Upper bound on one row's entries: every slot emits its missing
  /// indicator or at most `width` values.
  size_t max_entries_ = 0;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_ML_ENCODER_H_
