// Internal helpers shared by the fusion trainers.

#ifndef CROSSMODAL_FUSION_INTERNAL_H_
#define CROSSMODAL_FUSION_INTERNAL_H_

#include <cstdint>
#include <vector>

#include "fusion/fusion.h"
#include "ml/encoder.h"

namespace crossmodal {
namespace fusion_internal {

/// Owned masked feature rows plus the pointer view encoders consume.
struct MaskedRows {
  std::vector<FeatureVector> rows;
  std::vector<const FeatureVector*> ptrs;
  std::vector<const TrainPoint*> points;
};

/// Collects rows for the selected points (all modalities when `modality` is
/// nullptr), masking each row to the features its own modality may see when
/// `per_modality_mask` is true, or to `fixed_mask` otherwise.
[[nodiscard]] Result<MaskedRows> CollectRows(const FusionInput& input,
                               const Modality* modality,
                               bool per_modality_mask,
                               const std::vector<FeatureId>& fixed_mask);

/// Builds an encoded dataset from masked rows.
Dataset BuildDataset(const MaskedRows& rows, const FeatureEncoder& encoder);

/// Linear projection P (with bias) from DeViSE's new-modality embedding
/// space to the frozen old-modality embedding space, trained by Adam on MSE.
class Projection {
 public:
  Projection(size_t in_dim, size_t out_dim);

  std::vector<double> Apply(const std::vector<double>& e) const;

  /// Fits P to match targets[i] = P(inputs[i]) in least squares.
  void Fit(const std::vector<std::vector<double>>& inputs,
           const std::vector<std::vector<double>>& targets, int epochs,
           double lr, uint64_t seed);

 private:
  size_t in_dim_, out_dim_;
  std::vector<double> w_;  // out_dim x in_dim, row-major
  std::vector<double> b_;
};

/// Union of two feature lists, order-preserving.
std::vector<FeatureId> UnionFeatures(const std::vector<FeatureId>& a,
                                     const std::vector<FeatureId>& b);

/// The calling thread's scratch row for scoring-path encodes (see the
/// masked FeatureEncoder::Encode): its capacity persists across calls.
SparseRow& ScratchRow();

}  // namespace fusion_internal
}  // namespace crossmodal

#endif  // CROSSMODAL_FUSION_INTERNAL_H_
