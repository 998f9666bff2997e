// Pairwise entity similarity from the common feature space (Algorithm 1).
//
// The paper's Algorithm 1 accumulates per-feature contributions — a norm for
// numeric features, Jaccard for categorical — normalized per feature (the
// normalization the paper notes it omits "for simplicity" in the listing).
// We implement the normalized form: each feature contributes a similarity in
// [0, 1] (categorical: Jaccard; numeric: exp(-|delta|/scale); embedding:
// rescaled cosine), and the edge weight is the mean over features present in
// both points.
//
// The kernel reads rows from a PackedFeatureRows table: each row's graph
// features are unpacked from their variant-backed FeatureValues once, into
// flat per-kind arrays, so scoring a candidate pair touches no FeatureValue.

#ifndef CROSSMODAL_GRAPH_SIMILARITY_H_
#define CROSSMODAL_GRAPH_SIMILARITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"

namespace crossmodal {

/// The values of a fixed feature list for a set of rows, packed into flat
/// arrays. Cell (row, idx) holds the row's value of `features[idx]`: a kind
/// byte plus a slot into the array of that kind (numeric values; category
/// ranges into one int32 array; embedding ranges into one float array, with
/// each embedding's norm precomputed).
class PackedFeatureRows {
 public:
  PackedFeatureRows(const std::vector<const FeatureVector*>& rows,
                    const std::vector<FeatureId>& features);

  size_t num_rows() const { return num_rows_; }

  /// Sorted categories of cell (row, idx); empty unless the value is a
  /// present categorical.
  std::span<const int32_t> categories(size_t row, size_t idx) const;

 private:
  friend class FeatureSimilarity;

  /// Cell kinds: a missing value, or one past its FeatureType.
  static constexpr uint8_t kMissing = 0;
  static constexpr uint8_t Kind(FeatureType type) {
    return static_cast<uint8_t>(static_cast<uint8_t>(type) + 1);
  }

  size_t cell(size_t row, size_t idx) const {
    return row * num_features_ + idx;
  }
  std::span<const int32_t> category_set(uint32_t slot) const {
    return {categories_.data() + cat_begin_[slot],
            cat_begin_[slot + 1] - cat_begin_[slot]};
  }
  std::span<const float> embedding(uint32_t slot) const {
    return {embeddings_.data() + emb_begin_[slot],
            emb_begin_[slot + 1] - emb_begin_[slot]};
  }

  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  std::vector<uint8_t> kind_;        // per cell
  std::vector<uint32_t> slot_;       // per cell: index into its kind's array
  std::vector<double> numeric_;      // per numeric cell
  std::vector<uint32_t> cat_begin_;  // per categorical cell, + end sentinel
  std::vector<int32_t> categories_;
  std::vector<uint32_t> emb_begin_;  // per embedding cell, + end sentinel
  std::vector<double> emb_norm_;     // per embedding cell: sqrt(sum x^2)
  std::vector<float> embeddings_;
};

/// Computes Algorithm-1 edge weights over a chosen feature subset.
class FeatureSimilarity {
 public:
  /// Uses features `features` of `schema` for the weight computation.
  FeatureSimilarity(const FeatureSchema* schema,
                    std::vector<FeatureId> features);

  /// Estimates per-numeric-feature scales (robust std) from sample rows so
  /// numeric distances are comparable across features. Must be called before
  /// Weight() if any numeric feature is used; no-op otherwise.
  void FitNormalization(const std::vector<const FeatureVector*>& rows);

  /// Edge weight w_ij in [0, 1]; 0 when no feature is present in both rows.
  /// Packs the two rows and scores them with the table overload.
  double Weight(const FeatureVector& a, const FeatureVector& b) const;

  /// Edge weight between rows `i` and `j` of `rows`, which must be packed
  /// over features().
  double Weight(const PackedFeatureRows& rows, size_t i, size_t j) const;

  const std::vector<FeatureId>& features() const { return features_; }

 private:
  const FeatureSchema* schema_;
  std::vector<FeatureId> features_;
  std::vector<double> numeric_scale_;  // parallel to features_; 1.0 default
};

}  // namespace crossmodal

#endif  // CROSSMODAL_GRAPH_SIMILARITY_H_
