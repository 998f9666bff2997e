// FeatureValue: one structured output of an organizational resource.
//
// The paper's common feature space is built from services whose outputs are
// "categorical and quantitative" (§3): a numeric feature, a multivalent
// categorical feature (a set of category ids), or — for image-specific
// services — a dense pre-trained embedding. A value may also be missing
// (service not applicable / not populated for this modality).

#ifndef CROSSMODAL_FEATURES_FEATURE_VALUE_H_
#define CROSSMODAL_FEATURES_FEATURE_VALUE_H_

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace crossmodal {

/// The kind of value a feature carries.
enum class FeatureType : uint8_t {
  kNumeric = 0,      ///< A single double (e.g. an aggregate statistic).
  kCategorical = 1,  ///< A set of category ids out of a fixed vocabulary.
  kEmbedding = 2,    ///< A dense float vector (pre-trained embedding).
};

const char* FeatureTypeName(FeatureType type);

/// Jaccard similarity of two sorted, deduplicated category sets, in [0, 1];
/// two empty sets are defined to have similarity 1. Any int32 id is valid.
inline double JaccardIndex(std::span<const int32_t> a,
                           std::span<const int32_t> b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

/// A single feature value; missing by default.
class FeatureValue {
 public:
  /// Constructs a missing value.
  FeatureValue() = default;

  /// Named constructors.
  static FeatureValue Missing() { return FeatureValue(); }
  static FeatureValue Numeric(double v);
  /// Categories are stored sorted and deduplicated.
  static FeatureValue Categorical(std::vector<int32_t> categories);
  static FeatureValue Embedding(std::vector<float> values);

  bool is_missing() const { return missing_; }
  FeatureType type() const { return type_; }

  /// Typed accessors; calling the wrong accessor or accessing a missing
  /// value is a programming error (checked).
  double numeric() const;
  const std::vector<int32_t>& categories() const;
  const std::vector<float>& embedding() const;

  /// True if this is a categorical value containing `category`.
  bool HasCategory(int32_t category) const;

  /// JaccardIndex of two categorical values' category sets. Both values
  /// must be categorical and present.
  static double Jaccard(const FeatureValue& a, const FeatureValue& b);

  /// Debug rendering, e.g. "{3,17}", "0.25", "emb[16]", "∅".
  std::string ToString() const;

  bool operator==(const FeatureValue& other) const;

 private:
  bool missing_ = true;
  FeatureType type_ = FeatureType::kNumeric;
  std::variant<double, std::vector<int32_t>, std::vector<float>> value_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_FEATURES_FEATURE_VALUE_H_
