#include "graph/similarity.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace crossmodal {

namespace {

/// sqrt(sum x^2), accumulated in double in index order.
double Norm(std::span<const float> x) {
  double sum = 0.0;
  for (float v : x) sum += static_cast<double>(v) * v;
  return std::sqrt(sum);
}

/// Cosine of two equal-length vectors given their norms; 0 when either
/// norm is 0.
double Cosine(std::span<const float> a, double norm_a,
              std::span<const float> b, double norm_b) {
  double dot = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
  }
  const double denom = norm_a * norm_b;
  if (denom <= 0.0) return 0.0;
  return dot / denom;
}

}  // namespace

double CosineSimilarity(const std::vector<float>& a,
                        const std::vector<float>& b) {
  CM_CHECK(a.size() == b.size());
  return Cosine(a, Norm(a), b, Norm(b));
}

PackedFeatureRows::PackedFeatureRows(
    const std::vector<const FeatureVector*>& rows,
    const std::vector<FeatureId>& features)
    : num_rows_(rows.size()), num_features_(features.size()) {
  kind_.reserve(num_rows_ * num_features_);
  slot_.reserve(num_rows_ * num_features_);
  // Offsets are 32-bit; a packed table past 4G values is a caller bug.
  auto offset = [](size_t size) {
    CM_CHECK(size <= UINT32_MAX) << "packed feature table overflow";
    return static_cast<uint32_t>(size);
  };
  cat_begin_.push_back(0);
  emb_begin_.push_back(0);
  for (const FeatureVector* row : rows) {
    for (FeatureId f : features) {
      const FeatureValue& v = row->Get(f);
      if (v.is_missing()) {
        kind_.push_back(kMissing);
        slot_.push_back(0);
        continue;
      }
      kind_.push_back(Kind(v.type()));
      switch (v.type()) {
        case FeatureType::kNumeric:
          slot_.push_back(offset(numeric_.size()));
          numeric_.push_back(v.numeric());
          break;
        case FeatureType::kCategorical:
          slot_.push_back(offset(cat_begin_.size() - 1));
          categories_.insert(categories_.end(), v.categories().begin(),
                             v.categories().end());
          cat_begin_.push_back(offset(categories_.size()));
          break;
        case FeatureType::kEmbedding:
          slot_.push_back(offset(emb_begin_.size() - 1));
          embeddings_.insert(embeddings_.end(), v.embedding().begin(),
                             v.embedding().end());
          emb_begin_.push_back(offset(embeddings_.size()));
          emb_norm_.push_back(Norm(v.embedding()));
          break;
      }
    }
  }
}

std::span<const int32_t> PackedFeatureRows::categories(size_t row,
                                                       size_t idx) const {
  const size_t c = cell(row, idx);
  if (kind_[c] != Kind(FeatureType::kCategorical)) return {};
  return category_set(slot_[c]);
}

FeatureSimilarity::FeatureSimilarity(const FeatureSchema* schema,
                                     std::vector<FeatureId> features)
    : schema_(schema), features_(std::move(features)) {
  CM_CHECK(schema_ != nullptr);
  numeric_scale_.assign(features_.size(), 1.0);
}

void FeatureSimilarity::FitNormalization(
    const std::vector<const FeatureVector*>& rows) {
  for (size_t idx = 0; idx < features_.size(); ++idx) {
    const FeatureId f = features_[idx];
    if (schema_->def(f).type != FeatureType::kNumeric) continue;
    double sum = 0.0, sum_sq = 0.0;
    size_t count = 0;
    for (const auto* row : rows) {
      const FeatureValue& v = row->Get(f);
      if (v.is_missing() || v.type() != FeatureType::kNumeric) continue;
      sum += v.numeric();
      sum_sq += v.numeric() * v.numeric();
      ++count;
    }
    if (count >= 2) {
      const double mean = sum / count;
      const double var = std::max(0.0, sum_sq / count - mean * mean);
      numeric_scale_[idx] = std::max(1e-6, std::sqrt(var));
    }
  }
}

double FeatureSimilarity::Weight(const FeatureVector& a,
                                 const FeatureVector& b) const {
  const PackedFeatureRows packed({&a, &b}, features_);
  return Weight(packed, 0, packed, 1);
}

double FeatureSimilarity::Weight(const PackedFeatureRows& a, size_t i,
                                 const PackedFeatureRows& b, size_t j) const {
  CM_DCHECK_EQ(a.num_features_, features_.size());
  CM_DCHECK_EQ(b.num_features_, features_.size());
  CM_DCHECK_LT(i, a.num_rows_);
  CM_DCHECK_LT(j, b.num_rows_);
  const size_t ca = a.cell(i, 0);
  const size_t cb = b.cell(j, 0);
  double total = 0.0;
  size_t present = 0;
  for (size_t idx = 0; idx < features_.size(); ++idx) {
    const uint8_t kind = a.kind_[ca + idx];
    // Skip a value missing on either side, or of differing types.
    if (kind == PackedFeatureRows::kMissing || kind != b.kind_[cb + idx]) {
      continue;
    }
    const uint32_t sa = a.slot_[ca + idx];
    const uint32_t sb = b.slot_[cb + idx];
    double sim = 0.0;
    switch (static_cast<FeatureType>(kind - 1)) {
      case FeatureType::kCategorical:
        sim = JaccardIndex(a.category_set(sa), b.category_set(sb));
        break;
      case FeatureType::kNumeric: {
        const double d =
            std::abs(a.numeric_[sa] - b.numeric_[sb]) / numeric_scale_[idx];
        sim = std::exp(-d);
        break;
      }
      case FeatureType::kEmbedding: {
        const std::span<const float> ea = a.embedding(sa);
        const std::span<const float> eb = b.embedding(sb);
        if (ea.size() != eb.size()) continue;
        sim = 0.5 * (1.0 + Cosine(ea, a.emb_norm_[sa], eb, b.emb_norm_[sb]));
        break;
      }
    }
    total += sim;
    ++present;
  }
  return present == 0 ? 0.0 : total / static_cast<double>(present);
}

}  // namespace crossmodal
