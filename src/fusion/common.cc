#include <algorithm>
#include <unordered_set>

#include "fusion/internal.h"
#include "util/logging.h"

namespace crossmodal {

const char* FusionMethodName(FusionMethod method) {
  switch (method) {
    case FusionMethod::kEarly:
      return "early_fusion";
    case FusionMethod::kIntermediate:
      return "intermediate_fusion";
    case FusionMethod::kDeViSE:
      return "devise";
  }
  return "?";
}

FeatureVector MaskRow(const FeatureVector& row,
                      const std::vector<FeatureId>& allowed, size_t arity) {
  FeatureVector out(arity);
  for (FeatureId f : allowed) {
    const FeatureValue& v = row.Get(f);
    if (!v.is_missing()) out.Set(f, v);
  }
  return out;
}

const std::vector<FeatureId>& FeaturesFor(const FusionInput& input,
                                          Modality modality) {
  return modality == Modality::kText ? input.text_features
                                     : input.image_features;
}

Result<CrossModalModelPtr> TrainFused(const FusionInput& input,
                                      const ModelSpec& spec,
                                      FusionMethod method) {
  switch (method) {
    case FusionMethod::kEarly:
      return TrainEarlyFusion(input, spec);
    case FusionMethod::kIntermediate:
      return TrainIntermediateFusion(input, spec);
    case FusionMethod::kDeViSE:
      return TrainDeViSE(input, spec);
  }
  return Status::InvalidArgument("unknown fusion method");
}

namespace fusion_internal {

Result<MaskedRows> CollectRows(const FusionInput& input,
                               const Modality* modality,
                               bool per_modality_mask,
                               const std::vector<FeatureId>& fixed_mask) {
  if (input.store == nullptr) {
    return Status::InvalidArgument("FusionInput.store must be set");
  }
  const size_t arity = input.store->schema().size();
  MaskedRows out;
  for (const TrainPoint& p : input.points) {
    if (modality != nullptr && p.modality != *modality) continue;
    CM_ASSIGN_OR_RETURN(const FeatureVector* row, input.store->Get(p.id));
    const std::vector<FeatureId>& mask =
        per_modality_mask ? FeaturesFor(input, p.modality) : fixed_mask;
    out.rows.push_back(MaskRow(*row, mask, arity));
    out.points.push_back(&p);
  }
  out.ptrs.reserve(out.rows.size());
  for (const auto& r : out.rows) out.ptrs.push_back(&r);
  return out;
}

Dataset BuildDataset(const MaskedRows& rows, const FeatureEncoder& encoder) {
  Dataset data;
  data.dim = encoder.dim();
  data.examples.reserve(rows.rows.size());
  for (size_t i = 0; i < rows.rows.size(); ++i) {
    Example ex;
    ex.x = encoder.Encode(rows.rows[i]);
    ex.target = rows.points[i]->target;
    ex.weight = rows.points[i]->weight;
    data.examples.push_back(std::move(ex));
  }
  return data;
}

std::vector<FeatureId> UnionFeatures(const std::vector<FeatureId>& a,
                                     const std::vector<FeatureId>& b) {
  std::vector<FeatureId> out = a;
  std::unordered_set<FeatureId> seen(out.begin(), out.end());
  for (FeatureId f : b) {
    if (seen.insert(f).second) out.push_back(f);
  }
  return out;
}

SparseRow& ScratchRow() {
  thread_local SparseRow row;
  return row;
}

}  // namespace fusion_internal
}  // namespace crossmodal
