#include "core/feature_selection.h"

#include <algorithm>
#include <unordered_set>

namespace crossmodal {

namespace {
/// Appends ids not already present.
void AppendUnique(std::vector<FeatureId>* out,
                  const std::vector<FeatureId>& ids) {
  std::unordered_set<FeatureId> seen(out->begin(), out->end());
  for (FeatureId f : ids) {
    if (seen.insert(f).second) out->push_back(f);
  }
}

std::vector<ServiceSet> UnionSets(const std::vector<ServiceSet>& a,
                                  const std::vector<ServiceSet>& b) {
  std::vector<ServiceSet> out = a;
  for (ServiceSet s : b) {
    bool present = false;
    for (ServiceSet t : out) present |= (t == s);
    if (!present) out.push_back(s);
  }
  return out;
}
}  // namespace

Result<FeatureSelection> SelectFeatures(
    const FeatureSchema& schema, const FeatureSelectionOptions& options) {
  FeatureSelection sel;
  auto excluded = [&options](FeatureId f) {
    for (FeatureId e : options.excluded_features) {
      if (e == f) return true;
    }
    return false;
  };

  sel.text_model_features =
      schema.Select(options.text_sets, /*servable_only=*/true, kTextMask);
  sel.image_model_features =
      schema.Select(options.image_sets, /*servable_only=*/true, kImageMask);
  std::erase_if(sel.text_model_features, excluded);
  std::erase_if(sel.image_model_features, excluded);

  // Image channel: append the chosen embedding(s) and quality feature.
  std::vector<FeatureId> image_extras;
  for (const std::string& name : options.image_embedding_features) {
    CM_ASSIGN_OR_RETURN(FeatureId f, schema.Find(name));
    image_extras.push_back(f);
  }
  if (options.include_image_quality) {
    auto quality = schema.Find("image_quality");
    if (quality.ok()) image_extras.push_back(*quality);
  }
  AppendUnique(&sel.image_model_features, image_extras);

  // LF features: union of the channels' sets (or an explicit list),
  // restricted to features populated for BOTH modalities so LFs developed
  // on the text dev set transfer to image (§4.2).
  const std::vector<ServiceSet> lf_sets =
      options.lf_sets.empty() ? UnionSets(options.text_sets,
                                          options.image_sets)
                              : options.lf_sets;
  const std::vector<FeatureId> lf_candidates =
      schema.Select(lf_sets, /*servable_only=*/false, kAllModalities);
  for (FeatureId f : lf_candidates) {
    const FeatureDef& def = schema.def(f);
    const bool common = MaskContains(def.modalities, Modality::kText) &&
                        MaskContains(def.modalities, Modality::kImage);
    if (!common) continue;
    if (excluded(f)) continue;
    sel.lf_features.push_back(f);
  }

  // Graph features: LF features plus the embedding(s) — label propagation
  // can exploit unstructured features as long as a distance exists (§4.4).
  sel.graph_features = sel.lf_features;
  AppendUnique(&sel.graph_features, image_extras);

  return sel;
}

}  // namespace crossmodal
