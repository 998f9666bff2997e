// Feature-set selection: which features feed each pipeline consumer.
//
// The paper's experiments are parameterized by service sets (A/B/C/D) per
// modality channel (e.g. "T + AB, I + A", §6.5), by servability (§6.4:
// nonservable features may feed LFs and label propagation but not the end
// model), and by which pre-trained embedding the image channel uses.

#ifndef CROSSMODAL_CORE_FEATURE_SELECTION_H_
#define CROSSMODAL_CORE_FEATURE_SELECTION_H_

#include <string>
#include <vector>

#include "features/feature_schema.h"
#include "util/result.h"

namespace crossmodal {

/// Options controlling the selection.
struct FeatureSelectionOptions {
  /// Service sets visible to each modality's end-model channel.
  std::vector<ServiceSet> text_sets = {ServiceSet::kA, ServiceSet::kB,
                                       ServiceSet::kC, ServiceSet::kD};
  std::vector<ServiceSet> image_sets = {ServiceSet::kA, ServiceSet::kB,
                                        ServiceSet::kC, ServiceSet::kD};
  /// Service sets visible to LF mining (defaults to the union of the
  /// channel sets when empty). The end-model channels always get servable
  /// features only; LF mining and the graph may also use nonservable ones.
  std::vector<ServiceSet> lf_sets;
  /// Embedding features appended to the image channel and to the
  /// label-propagation graph ("proprietary_embedding" by default; benches
  /// swap in "generic_embedding" for the §6.6 comparison). Empty = none.
  std::vector<std::string> image_embedding_features = {
      "proprietary_embedding"};
  /// Append image_quality to the image channel.
  bool include_image_quality = true;
  /// Features excised everywhere (end-model channels, LF mining, graph) —
  /// the mechanism behind resource review (§7.1/§7.2): a vetoed resource
  /// stays registered but no pipeline consumer sees it.
  std::vector<FeatureId> excluded_features;
};

/// Resolved feature-id lists per consumer.
struct FeatureSelection {
  std::vector<FeatureId> text_model_features;
  std::vector<FeatureId> image_model_features;
  /// Features LF mining may use: restricted to features populated for both
  /// text and image (the common feature space).
  std::vector<FeatureId> lf_features;
  /// Features used for graph edge weights: the LF features plus embeddings.
  std::vector<FeatureId> graph_features;
};

/// Resolves options against a schema. Fails when a named embedding feature
/// does not exist.
[[nodiscard]] Result<FeatureSelection> SelectFeatures(const FeatureSchema& schema,
                                        const FeatureSelectionOptions& options);

}  // namespace crossmodal

#endif  // CROSSMODAL_CORE_FEATURE_SELECTION_H_
