// Label propagation over the similarity graph (§4.4; Zhu & Ghahramani).
//
// Labeled seed nodes are clamped; every unlabeled node iteratively takes the
// weighted average of its neighbors' scores until convergence. The resulting
// scores identify borderline positives/negatives in the new modality that
// share feature-space neighborhoods with labeled old-modality examples, and
// are turned into a threshold LF (thresholds tuned on held-out labeled data
// of the existing modalities).

#ifndef CROSSMODAL_GRAPH_LABEL_PROPAGATION_H_
#define CROSSMODAL_GRAPH_LABEL_PROPAGATION_H_

#include <unordered_map>
#include <vector>

#include "graph/knn_graph.h"
#include "labeling/labeling_function.h"
#include "util/parallel.h"
#include "util/result.h"

namespace crossmodal {

/// Propagation parameters.
struct PropagationOptions {
  int max_iterations = 60;
  double tolerance = 1e-4;  ///< Max per-node delta to declare convergence.
  /// Blend toward the prior: score = alpha * neighborhood_avg +
  /// (1 - alpha) * prior. alpha = 1 is pure Zhu–Ghahramani.
  double alpha = 0.95;
  double prior = 0.1;  ///< Initial/fallback score for unlabeled nodes.
  /// Ignored: the sweep is one serial loop. Kept only until the benchmark
  /// harness, which still writes it, drops it in its next change.
  ParallelConfig parallel;
};

/// Outcome of a propagation run.
struct PropagationResult {
  /// Converged score in [0, 1] per node (seeds keep their clamped value).
  std::unordered_map<EntityId, double> scores;
  int iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
};

/// Runs label propagation. `seeds` maps labeled entities (graph nodes) to
/// their label in {0, 1}. Fails when the graph is empty or no seed matches
/// a node.
[[nodiscard]] Result<PropagationResult> PropagateLabels(
    const SimilarityGraph& graph,
    const std::unordered_map<EntityId, double>& seeds,
    const PropagationOptions& options = PropagationOptions());

/// Tuned LF thresholds from held-out labeled scores.
struct ScoreThresholds {
  double positive = 1.0;  ///< Score at/above which the LF votes positive.
  double negative = 0.0;  ///< Score at/below which the LF votes negative.
};

/// One weighted holdout point for threshold tuning.
struct WeightedScore {
  double score = 0.0;
  int label = 0;
  double weight = 1.0;  ///< Inverse-sampling weight (stratified holdouts).
};

/// Picks the smallest positive threshold whose weighted precision on the
/// held-out points reaches `target_precision_pos`, and symmetrically the
/// largest negative threshold reaching `target_precision_neg`. Precision is
/// computed over point weights, so a class-stratified holdout can be
/// corrected back to the natural class mix. Falls back to extreme
/// thresholds (LF abstains) when no threshold qualifies.
ScoreThresholds TuneScoreThresholds(const std::vector<WeightedScore>& holdout,
                                    double target_precision_pos,
                                    double target_precision_neg);

}  // namespace crossmodal

#endif  // CROSSMODAL_GRAPH_LABEL_PROPAGATION_H_
