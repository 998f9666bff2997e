#include "graph/label_propagation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/logging.h"

namespace crossmodal {

Result<PropagationResult> PropagateLabels(
    const SimilarityGraph& graph,
    const std::unordered_map<EntityId, double>& seeds,
    const PropagationOptions& options) {
  const size_t n = graph.num_nodes();
  if (n == 0) return Status::InvalidArgument("graph has no nodes");

  std::vector<double> score(n, options.prior);
  // Unclamped nodes only; seeds keep their clamped score in both buffers.
  std::vector<uint32_t> free_nodes;
  for (size_t i = 0; i < n; ++i) {
    auto it = seeds.find(graph.nodes[i]);
    if (it != seeds.end()) {
      score[i] = it->second;
    } else {
      free_nodes.push_back(static_cast<uint32_t>(i));
    }
  }
  if (free_nodes.size() == n) {
    return Status::FailedPrecondition("no seed label matches a graph node");
  }

  // Each node's weight total does not change across iterations.
  std::vector<double> weight_total(n, 0.0);
  for (uint32_t i : free_nodes) {
    for (const auto& [j, w] : graph.adjacency[i]) weight_total[i] += w;
  }

  PropagationResult result;
  std::vector<double> next = score;
  // Double-buffered sweep: every node reads only `score` (the previous
  // iteration) and writes only its own `next` slot, so the node order
  // cannot leak into the results.
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    double max_delta = 0.0;
    for (uint32_t i : free_nodes) {
      double weighted = 0.0;
      for (const auto& [j, w] : graph.adjacency[i]) {
        weighted += static_cast<double>(w) * score[j];
      }
      const double total = weight_total[i];
      const double neighborhood =
          total > 0.0 ? weighted / total : options.prior;
      next[i] = options.alpha * neighborhood +
                (1.0 - options.alpha) * options.prior;
      max_delta = std::max(max_delta, std::abs(next[i] - score[i]));
    }
    score.swap(next);
    result.final_delta = max_delta;
    if (max_delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.scores.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    result.scores.emplace(graph.nodes[i], score[i]);
  }
  return result;
}

ScoreThresholds TuneScoreThresholds(const std::vector<WeightedScore>& holdout,
                                    double target_precision_pos,
                                    double target_precision_neg) {
  ScoreThresholds out;
  out.positive = std::numeric_limits<double>::infinity();
  out.negative = -std::numeric_limits<double>::infinity();
  if (holdout.empty()) return out;

  std::vector<WeightedScore> sorted = holdout;
  std::sort(sorted.begin(), sorted.end(),
            [](const WeightedScore& a, const WeightedScore& b) {
              return a.score < b.score;
            });

  // Positive threshold: walk from the highest score down, tracking the
  // (weighted) precision of "predict positive at >= threshold"; keep the
  // lowest threshold that still meets the target.
  double tp = 0.0, fp = 0.0;
  for (size_t i = sorted.size(); i-- > 0;) {
    (sorted[i].label == 1 ? tp : fp) += sorted[i].weight;
    const double precision = tp / (tp + fp);
    if (precision >= target_precision_pos) {
      out.positive = sorted[i].score;
    }
  }
  // Negative threshold: symmetric from the lowest score up.
  double tn = 0.0, fn = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    (sorted[i].label == 0 ? tn : fn) += sorted[i].weight;
    const double precision = tn / (tn + fn);
    if (precision >= target_precision_neg) {
      out.negative = sorted[i].score;
    }
  }
  // Keep the bands disjoint.
  if (out.negative >= out.positive) {
    const double mid = 0.5 * (out.negative + out.positive);
    out.negative = std::nextafter(mid, -1e300);
    out.positive = std::nextafter(mid, 1e300);
  }
  return out;
}

}  // namespace crossmodal
