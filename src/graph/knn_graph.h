// Blocked kNN graph construction over the common feature space (§4.4).
//
// Building the full n^2 similarity graph is infeasible at corpus scale, so —
// like Expander's scalable pipelines — candidate neighbors are generated by
// an inverted-index blocking pass over categorical items (nodes sharing more
// feature values are scored higher; overly common items are skipped as
// stop-items), a few random candidates are added for connectivity, and only
// the top candidates are scored exactly with Algorithm-1 weights.

#ifndef CROSSMODAL_GRAPH_KNN_GRAPH_H_
#define CROSSMODAL_GRAPH_KNN_GRAPH_H_

#include <cstdint>
#include <vector>

#include "features/feature_vector.h"
#include "graph/similarity.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/result.h"

namespace crossmodal {

/// Sparse undirected weighted graph over entities.
struct SimilarityGraph {
  std::vector<EntityId> nodes;
  /// adj[i] = (neighbor node index, weight); symmetric.
  std::vector<std::vector<std::pair<uint32_t, float>>> adjacency;

  size_t num_nodes() const { return nodes.size(); }
  size_t num_edges() const;
  double AverageDegree() const;
};

/// Construction parameters.
struct KnnGraphOptions {
  int k = 10;                    ///< Neighbors kept per node.
  size_t random_candidates = 8;  ///< Extra random candidates (connectivity).
  /// Items occurring in more than this fraction of nodes are stop-items.
  double stop_item_fraction = 0.08;
  uint64_t seed = 0x9A4B;
  /// Per-node neighbor selection is sliced across this many workers; the
  /// graph is bit-identical for every thread count (random candidates are
  /// drawn from per-node derived seeds, never a shared stream).
  ParallelConfig parallel;
};

/// Builds the kNN similarity graph over `entities` using `similarity`.
/// Fails when an entity has no feature row in `store`.
[[nodiscard]] Result<SimilarityGraph> BuildKnnGraph(const std::vector<EntityId>& entities,
                                      const FeatureStore& store,
                                      const FeatureSimilarity& similarity,
                                      const KnnGraphOptions& options);

}  // namespace crossmodal

#endif  // CROSSMODAL_GRAPH_KNN_GRAPH_H_
