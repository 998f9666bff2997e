// Similarity search and clustering over the common feature space (§4.1:
// "the feature space we induce via organizational resources can be used for
// tasks including similarity search and clustering").
//
// SimilarityIndex answers top-k queries with the same blocked candidate
// generation the kNN graph builder uses; ClusterEntities runs k-means over
// encoder-densified rows (k-means++ init, deterministic). Typical uses:
// reviewer triage ("show me posts like this one") and near-duplicate
// grouping before labeling.

#ifndef CROSSMODAL_GRAPH_SIMILARITY_SEARCH_H_
#define CROSSMODAL_GRAPH_SIMILARITY_SEARCH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "features/feature_vector.h"
#include "graph/similarity.h"
#include "util/result.h"

namespace crossmodal {

/// One search hit.
struct Neighbor {
  EntityId entity = 0;
  double weight = 0.0;  ///< Algorithm-1 similarity in [0, 1].
};

/// Index parameters (mirroring KnnGraphOptions).
struct SimilarityIndexOptions {
  size_t max_candidates = 200;   ///< Exact evaluations per query.
  double stop_item_fraction = 0.08;
  double min_weight = 0.0;       ///< Hits below this are dropped.
  uint64_t seed = 0x1DE1;
  size_t random_candidates = 8;  ///< Random extras per query.
};

/// Immutable top-k index over a fixed entity set.
class SimilarityIndex {
 public:
  /// Builds the inverted-index blocking structure. Every entity must have a
  /// row in `store`; `similarity` should already be normalization-fitted.
  [[nodiscard]] static Result<SimilarityIndex> Build(const std::vector<EntityId>& entities,
                                       const FeatureStore& store,
                                       FeatureSimilarity similarity,
                                       SimilarityIndexOptions options =
                                           SimilarityIndexOptions());

  /// Top-k most similar indexed entities to `row` (descending weight).
  /// The query row need not belong to the index.
  std::vector<Neighbor> Query(const FeatureVector& row, size_t k) const;

  size_t size() const { return entities_.size(); }

 private:
  SimilarityIndex(std::vector<EntityId> entities,
                  const std::vector<const FeatureVector*>& rows,
                  FeatureSimilarity similarity,
                  SimilarityIndexOptions options);

  std::vector<EntityId> entities_;
  PackedFeatureRows rows_;  // packed over similarity_.features()
  FeatureSimilarity similarity_;
  SimilarityIndexOptions options_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> postings_;
  size_t stop_threshold_ = 0;
};

/// K-means clustering output.
struct Clustering {
  std::vector<int> assignment;      ///< Parallel to the input entity list.
  std::vector<std::vector<double>> centroids;
  double inertia = 0.0;             ///< Sum of squared distances.
  int iterations = 0;
};

/// Clusters entities by k-means over their encoded feature rows (features
/// chosen by `features`; rows densified through a FeatureEncoder fit on the
/// same rows). Deterministic k-means++ seeding. Fails when k exceeds the
/// number of entities or the rows cannot be encoded.
[[nodiscard]] Result<Clustering> ClusterEntities(const std::vector<EntityId>& entities,
                                   const FeatureStore& store,
                                   const std::vector<FeatureId>& features,
                                   int k, int max_iterations = 50,
                                   uint64_t seed = 0xC1u);

}  // namespace crossmodal

#endif  // CROSSMODAL_GRAPH_SIMILARITY_SEARCH_H_
