#include "graph/similarity_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/encoder.h"
#include "util/logging.h"
#include "util/random.h"

namespace crossmodal {

namespace {
uint64_t ItemKey(FeatureId f, int32_t c) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(f)) << 32) |
         static_cast<uint32_t>(c);
}
}  // namespace

SimilarityIndex::SimilarityIndex(std::vector<EntityId> entities,
                                 const std::vector<const FeatureVector*>& rows,
                                 FeatureSimilarity similarity,
                                 SimilarityIndexOptions options)
    : entities_(std::move(entities)),
      rows_(rows, similarity.features()),
      similarity_(std::move(similarity)),
      options_(options) {
  const std::vector<FeatureId>& features = similarity_.features();
  for (size_t i = 0; i < rows_.num_rows(); ++i) {
    for (size_t idx = 0; idx < features.size(); ++idx) {
      for (int32_t c : rows_.categories(i, idx)) {
        postings_[ItemKey(features[idx], c)].push_back(
            static_cast<uint32_t>(i));
      }
    }
  }
  stop_threshold_ = std::max<size_t>(
      8, static_cast<size_t>(options_.stop_item_fraction * rows_.num_rows()));
}

Result<SimilarityIndex> SimilarityIndex::Build(
    const std::vector<EntityId>& entities, const FeatureStore& store,
    FeatureSimilarity similarity, SimilarityIndexOptions options) {
  std::vector<const FeatureVector*> rows(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    CM_ASSIGN_OR_RETURN(rows[i], store.Get(entities[i]));
  }
  return SimilarityIndex(entities, rows, std::move(similarity), options);
}

std::vector<Neighbor> SimilarityIndex::Query(const FeatureVector& row,
                                             size_t k) const {
  const std::vector<FeatureId>& features = similarity_.features();
  const PackedFeatureRows query({&row}, features);
  // Candidate generation: entities sharing non-stop categorical items.
  std::unordered_map<uint32_t, uint32_t> shared;
  for (size_t idx = 0; idx < features.size(); ++idx) {
    for (int32_t c : query.categories(0, idx)) {
      auto it = postings_.find(ItemKey(features[idx], c));
      if (it == postings_.end() || it->second.size() > stop_threshold_) {
        continue;
      }
      for (uint32_t i : it->second) shared[i]++;
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> candidates(shared.begin(),
                                                        shared.end());
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  if (candidates.size() > options_.max_candidates) {
    candidates.resize(options_.max_candidates);
  }
  // Random extras keep queries working when the row shares no rare item.
  Rng rng(DeriveSeed(options_.seed, candidates.size()));
  const size_t n = rows_.num_rows();
  for (size_t r = 0; r < options_.random_candidates && n > 0; ++r) {
    candidates.emplace_back(static_cast<uint32_t>(rng.UniformInt(n)), 0);
  }

  std::vector<Neighbor> hits;
  std::vector<char> seen(n, 0);
  for (const auto& [i, count] : candidates) {
    if (seen[i]) continue;
    seen[i] = 1;
    const double w = similarity_.Weight(query, 0, rows_, i);
    if (w < options_.min_weight) continue;
    hits.push_back(Neighbor{entities_[i], w});
  }
  std::sort(hits.begin(), hits.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.entity < b.entity;
  });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

Result<Clustering> ClusterEntities(const std::vector<EntityId>& entities,
                                   const FeatureStore& store,
                                   const std::vector<FeatureId>& features,
                                   int k, int max_iterations, uint64_t seed) {
  if (k <= 0 || static_cast<size_t>(k) > entities.size()) {
    return Status::InvalidArgument("k must be in [1, n]");
  }
  std::vector<const FeatureVector*> rows(entities.size());
  for (size_t i = 0; i < entities.size(); ++i) {
    CM_ASSIGN_OR_RETURN(rows[i], store.Get(entities[i]));
  }
  EncoderOptions enc_options;
  enc_options.features = features;
  CM_ASSIGN_OR_RETURN(FeatureEncoder encoder,
                      FeatureEncoder::Fit(store.schema(), rows,
                                          std::move(enc_options)));
  // Densify.
  const size_t dim = encoder.dim();
  std::vector<std::vector<double>> points(rows.size(),
                                          std::vector<double>(dim, 0.0));
  for (size_t i = 0; i < rows.size(); ++i) {
    for (const auto& [idx, value] : encoder.Encode(*rows[i]).entries) {
      points[i][idx] = value;
    }
  }

  auto distance_sq = [&](const std::vector<double>& a,
                         const std::vector<double>& b) {
    double total = 0.0;
    for (size_t d = 0; d < a.size(); ++d) {
      const double diff = a[d] - b[d];
      total += diff * diff;
    }
    return total;
  };

  // k-means++ seeding (deterministic).
  Clustering result;
  Rng rng(seed);
  result.centroids.push_back(points[rng.UniformInt(points.size())]);
  std::vector<double> min_dist(points.size(),
                               std::numeric_limits<double>::infinity());
  while (result.centroids.size() < static_cast<size_t>(k)) {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      min_dist[i] = std::min(min_dist[i],
                             distance_sq(points[i], result.centroids.back()));
      total += min_dist[i];
    }
    if (total <= 0.0) {
      // Degenerate: all points identical; duplicate the centroid.
      result.centroids.push_back(result.centroids.back());
      continue;
    }
    double r = rng.Uniform() * total;
    size_t chosen = points.size() - 1;
    for (size_t i = 0; i < points.size(); ++i) {
      r -= min_dist[i];
      if (r < 0.0) {
        chosen = i;
        break;
      }
    }
    result.centroids.push_back(points[chosen]);
  }

  // Lloyd iterations.
  result.assignment.assign(points.size(), 0);
  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    bool changed = false;
    result.inertia = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (int c = 0; c < k; ++c) {
        const double d =
            distance_sq(points[i], result.centroids[static_cast<size_t>(c)]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
      result.inertia += best_d;
    }
    if (!changed) break;
    // Recompute centroids.
    std::vector<std::vector<double>> sums(
        static_cast<size_t>(k), std::vector<double>(dim, 0.0));
    std::vector<size_t> counts(static_cast<size_t>(k), 0);
    for (size_t i = 0; i < points.size(); ++i) {
      const auto c = static_cast<size_t>(result.assignment[i]);
      ++counts[c];
      for (size_t d = 0; d < dim; ++d) sums[c][d] += points[i][d];
    }
    for (size_t c = 0; c < static_cast<size_t>(k); ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its centroid
      for (size_t d = 0; d < dim; ++d) {
        result.centroids[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
  }
  return result;
}

}  // namespace crossmodal
