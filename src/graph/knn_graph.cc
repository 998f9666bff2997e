#include "graph/knn_graph.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace crossmodal {

size_t SimilarityGraph::num_edges() const {
  size_t total = 0;
  for (const auto& nbrs : adjacency) total += nbrs.size();
  return total / 2;
}

double SimilarityGraph::AverageDegree() const {
  if (nodes.empty()) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(nodes.size());
}

namespace {

/// Top-k neighbors (weight, node index) of each of the table's rows: the
/// blocking pass and the exact Algorithm-1 scoring both read `table`,
/// never a FeatureValue.
std::vector<std::vector<std::pair<float, uint32_t>>> SelectNeighbors(
    const PackedFeatureRows& table, const FeatureSimilarity& similarity,
    const KnnGraphOptions& options) {
  const size_t n = table.num_rows();
  const std::vector<FeatureId>& features = similarity.features();

  // ---- Blocking pass: inverted index over categorical items. ----------
  // Item key packs (feature id, category) into one 64-bit key.
  auto item_key = [](FeatureId f, int32_t c) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(f)) << 32) |
           static_cast<uint32_t>(c);
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> postings;
  for (size_t i = 0; i < n; ++i) {
    for (size_t idx = 0; idx < features.size(); ++idx) {
      for (int32_t c : table.categories(i, idx)) {
        postings[item_key(features[idx], c)].push_back(
            static_cast<uint32_t>(i));
      }
    }
  }
  const size_t stop_threshold = std::max<size_t>(
      8, static_cast<size_t>(options.stop_item_fraction * n));

  // Top-k edge selection per node.
  std::vector<std::vector<std::pair<float, uint32_t>>> best(n);

  // Per-node selection only reads shared state (table, postings) and writes
  // its own best[i] slot, so nodes are sliced across workers. Each node's
  // random candidates come from a seed derived from the node index — not a
  // shared stream — so the graph is bit-identical for every thread count.
  StagePool pool(options.parallel);
  constexpr size_t kSlices = 32;
  ForEachSlice(pool.get(), n, kSlices, [&](size_t, size_t begin, size_t end) {
    // Slice-owned scratch, allocated once per slice and reused across
    // nodes: candidate overlap counts, the reset list, the candidate set,
    // and the scoring buffer. Capacity is provisioned up front so the
    // per-node loop performs no heap traffic (cmrace: alloc-in-slice).
    std::vector<uint32_t> shared_count(n, 0);
    std::vector<uint32_t> touched;
    touched.reserve(n);
    std::vector<uint32_t> candidates;
    candidates.reserve(n);
    std::vector<std::pair<float, uint32_t>> scored;
    scored.reserve(n);
    for (size_t i = begin; i < end; ++i) {
      // Score candidates by number of shared items.
      touched.clear();
      for (size_t idx = 0; idx < features.size(); ++idx) {
        for (int32_t c : table.categories(i, idx)) {
          const auto& list = postings.at(item_key(features[idx], c));
          if (list.size() > stop_threshold) continue;  // stop-item
          for (uint32_t j : list) {
            if (j == i) continue;
            if (shared_count[j] == 0) touched.push_back(j);
            ++shared_count[j];
          }
        }
      }
      // Keep the most-overlapping candidates plus random ones.
      candidates.assign(touched.begin(), touched.end());
      if (candidates.size() > options.max_candidates) {
        std::nth_element(
            candidates.begin(),
            candidates.begin() +
                static_cast<std::ptrdiff_t>(options.max_candidates),
            candidates.end(),
            [&](uint32_t a, uint32_t b) {
              // Strict total order (ties broken by node index):
              // with ties, the selected candidate set would be
              // implementation-defined, and the graph would not
              // be bit-identical across platforms/runs.
              if (shared_count[a] != shared_count[b]) {
                return shared_count[a] > shared_count[b];
              }
              return a < b;
            });
        candidates.resize(options.max_candidates);
      }
      for (uint32_t j : touched) shared_count[j] = 0;  // reset scratch
      Rng rng(DeriveSeed(options.seed, static_cast<uint64_t>(i)));
      for (size_t r = 0; r < options.random_candidates && n > 1; ++r) {
        const uint32_t j = static_cast<uint32_t>(rng.UniformInt(n));
        if (j != i) candidates.push_back(j);
      }
      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()),
                       candidates.end());

      // Exact Algorithm-1 weights; keep top-k above the floor. Scoring
      // happens in slice-owned scratch so best[i] is allocated exactly
      // once, at its final (pruned) size.
      scored.clear();
      for (uint32_t j : candidates) {
        const double w = similarity.Weight(table, i, table, j);
        if (w < options.min_weight) continue;
        scored.emplace_back(static_cast<float>(w), j);
      }
      const size_t k = static_cast<size_t>(options.k);
      if (scored.size() > k) {
        std::nth_element(scored.begin(),
                         scored.begin() + static_cast<std::ptrdiff_t>(k),
                         scored.end(),
                         [](const std::pair<float, uint32_t>& a,
                            const std::pair<float, uint32_t>& b) {
                           // Weight descending, equal-weight ties broken by
                           // ascending node index (a strict total order, so
                           // the kept top-k set is uniquely determined).
                           if (a.first != b.first) return a.first > b.first;
                           return a.second < b.second;
                         });
        scored.resize(k);
      }
      best[i].assign(scored.begin(), scored.end());
    }
  });
  return best;
}

}  // namespace

Result<SimilarityGraph> BuildKnnGraph(const std::vector<EntityId>& entities,
                                      const FeatureStore& store,
                                      const FeatureSimilarity& similarity,
                                      const KnnGraphOptions& options) {
  const size_t n = entities.size();
  SimilarityGraph graph;
  graph.nodes = entities;
  graph.adjacency.assign(n, {});
  if (n == 0) return graph;

  std::vector<const FeatureVector*> rows(n);
  for (size_t i = 0; i < n; ++i) {
    CM_ASSIGN_OR_RETURN(rows[i], store.Get(entities[i]));
  }
  // Every row's graph features, packed once before the slices run. The
  // table (and the postings built from it) is freed before symmetrization
  // allocates the adjacency lists.
  const std::vector<std::vector<std::pair<float, uint32_t>>> best =
      SelectNeighbors(PackedFeatureRows(rows, similarity.features()),
                      similarity, options);

  // Symmetrize: union of both directions.
  for (size_t i = 0; i < n; ++i) {
    for (const auto& [w, j] : best[i]) {
      CM_DCHECK_LT(j, n);
      CM_DCHECK_NE(static_cast<size_t>(j), i);
      graph.adjacency[i].emplace_back(j, w);
      graph.adjacency[j].emplace_back(static_cast<uint32_t>(i), w);
    }
  }
  for (auto& nbrs : graph.adjacency) {
    std::sort(nbrs.begin(), nbrs.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Deduplicate (keep the max weight per neighbor).
    std::vector<std::pair<uint32_t, float>> dedup;
    for (const auto& e : nbrs) {
      if (!dedup.empty() && dedup.back().first == e.first) {
        dedup.back().second = std::max(dedup.back().second, e.second);
      } else {
        dedup.push_back(e);
      }
    }
    nbrs = std::move(dedup);
  }
  return graph;
}

}  // namespace crossmodal
