#include "graph/knn_graph.h"

#include <algorithm>
#include <bit>
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

/// Most-overlapping blocking candidates scored exactly per node.
constexpr size_t kMaxCandidates = 150;

/// Edges lighter than this are dropped.
constexpr double kMinWeight = 0.05;

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
  size_t max_items = 0;  // most items on one row: bounds an overlap count
  for (size_t i = 0; i < n; ++i) {
    size_t items = 0;
    for (size_t idx = 0; idx < features.size(); ++idx) {
      for (int32_t c : table.categories(i, idx)) {
        postings[item_key(features[idx], c)].push_back(
            static_cast<uint32_t>(i));
        ++items;
      }
    }
    max_items = std::max(max_items, items);
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
    // nodes: candidate overlap counts, the reset list, the overlap-count
    // histogram, bitsets of the kept and the tied nodes, the candidate set,
    // and the scoring buffer. Capacity is provisioned up front so the
    // per-node loop performs no heap traffic (cmrace: alloc-in-slice).
    std::vector<uint32_t> shared_count(n, 0);
    std::vector<uint32_t> touched;
    touched.reserve(n);
    std::vector<uint32_t> count_hist(max_items + 1);
    std::vector<uint64_t> kept_bits((n + 63) / 64, 0);
    std::vector<uint64_t> tie_bits((n + 63) / 64, 0);
    std::vector<uint32_t> candidates;
    candidates.reserve(n);
    std::vector<std::pair<float, uint32_t>> scored;
    scored.reserve(n);
    auto mark = [](std::vector<uint64_t>& bits, uint32_t j) {
      bits[j >> 6] |= uint64_t{1} << (j & 63);
    };
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
      // Keep the kMaxCandidates first candidates in (overlap descending,
      // node index ascending) order. The order is strict, so the kept set
      // is the same on every platform and thread count. Overlaps are small
      // counts: their histogram gives the cut-off count, every node above
      // it is kept, and the `need` lowest-index nodes at it fill the rest.
      size_t cut = 0;  // when all touched nodes fit, every one is kept
      size_t need = 0;
      if (touched.size() > kMaxCandidates) {
        std::fill(count_hist.begin(), count_hist.end(), 0);
        for (uint32_t j : touched) ++count_hist[shared_count[j]];
        cut = count_hist.size() - 1;
        size_t above = 0;
        while (above + count_hist[cut] < kMaxCandidates) {
          above += count_hist[cut--];
        }
        need = kMaxCandidates - above;
      }
      for (uint32_t j : touched) {
        const uint32_t count = shared_count[j];
        shared_count[j] = 0;  // reset scratch
        if (count > cut) {
          mark(kept_bits, j);
        } else if (count == cut) {
          mark(tie_bits, j);
        }
      }
      if (need > 0) {
        for (size_t w = 0; w < tie_bits.size(); ++w) {
          for (uint64_t word = tie_bits[w]; word != 0 && need > 0; --need) {
            const uint64_t lowest = word & (~word + 1);
            kept_bits[w] |= lowest;
            word ^= lowest;
          }
          tie_bits[w] = 0;
        }
      }
      // Random candidates for connectivity.
      Rng rng(DeriveSeed(options.seed, static_cast<uint64_t>(i)));
      for (size_t r = 0; r < options.random_candidates && n > 1; ++r) {
        const uint32_t j = static_cast<uint32_t>(rng.UniformInt(n));
        if (j != i) mark(kept_bits, j);
      }
      // The kept set in node order (rows are then scored in table order).
      candidates.clear();
      for (size_t w = 0; w < kept_bits.size(); ++w) {
        for (uint64_t word = kept_bits[w]; word != 0; word &= word - 1) {
          candidates.push_back(static_cast<uint32_t>(
              w * 64 + static_cast<size_t>(std::countr_zero(word))));
        }
        kept_bits[w] = 0;
      }

      // Exact Algorithm-1 weights; keep top-k above the floor. Scoring
      // happens in slice-owned scratch so best[i] is allocated exactly
      // once, at its final (pruned) size.
      scored.clear();
      for (uint32_t j : candidates) {
        const double w = similarity.Weight(table, i, j);
        if (w < kMinWeight) continue;
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

  // Symmetrize: union of both directions. Each list is reserved at its
  // size before deduplication, then sorted and deduplicated in place.
  std::vector<uint32_t> degree(n, 0);
  for (size_t i = 0; i < n; ++i) {
    degree[i] += static_cast<uint32_t>(best[i].size());
    for (const auto& edge : best[i]) ++degree[edge.second];
  }
  for (size_t i = 0; i < n; ++i) graph.adjacency[i].reserve(degree[i]);
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
    size_t kept = 0;
    for (size_t e = 0; e < nbrs.size(); ++e) {
      if (kept > 0 && nbrs[kept - 1].first == nbrs[e].first) {
        nbrs[kept - 1].second = std::max(nbrs[kept - 1].second, nbrs[e].second);
      } else {
        nbrs[kept++] = nbrs[e];
      }
    }
    nbrs.resize(kept);
  }
  return graph;
}

}  // namespace crossmodal
