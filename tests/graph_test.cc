#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "audit/determinism.h"
#include "graph/knn_graph.h"
#include "graph/label_propagation.h"
#include "graph/similarity.h"
#include "util/random.h"

namespace crossmodal {
namespace {

FeatureSchema GraphSchema() {
  FeatureSchema schema;
  FeatureDef cat;
  cat.name = "tags";
  cat.type = FeatureType::kCategorical;
  cat.cardinality = 16;
  CM_CHECK(schema.Add(cat).ok());
  FeatureDef num;
  num.name = "score";
  num.type = FeatureType::kNumeric;
  CM_CHECK(schema.Add(num).ok());
  FeatureDef emb;
  emb.name = "emb";
  emb.type = FeatureType::kEmbedding;
  emb.cardinality = 3;
  CM_CHECK(schema.Add(emb).ok());
  return schema;
}

FeatureVector GraphRow(std::vector<int32_t> tags, double score,
                       std::vector<float> emb) {
  FeatureVector row(3);
  row.Set(0, FeatureValue::Categorical(std::move(tags)));
  row.Set(1, FeatureValue::Numeric(score));
  row.Set(2, FeatureValue::Embedding(std::move(emb)));
  return row;
}

// ---------- Similarity ------------------------------------------------------

TEST(SimilarityTest, IdenticalRowsHaveWeightOne) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  const FeatureVector row = GraphRow({1, 2}, 0.5, {1, 0, 0});
  std::vector<const FeatureVector*> rows{&row};
  sim.FitNormalization(rows);
  EXPECT_NEAR(sim.Weight(row, row), 1.0, 1e-9);
}

TEST(SimilarityTest, Symmetric) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  const FeatureVector a = GraphRow({1, 2}, 0.1, {1, 0, 0});
  const FeatureVector b = GraphRow({2, 3}, 0.9, {0, 1, 0});
  std::vector<const FeatureVector*> rows{&a, &b};
  sim.FitNormalization(rows);
  EXPECT_DOUBLE_EQ(sim.Weight(a, b), sim.Weight(b, a));
}

TEST(SimilarityTest, InUnitInterval) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  Rng rng(3);
  std::vector<FeatureVector> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back(GraphRow(
        {static_cast<int32_t>(rng.UniformInt(uint64_t{16}))},
        rng.Uniform(),
        {static_cast<float>(rng.Normal()), static_cast<float>(rng.Normal()),
         static_cast<float>(rng.Normal())}));
  }
  std::vector<const FeatureVector*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  sim.FitNormalization(ptrs);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < rows.size(); ++j) {
      const double w = sim.Weight(rows[i], rows[j]);
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, 1.0);
    }
  }
}

TEST(SimilarityTest, MissingFeaturesSkipped) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  FeatureVector a(3);
  a.Set(0, FeatureValue::Categorical({1}));
  FeatureVector b(3);
  b.Set(1, FeatureValue::Numeric(0.5));
  // No feature present in both -> weight 0.
  EXPECT_DOUBLE_EQ(sim.Weight(a, b), 0.0);
  FeatureVector c(3);
  c.Set(0, FeatureValue::Categorical({1}));
  EXPECT_DOUBLE_EQ(sim.Weight(a, c), 1.0);  // only shared feature matches
}

// ---------- Packed kernel: hand-computed weights ----------------------------
//
// FeatureSimilarity scores rows from a PackedFeatureRows table. These cases
// pin each per-feature rule of the kernel with the scales left at 1.0 (no
// FitNormalization), so a numeric feature contributes exp(-|a - b|).

TEST(PackedKernelTest, MissingOnOneSideSkipsTheFeature) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  FeatureVector a(3);
  a.Set(0, FeatureValue::Categorical({1, 2}));
  a.Set(1, FeatureValue::Numeric(0.0));
  FeatureVector b(3);  // tags and embedding missing
  b.Set(1, FeatureValue::Numeric(1.0));
  b.Set(2, FeatureValue::Embedding({1, 0, 0}));
  // Only the numeric feature is present in both rows.
  EXPECT_DOUBLE_EQ(sim.Weight(a, b), std::exp(-1.0));
}

TEST(PackedKernelTest, TypeMismatchSkipsTheFeature) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1});
  FeatureVector a(3);
  a.Set(0, FeatureValue::Categorical({1, 2}));
  a.Set(1, FeatureValue::Numeric(0.5));
  FeatureVector b(3);
  b.Set(0, FeatureValue::Categorical({2, 3}));
  b.Set(1, FeatureValue::Categorical({3}));  // not the schema's type
  // Jaccard({1,2}, {2,3}) = 1/3; the mismatched slot does not count.
  EXPECT_EQ(sim.Weight(a, b), 1.0 / 3.0);
}

TEST(PackedKernelTest, EmptyCategorySets) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1});
  const FeatureVector empty = GraphRow({}, 0.0, {1, 0, 0});
  const FeatureVector also_empty = GraphRow({}, 2.0, {1, 0, 0});
  const FeatureVector one = GraphRow({4}, 2.0, {1, 0, 0});
  // Two empty sets are identical (1.0); mean with exp(-2).
  EXPECT_DOUBLE_EQ(sim.Weight(empty, also_empty),
                   (1.0 + std::exp(-2.0)) / 2);
  // One empty set shares nothing (0.0).
  EXPECT_DOUBLE_EQ(sim.Weight(empty, one), std::exp(-2.0) / 2);
}

TEST(PackedKernelTest, ZeroNormEmbeddingHasCosineZero) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {2});
  const FeatureVector zero = GraphRow({}, 0.0, {0, 0, 0});
  const FeatureVector unit = GraphRow({}, 0.0, {1, 0, 0});
  // cos = 0 -> rescaled similarity 0.5, on either side and for two zeros.
  EXPECT_EQ(sim.Weight(zero, unit), 0.5);
  EXPECT_EQ(sim.Weight(unit, zero), 0.5);
  EXPECT_EQ(sim.Weight(zero, zero), 0.5);
  // A non-degenerate pair: cos = 1/sqrt(2).
  const FeatureVector diag = GraphRow({}, 0.0, {1, 1, 0});
  EXPECT_DOUBLE_EQ(sim.Weight(unit, diag),
                   0.5 * (1.0 + 1.0 / std::sqrt(2.0)));
}

TEST(PackedKernelTest, EmbeddingLengthMismatchSkipsTheFeature) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 2});
  const FeatureVector a = GraphRow({1, 2}, 0.0, {1, 0, 0});
  const FeatureVector b = GraphRow({1}, 0.0, {1, 0});
  // Only tags count: Jaccard({1,2}, {1}) = 1/2.
  EXPECT_EQ(sim.Weight(a, b), 0.5);
  FeatureSimilarity emb_only(&schema, {2});
  EXPECT_EQ(emb_only.Weight(a, b), 0.0);  // no feature present in both
}

TEST(PackedKernelTest, NegativeAndOutOfRangeCategoryIds) {
  // Cardinality 16 is declared, not enforced: any int32 id is a category.
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0});
  const FeatureVector a = GraphRow({-5, 3, 100000}, 0.0, {1, 0, 0});
  const FeatureVector b = GraphRow({-5, 100000, 7}, 0.0, {1, 0, 0});
  EXPECT_EQ(sim.Weight(a, b), 2.0 / 4.0);  // {-5, 100000} of 4 ids
  const int32_t lo = std::numeric_limits<int32_t>::min();
  const int32_t hi = std::numeric_limits<int32_t>::max();
  const FeatureVector c = GraphRow({lo, 0, hi}, 0.0, {1, 0, 0});
  const FeatureVector d = GraphRow({lo, hi}, 0.0, {1, 0, 0});
  EXPECT_EQ(sim.Weight(c, d), 2.0 / 3.0);
}

TEST(PackedKernelTest, SymmetricBitForBitAcrossTables) {
  const FeatureSchema schema = GraphSchema();
  FeatureSimilarity sim(&schema, {0, 1, 2});
  Rng rng(11);
  // Random rows with missing slots, odd types and odd embedding lengths.
  std::vector<FeatureVector> rows;
  for (int i = 0; i < 24; ++i) {
    FeatureVector row(3);
    if (rng.Bernoulli(0.8)) {
      std::vector<int32_t> tags(rng.UniformInt(uint64_t{4}));
      for (int32_t& tag : tags) {
        tag = static_cast<int32_t>(rng.UniformInt(uint64_t{40})) - 20;
      }
      row.Set(0, FeatureValue::Categorical(std::move(tags)));
    }
    if (rng.Bernoulli(0.8)) {
      row.Set(1, rng.Bernoulli(0.1) ? FeatureValue::Categorical({1})
                                    : FeatureValue::Numeric(rng.Normal()));
    }
    if (rng.Bernoulli(0.8)) {
      std::vector<float> emb(rng.Bernoulli(0.1) ? 2 : 3);
      for (float& x : emb) x = static_cast<float>(rng.Normal());
      row.Set(2, FeatureValue::Embedding(std::move(emb)));
    }
    rows.push_back(std::move(row));
  }
  std::vector<const FeatureVector*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  sim.FitNormalization(ptrs);
  const PackedFeatureRows all(ptrs, sim.features());
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = 0; j < rows.size(); ++j) {
      const double w = sim.Weight(all, i, j);
      EXPECT_EQ(w, sim.Weight(all, j, i));
      EXPECT_EQ(w, sim.Weight(rows[i], rows[j]));
      EXPECT_EQ(w, sim.Weight(rows[j], rows[i]));
    }
  }
}

// ---------- kNN graph -------------------------------------------------------

class KnnGraphTest : public ::testing::Test {
 protected:
  KnnGraphTest() : schema_(GraphSchema()), store_(&schema_) {
    // Two clusters: tags {1,2} + emb x-axis vs tags {8,9} + emb y-axis.
    Rng rng(5);
    for (EntityId id = 1; id <= 40; ++id) {
      const bool cluster_a = id <= 20;
      std::vector<int32_t> tags = cluster_a ? std::vector<int32_t>{1, 2}
                                            : std::vector<int32_t>{8, 9};
      if (rng.Bernoulli(0.3)) tags.push_back(cluster_a ? 3 : 10);
      std::vector<float> emb =
          cluster_a ? std::vector<float>{1.0f, 0.1f, 0.0f}
                    : std::vector<float>{0.1f, 1.0f, 0.0f};
      emb[2] = static_cast<float>(rng.Normal(0, 0.05));
      store_.Put(id, GraphRow(std::move(tags),
                              cluster_a ? 0.2 : 0.8, std::move(emb)));
      nodes_.push_back(id);
    }
  }

  FeatureSchema schema_;
  FeatureStore store_;
  std::vector<EntityId> nodes_;
};

TEST_F(KnnGraphTest, BuildsSymmetricBoundedGraph) {
  FeatureSimilarity sim(&schema_, {0, 1, 2});
  std::vector<const FeatureVector*> rows;
  for (EntityId id : nodes_) rows.push_back(*store_.Get(id));
  sim.FitNormalization(rows);
  KnnGraphOptions options;
  options.k = 5;
  auto graph = BuildKnnGraph(nodes_, store_, sim, options);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 40u);
  EXPECT_GT(graph->num_edges(), 0u);
  // Symmetry: adjacency lists mirror each other.
  for (size_t i = 0; i < graph->num_nodes(); ++i) {
    for (const auto& [j, w] : graph->adjacency[i]) {
      bool mirrored = false;
      for (const auto& [k, w2] : graph->adjacency[j]) {
        if (k == i) {
          mirrored = true;
          EXPECT_FLOAT_EQ(w, w2);
        }
      }
      EXPECT_TRUE(mirrored);
    }
  }
}

TEST_F(KnnGraphTest, NeighborsPreferSameCluster) {
  FeatureSimilarity sim(&schema_, {0, 1, 2});
  std::vector<const FeatureVector*> rows;
  for (EntityId id : nodes_) rows.push_back(*store_.Get(id));
  sim.FitNormalization(rows);
  KnnGraphOptions options;
  options.k = 5;
  // At n=40 the cluster-defining tags cover half the nodes; keep them as
  // blocking items (the default stop fraction targets corpus scale).
  options.stop_item_fraction = 0.8;
  options.random_candidates = 2;
  auto graph = BuildKnnGraph(nodes_, store_, sim, options);
  ASSERT_TRUE(graph.ok());
  size_t same = 0, cross = 0;
  for (size_t i = 0; i < graph->num_nodes(); ++i) {
    const bool cluster_a = graph->nodes[i] <= 20;
    for (const auto& [j, w] : graph->adjacency[i]) {
      const bool other_a = graph->nodes[j] <= 20;
      (cluster_a == other_a ? same : cross)++;
    }
  }
  EXPECT_GT(same, cross * 5);
}

TEST(KnnBlockingTest, NegativeAndOutOfRangeIdsBlockTogether) {
  // Postings key on the raw int32 id, so ids outside the declared
  // cardinality (16) still make nodes candidates of each other.
  const FeatureSchema schema = GraphSchema();
  FeatureStore store(&schema);
  std::vector<EntityId> nodes;
  for (EntityId id = 1; id <= 12; ++id) {
    const int32_t tag = id <= 6 ? -7 : 1 << 30;
    store.Put(id, GraphRow({tag}, 0.5, {1, 0, 0}));
    nodes.push_back(id);
  }
  FeatureSimilarity sim(&schema, {0});
  KnnGraphOptions options;
  options.k = 3;
  options.random_candidates = 0;  // neighbors come from blocking alone
  options.stop_item_fraction = 1.0;
  auto graph = BuildKnnGraph(nodes, store, sim, options);
  ASSERT_TRUE(graph.ok());
  for (size_t i = 0; i < graph->num_nodes(); ++i) {
    ASSERT_FALSE(graph->adjacency[i].empty());
    for (const auto& [j, w] : graph->adjacency[i]) {
      EXPECT_EQ(graph->nodes[i] <= 6, graph->nodes[j] <= 6);
      EXPECT_EQ(w, 1.0f);
    }
  }
}

TEST_F(KnnGraphTest, MissingEntityFails) {
  FeatureSimilarity sim(&schema_, {0});
  std::vector<EntityId> bad = nodes_;
  bad.push_back(9999);
  EXPECT_EQ(BuildKnnGraph(bad, store_, sim, KnnGraphOptions{})
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(KnnGraphTest, EmptyNodeListOk) {
  FeatureSimilarity sim(&schema_, {0});
  auto graph = BuildKnnGraph({}, store_, sim, KnnGraphOptions{});
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 0u);
}

TEST(KnnSelectionTest, OverflowingCandidatesWithTiesArePinned) {
  // 400 nodes with 3-6 tags out of 24 (negative ids included) and no
  // stop-items: almost every node shares a tag with more than 150 others,
  // so the top-150 overlap cut runs, and it cuts through a tie of counts.
  const FeatureSchema schema = GraphSchema();
  FeatureStore store(&schema);
  std::vector<EntityId> nodes;
  std::vector<std::vector<int32_t>> tags;
  Rng rng(31);
  for (EntityId id = 1; id <= 400; ++id) {
    std::vector<int32_t> t;
    const size_t count = 3 + rng.UniformInt(uint64_t{4});
    for (size_t c = 0; c < count; ++c) {
      t.push_back(static_cast<int32_t>(rng.UniformInt(uint64_t{24})) - 12);
    }
    const FeatureValue value = FeatureValue::Categorical(t);
    tags.push_back(value.categories());
    FeatureVector row(3);
    row.Set(0, value);
    row.Set(1, FeatureValue::Numeric(rng.Normal()));
    row.Set(2, FeatureValue::Embedding({static_cast<float>(rng.Normal()),
                                        static_cast<float>(rng.Normal()),
                                        static_cast<float>(rng.Normal())}));
    store.Put(id, std::move(row));
    nodes.push_back(id);
  }
  size_t cut_in_tie = 0;
  for (size_t i = 0; i < tags.size(); ++i) {
    std::vector<size_t> shared;
    for (size_t j = 0; j < tags.size(); ++j) {
      if (j == i) continue;
      size_t s = 0;
      for (int32_t a : tags[i]) {
        s += std::count(tags[j].begin(), tags[j].end(), a);
      }
      if (s > 0) shared.push_back(s);
    }
    std::sort(shared.rbegin(), shared.rend());
    if (shared.size() > 150 && shared[149] == shared[150]) ++cut_in_tie;
  }
  ASSERT_GT(cut_in_tie, 300u);

  FeatureSimilarity sim(&schema, {0, 1, 2});
  std::vector<const FeatureVector*> rows;
  for (EntityId id : nodes) rows.push_back(*store.Get(id));
  sim.FitNormalization(rows);
  KnnGraphOptions options;
  options.stop_item_fraction = 1.0;
  for (size_t threads : {1, 4}) {
    options.parallel.num_threads = threads;
    auto graph = BuildKnnGraph(nodes, store, sim, options);
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(DeterminismHarness::HashGraph(*graph), 0x64d13754490db9b8ULL)
        << "threads=" << threads;
  }
}

// ---------- Label propagation -----------------------------------------------

/// A hand-built path graph: 0 -- 1 -- 2 -- 3 -- 4.
SimilarityGraph PathGraph() {
  SimilarityGraph g;
  g.nodes = {10, 11, 12, 13, 14};
  g.adjacency.resize(5);
  auto connect = [&](uint32_t a, uint32_t b, float w) {
    g.adjacency[a].emplace_back(b, w);
    g.adjacency[b].emplace_back(a, w);
  };
  connect(0, 1, 1.0f);
  connect(1, 2, 1.0f);
  connect(2, 3, 1.0f);
  connect(3, 4, 1.0f);
  return g;
}

TEST(LabelPropagationTest, InterpolatesAlongPath) {
  const SimilarityGraph g = PathGraph();
  PropagationOptions options;
  options.alpha = 1.0;
  options.max_iterations = 500;
  options.tolerance = 1e-9;
  auto result = PropagateLabels(g, {{10, 1.0}, {14, 0.0}}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  // Harmonic solution on a path: linear interpolation.
  EXPECT_NEAR(result->scores.at(11), 0.75, 1e-3);
  EXPECT_NEAR(result->scores.at(12), 0.50, 1e-3);
  EXPECT_NEAR(result->scores.at(13), 0.25, 1e-3);
  // Seeds stay clamped.
  EXPECT_DOUBLE_EQ(result->scores.at(10), 1.0);
  EXPECT_DOUBLE_EQ(result->scores.at(14), 0.0);
}

TEST(LabelPropagationTest, ScoresBounded) {
  const SimilarityGraph g = PathGraph();
  PropagationOptions options;
  options.alpha = 0.9;
  options.prior = 0.2;
  auto result = PropagateLabels(g, {{10, 1.0}}, options);
  ASSERT_TRUE(result.ok());
  for (const auto& [id, s] : result->scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(LabelPropagationTest, IsolatedNodeKeepsPrior) {
  SimilarityGraph g;
  g.nodes = {1, 2};
  g.adjacency.resize(2);  // no edges
  PropagationOptions options;
  options.prior = 0.3;
  auto result = PropagateLabels(g, {{1, 1.0}}, options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->scores.at(1), 1.0);
  EXPECT_NEAR(result->scores.at(2), 0.3, 1e-9);
}

TEST(LabelPropagationTest, FailsWithoutSeeds) {
  const SimilarityGraph g = PathGraph();
  EXPECT_EQ(PropagateLabels(g, {{999, 1.0}}).status().code(),
            StatusCode::kFailedPrecondition);
  SimilarityGraph empty;
  EXPECT_EQ(PropagateLabels(empty, {{1, 1.0}}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------- Threshold tuning ------------------------------------------------

TEST(ThresholdTuningTest, FindsSeparatingThresholds) {
  // Scores cleanly separate classes.
  std::vector<WeightedScore> holdout;
  for (int i = 0; i < 50; ++i) holdout.push_back({0.8 + i * 0.001, 1, 1.0});
  for (int i = 0; i < 200; ++i) holdout.push_back({0.1 + i * 0.001, 0, 1.0});
  const auto t = TuneScoreThresholds(holdout, 0.9, 0.95);
  EXPECT_LE(t.positive, 0.81);
  EXPECT_GT(t.positive, 0.31);
  EXPECT_GE(t.negative, 0.1);
  EXPECT_LT(t.negative, 0.8);
  // Applying thresholds reaches the precision targets.
  size_t tp = 0, fp = 0;
  for (const WeightedScore& p : holdout) {
    if (p.score >= t.positive) (p.label == 1 ? tp : fp)++;
  }
  EXPECT_GE(static_cast<double>(tp) / (tp + fp), 0.9);
}

TEST(ThresholdTuningTest, AbstainsWhenUnreachable) {
  // All labels negative: no positive threshold can reach precision 0.9.
  std::vector<WeightedScore> holdout;
  for (int i = 0; i < 100; ++i) holdout.push_back({i * 0.01, 0, 1.0});
  const auto t = TuneScoreThresholds(holdout, 0.9, 0.9);
  EXPECT_TRUE(std::isinf(t.positive));
  EXPECT_LE(t.negative, 1.0);  // negative side achievable
}

TEST(ThresholdTuningTest, EmptyHoldout) {
  const auto t = TuneScoreThresholds(std::vector<WeightedScore>{}, 0.9, 0.9);
  EXPECT_TRUE(std::isinf(t.positive));
  EXPECT_TRUE(std::isinf(t.negative));
}

TEST(ThresholdTuningTest, BandsDisjoint) {
  std::vector<WeightedScore> holdout;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    holdout.push_back({rng.Uniform(), y, 1.0});  // scores uninformative
  }
  const auto t = TuneScoreThresholds(holdout, 0.55, 0.55);
  EXPECT_LT(t.negative, t.positive);
}

TEST(ThresholdTuningTest, WeightsRestoreNaturalMix) {
  // Stratified holdout: 50 positives, 50 negatives — but the natural mix is
  // 1:99. Positive scores are only mildly enriched, so under the natural
  // mix precision 0.5 is unreachable, while the unweighted (balanced) view
  // reaches it easily.
  std::vector<WeightedScore> weighted;
  std::vector<WeightedScore> unweighted;
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const double pos_score = rng.Uniform(0.4, 1.0);
    const double neg_score = rng.Uniform(0.0, 0.9);
    weighted.push_back(WeightedScore{pos_score, 1, 1.0});
    weighted.push_back(WeightedScore{neg_score, 0, 99.0});
    unweighted.push_back(WeightedScore{pos_score, 1, 1.0});
    unweighted.push_back(WeightedScore{neg_score, 0, 1.0});
  }
  const auto balanced = TuneScoreThresholds(unweighted, 0.5, 0.5);
  const auto corrected = TuneScoreThresholds(weighted, 0.5, 0.5);
  EXPECT_LT(balanced.positive, 1.0);  // reachable in the balanced view
  // With 99x negative weight the same precision needs a (much) higher
  // threshold — or none at all.
  EXPECT_GT(corrected.positive, balanced.positive);
}

}  // namespace
}  // namespace crossmodal
