#include <cmath>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "graph/knn_graph.h"
#include "graph/label_propagation.h"
#include "graph/similarity.h"
#include "graph/similarity_search.h"
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

TEST(SimilarityTest, CosineSimilarityBasics) {
  EXPECT_NEAR(CosineSimilarity({1, 0}, {1, 0}), 1.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {0, 1}), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity({1, 0}, {-1, 0}), -1.0, 1e-9);
  EXPECT_DOUBLE_EQ(CosineSimilarity({0, 0}, {1, 0}), 0.0);
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


// ---------- Similarity search / clustering ------------------------------------

TEST_F(KnnGraphTest, SimilarityIndexFindsClusterNeighbors) {
  FeatureSimilarity sim(&schema_, {0, 1, 2});
  std::vector<const FeatureVector*> rows;
  for (EntityId id : nodes_) rows.push_back(*store_.Get(id));
  sim.FitNormalization(rows);
  SimilarityIndexOptions options;
  options.stop_item_fraction = 0.8;  // small fixture; keep cluster tags
  auto index = SimilarityIndex::Build(nodes_, store_, sim, options);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->size(), nodes_.size());
  // Query with a cluster-A row: neighbors should be cluster A (ids <= 20).
  const FeatureVector& probe = **store_.Get(1);
  const auto hits = index->Query(probe, 5);
  ASSERT_EQ(hits.size(), 5u);
  for (const Neighbor& h : hits) {
    EXPECT_LE(h.entity, 20u) << "cross-cluster neighbor returned";
    EXPECT_GE(h.weight, 0.0);
    EXPECT_LE(h.weight, 1.0);
  }
  // Descending order.
  for (size_t i = 1; i < hits.size(); ++i) {
    EXPECT_GE(hits[i - 1].weight, hits[i].weight);
  }
}

TEST_F(KnnGraphTest, SimilarityIndexRejectsMissingEntity) {
  FeatureSimilarity sim(&schema_, {0});
  std::vector<EntityId> bad = nodes_;
  bad.push_back(4242);
  EXPECT_FALSE(SimilarityIndex::Build(bad, store_, sim,
                                      SimilarityIndexOptions{})
                   .ok());
}

TEST_F(KnnGraphTest, ClusteringSeparatesTheTwoClusters) {
  auto clustering = ClusterEntities(nodes_, store_, {0, 1, 2}, 2);
  ASSERT_TRUE(clustering.ok()) << clustering.status();
  ASSERT_EQ(clustering->assignment.size(), nodes_.size());
  // Perfect 2-means split of the fixture's two clusters.
  const int label_a = clustering->assignment[0];
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i] <= 20) {
      EXPECT_EQ(clustering->assignment[i], label_a);
    } else {
      EXPECT_NE(clustering->assignment[i], label_a);
    }
  }
  EXPECT_GT(clustering->iterations, 0);
}

TEST_F(KnnGraphTest, ClusteringValidatesK) {
  EXPECT_FALSE(ClusterEntities(nodes_, store_, {0}, 0).ok());
  EXPECT_FALSE(ClusterEntities(nodes_, store_, {0},
                               static_cast<int>(nodes_.size()) + 1)
                   .ok());
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
  std::vector<std::pair<double, int>> holdout;
  for (int i = 0; i < 50; ++i) holdout.emplace_back(0.8 + i * 0.001, 1);
  for (int i = 0; i < 200; ++i) holdout.emplace_back(0.1 + i * 0.001, 0);
  const auto t = TuneScoreThresholds(holdout, 0.9, 0.95);
  EXPECT_LE(t.positive, 0.81);
  EXPECT_GT(t.positive, 0.31);
  EXPECT_GE(t.negative, 0.1);
  EXPECT_LT(t.negative, 0.8);
  // Applying thresholds reaches the precision targets.
  size_t tp = 0, fp = 0;
  for (const auto& [s, y] : holdout) {
    if (s >= t.positive) (y == 1 ? tp : fp)++;
  }
  EXPECT_GE(static_cast<double>(tp) / (tp + fp), 0.9);
}

TEST(ThresholdTuningTest, AbstainsWhenUnreachable) {
  // All labels negative: no positive threshold can reach precision 0.9.
  std::vector<std::pair<double, int>> holdout;
  for (int i = 0; i < 100; ++i) holdout.emplace_back(i * 0.01, 0);
  const auto t = TuneScoreThresholds(holdout, 0.9, 0.9);
  EXPECT_TRUE(std::isinf(t.positive));
  EXPECT_LE(t.negative, 1.0);  // negative side achievable
}

TEST(ThresholdTuningTest, EmptyHoldout) {
  const auto t = TuneScoreThresholds(
      std::vector<std::pair<double, int>>{}, 0.9, 0.9);
  EXPECT_TRUE(std::isinf(t.positive));
  EXPECT_TRUE(std::isinf(t.negative));
}

TEST(ThresholdTuningTest, BandsDisjoint) {
  std::vector<std::pair<double, int>> holdout;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const int y = rng.Bernoulli(0.5) ? 1 : 0;
    holdout.emplace_back(rng.Uniform(), y);  // scores uninformative
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
  std::vector<std::pair<double, int>> unweighted;
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    const double pos_score = rng.Uniform(0.4, 1.0);
    const double neg_score = rng.Uniform(0.0, 0.9);
    weighted.push_back(WeightedScore{pos_score, 1, 1.0});
    weighted.push_back(WeightedScore{neg_score, 0, 99.0});
    unweighted.emplace_back(pos_score, 1);
    unweighted.emplace_back(neg_score, 0);
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
