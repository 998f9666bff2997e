// Property-based tests: invariants swept over randomized/parameterized
// configurations (parameterized gtest, as the library's property harness).

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "features/feature_value.h"
#include "graph/label_propagation.h"
#include "graph/similarity.h"
#include "labeling/label_model.h"
#include "mining/itemset_miner.h"
#include "ml/metrics.h"
#include "serving/batch_server.h"
#include "synth/corpus_generator.h"
#include "util/check.h"
#include "util/random.h"

namespace crossmodal {
namespace {

// ---------- Jaccard invariants over random sets ------------------------------

class JaccardProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JaccardProperty, BoundsSymmetryIdentity) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    auto random_set = [&] {
      std::vector<int32_t> s;
      const int n = static_cast<int>(rng.UniformInt(uint64_t{6}));
      for (int i = 0; i < n; ++i) {
        s.push_back(static_cast<int32_t>(rng.UniformInt(uint64_t{12})));
      }
      return FeatureValue::Categorical(std::move(s));
    };
    const FeatureValue a = random_set(), b = random_set();
    const double jab = FeatureValue::Jaccard(a, b);
    EXPECT_GE(jab, 0.0);
    EXPECT_LE(jab, 1.0);
    EXPECT_DOUBLE_EQ(jab, FeatureValue::Jaccard(b, a));   // symmetry
    EXPECT_DOUBLE_EQ(FeatureValue::Jaccard(a, a), 1.0);   // identity
    // Monotonicity under intersection growth: J(a, a∪b) >= J(a, b).
    std::vector<int32_t> uni = a.categories();
    uni.insert(uni.end(), b.categories().begin(), b.categories().end());
    const FeatureValue u = FeatureValue::Categorical(std::move(uni));
    EXPECT_GE(FeatureValue::Jaccard(a, u) + 1e-12, jab);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JaccardProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// Jaccard by a sorted merge of the two sets: the reference the library's
/// JaccardIndex must match bit for bit.
double MergeJaccard(const std::vector<int32_t>& a,
                    const std::vector<int32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

TEST(JaccardIndexProperty, MatchesSortedMergeOverEveryInt32Id) {
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  Rng rng(2024);
  // Draws a sorted, deduplicated set of exactly `size` ids: mostly small
  // ids (negatives included) so sets overlap, plus the int32 extremes and
  // arbitrary 32-bit values.
  auto random_set = [&](size_t size) {
    std::vector<int32_t> s;
    while (s.size() < size) {
      int32_t id;
      switch (rng.UniformInt(uint64_t{6})) {
        case 0: id = kMin; break;
        case 1: id = kMax; break;
        case 2: id = static_cast<int32_t>(static_cast<uint32_t>(rng())); break;
        default: id = static_cast<int32_t>(rng.UniformInt(-40, 40)); break;
      }
      if (std::find(s.begin(), s.end(), id) == s.end()) s.push_back(id);
    }
    std::sort(s.begin(), s.end());
    return s;
  };
  for (size_t size_a = 0; size_a <= 40; ++size_a) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::vector<int32_t> a = random_set(size_a);
      const std::vector<int32_t> b =
          random_set(static_cast<size_t>(rng.UniformInt(uint64_t{41})));
      EXPECT_EQ(JaccardIndex(a, b), MergeJaccard(a, b));
      EXPECT_EQ(JaccardIndex(b, a), MergeJaccard(b, a));
      EXPECT_EQ(JaccardIndex(a, a), MergeJaccard(a, a));
    }
  }
}

// ---------- AveragePrecision invariances -------------------------------------

class ApProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ApProperty, InvariantUnderMonotoneTransformAndBounded) {
  Rng rng(GetParam());
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 300; ++i) {
    scores.push_back(rng.Uniform(-2.0, 2.0));
    labels.push_back(rng.Bernoulli(0.25) ? 1 : 0);
  }
  const double ap = AveragePrecision(scores, labels);
  EXPECT_GE(ap, 0.0);
  EXPECT_LE(ap, 1.0);
  // Strictly monotone transform preserves the ranking, hence AP.
  std::vector<double> transformed(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    transformed[i] = std::tanh(scores[i]) * 3.0 + 7.0;
  }
  EXPECT_NEAR(AveragePrecision(transformed, labels), ap, 1e-12);
  // AP of ideal scores is 1; of inverted ideal scores it is minimal.
  std::vector<double> ideal(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) ideal[i] = labels[i];
  EXPECT_DOUBLE_EQ(AveragePrecision(ideal, labels), 1.0);
  // ROC-AUC flips exactly under score negation.
  std::vector<double> negated(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) negated[i] = -scores[i];
  EXPECT_NEAR(RocAuc(scores, labels) + RocAuc(negated, labels), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------- Generative label model calibration -------------------------------

struct LabelModelCase {
  double accuracy;
  double propensity;
  double balance;
};

class LabelModelProperty : public ::testing::TestWithParam<LabelModelCase> {};

TEST_P(LabelModelProperty, RecoversPlantedAccuracy) {
  const LabelModelCase c = GetParam();
  Rng rng(DeriveSeed(99, static_cast<uint64_t>(c.accuracy * 1000)));
  const size_t n = 4000;
  std::vector<EntityId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i + 1;
  // Three LFs at the planted accuracy plus one strong anchor (identifies
  // the label sign; a single mediocre LF is unidentifiable up to swap).
  LabelMatrix m(ids, {"anchor", "lf1", "lf2", "lf3"});
  for (size_t i = 0; i < n; ++i) {
    const int y = rng.Bernoulli(c.balance) ? 1 : 0;
    auto vote = [&](size_t j, double acc, double prop) {
      if (!rng.Bernoulli(prop)) return;
      const bool agree = rng.Bernoulli(acc);
      m.set(i, j,
            (agree == (y == 1)) ? Vote::kPositive : Vote::kNegative);
    };
    vote(0, 0.92, 0.9);
    vote(1, c.accuracy, c.propensity);
    vote(2, c.accuracy, c.propensity);
    vote(3, c.accuracy, c.propensity);
  }
  GenerativeModelOptions options;
  options.fixed_class_balance = c.balance;
  options.prior_anchor = 0.0;  // exact EM on well-specified synthetic votes
  auto fit = GenerativeLabelModel::Fit(m, options);
  ASSERT_TRUE(fit.ok());
  for (size_t j = 1; j <= 3; ++j) {
    EXPECT_NEAR(fit->accuracies()[j], c.accuracy, 0.08)
        << "acc=" << c.accuracy << " prop=" << c.propensity;
  }
  // Propensities are estimated directly from coverage.
  EXPECT_NEAR(fit->propensities()[1], c.propensity, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LabelModelProperty,
    ::testing::Values(LabelModelCase{0.65, 0.5, 0.3},
                      LabelModelCase{0.75, 0.7, 0.3},
                      LabelModelCase{0.85, 0.4, 0.2},
                      LabelModelCase{0.70, 0.9, 0.5},
                      LabelModelCase{0.90, 0.6, 0.1}));

// ---------- Miner consistency across thresholds ------------------------------

class MinerProperty
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(MinerProperty, AcceptedItemsMeetThresholds) {
  const auto [min_precision, min_recall] = GetParam();
  FeatureSchema schema;
  FeatureDef cat;
  cat.name = "tags";
  cat.type = FeatureType::kCategorical;
  cat.cardinality = 24;
  CM_CHECK(schema.Add(cat).ok());

  Rng rng(77);
  std::vector<FeatureVector> rows;
  std::vector<int> labels;
  for (int i = 0; i < 2500; ++i) {
    const int y = rng.Bernoulli(0.2) ? 1 : 0;
    std::vector<int32_t> tags;
    for (int k = 0; k < 3; ++k) {
      // Positives prefer low tag ids with varying strength.
      const bool risky = y == 1 && rng.Bernoulli(0.5);
      tags.push_back(static_cast<int32_t>(
          risky ? rng.UniformInt(uint64_t{4})
                : rng.UniformInt(uint64_t{24})));
    }
    FeatureVector row(1);
    row.Set(0, FeatureValue::Categorical(std::move(tags)));
    rows.push_back(std::move(row));
    labels.push_back(y);
  }
  std::vector<const FeatureVector*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);

  MiningOptions options;
  options.min_precision_pos = min_precision;
  options.min_recall_pos = min_recall;
  options.max_lfs_per_polarity = 1000;  // no truncation for the property
  ItemsetMiner miner(&schema, options);
  auto result = miner.MineLFs(ptrs, labels);
  ASSERT_TRUE(result.ok());
  for (const auto& item : result->itemsets) {
    if (item.polarity != Vote::kPositive) continue;
    EXPECT_GE(item.precision, min_precision);
    EXPECT_GE(item.recall, min_recall);
  }
  // Tighter thresholds accept a subset.
  MiningOptions tighter = options;
  tighter.min_precision_pos = std::min(0.99, min_precision + 0.1);
  auto tighter_result = ItemsetMiner(&schema, tighter).MineLFs(ptrs, labels);
  ASSERT_TRUE(tighter_result.ok());
  size_t loose_pos = 0, tight_pos = 0;
  for (const auto& it : result->itemsets) {
    loose_pos += it.polarity == Vote::kPositive;
  }
  for (const auto& it : tighter_result->itemsets) {
    tight_pos += it.polarity == Vote::kPositive;
  }
  EXPECT_LE(tight_pos, loose_pos);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MinerProperty,
                         ::testing::Values(std::make_pair(0.3, 0.01),
                                           std::make_pair(0.5, 0.02),
                                           std::make_pair(0.6, 0.05),
                                           std::make_pair(0.7, 0.01),
                                           std::make_pair(0.8, 0.005)));

// ---------- Label propagation bounds across configs --------------------------

struct PropagationCase {
  double alpha;
  double prior;
  int k;
};

class PropagationProperty
    : public ::testing::TestWithParam<PropagationCase> {};

TEST_P(PropagationProperty, ScoresBoundedAndSeedsClamped) {
  const PropagationCase c = GetParam();
  // Random sparse graph.
  Rng rng(DeriveSeed(5, static_cast<uint64_t>(c.alpha * 100 + c.k)));
  SimilarityGraph g;
  const size_t n = 200;
  g.nodes.resize(n);
  g.adjacency.resize(n);
  for (size_t i = 0; i < n; ++i) g.nodes[i] = i + 1;
  for (size_t i = 0; i < n; ++i) {
    for (int e = 0; e < c.k; ++e) {
      const uint32_t j = static_cast<uint32_t>(rng.UniformInt(n));
      if (j == i) continue;
      const float w = static_cast<float>(rng.Uniform(0.05, 1.0));
      g.adjacency[i].emplace_back(j, w);
      g.adjacency[j].emplace_back(static_cast<uint32_t>(i), w);
    }
  }
  std::unordered_map<EntityId, double> seeds;
  for (size_t i = 0; i < 20; ++i) {
    seeds[g.nodes[i]] = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  }
  PropagationOptions options;
  options.alpha = c.alpha;
  options.prior = c.prior;
  options.max_iterations = 100;
  auto result = PropagateLabels(g, seeds, options);
  ASSERT_TRUE(result.ok());
  for (const auto& [id, s] : result->scores) {
    EXPECT_GE(s, -1e-12);
    EXPECT_LE(s, 1.0 + 1e-12);
  }
  for (const auto& [id, label] : seeds) {
    EXPECT_DOUBLE_EQ(result->scores.at(id), label);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PropagationProperty,
    ::testing::Values(PropagationCase{1.0, 0.1, 3},
                      PropagationCase{0.9, 0.5, 5},
                      PropagationCase{0.5, 0.0, 2},
                      PropagationCase{0.95, 0.05, 8},
                      PropagationCase{0.8, 1.0, 4}));

// ---------- Corpus generator across all five tasks ---------------------------

class TaskProperty : public ::testing::TestWithParam<int> {};

TEST_P(TaskProperty, CorpusRespectsSpecAcrossTasks) {
  const TaskSpec task = TaskSpec::CT(GetParam()).Scaled(0.08);
  const WorldConfig world;
  const Corpus c = CorpusGenerator(world, task).Generate();
  EXPECT_EQ(c.text_labeled.size(), task.n_text_labeled);
  EXPECT_NEAR(PositiveRate(c.image_test), task.pos_rate,
              1.0 / task.n_image_test + 1e-9);
  // Every entity has populated latents.
  for (const Entity& e : c.image_unlabeled) {
    EXPECT_FALSE(e.latent.objects.empty());
    EXPECT_FALSE(e.latent.keywords.empty());
    EXPECT_GE(e.latent.user_risk, 0.0);
    EXPECT_LE(e.latent.user_risk, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTasks, TaskProperty, ::testing::Range(1, 6));

// ---------- Serving-tier invariants over randomized workloads ----------------

/// Deterministic stand-in model for serving properties (no training).
class ServingStubModel : public CrossModalModel {
 public:
  double Score(const FeatureVector& row) const override {
    double acc = 0.0;
    for (size_t f = 0; f < row.size(); ++f) {
      const FeatureValue& v = row.Get(static_cast<FeatureId>(f));
      if (!v.is_missing() && v.type() == FeatureType::kNumeric) {
        acc += v.numeric() * static_cast<double>(f + 1);
      }
    }
    return 0.5 + 0.5 * std::sin(acc);
  }
  /// The numeric slots of the schema it is served with.
  std::vector<FeatureId> input_features() const override { return {0, 1, 2}; }
  const char* method_name() const override { return "stub"; }
};

class ServingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServingProperty, OrderLatencyAndConservationInvariants) {
  const uint64_t seed = GetParam();
  Rng rng(DeriveSeed(seed, "serving_prop"));

  FeatureSchema schema;
  for (int f = 0; f < 3; ++f) {
    FeatureDef def;
    def.name = "num_" + std::to_string(f);
    def.type = FeatureType::kNumeric;
    CM_CHECK(schema.Add(def).ok());
  }
  const auto model = std::make_shared<const ServingStubModel>();

  // Randomized tier shape per seed.
  ShardedServingOptions options;
  options.num_shards = 1 + rng.UniformInt(uint64_t{4});
  options.max_batch = 1 + rng.UniformInt(uint64_t{8});
  options.batch_window_us = rng.UniformInt(uint64_t{500});
  options.queue_capacity = 16 + rng.UniformInt(uint64_t{64});
  options.route_seed = DeriveSeed(seed, "route");
  auto server = ShardedServer::Create(
      model, &schema, schema.AllIds(), options);
  ASSERT_TRUE(server.ok()) << server.status();

  const size_t n = 150 + rng.UniformInt(uint64_t{100});
  std::vector<EntityId> ids;
  std::vector<FeatureVector> rows;
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(rng.UniformInt(uint64_t{1} << 50));
    FeatureVector row(schema.size());
    for (size_t f = 0; f < schema.size(); ++f) {
      row.Set(static_cast<FeatureId>(f),
              FeatureValue::Numeric(rng.Uniform(-2.0, 2.0)));
    }
    rows.push_back(std::move(row));
  }
  std::vector<const FeatureVector*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  const auto results = server->ScoreAll(ids, ptrs);
  ASSERT_EQ(results.size(), n);

  // Batch flushing preserves the one client's submission order: the served
  // sequence numbers on each shard are strictly increasing in submission
  // order (batches pop from the queue front and resolve in queue order).
  std::vector<uint64_t> last_sequence(options.num_shards, 0);
  size_t served = 0, shed = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!results[i].ok()) {
      EXPECT_EQ(results[i].status().code(), StatusCode::kUnavailable);
      ++shed;
      continue;
    }
    ++served;
    const ServedScore& s = *results[i];
    ASSERT_LT(s.shard, options.num_shards);
    EXPECT_GT(s.sequence, last_sequence[s.shard]);
    last_sequence[s.shard] = s.sequence;
  }

  const ShardedStats stats = server->stats();
  // Conservation: every submitted request is accounted exactly once.
  EXPECT_EQ(stats.submitted(), n);
  EXPECT_EQ(stats.served(), served);
  EXPECT_EQ(stats.shed(), shed);
  EXPECT_EQ(stats.served() + stats.shed() + stats.fault_shed(),
            stats.submitted());
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.served + shard.shed + shard.fault_shed, shard.submitted);
    // p100 is the max by construction of the nearest-rank percentile.
    if (shard.served > 0) {
      EXPECT_EQ(shard.latency.count, shard.served);
      EXPECT_DOUBLE_EQ(shard.latency.p100_us, shard.latency.max_us);
      EXPECT_LE(shard.latency.p95_us, shard.latency.p100_us);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace crossmodal
