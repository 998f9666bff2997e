#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "ml/encoder.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/trainer.h"
#include "util/parallel.h"
#include "util/random.h"

namespace crossmodal {
namespace {

// ---------- Metrics ---------------------------------------------------------

TEST(MetricsTest, AveragePrecisionPerfectRanking) {
  EXPECT_DOUBLE_EQ(AveragePrecision({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0}), 1.0);
}

TEST(MetricsTest, AveragePrecisionKnownValue) {
  // Ranking: pos, neg, pos -> AP = (1/1 + 2/3) / 2 = 5/6.
  EXPECT_NEAR(AveragePrecision({0.9, 0.5, 0.4}, {1, 0, 1}), 5.0 / 6.0, 1e-9);
}

TEST(MetricsTest, AveragePrecisionNoPositives) {
  EXPECT_DOUBLE_EQ(AveragePrecision({0.5, 0.4}, {0, 0}), 0.0);
}

TEST(MetricsTest, AveragePrecisionRandomScoresNearPrior) {
  Rng rng(1);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(rng.Uniform());
    labels.push_back(rng.Bernoulli(0.1) ? 1 : 0);
  }
  EXPECT_NEAR(AveragePrecision(scores, labels), 0.1, 0.02);
}

TEST(MetricsTest, RocAucValues) {
  EXPECT_DOUBLE_EQ(RocAuc({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2, 0.8, 0.9}, {1, 1, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(RocAuc({0.5, 0.5, 0.5, 0.5}, {1, 1, 0, 0}), 0.5);  // ties
  EXPECT_DOUBLE_EQ(RocAuc({0.5, 0.4}, {1, 1}), 0.5);  // one class
}

TEST(MetricsTest, PrecisionRecallF1AtThreshold) {
  const auto m =
      PrecisionRecallF1({0.9, 0.7, 0.3, 0.6}, {1, 0, 1, 1}, 0.5);
  // Predictions: 1,1,0,1. TP=2 FP=1 FN=1.
  EXPECT_NEAR(m.precision, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.recall, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(m.f1, 2.0 / 3.0, 1e-9);
}

TEST(MetricsTest, PrCurveMonotoneRecall) {
  Rng rng(2);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    const int y = rng.Bernoulli(0.3) ? 1 : 0;
    scores.push_back(y == 1 ? rng.Uniform(0.3, 1.0) : rng.Uniform(0.0, 0.7));
    labels.push_back(y);
  }
  const auto curve = PrecisionRecallCurve(scores, labels);
  ASSERT_FALSE(curve.empty());
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].recall, curve[i - 1].recall);
    EXPECT_LE(curve[i].threshold, curve[i - 1].threshold);
  }
  EXPECT_NEAR(curve.back().recall, 1.0, 1e-9);
}

TEST(MetricsTest, PrCurveEmptyWhenNoPositives) {
  EXPECT_TRUE(PrecisionRecallCurve({0.9, 0.1, 0.5}, {0, 0, 0}).empty());
}

TEST(MetricsTest, AllEqualScoresCollapseToPrevalence) {
  // One tie group: a single PR point whose precision is the base rate.
  const std::vector<double> scores{0.5, 0.5, 0.5, 0.5};
  const std::vector<int> labels{1, 0, 0, 1};
  EXPECT_DOUBLE_EQ(RocAuc(scores, labels), 0.5);
  const auto curve = PrecisionRecallCurve(scores, labels);
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_DOUBLE_EQ(curve[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(curve[0].recall, 1.0);
  // AveragePrecision breaks ties by index (positions 1,4 of 4 positive):
  // (1/1 + 2/4) / 2. Deterministic, but not the prevalence.
  EXPECT_DOUBLE_EQ(AveragePrecision(scores, labels), 0.75);
}

TEST(MetricsTest, CheckedVariantsAgreeOnCleanInput) {
  const std::vector<double> scores{0.9, 0.5, 0.4};
  const std::vector<int> labels{1, 0, 1};
  EXPECT_TRUE(ValidateScoredLabels(scores, labels).ok());
  auto ap = CheckedAveragePrecision(scores, labels);
  ASSERT_TRUE(ap.ok());
  EXPECT_DOUBLE_EQ(*ap, AveragePrecision(scores, labels));
  auto auc = CheckedRocAuc(scores, labels);
  ASSERT_TRUE(auc.ok());
  EXPECT_DOUBLE_EQ(*auc, RocAuc(scores, labels));
}

TEST(MetricsTest, CheckedVariantsRejectSizeMismatch) {
  const auto r = CheckedAveragePrecision({0.5, 0.4}, {1});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(MetricsTest, CheckedVariantsRejectNonFiniteScores) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(CheckedAveragePrecision({0.5, nan}, {1, 0}).ok());
  EXPECT_FALSE(CheckedRocAuc({inf, 0.2}, {1, 0}).ok());
  EXPECT_FALSE(CheckedRocAuc({-inf, 0.2}, {1, 0}).ok());
  EXPECT_EQ(CheckedRocAuc({0.5, nan}, {1, 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MetricsTest, CheckedVariantsRejectNonBinaryLabels) {
  EXPECT_FALSE(CheckedAveragePrecision({0.5, 0.4}, {1, 2}).ok());
  EXPECT_FALSE(CheckedRocAuc({0.5, 0.4}, {-1, 1}).ok());
}

// ---------- Encoder ---------------------------------------------------------

FeatureSchema EncoderSchema() {
  FeatureSchema schema;
  FeatureDef cat;
  cat.name = "tags";
  cat.type = FeatureType::kCategorical;
  cat.cardinality = 4;
  CM_CHECK(schema.Add(cat).ok());
  FeatureDef num;
  num.name = "score";
  num.type = FeatureType::kNumeric;
  CM_CHECK(schema.Add(num).ok());
  FeatureDef emb;
  emb.name = "emb";
  emb.type = FeatureType::kEmbedding;
  emb.cardinality = 2;
  CM_CHECK(schema.Add(emb).ok());
  return schema;
}

TEST(EncoderTest, DimensionsAndBlocks) {
  const FeatureSchema schema = EncoderSchema();
  FeatureVector row(3);
  row.Set(0, FeatureValue::Categorical({0, 2}));
  row.Set(1, FeatureValue::Numeric(1.0));
  row.Set(2, FeatureValue::Embedding({0.5f, -0.5f}));
  EncoderOptions options;
  options.features = {0, 1, 2};
  auto encoder = FeatureEncoder::Fit(schema, {&row}, options);
  ASSERT_TRUE(encoder.ok());
  // 4 (cat) + 1 miss + 1 (num) + 1 miss + 2 (emb) + 1 miss = 10.
  EXPECT_EQ(encoder->dim(), 10u);
  const SparseRow encoded = encoder->Encode(row);
  // cat slots 0 and 2 set, numeric at 5, embedding at 7,8.
  bool has_cat0 = false, has_cat2 = false;
  for (const auto& [idx, val] : encoded.entries) {
    if (idx == 0) has_cat0 = true;
    if (idx == 2) has_cat2 = true;
  }
  EXPECT_TRUE(has_cat0 && has_cat2);
}

TEST(EncoderTest, MissingIndicators) {
  const FeatureSchema schema = EncoderSchema();
  FeatureVector fit_row(3);
  fit_row.Set(1, FeatureValue::Numeric(0.0));
  EncoderOptions options;
  options.features = {0, 1};
  auto encoder = FeatureEncoder::Fit(schema, {&fit_row}, options);
  ASSERT_TRUE(encoder.ok());
  FeatureVector row(3);  // everything missing
  const SparseRow encoded = encoder->Encode(row);
  // Two missing indicators set: slots 4 (cat miss) and 6 (num miss).
  ASSERT_EQ(encoded.entries.size(), 2u);
  EXPECT_EQ(encoded.entries[0].first, 4u);
  EXPECT_EQ(encoded.entries[1].first, 6u);
}

TEST(EncoderTest, NumericStandardization) {
  const FeatureSchema schema = EncoderSchema();
  std::vector<FeatureVector> rows;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    FeatureVector r(3);
    r.Set(1, FeatureValue::Numeric(v));
    rows.push_back(std::move(r));
  }
  std::vector<const FeatureVector*> ptrs;
  for (const auto& r : rows) ptrs.push_back(&r);
  EncoderOptions options;
  options.features = {1};
  auto encoder = FeatureEncoder::Fit(schema, ptrs, options);
  ASSERT_TRUE(encoder.ok());
  // Mean 3, std sqrt(2): value 3 encodes to 0.
  const SparseRow mid = encoder->Encode(rows[2]);
  ASSERT_EQ(mid.entries.size(), 1u);
  EXPECT_NEAR(mid.entries[0].second, 0.0f, 1e-5);
  const SparseRow hi = encoder->Encode(rows[4]);
  EXPECT_NEAR(hi.entries[0].second, 2.0 / std::sqrt(2.0), 1e-4);
}

TEST(EncoderTest, MultihotNormalization) {
  const FeatureSchema schema = EncoderSchema();
  FeatureVector row(3);
  row.Set(0, FeatureValue::Categorical({0, 1, 2, 3}));
  EncoderOptions options;
  options.features = {0};
  auto encoder = FeatureEncoder::Fit(schema, {&row}, options);
  ASSERT_TRUE(encoder.ok());
  const SparseRow encoded = encoder->Encode(row);
  ASSERT_EQ(encoded.entries.size(), 4u);
  EXPECT_NEAR(encoded.entries[0].second, 0.5f, 1e-6);  // 1/sqrt(4)
}

TEST(EncoderTest, RejectsBadConfig) {
  const FeatureSchema schema = EncoderSchema();
  EncoderOptions empty;
  EXPECT_EQ(FeatureEncoder::Fit(schema, {}, empty).status().code(),
            StatusCode::kInvalidArgument);
  EncoderOptions bad;
  bad.features = {99};
  EXPECT_EQ(FeatureEncoder::Fit(schema, {}, bad).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------- Models ----------------------------------------------------------

/// Linearly separable dataset: y = 1[x0 > x1] over dense 2-dim rows.
Dataset LinearDataset(size_t n, uint64_t seed) {
  Dataset data;
  data.dim = 2;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Example ex;
    const float a = static_cast<float>(rng.Normal());
    const float b = static_cast<float>(rng.Normal());
    ex.x.Add(0, a);
    ex.x.Add(1, b);
    ex.target = a > b ? 1.0f : 0.0f;
    data.examples.push_back(std::move(ex));
  }
  return data;
}

TEST(LogisticRegressionTest, LearnsLinearBoundary) {
  const Dataset train = LinearDataset(2000, 3);
  TrainOptions options;
  options.epochs = 20;
  auto model = LogisticRegression::Train(train, options);
  ASSERT_TRUE(model.ok());
  const Dataset test = LinearDataset(500, 4);
  size_t correct = 0;
  for (const Example& ex : test.examples) {
    correct += ((model->Predict(ex.x) >= 0.5) == (ex.target >= 0.5f));
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.95);
}

TEST(LogisticRegressionTest, DeterministicTraining) {
  const Dataset train = LinearDataset(500, 5);
  TrainOptions options;
  auto m1 = LogisticRegression::Train(train, options);
  auto m2 = LogisticRegression::Train(train, options);
  ASSERT_TRUE(m1.ok() && m2.ok());
  EXPECT_EQ(m1->weights(), m2->weights());
  EXPECT_DOUBLE_EQ(m1->bias(), m2->bias());
}

TEST(LogisticRegressionTest, SoftTargetsShiftProbability) {
  // All-same-feature dataset with soft target 0.7: model should predict 0.7.
  Dataset data;
  data.dim = 1;
  for (int i = 0; i < 500; ++i) {
    Example ex;
    ex.x.Add(0, 1.0f);
    ex.target = 0.7f;
    data.examples.push_back(ex);
  }
  TrainOptions options;
  options.epochs = 40;
  options.l2 = 0.0;
  auto model = LogisticRegression::Train(data, options);
  ASSERT_TRUE(model.ok());
  SparseRow x;
  x.Add(0, 1.0f);
  EXPECT_NEAR(model->Predict(x), 0.7, 0.03);
}

TEST(LogisticRegressionTest, EmbedIsLogit) {
  const Dataset train = LinearDataset(300, 6);
  auto model = LogisticRegression::Train(train, TrainOptions{});
  ASSERT_TRUE(model.ok());
  SparseRow x;
  x.Add(0, 2.0f);
  const auto e = model->Embed(x);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_NEAR(model->PredictFromEmbedding(e), model->Predict(x), 1e-12);
}

TEST(LogisticRegressionTest, EmptyDatasetRejected) {
  Dataset empty;
  EXPECT_EQ(LogisticRegression::Train(empty, TrainOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

/// XOR-like dataset (not linearly separable).
Dataset XorDataset(size_t n, uint64_t seed) {
  Dataset data;
  data.dim = 2;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Example ex;
    const bool a = rng.Bernoulli(0.5), b = rng.Bernoulli(0.5);
    ex.x.Add(0, a ? 1.0f : -1.0f);
    ex.x.Add(1, b ? 1.0f : -1.0f);
    ex.target = (a != b) ? 1.0f : 0.0f;
    data.examples.push_back(std::move(ex));
  }
  return data;
}

TEST(MlpTest, LearnsXor) {
  const Dataset train = XorDataset(1500, 7);
  MlpOptions options;
  options.hidden = {8};
  options.train.epochs = 40;
  options.train.learning_rate = 0.02;
  auto model = Mlp::Train(train, options);
  ASSERT_TRUE(model.ok());
  const Dataset test = XorDataset(400, 8);
  size_t correct = 0;
  for (const Example& ex : test.examples) {
    correct += ((model->Predict(ex.x) >= 0.5) == (ex.target >= 0.5f));
  }
  EXPECT_GT(static_cast<double>(correct) / test.size(), 0.97);
}

TEST(MlpTest, TwoHiddenLayers) {
  const Dataset train = XorDataset(1000, 9);
  MlpOptions options;
  options.hidden = {8, 4};
  options.train.epochs = 50;
  options.train.learning_rate = 0.02;
  auto model = Mlp::Train(train, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->embed_dim(), 4u);
  SparseRow x;
  x.Add(0, 1.0f);
  x.Add(1, -1.0f);
  const auto e = model->Embed(x);
  ASSERT_EQ(e.size(), 4u);
  EXPECT_NEAR(model->PredictFromEmbedding(e), model->Predict(x), 1e-12);
}

TEST(MlpTest, DeterministicTraining) {
  const Dataset train = XorDataset(300, 10);
  MlpOptions options;
  options.train.epochs = 5;
  auto m1 = Mlp::Train(train, options);
  auto m2 = Mlp::Train(train, options);
  ASSERT_TRUE(m1.ok() && m2.ok());
  SparseRow x;
  x.Add(0, 1.0f);
  x.Add(1, 1.0f);
  EXPECT_DOUBLE_EQ(m1->Predict(x), m2->Predict(x));
}

TEST(MlpTest, RejectsBadConfig) {
  const Dataset train = XorDataset(50, 11);
  MlpOptions no_hidden;
  no_hidden.hidden = {};
  EXPECT_EQ(Mlp::Train(train, no_hidden).status().code(),
            StatusCode::kInvalidArgument);
  MlpOptions bad_width;
  bad_width.hidden = {0};
  EXPECT_EQ(Mlp::Train(train, bad_width).status().code(),
            StatusCode::kInvalidArgument);
  Dataset empty;
  EXPECT_EQ(Mlp::Train(empty, MlpOptions{}).status().code(),
            StatusCode::kInvalidArgument);
}

/// The dense MLP trainer that Mlp::Train replaced, kept as a bit-exact
/// oracle: every batch zeroes and folds whole slice partials, then runs
/// separate scale + L2 and Adam passes over every parameter. Built with the
/// tests' default flags, not cm_ml's vectorizer flags.
struct ReferenceMlp {
  std::vector<int> hidden;
  std::vector<std::vector<double>> weights, biases;
  std::vector<double> out_weights;
  double out_bias = 0.0;

  void Forward(const SparseRow& x,
               std::vector<std::vector<double>>* acts) const {
    const size_t num_hidden = hidden.size();
    acts->resize(num_hidden);
    const size_t h0 = static_cast<size_t>(hidden[0]);
    auto& a0 = (*acts)[0];
    a0.assign(h0, 0.0);
    for (const auto& [idx, val] : x.entries) {
      const double* w_row = &weights[0][static_cast<size_t>(idx) * h0];
      for (size_t j = 0; j < h0; ++j) a0[j] += w_row[j] * val;
    }
    for (size_t j = 0; j < h0; ++j) a0[j] = std::max(0.0, a0[j] + biases[0][j]);
    for (size_t l = 1; l < num_hidden; ++l) {
      const size_t hl = static_cast<size_t>(hidden[l]);
      const size_t hp = static_cast<size_t>(hidden[l - 1]);
      auto& al = (*acts)[l];
      al.assign(hl, 0.0);
      const auto& prev = (*acts)[l - 1];
      for (size_t j = 0; j < hl; ++j) {
        const double* w_row = &weights[l][j * hp];
        double acc = biases[l][j];
        for (size_t i = 0; i < hp; ++i) acc += w_row[i] * prev[i];
        al[j] = std::max(0.0, acc);
      }
    }
  }

  std::vector<double> Embed(const SparseRow& x) const {
    std::vector<std::vector<double>> acts;
    Forward(x, &acts);
    return acts.back();
  }

  double Predict(const SparseRow& x) const {
    const auto last = Embed(x);
    double logit = out_bias;
    for (size_t j = 0; j < last.size(); ++j) logit += out_weights[j] * last[j];
    return Sigmoid(logit);
  }
};

struct ReferenceAdam {
  std::vector<double> m, v;
  explicit ReferenceAdam(size_t n) : m(n, 0.0), v(n, 0.0) {}

  void Step(std::vector<double>* params, const std::vector<double>& grad,
            double lr, double corr1, double corr2) {
    constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
    for (size_t i = 0; i < params->size(); ++i) {
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * grad[i];
      v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * grad[i] * grad[i];
      (*params)[i] -= lr * (m[i] / corr1) / (std::sqrt(v[i] / corr2) + kEps);
    }
  }
};

ReferenceMlp TrainReferenceMlp(const Dataset& data,
                               const MlpOptions& options) {
  constexpr double kInitScale = 0.2;
  constexpr size_t kBatch = 64;
  ReferenceMlp model;
  model.hidden = options.hidden;
  Rng rng(options.train.seed);
  const size_t num_hidden = model.hidden.size();
  const size_t h0 = static_cast<size_t>(model.hidden[0]);
  model.weights.resize(num_hidden);
  model.biases.resize(num_hidden);
  model.weights[0].resize(data.dim * h0);
  const double s0 =
      kInitScale * std::sqrt(2.0 / std::max<size_t>(1, data.dim));
  for (auto& w : model.weights[0]) w = rng.Normal(0.0, s0);
  model.biases[0].assign(h0, 0.0);
  for (size_t l = 1; l < num_hidden; ++l) {
    const size_t hl = static_cast<size_t>(model.hidden[l]);
    const size_t hp = static_cast<size_t>(model.hidden[l - 1]);
    model.weights[l].resize(hl * hp);
    const double sl = kInitScale * std::sqrt(2.0 / hp);
    for (auto& w : model.weights[l]) w = rng.Normal(0.0, sl);
    model.biases[l].assign(hl, 0.0);
  }
  const size_t h_last = static_cast<size_t>(model.hidden.back());
  model.out_weights.resize(h_last);
  for (auto& w : model.out_weights) {
    w = rng.Normal(0.0, kInitScale * std::sqrt(2.0 / h_last));
  }

  std::vector<ReferenceAdam> adam_w, adam_b;
  std::vector<std::vector<double>> grad_w(num_hidden), grad_b(num_hidden);
  std::vector<std::vector<double>> s_grad_w(num_hidden), s_grad_b(num_hidden);
  for (size_t l = 0; l < num_hidden; ++l) {
    adam_w.emplace_back(model.weights[l].size());
    adam_b.emplace_back(model.biases[l].size());
    grad_w[l].assign(model.weights[l].size(), 0.0);
    grad_b[l].assign(model.biases[l].size(), 0.0);
    s_grad_w[l].assign(model.weights[l].size(), 0.0);
    s_grad_b[l].assign(model.biases[l].size(), 0.0);
  }
  ReferenceAdam adam_out(h_last), adam_out_b(1);
  std::vector<double> grad_out(h_last), grad_out_b(1);
  std::vector<double> s_grad_out(h_last);
  double s_grad_out_b = 0.0;
  std::vector<std::vector<double>> acts, delta(num_hidden);

  const TrainOptions& t = options.train;
  double beta1_t = 1.0, beta2_t = 1.0;
  const size_t n = data.size();
  for (int epoch = 0; epoch < t.epochs; ++epoch) {
    const auto perm = rng.Permutation(n);
    for (size_t start = 0; start < n; start += kBatch) {
      const size_t end = std::min(n, start + kBatch);
      const size_t batch = end - start;
      for (size_t l = 0; l < num_hidden; ++l) {
        std::fill(grad_w[l].begin(), grad_w[l].end(), 0.0);
        std::fill(grad_b[l].begin(), grad_b[l].end(), 0.0);
      }
      std::fill(grad_out.begin(), grad_out.end(), 0.0);
      grad_out_b[0] = 0.0;
      for (size_t slice = 0; slice < kGradSlices; ++slice) {
        const auto [s_begin, s_end] = SliceBounds(batch, kGradSlices, slice);
        if (s_begin == s_end) continue;
        for (size_t l = 0; l < num_hidden; ++l) {
          std::fill(s_grad_w[l].begin(), s_grad_w[l].end(), 0.0);
          std::fill(s_grad_b[l].begin(), s_grad_b[l].end(), 0.0);
        }
        std::fill(s_grad_out.begin(), s_grad_out.end(), 0.0);
        s_grad_out_b = 0.0;
        for (size_t k = s_begin; k < s_end; ++k) {
          const Example& ex = data.examples[perm[start + k]];
          model.Forward(ex.x, &acts);
          const auto& last = acts.back();
          double logit = model.out_bias;
          for (size_t j = 0; j < h_last; ++j) {
            logit += model.out_weights[j] * last[j];
          }
          const double p = Sigmoid(logit);
          const double g_out = ex.weight * (p - ex.target);
          for (size_t j = 0; j < h_last; ++j) s_grad_out[j] += g_out * last[j];
          s_grad_out_b += g_out;
          auto& d_last = delta[num_hidden - 1];
          d_last.assign(h_last, 0.0);
          for (size_t j = 0; j < h_last; ++j) {
            if (last[j] > 0.0) d_last[j] = g_out * model.out_weights[j];
          }
          for (size_t l = num_hidden - 1; l >= 1; --l) {
            const size_t hl = static_cast<size_t>(model.hidden[l]);
            const size_t hp = static_cast<size_t>(model.hidden[l - 1]);
            const auto& prev = acts[l - 1];
            auto& d_prev = delta[l - 1];
            d_prev.assign(hp, 0.0);
            for (size_t j = 0; j < hl; ++j) {
              const double dj = delta[l][j];
              if (dj == 0.0) continue;
              double* gw_row = &s_grad_w[l][j * hp];
              const double* w_row = &model.weights[l][j * hp];
              for (size_t i = 0; i < hp; ++i) {
                gw_row[i] += dj * prev[i];
                if (prev[i] > 0.0) d_prev[i] += dj * w_row[i];
              }
              s_grad_b[l][j] += dj;
            }
          }
          for (const auto& [idx, val] : ex.x.entries) {
            double* gw_row = &s_grad_w[0][static_cast<size_t>(idx) * h0];
            for (size_t j = 0; j < h0; ++j) gw_row[j] += delta[0][j] * val;
          }
          for (size_t j = 0; j < h0; ++j) s_grad_b[0][j] += delta[0][j];
        }
        for (size_t l = 0; l < num_hidden; ++l) {
          for (size_t i = 0; i < grad_w[l].size(); ++i) {
            grad_w[l][i] += s_grad_w[l][i];
          }
          for (size_t i = 0; i < grad_b[l].size(); ++i) {
            grad_b[l][i] += s_grad_b[l][i];
          }
        }
        for (size_t j = 0; j < h_last; ++j) grad_out[j] += s_grad_out[j];
        grad_out_b[0] += s_grad_out_b;
      }
      const double scale = 1.0 / static_cast<double>(batch);
      beta1_t *= 0.9;
      beta2_t *= 0.999;
      const double corr1 = 1.0 - beta1_t, corr2 = 1.0 - beta2_t;
      for (size_t l = 0; l < num_hidden; ++l) {
        for (size_t i = 0; i < grad_w[l].size(); ++i) {
          grad_w[l][i] = grad_w[l][i] * scale + t.l2 * model.weights[l][i];
        }
        for (auto& g : grad_b[l]) g *= scale;
        adam_w[l].Step(&model.weights[l], grad_w[l], t.learning_rate, corr1,
                       corr2);
        adam_b[l].Step(&model.biases[l], grad_b[l], t.learning_rate, corr1,
                       corr2);
      }
      for (size_t j = 0; j < h_last; ++j) {
        grad_out[j] = grad_out[j] * scale + t.l2 * model.out_weights[j];
      }
      grad_out_b[0] *= scale;
      adam_out.Step(&model.out_weights, grad_out, t.learning_rate, corr1,
                    corr2);
      std::vector<double> ob{model.out_bias};
      adam_out_b.Step(&ob, grad_out_b, t.learning_rate, corr1, corr2);
      model.out_bias = ob[0];
    }
  }
  return model;
}

/// Sparse rows over 12 input dims of which only 0..8 are ever set, soft
/// targets, and every fifth example at weight 0.
Dataset SparseSoftDataset(size_t n, uint64_t seed) {
  Dataset data;
  data.dim = 12;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Example ex;
    for (uint32_t d = 0; d < 9; ++d) {
      if (rng.Bernoulli(0.4)) ex.x.Add(d, static_cast<float>(rng.Normal()));
    }
    ex.target = static_cast<float>(rng.Uniform());
    ex.weight = i % 5 == 0 ? 0.0f : 1.0f;
    data.examples.push_back(std::move(ex));
  }
  return data;
}

TEST(MlpTest, TrainMatchesDenseReference) {
  // 197 = 3 * 64 + 5: the last batch of every epoch leaves three of the
  // kGradSlices slices empty and the rest one example long.
  const Dataset train = SparseSoftDataset(197, 12);
  for (const std::vector<int>& hidden :
       {std::vector<int>{16}, std::vector<int>{8, 4}}) {
    SCOPED_TRACE(hidden.size());
    MlpOptions options;
    options.hidden = hidden;
    auto model = Mlp::Train(train, options);
    ASSERT_TRUE(model.ok());
    const ReferenceMlp reference = TrainReferenceMlp(train, options);
    for (const Example& ex : train.examples) {
      // Exact double equality: the kernel must be bit-identical.
      EXPECT_EQ(model->Predict(ex.x), reference.Predict(ex.x));
      EXPECT_EQ(model->Embed(ex.x), reference.Embed(ex.x));
    }
  }
}

// ---------- Trainer / tuner -------------------------------------------------

TEST(TrainerTest, TrainsBothKinds) {
  const Dataset train = LinearDataset(500, 12);
  ModelSpec lr_spec;
  lr_spec.kind = ModelKind::kLogisticRegression;
  auto lr = TrainModel(train, lr_spec);
  ASSERT_TRUE(lr.ok());
  ModelSpec mlp_spec;
  mlp_spec.kind = ModelKind::kMlp;
  mlp_spec.hidden = {4};
  auto mlp = TrainModel(train, mlp_spec);
  ASSERT_TRUE(mlp.ok());
  EXPECT_GT((*lr)->num_parameters(), 0u);
  EXPECT_GT((*mlp)->num_parameters(), (*lr)->num_parameters());
}

TEST(TrainerTest, GridSearchPicksReasonableConfig) {
  const Dataset train = LinearDataset(800, 13);
  const Dataset val = LinearDataset(300, 14);
  ModelSpec base;
  base.kind = ModelKind::kLogisticRegression;
  base.train.epochs = 8;
  TunerOptions options;
  options.learning_rates = {0.0, 0.05};  // zero lr never learns
  options.l2s = {1e-5};
  auto result = GridSearch(train, val, base, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trials, 2u);
  EXPECT_DOUBLE_EQ(result->best_spec.train.learning_rate, 0.05);
  EXPECT_GT(result->best_val_auprc, 0.9);
}


TEST(TrainerTest, EnsembleAveragesMembers) {
  const Dataset train = LinearDataset(600, 21);
  ModelSpec spec;
  spec.kind = ModelKind::kMlp;
  spec.hidden = {4};
  spec.train.epochs = 6;
  spec.ensemble_size = 3;
  auto ensemble = TrainModel(train, spec);
  ASSERT_TRUE(ensemble.ok());
  ModelSpec single = spec;
  single.ensemble_size = 1;
  auto one = TrainModel(train, single);
  ASSERT_TRUE(one.ok());
  // Embed dim is the sum of member dims; parameters scale with members.
  EXPECT_EQ((*ensemble)->embed_dim(), 3 * (*one)->embed_dim());
  EXPECT_EQ((*ensemble)->num_parameters(), 3 * (*one)->num_parameters());
  SparseRow x;
  x.Add(0, 1.0f);
  x.Add(1, -1.0f);
  const double p = (*ensemble)->Predict(x);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  // PredictFromEmbedding over the concatenated embedding reproduces
  // Predict exactly.
  EXPECT_NEAR((*ensemble)->PredictFromEmbedding((*ensemble)->Embed(x)), p,
              1e-12);
}

TEST(TrainerTest, EnsembleMatchesSeriallyTrainedMembers) {
  // Members train concurrently; each must still be exactly the model
  // trained alone with its derived seed, averaged in member order.
  const Dataset train = LinearDataset(600, 23);
  ModelSpec spec;
  spec.kind = ModelKind::kMlp;
  spec.hidden = {4};
  spec.train.epochs = 4;
  spec.train.parallel.num_threads = 4;
  spec.ensemble_size = 3;
  auto ensemble = TrainModel(train, spec);
  ASSERT_TRUE(ensemble.ok());

  std::vector<ModelPtr> members;
  for (int k = 0; k < spec.ensemble_size; ++k) {
    ModelSpec single = spec;
    single.ensemble_size = 1;
    single.train.parallel.num_threads = 1;
    single.train.seed = DeriveSeed(spec.train.seed, static_cast<uint64_t>(k));
    auto member = TrainModel(train, single);
    ASSERT_TRUE(member.ok());
    members.push_back(std::move(member).value());
  }
  for (size_t i = 0; i < 50; ++i) {
    const SparseRow& x = train.examples[i].x;
    double total = 0.0;
    for (const auto& m : members) total += m->Predict(x);
    EXPECT_EQ((*ensemble)->Predict(x),
              total / static_cast<double>(members.size()));
  }
}

TEST(TrainerTest, ParallelEnsembleRejectsEmptyData) {
  ModelSpec spec;
  spec.ensemble_size = 3;
  spec.train.parallel.num_threads = 4;
  for (const ModelKind kind :
       {ModelKind::kLogisticRegression, ModelKind::kMlp}) {
    spec.kind = kind;
    EXPECT_EQ(TrainModel(Dataset{}, spec).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(TrainerTest, EnsembleReducesSeedVariance) {
  // Train several single models and several ensembles across seeds and
  // compare the spread of their predictions on one probe point.
  const Dataset train = XorDataset(600, 22);
  SparseRow probe;
  probe.Add(0, 1.0f);
  probe.Add(1, -1.0f);
  auto spread = [&](int ensemble_size) {
    double lo = 1.0, hi = 0.0;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      ModelSpec spec;
      spec.kind = ModelKind::kMlp;
      spec.hidden = {6};
      spec.train.epochs = 4;
      spec.train.seed = seed;
      spec.ensemble_size = ensemble_size;
      auto model = TrainModel(train, spec);
      CM_CHECK(model.ok());
      const double p = (*model)->Predict(probe);
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    return hi - lo;
  };
  EXPECT_LE(spread(4), spread(1) + 1e-9);
}

TEST(TrainerTest, GridSearchRejectsEmptyVal) {
  const Dataset train = LinearDataset(100, 15);
  Dataset val;
  EXPECT_EQ(GridSearch(train, val, ModelSpec{}, TunerOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crossmodal
