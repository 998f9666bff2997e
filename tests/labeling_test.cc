#include <algorithm>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "labeling/label_matrix.h"
#include "labeling/label_model.h"
#include "labeling/labeling_function.h"
#include "labeling/lf_quality.h"
#include <cmath>

#include "ml/metrics.h"
#include "util/random.h"

namespace crossmodal {
namespace {

FeatureSchema TwoFeatureSchema() {
  FeatureSchema schema;
  FeatureDef cat;
  cat.name = "topic";
  cat.type = FeatureType::kCategorical;
  cat.cardinality = 8;
  CM_CHECK(schema.Add(cat).ok());
  FeatureDef num;
  num.name = "score";
  num.type = FeatureType::kNumeric;
  CM_CHECK(schema.Add(num).ok());
  return schema;
}

FeatureVector Row(std::vector<int32_t> cats, double score) {
  FeatureVector row(2);
  row.Set(0, FeatureValue::Categorical(std::move(cats)));
  row.Set(1, FeatureValue::Numeric(score));
  return row;
}

// ---------- LF primitives ---------------------------------------------------

TEST(LabelingFunctionTest, CategoryLF) {
  CategoryLF lf("pos_topic3", 0, 3, Vote::kPositive);
  EXPECT_EQ(lf.Apply(1, Row({3, 5}, 0)), Vote::kPositive);
  EXPECT_EQ(lf.Apply(1, Row({5}, 0)), Vote::kAbstain);
  EXPECT_EQ(lf.Apply(1, FeatureVector(2)), Vote::kAbstain);  // missing
}

TEST(LabelingFunctionTest, ConjunctionLF) {
  ConjunctionLF lf("conj", {{0, 3}, {0, 5}}, Vote::kNegative);
  EXPECT_EQ(lf.Apply(1, Row({3, 5}, 0)), Vote::kNegative);
  EXPECT_EQ(lf.Apply(1, Row({3}, 0)), Vote::kAbstain);
}

TEST(LabelingFunctionTest, NumericThresholdLF) {
  NumericThresholdLF above("hi", 1, 0.5, /*above=*/true, Vote::kPositive);
  NumericThresholdLF below("lo", 1, 0.5, /*above=*/false, Vote::kNegative);
  EXPECT_EQ(above.Apply(1, Row({}, 0.7)), Vote::kPositive);
  EXPECT_EQ(above.Apply(1, Row({}, 0.3)), Vote::kAbstain);
  EXPECT_EQ(below.Apply(1, Row({}, 0.3)), Vote::kNegative);
  EXPECT_EQ(below.Apply(1, FeatureVector(2)), Vote::kAbstain);
}

TEST(LabelingFunctionTest, NumericRangeLF) {
  NumericRangeLF lf("bucket", 1, 0.2, 0.6, Vote::kPositive);
  EXPECT_EQ(lf.Apply(1, Row({}, 0.2)), Vote::kPositive);
  EXPECT_EQ(lf.Apply(1, Row({}, 0.6)), Vote::kAbstain);  // half-open
  EXPECT_EQ(lf.Apply(1, Row({}, 0.1)), Vote::kAbstain);
}

TEST(LabelingFunctionTest, ScoreThresholdLF) {
  ScoreThresholdLF lf("prop", {{10, 0.9}, {11, 0.05}, {12, 0.5}}, 0.8, 0.1);
  const FeatureVector row(2);
  EXPECT_EQ(lf.Apply(10, row), Vote::kPositive);
  EXPECT_EQ(lf.Apply(11, row), Vote::kNegative);
  EXPECT_EQ(lf.Apply(12, row), Vote::kAbstain);
  EXPECT_EQ(lf.Apply(99, row), Vote::kAbstain);  // unknown entity
}

TEST(LabelingFunctionTest, LambdaLF) {
  LambdaLF lf("custom", [](EntityId id, const FeatureVector&) {
    return id % 2 == 0 ? Vote::kPositive : Vote::kAbstain;
  });
  EXPECT_EQ(lf.Apply(4, FeatureVector(0)), Vote::kPositive);
  EXPECT_EQ(lf.Apply(5, FeatureVector(0)), Vote::kAbstain);
}

// ---------- LabelMatrix -----------------------------------------------------

TEST(LabelMatrixTest, ApplyAndStats) {
  FeatureSchema schema = TwoFeatureSchema();
  FeatureStore store(&schema);
  store.Put(1, Row({3}, 0.9));
  store.Put(2, Row({3}, 0.1));
  store.Put(3, Row({4}, 0.9));
  store.Put(4, Row({5}, 0.1));

  std::vector<LabelingFunctionPtr> lfs;
  lfs.push_back(std::make_unique<CategoryLF>("topic3", 0, 3, Vote::kPositive));
  lfs.push_back(std::make_unique<NumericThresholdLF>("hi", 1, 0.5, true,
                                                     Vote::kNegative));
  const LabelMatrix m = ApplyLabelingFunctions(lfs, {1, 2, 3, 4}, store);

  EXPECT_EQ(m.num_rows(), 4u);
  EXPECT_EQ(m.num_lfs(), 2u);
  EXPECT_EQ(m.at(0, 0), Vote::kPositive);
  EXPECT_EQ(m.at(0, 1), Vote::kNegative);
  EXPECT_EQ(m.at(3, 0), Vote::kAbstain);
  EXPECT_DOUBLE_EQ(m.Coverage(0), 0.5);
  EXPECT_DOUBLE_EQ(m.Coverage(1), 0.5);
  EXPECT_DOUBLE_EQ(m.TotalCoverage(), 0.75);  // row 4: hi abstains, topic3 abstains? row4={5},0.1 -> both abstain
  EXPECT_DOUBLE_EQ(m.Overlap(0), 0.25);   // row 1 only
  EXPECT_DOUBLE_EQ(m.Conflict(0), 0.25);  // row 1: +1 vs -1
}

TEST(LabelMatrixTest, MissingEntityGetsAbstainRow) {
  FeatureSchema schema = TwoFeatureSchema();
  FeatureStore store(&schema);
  std::vector<LabelingFunctionPtr> lfs;
  lfs.push_back(std::make_unique<CategoryLF>("topic3", 0, 3, Vote::kPositive));
  const LabelMatrix m = ApplyLabelingFunctions(lfs, {42}, store);
  EXPECT_EQ(m.at(0, 0), Vote::kAbstain);
}

// ---------- Majority vote ---------------------------------------------------

TEST(MajorityVoteTest, CombinesVotes) {
  LabelMatrix m({1, 2, 3}, {"a", "b", "c"});
  m.set(0, 0, Vote::kPositive);
  m.set(0, 1, Vote::kPositive);
  m.set(0, 2, Vote::kNegative);
  m.set(1, 0, Vote::kNegative);
  // Row 2: all abstain.
  const auto labels = MajorityVote(m, /*class_prior=*/0.1);
  EXPECT_NEAR(labels[0].p_positive, 2.0 / 3.0, 1e-9);
  EXPECT_TRUE(labels[0].covered);
  EXPECT_DOUBLE_EQ(labels[1].p_positive, 0.0);
  EXPECT_FALSE(labels[2].covered);
  EXPECT_DOUBLE_EQ(labels[2].p_positive, 0.1);
}

// ---------- Generative model ------------------------------------------------

/// Builds a synthetic matrix from LFs with known accuracies/propensities.
LabelMatrix SyntheticVotes(const std::vector<double>& accuracy,
                           const std::vector<double>& propensity,
                           double class_balance, size_t n, uint64_t seed,
                           std::vector<int>* truth) {
  std::vector<EntityId> ids(n);
  std::vector<std::string> names(accuracy.size());
  for (size_t i = 0; i < n; ++i) ids[i] = i + 1;
  for (size_t j = 0; j < names.size(); ++j) {
    names[j] = "lf" + std::to_string(j);
  }
  LabelMatrix m(ids, names);
  Rng rng(seed);
  truth->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int y = rng.Bernoulli(class_balance) ? 1 : 0;
    (*truth)[i] = y;
    for (size_t j = 0; j < accuracy.size(); ++j) {
      if (!rng.Bernoulli(propensity[j])) continue;
      const bool agree = rng.Bernoulli(accuracy[j]);
      const bool vote_positive = agree ? (y == 1) : (y == 0);
      m.set(i, j, vote_positive ? Vote::kPositive : Vote::kNegative);
    }
  }
  return m;
}

TEST(GenerativeModelTest, RecoversAccuracies) {
  std::vector<int> truth;
  const LabelMatrix m = SyntheticVotes({0.9, 0.7, 0.55}, {0.8, 0.8, 0.8},
                                       0.3, 5000, 123, &truth);
  GenerativeModelOptions options;
  options.fixed_class_balance = 0.3;  // Snorkel's usual deployment mode
  options.prior_anchor = 0.0;  // exact EM: the data is well-specified here
  auto fit = GenerativeLabelModel::Fit(m, options);
  ASSERT_TRUE(fit.ok());
  // EM's full-posterior fixed point shrinks accuracies a few points toward
  // the ensemble mean (self-reinforcement); ordering and rough magnitude
  // are what the label model needs.
  EXPECT_NEAR(fit->accuracies()[0], 0.9, 0.10);
  EXPECT_NEAR(fit->accuracies()[1], 0.7, 0.10);
  EXPECT_NEAR(fit->accuracies()[2], 0.55, 0.08);
  EXPECT_GT(fit->accuracies()[0], fit->accuracies()[1]);
  EXPECT_GT(fit->accuracies()[1], fit->accuracies()[2]);
}

TEST(GenerativeModelTest, LearnsClassBalanceApproximately) {
  std::vector<int> truth;
  const LabelMatrix m = SyntheticVotes({0.9, 0.85, 0.8}, {0.9, 0.9, 0.9},
                                       0.3, 5000, 29, &truth);
  GenerativeModelOptions options;
  options.init_class_balance = 0.5;
  auto fit = GenerativeLabelModel::Fit(m, options);
  ASSERT_TRUE(fit.ok());
  // Free-balance EM is only weakly identifiable; accept a coarse estimate.
  EXPECT_NEAR(fit->class_balance(), 0.3, 0.12);
}

TEST(GenerativeModelTest, BeatsMajorityVoteWithHeterogeneousLFs) {
  std::vector<int> truth;
  const LabelMatrix m = SyntheticVotes({0.95, 0.55, 0.55, 0.55},
                                       {0.9, 0.9, 0.9, 0.9}, 0.4, 4000, 7,
                                       &truth);
  GenerativeModelOptions mv_options;
  mv_options.prior_anchor = 0.0;
  auto fit = GenerativeLabelModel::Fit(m, mv_options);
  ASSERT_TRUE(fit.ok());
  const auto gen_labels = fit->Predict(m);
  const auto mv_labels = MajorityVote(m, 0.4);
  // The generative model upweights the accurate LF; compare the ranking
  // quality of the probabilistic labels (what the end model consumes).
  auto ap = [&](const std::vector<ProbabilisticLabel>& labels) {
    std::vector<double> scores;
    scores.reserve(labels.size());
    for (const auto& l : labels) scores.push_back(l.p_positive);
    return AveragePrecision(scores, truth);
  };
  EXPECT_GT(ap(gen_labels), ap(mv_labels));
  // And it rates the strong LF above the weak ones.
  const auto acc = fit->accuracies();
  EXPECT_GT(acc[0], acc[1]);
  EXPECT_GT(acc[0], acc[2]);
}

TEST(GenerativeModelTest, FixedClassBalanceRespected) {
  std::vector<int> truth;
  const LabelMatrix m =
      SyntheticVotes({0.8}, {0.9}, 0.25, 2000, 11, &truth);
  GenerativeModelOptions options;
  options.fixed_class_balance = 0.25;
  auto fit = GenerativeLabelModel::Fit(m, options);
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->class_balance(), 0.25);
}

TEST(GenerativeModelTest, FailsWithoutLFsOrCoverage) {
  LabelMatrix empty({1, 2}, {});
  EXPECT_EQ(GenerativeLabelModel::Fit(empty).status().code(),
            StatusCode::kInvalidArgument);
  LabelMatrix all_abstain({1, 2}, {"a"});
  EXPECT_EQ(GenerativeLabelModel::Fit(all_abstain).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(GenerativeModelTest, UncoveredRowsFallBackToBalance) {
  // A consistent LF: votes positive on the first 3 of 10 rows, negative on
  // the next 4, abstains on the rest.
  std::vector<EntityId> ids(10);
  for (size_t i = 0; i < 10; ++i) ids[i] = i + 1;
  LabelMatrix m(ids, {"a"});
  for (size_t i = 0; i < 3; ++i) m.set(i, 0, Vote::kPositive);
  for (size_t i = 3; i < 7; ++i) m.set(i, 0, Vote::kNegative);
  GenerativeModelOptions options;
  options.fixed_class_balance = 0.2;
  auto fit = GenerativeLabelModel::Fit(m, options);
  ASSERT_TRUE(fit.ok());
  const auto labels = fit->Predict(m);
  for (size_t i = 7; i < 10; ++i) {
    EXPECT_FALSE(labels[i].covered);
    EXPECT_DOUBLE_EQ(labels[i].p_positive, 0.2);  // exactly the prior
  }
  EXPECT_TRUE(labels[0].covered);
  EXPECT_TRUE(labels[3].covered);
  // A positive vote must land above a negative vote.
  EXPECT_GT(labels[0].p_positive, labels[3].p_positive);
}

// ---------- EM against a per-cell-log reference -----------------------------

/// The generative model as a direct transcription of its math: every E-step
/// and posterior takes std::log of theta per (row, LF) cell. The library's
/// fit must reproduce it bit for bit. Smoothing 0.2 and initial precision
/// 0.8 are the library's fixed values.
struct ReferenceLabelModel {
  std::vector<double> theta;  // theta[j*6 + y*3 + v], v in {-1, 0, +1}
  double class_balance = 0.5;
  double temperature = 1.0;
  int iterations = 0;

  static size_t Index(Vote v) {
    return static_cast<size_t>(static_cast<int>(v) + 1);
  }

  static ReferenceLabelModel Fit(const LabelMatrix& matrix,
                                 const GenerativeModelOptions& options) {
    const size_t n = matrix.num_rows();
    const size_t m = matrix.num_lfs();
    ReferenceLabelModel model;
    model.temperature = std::max(1e-3, options.posterior_temperature);
    model.theta.assign(m * 6, 0.0);
    model.class_balance =
        options.fixed_class_balance.value_or(options.init_class_balance);
    const double pi0 = model.class_balance;
    const double p0 = 0.8;
    const double prec_pos = pi0 + p0 * (1.0 - pi0);
    const double prec_neg = (1.0 - pi0) + p0 * pi0;
    for (size_t j = 0; j < m; ++j) {
      double rate[3] = {0.0, 0.0, 0.0};
      for (size_t i = 0; i < n; ++i) rate[Index(matrix.at(i, j))] += 1.0;
      for (double& r : rate) r /= static_cast<double>(n);
      auto cap = [](double v) { return std::clamp(v, 1e-4, 0.95); };
      double* t_neg = &model.theta[j * 6];
      double* t_pos = &model.theta[j * 6 + 3];
      t_pos[2] = cap(rate[2] * prec_pos / std::max(pi0, 1e-3));
      t_neg[2] = cap(rate[2] * (1.0 - prec_pos) / std::max(1.0 - pi0, 1e-3));
      t_neg[0] = cap(rate[0] * prec_neg / std::max(1.0 - pi0, 1e-3));
      t_pos[0] = cap(rate[0] * (1.0 - prec_neg) / std::max(pi0, 1e-3));
      t_pos[1] = std::max(1e-4, 1.0 - t_pos[0] - t_pos[2]);
      t_neg[1] = std::max(1e-4, 1.0 - t_neg[0] - t_neg[2]);
    }
    std::vector<double> posterior(n, model.class_balance);
    const double s = 0.2;
    const std::vector<double> theta_init = model.theta;
    const double anchor =
        std::max(0.0, options.prior_anchor) * static_cast<double>(n);
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      model.iterations = iter + 1;
      const double prior_logit =
          std::log(model.class_balance / (1.0 - model.class_balance));
      for (size_t i = 0; i < n; ++i) {
        double lo = prior_logit;
        for (size_t j = 0; j < m; ++j) {
          const size_t v = Index(matrix.at(i, j));
          lo += std::log(model.theta[j * 6 + 3 + v]) -
                std::log(model.theta[j * 6 + v]);
        }
        posterior[i] = 1.0 / (1.0 + std::exp(-lo));
      }
      double max_delta = 0.0;
      for (size_t j = 0; j < m; ++j) {
        double count_pos[3] = {s, s, s};
        double count_neg[3] = {s, s, s};
        for (size_t v = 0; v < 3; ++v) {
          count_pos[v] += anchor * pi0 * theta_init[j * 6 + 3 + v];
          count_neg[v] += anchor * (1.0 - pi0) * theta_init[j * 6 + v];
        }
        for (size_t i = 0; i < n; ++i) {
          const size_t v = Index(matrix.at(i, j));
          count_pos[v] += posterior[i];
          count_neg[v] += 1.0 - posterior[i];
        }
        const double total_pos = count_pos[0] + count_pos[1] + count_pos[2];
        const double total_neg = count_neg[0] + count_neg[1] + count_neg[2];
        for (size_t v = 0; v < 3; ++v) {
          const double new_pos = count_pos[v] / total_pos;
          const double new_neg = count_neg[v] / total_neg;
          max_delta = std::max(
              max_delta, std::abs(new_pos - model.theta[j * 6 + 3 + v]));
          max_delta =
              std::max(max_delta, std::abs(new_neg - model.theta[j * 6 + v]));
          model.theta[j * 6 + 3 + v] = new_pos;
          model.theta[j * 6 + v] = new_neg;
        }
      }
      if (!options.fixed_class_balance.has_value()) {
        double mean = 0.0;
        for (double q : posterior) mean += q;
        mean /= static_cast<double>(n);
        mean = std::clamp(mean, 1e-4, 1.0 - 1e-4);
        max_delta = std::max(max_delta, std::abs(mean - model.class_balance));
        model.class_balance = mean;
      }
      if (max_delta < options.tolerance) break;
    }
    return model;
  }

  std::vector<double> PositiveProbabilities(const LabelMatrix& matrix) const {
    std::vector<double> out(matrix.num_rows());
    for (size_t i = 0; i < matrix.num_rows(); ++i) {
      bool covered = false;
      for (size_t j = 0; j < matrix.num_lfs(); ++j) {
        covered = covered || matrix.at(i, j) != Vote::kAbstain;
      }
      if (!covered) {
        out[i] = class_balance;
        continue;
      }
      double log_pos = std::log(class_balance);
      double log_neg = std::log(1.0 - class_balance);
      for (size_t j = 0; j < matrix.num_lfs(); ++j) {
        const size_t v = Index(matrix.at(i, j));
        log_pos += std::log(theta[j * 6 + 3 + v]);
        log_neg += std::log(theta[j * 6 + v]);
      }
      const double mx = std::max(log_pos, log_neg);
      const double denom = std::exp(log_pos - mx) + std::exp(log_neg - mx);
      double p = std::exp(log_pos - mx) / denom;
      if (temperature != 1.0) {
        p = std::clamp(p, 1e-12, 1.0 - 1e-12);
        const double prior_logit =
            std::log(class_balance / (1.0 - class_balance));
        const double logit = std::log(p / (1.0 - p));
        p = 1.0 / (1.0 + std::exp(-(prior_logit +
                                    (logit - prior_logit) / temperature)));
      }
      out[i] = p;
    }
    return out;
  }

  std::vector<double> Accuracies() const {
    std::vector<double> out(theta.size() / 6);
    const double pi = class_balance;
    for (size_t j = 0; j < out.size(); ++j) {
      const double agree = pi * theta[j * 6 + 5] + (1.0 - pi) * theta[j * 6];
      const double vote = pi * (theta[j * 6 + 3] + theta[j * 6 + 5]) +
                          (1.0 - pi) * (theta[j * 6] + theta[j * 6 + 2]);
      out[j] = vote > 0.0 ? agree / vote : 0.5;
    }
    return out;
  }

  std::vector<double> Propensities() const {
    std::vector<double> out(theta.size() / 6);
    const double pi = class_balance;
    for (size_t j = 0; j < out.size(); ++j) {
      out[j] = pi * (1.0 - theta[j * 6 + 4]) +
               (1.0 - pi) * (1.0 - theta[j * 6 + 1]);
    }
    return out;
  }
};

/// A random matrix of one-sided and two-sided LFs with per-LF vote rates,
/// including LFs that never vote and rows no LF covers.
LabelMatrix RandomVotes(size_t n, size_t m, uint64_t seed) {
  std::vector<EntityId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i + 1;
  std::vector<std::string> names(m);
  for (size_t j = 0; j < m; ++j) names[j] = "lf" + std::to_string(j);
  LabelMatrix matrix(ids, names);
  Rng rng(seed);
  std::vector<double> pos_rate(m), neg_rate(m);
  for (size_t j = 0; j < m; ++j) {
    const uint64_t kind = rng.UniformInt(uint64_t{5});
    pos_rate[j] = kind == 0 ? 0.0 : rng.Uniform(0.0, 0.3);
    neg_rate[j] = kind == 1 ? 0.0 : rng.Uniform(0.0, 0.5);
    if (kind == 2 && j % 7 == 3) pos_rate[j] = neg_rate[j] = 0.0;
  }
  for (size_t i = 0; i < n; ++i) {
    const bool positive = rng.Bernoulli(0.2);
    for (size_t j = 0; j < m; ++j) {
      const double u = rng.Uniform();
      const double lift = positive ? 1.5 : 0.7;
      if (u < pos_rate[j] * lift) {
        matrix.set(i, j, Vote::kPositive);
      } else if (u < pos_rate[j] * lift + neg_rate[j] / lift) {
        matrix.set(i, j, Vote::kNegative);
      }
    }
  }
  return matrix;
}

TEST(GenerativeModelTest, MatchesPerCellLogReferenceBitForBit) {
  struct Case {
    size_t n, m;
    uint64_t seed;
    std::optional<double> fixed_balance;
    double temperature;
    double anchor;
    int max_iterations;
  };
  const Case cases[] = {
      {600, 12, 1, 0.2, 1.0, 0.15, 100},
      {600, 12, 1, std::nullopt, 1.0, 0.15, 100},
      {900, 30, 2, 0.1, 3.0, 0.15, 50},
      {900, 30, 2, std::nullopt, 3.0, 0.0, 50},
      {300, 1, 3, 0.3, 1.0, 0.0, 100},
      {1500, 45, 4, std::nullopt, 1.0, 0.15, 7},
      {1500, 45, 4, 0.05, 3.0, 0.15, 100},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " m=" + std::to_string(c.m) +
                 " seed=" + std::to_string(c.seed) +
                 " T=" + std::to_string(c.temperature));
    const LabelMatrix matrix = RandomVotes(c.n, c.m, c.seed);
    GenerativeModelOptions options;
    options.fixed_class_balance = c.fixed_balance;
    options.posterior_temperature = c.temperature;
    options.prior_anchor = c.anchor;
    options.max_iterations = c.max_iterations;
    auto fit = GenerativeLabelModel::Fit(matrix, options);
    ASSERT_TRUE(fit.ok()) << fit.status();
    const ReferenceLabelModel ref = ReferenceLabelModel::Fit(matrix, options);
    EXPECT_EQ(fit->iterations(), ref.iterations);
    EXPECT_EQ(fit->class_balance(), ref.class_balance);
    EXPECT_EQ(fit->accuracies(), ref.Accuracies());
    EXPECT_EQ(fit->propensities(), ref.Propensities());
    const std::vector<ProbabilisticLabel> labels = fit->Predict(matrix);
    const std::vector<double> expected = ref.PositiveProbabilities(matrix);
    ASSERT_EQ(labels.size(), expected.size());
    for (size_t i = 0; i < labels.size(); ++i) {
      ASSERT_EQ(labels[i].p_positive, expected[i]) << "row " << i;
    }
  }
}


TEST(TemperedThresholdTest, MatchesAnalyticLimits) {
  // T = 1: the threshold is the plain 0.5.
  EXPECT_NEAR(TemperedDecisionThreshold(0.05, 1.0), 0.5, 1e-12);
  // T -> infinity: the threshold approaches the prior itself.
  EXPECT_NEAR(TemperedDecisionThreshold(0.05, 1e9), 0.05, 1e-6);
  // Monotone in T for an imbalanced prior.
  const double t2 = TemperedDecisionThreshold(0.05, 2.0);
  const double t4 = TemperedDecisionThreshold(0.05, 4.0);
  EXPECT_GT(0.5, t2);
  EXPECT_GT(t2, t4);
  EXPECT_GT(t4, 0.05);
}

TEST(TemperedThresholdTest, ConsistentWithTemperedPredictions) {
  // A point whose untempered posterior is exactly 0.5 maps to exactly the
  // tempered threshold.
  const double pi = 0.1, temp = 3.0;
  const double prior_logit = std::log(pi / (1.0 - pi));
  const double tempered = 1.0 / (1.0 + std::exp(-(prior_logit +
                                                  (0.0 - prior_logit) / temp)));
  EXPECT_NEAR(TemperedDecisionThreshold(pi, temp), tempered, 1e-12);
}

// ---------- LF quality ------------------------------------------------------

TEST(LFQualityTest, PerLFMetrics) {
  LabelMatrix m({1, 2, 3, 4}, {"pos_lf"});
  m.set(0, 0, Vote::kPositive);  // y=1 -> TP
  m.set(1, 0, Vote::kPositive);  // y=0 -> FP
  // rows 2,3 abstain; y = {1,0}
  const std::vector<int> truth = {1, 0, 1, 0};
  const auto quality = EvaluateLFs(m, truth);
  ASSERT_EQ(quality.size(), 1u);
  EXPECT_DOUBLE_EQ(quality[0].coverage, 0.5);
  EXPECT_DOUBLE_EQ(quality[0].precision, 0.5);
  EXPECT_DOUBLE_EQ(quality[0].recall, 0.5);  // 1 of 2 positives
  EXPECT_EQ(quality[0].polarity, 1);
}

TEST(LFQualityTest, ProbabilisticLabelQuality) {
  std::vector<ProbabilisticLabel> labels(4);
  for (size_t i = 0; i < 4; ++i) {
    labels[i].entity = i + 1;
    labels[i].covered = i < 3;
  }
  labels[0].p_positive = 0.9;  // y=1 TP
  labels[1].p_positive = 0.8;  // y=0 FP
  labels[2].p_positive = 0.2;  // y=1 FN
  labels[3].p_positive = 0.9;  // uncovered: not predicted positive
  const std::vector<int> truth = {1, 0, 1, 1};
  const auto q = EvaluateProbabilisticLabels(labels, truth);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_NEAR(q.recall, 1.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(q.coverage, 0.75);
}

}  // namespace
}  // namespace crossmodal
