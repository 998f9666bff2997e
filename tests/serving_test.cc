#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"

#include "core/baselines.h"
#include "core/evaluation.h"
#include "core/pipeline.h"
#include "serving/model_server.h"
#include "synth/corpus_generator.h"
#include "util/random.h"

namespace crossmodal {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  ServingTest()
      : generator_(world_, TaskSpec::CT(2).Scaled(0.05)),
        corpus_(generator_.Generate()) {
    auto registry = BuildModerationRegistry(generator_, 51);
    CM_CHECK(registry.ok());
    registry_ =
        std::make_unique<ResourceRegistry>(std::move(registry).value());
    config_.model.hidden = {8};
    config_.model.train.epochs = 4;
    config_.curation.dev_sample = 800;
    config_.curation.use_label_propagation = false;
    pipeline_ = std::make_unique<CrossModalPipeline>(registry_.get(),
                                                     &corpus_, config_);
    auto result = pipeline_->Run();
    CM_CHECK(result.ok()) << result.status();
    model_ = std::move(result->model);
  }

  WorldConfig world_;
  CorpusGenerator generator_;
  Corpus corpus_;
  std::unique_ptr<ResourceRegistry> registry_;
  PipelineConfig config_;
  std::unique_ptr<CrossModalPipeline> pipeline_;
  CrossModalModelPtr model_;
};

TEST_F(ServingTest, ServesScoresAndRecordsLatency) {
  auto server = ModelServer::Create(
      std::move(model_), &registry_->schema(),
      pipeline_->selection().image_model_features);
  ASSERT_TRUE(server.ok()) << server.status();
  std::vector<const FeatureVector*> rows;
  for (size_t i = 0; i < 200 && i < corpus_.image_test.size(); ++i) {
    rows.push_back(*pipeline_->store().Get(corpus_.image_test[i].id));
  }
  const auto scores = server->ScoreBatch(rows);
  ASSERT_EQ(scores.size(), rows.size());
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  const LatencyStats stats = server->latency();
  EXPECT_EQ(stats.count, rows.size());
  EXPECT_GT(stats.mean_us, 0.0);
  EXPECT_LE(stats.p50_us, stats.p95_us);
  EXPECT_LE(stats.p95_us, stats.max_us);
}

TEST_F(ServingTest, ScoreBatchRecordsPerRequestLatency) {
  // Regression pin: ScoreBatch must record one latency sample PER ROW (not
  // one per batch), interleave correctly with single Score() calls, and
  // p100 must equal max. An earlier batch path under-recorded, so p95/p100
  // summarized batches instead of requests.
  auto server = ModelServer::Create(
      std::move(model_), &registry_->schema(),
      pipeline_->selection().image_model_features);
  ASSERT_TRUE(server.ok()) << server.status();
  std::vector<const FeatureVector*> rows;
  for (size_t i = 0; i < 64 && i < corpus_.image_test.size(); ++i) {
    rows.push_back(*pipeline_->store().Get(corpus_.image_test[i].id));
  }
  ASSERT_GE(rows.size(), 3u);

  const std::vector<double> batched = server->ScoreBatch(rows);
  EXPECT_EQ(server->latency().count, rows.size());
  EXPECT_EQ(server->requests(), rows.size());

  // A second batch and a lone request keep accumulating per-request samples.
  (void)server->ScoreBatch({rows[0], rows[1]});
  (void)server->Score(*rows[2]);
  const LatencyStats stats = server->latency();
  EXPECT_EQ(stats.count, rows.size() + 3);
  EXPECT_EQ(server->requests(), rows.size() + 3);
  EXPECT_GT(stats.mean_us, 0.0);
  EXPECT_EQ(stats.p100_us, stats.max_us);
  EXPECT_LE(stats.p95_us, stats.p100_us);

  // Batched scoring is the same computation as single scoring.
  EXPECT_EQ(server->Score(*rows[0]), batched[0]);
}

TEST_F(ServingTest, RejectsNonservableFeatures) {
  auto risk = registry_->schema().Find("content_risk_score");
  ASSERT_TRUE(risk.ok());
  std::vector<FeatureId> features =
      pipeline_->selection().image_model_features;
  features.push_back(*risk);
  auto server =
      ModelServer::Create(std::move(model_), &registry_->schema(), features);
  EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(server.status().message().find("content_risk_score"),
            std::string::npos);
}

TEST_F(ServingTest, RefusesModelThatReadsNonservableFeature) {
  // A model trained with content_risk_score in its image channel reads it in
  // Score. Create refuses it even though the serving list passed is clean.
  auto risk = registry_->schema().Find("content_risk_score");
  ASSERT_TRUE(risk.ok());
  FusionInput input;
  input.store = &pipeline_->store();
  input.text_features = pipeline_->selection().text_model_features;
  input.image_features = pipeline_->selection().image_model_features;
  input.image_features.push_back(*risk);
  for (size_t i = 0; i < 100 && i < corpus_.text_labeled.size(); ++i) {
    const Entity& e = corpus_.text_labeled[i];
    input.points.push_back(TrainPoint{e.id, Modality::kText,
                                      e.label == 1 ? 1.0f : 0.0f, 1.0f});
  }
  for (size_t i = 0; i < 100 && i < corpus_.image_unlabeled.size(); ++i) {
    const Entity& e = corpus_.image_unlabeled[i];
    input.points.push_back(TrainPoint{e.id, Modality::kImage,
                                      e.label == 1 ? 0.9f : 0.1f, 1.0f});
  }
  ModelSpec spec;
  spec.kind = ModelKind::kLogisticRegression;
  spec.train.epochs = 1;
  auto model = TrainEarlyFusion(input, spec);
  ASSERT_TRUE(model.ok()) << model.status();
  auto server =
      ModelServer::Create(std::move(*model), &registry_->schema(),
                          pipeline_->selection().image_model_features);
  EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(server.status().message().find("content_risk_score"),
            std::string::npos);
}

TEST_F(ServingTest, StripsNonservableInputs) {
  auto risk = registry_->schema().Find("content_risk_score");
  ASSERT_TRUE(risk.ok());
  auto server = ModelServer::Create(
      std::move(model_), &registry_->schema(),
      pipeline_->selection().image_model_features);
  ASSERT_TRUE(server.ok());

  // A row with and without the nonservable value must score identically:
  // production never has it, so serving ignores it.
  const FeatureVector& base =
      **pipeline_->store().Get(corpus_.image_test[0].id);
  FeatureVector with_risk(base.size());
  for (size_t f = 0; f < base.size(); ++f) {
    const auto& v = base.Get(static_cast<FeatureId>(f));
    if (!v.is_missing()) with_risk.Set(static_cast<FeatureId>(f), v);
  }
  with_risk.Set(*risk, FeatureValue::Numeric(999.0));  // would be an outlier
  FeatureVector without_risk(base.size());
  for (size_t f = 0; f < base.size(); ++f) {
    if (static_cast<FeatureId>(f) == *risk) continue;
    const auto& v = base.Get(static_cast<FeatureId>(f));
    if (!v.is_missing()) without_risk.Set(static_cast<FeatureId>(f), v);
  }
  EXPECT_DOUBLE_EQ(server->Score(with_risk), server->Score(without_risk));
}

TEST_F(ServingTest, ConcurrentScoringIsThreadSafe) {
  // Many request threads score through one server; the latency log is the
  // shared state (TSan verifies the locking under the tsan preset).
  auto server = ModelServer::Create(
      std::move(model_), &registry_->schema(),
      pipeline_->selection().image_model_features);
  ASSERT_TRUE(server.ok()) << server.status();
  const FeatureVector& row =
      **pipeline_->store().Get(corpus_.image_test[0].id);
  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 50;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &row] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const double s = server->Score(row);
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(server->requests(), static_cast<size_t>(kThreads) *
                                    kRequestsPerThread);
  EXPECT_EQ(server->latency().count, server->requests());
}

TEST_F(ServingTest, CreateValidatesArguments) {
  // Both Create overloads (owning and shared model) reject a null model.
  EXPECT_EQ(ModelServer::Create(CrossModalModelPtr(), &registry_->schema(), {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ModelServer::Create(std::shared_ptr<const CrossModalModel>(),
                                &registry_->schema(), {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  auto bad_id = ModelServer::Create(std::move(model_), &registry_->schema(),
                                    {static_cast<FeatureId>(9999)});
  EXPECT_EQ(bad_id.status().code(), StatusCode::kInvalidArgument);
}

TEST(LatencyStatsTest, EmptyServerReportsZeroes) {
  // Covered through ModelServer::latency() with no requests.
  LatencyStats stats;
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.mean_us, 0.0);
}

// ---- NearestRankPercentile -------------------------------------------------
// Nearest-rank semantics: rank ceil(q*N), clamped to [1, N]; no
// interpolation. The old +0.5 rounding returned the *larger* of two samples
// for p50 — these cases pin the contract at small counts.

TEST(NearestRankPercentileTest, SingleSampleIsEveryPercentile) {
  const std::vector<double> one{42.0};
  EXPECT_EQ(NearestRankPercentile(one, 0.0), 42.0);
  EXPECT_EQ(NearestRankPercentile(one, 0.50), 42.0);
  EXPECT_EQ(NearestRankPercentile(one, 0.95), 42.0);
  EXPECT_EQ(NearestRankPercentile(one, 1.0), 42.0);
}

TEST(NearestRankPercentileTest, TwoSamples) {
  const std::vector<double> two{1.0, 2.0};
  // ceil(0.5 * 2) = rank 1 → the smaller sample (the off-by-one the ad-hoc
  // interpolation got wrong).
  EXPECT_EQ(NearestRankPercentile(two, 0.50), 1.0);
  EXPECT_EQ(NearestRankPercentile(two, 0.51), 2.0);
  EXPECT_EQ(NearestRankPercentile(two, 0.95), 2.0);
  EXPECT_EQ(NearestRankPercentile(two, 0.0), 1.0);
}

TEST(NearestRankPercentileTest, TwentySamples) {
  std::vector<double> sorted;
  for (int i = 1; i <= 20; ++i) sorted.push_back(static_cast<double>(i));
  // ceil(0.5 * 20) = rank 10, ceil(0.95 * 20) = rank 19.
  EXPECT_EQ(NearestRankPercentile(sorted, 0.50), 10.0);
  EXPECT_EQ(NearestRankPercentile(sorted, 0.95), 19.0);
  EXPECT_EQ(NearestRankPercentile(sorted, 1.0), 20.0);
  // q just over a rank boundary moves up one rank, never interpolates.
  EXPECT_EQ(NearestRankPercentile(sorted, 0.951), 20.0);
}

// ---- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogramTest, PercentilesWithinStatedErrorOfNearestRank) {
  Rng rng(24);
  for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{1000},
                   size_t{50000}}) {
    // Log-uniform over most of the covered range, plus a cluster of typical
    // serving latencies so many samples share a bucket.
    std::vector<double> samples;
    for (size_t i = 0; i < n; ++i) {
      samples.push_back(rng.Bernoulli(0.5)
                            ? std::exp2(rng.Uniform(-10.0, 31.0))
                            : rng.Uniform(2.0, 40.0));
    }
    LatencyHistogram histogram;
    double sum = 0.0;
    for (double us : samples) {
      histogram.Record(us);
      sum += us;
    }
    std::sort(samples.begin(), samples.end());
    const LatencyStats stats = histogram.Summary();
    EXPECT_EQ(histogram.count(), n);
    EXPECT_EQ(stats.count, n);
    EXPECT_EQ(stats.mean_us, sum / static_cast<double>(n));
    EXPECT_EQ(stats.max_us, samples.back());
    EXPECT_EQ(stats.p100_us, samples.back());
    const double bound = LatencyHistogram::kMaxRelativeError;
    const double p50 = NearestRankPercentile(samples, 0.50);
    const double p95 = NearestRankPercentile(samples, 0.95);
    EXPECT_LE(std::abs(stats.p50_us - p50), bound * p50) << "n=" << n;
    EXPECT_LE(std::abs(stats.p95_us - p95), bound * p95) << "n=" << n;
    EXPECT_LE(stats.p95_us, stats.max_us);
  }
  const LatencyStats empty = LatencyHistogram().Summary();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50_us, 0.0);
  EXPECT_EQ(empty.max_us, 0.0);
}

}  // namespace
}  // namespace crossmodal
