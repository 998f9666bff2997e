#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <thread>

#include "util/logging.h"
#include "util/random.h"

#include "core/evaluation.h"
#include "dataflow/feature_generation.h"
#include "fusion/fusion.h"
#include "fusion/internal.h"
#include "resources/registry.h"
#include "synth/corpus_generator.h"

namespace crossmodal {
namespace {

class FusionTest : public ::testing::Test {
 protected:
  FusionTest()
      : generator_(world_, TaskSpec::CT(2).Scaled(0.06)),
        corpus_(generator_.Generate()) {
    auto registry = BuildModerationRegistry(generator_, 21);
    CM_CHECK(registry.ok());
    registry_ =
        std::make_unique<ResourceRegistry>(std::move(registry).value());
    store_ = std::make_unique<FeatureStore>(&registry_->schema());
    GenerateFeatures(corpus_.text_labeled, *registry_, store_.get());
    GenerateFeatures(corpus_.image_unlabeled, *registry_, store_.get());
    GenerateFeatures(corpus_.image_test, *registry_, store_.get());

    const auto& schema = registry_->schema();
    input_.store = store_.get();
    input_.text_features = schema.Select(
        {ServiceSet::kA, ServiceSet::kB, ServiceSet::kC, ServiceSet::kD},
        /*servable_only=*/true);
    input_.image_features = input_.text_features;
    auto emb = schema.Find("proprietary_embedding");
    CM_CHECK(emb.ok());
    input_.image_features.push_back(*emb);

    // Text points with human labels; image points with ground truth used as
    // stand-in weak labels (fusion correctness is independent of curation).
    for (size_t i = 0; i < corpus_.text_labeled.size(); i += 2) {
      const Entity& e = corpus_.text_labeled[i];
      input_.points.push_back(TrainPoint{e.id, Modality::kText,
                                         e.label == 1 ? 1.0f : 0.0f, 1.0f});
    }
    for (size_t i = 0; i < corpus_.image_unlabeled.size(); i += 2) {
      const Entity& e = corpus_.image_unlabeled[i];
      input_.points.push_back(TrainPoint{
          e.id, Modality::kImage, e.label == 1 ? 0.9f : 0.1f, 1.0f});
    }

    spec_.kind = ModelKind::kMlp;
    spec_.hidden = {16};
    spec_.train.epochs = 6;
  }

  double TestAuprc(const CrossModalModel& model) {
    return EvaluateModel(model, corpus_.image_test, *store_).auprc;
  }

  WorldConfig world_;
  CorpusGenerator generator_;
  Corpus corpus_;
  std::unique_ptr<ResourceRegistry> registry_;
  std::unique_ptr<FeatureStore> store_;
  FusionInput input_;
  ModelSpec spec_;
};

TEST_F(FusionTest, MaskRowKeepsOnlyAllowed) {
  const Entity& e = corpus_.image_unlabeled.front();
  const FeatureVector& row = **store_->Get(e.id);
  const std::vector<FeatureId> allowed = {0, 1};
  const FeatureVector masked =
      MaskRow(row, allowed, registry_->schema().size());
  EXPECT_EQ(masked.size(), row.size());
  for (size_t f = 0; f < masked.size(); ++f) {
    const auto id = static_cast<FeatureId>(f);
    if (f <= 1) {
      EXPECT_EQ(masked.Get(id), row.Get(id));
    } else {
      EXPECT_TRUE(masked.Get(id).is_missing());
    }
  }
}

TEST_F(FusionTest, EarlyFusionLearnsTask) {
  auto model = TrainEarlyFusion(input_, spec_);
  ASSERT_TRUE(model.ok());
  EXPECT_STREQ((*model)->method_name(), "early_fusion");
  const double auprc = TestAuprc(**model);
  // CT2 is an easy task; must decisively beat the positive-rate chance level.
  EXPECT_GT(auprc, 3.0 * TaskSpec::CT(2).pos_rate);
}

TEST_F(FusionTest, IntermediateFusionRunsAndScores) {
  auto model = TrainIntermediateFusion(input_, spec_);
  ASSERT_TRUE(model.ok());
  EXPECT_STREQ((*model)->method_name(), "intermediate_fusion");
  const double auprc = TestAuprc(**model);
  EXPECT_GT(auprc, 2.0 * TaskSpec::CT(2).pos_rate);
}

TEST_F(FusionTest, DeviseRunsAndScores) {
  auto model = TrainDeViSE(input_, spec_);
  ASSERT_TRUE(model.ok());
  EXPECT_STREQ((*model)->method_name(), "devise");
  const double auprc = TestAuprc(**model);
  EXPECT_GT(auprc, 1.5 * TaskSpec::CT(2).pos_rate);
}

TEST_F(FusionTest, TrainFusedDispatch) {
  for (FusionMethod m : {FusionMethod::kEarly, FusionMethod::kIntermediate,
                         FusionMethod::kDeViSE}) {
    auto model = TrainFused(input_, spec_, m);
    ASSERT_TRUE(model.ok()) << FusionMethodName(m);
    EXPECT_STREQ((*model)->method_name(), FusionMethodName(m));
  }
}

TEST_F(FusionTest, ScoresAreProbabilities) {
  auto model = TrainEarlyFusion(input_, spec_);
  ASSERT_TRUE(model.ok());
  for (size_t i = 0; i < 100 && i < corpus_.image_test.size(); ++i) {
    const double s =
        (*model)->Score(**store_->Get(corpus_.image_test[i].id));
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(FusionTest, EmptyInputRejected) {
  FusionInput empty = input_;
  empty.points.clear();
  EXPECT_FALSE(TrainEarlyFusion(empty, spec_).ok());
  EXPECT_FALSE(TrainIntermediateFusion(empty, spec_).ok());
  EXPECT_FALSE(TrainDeViSE(empty, spec_).ok());
}

TEST_F(FusionTest, DeviseNeedsBothModalities) {
  FusionInput text_only = input_;
  std::erase_if(text_only.points, [](const TrainPoint& p) {
    return p.modality == Modality::kImage;
  });
  EXPECT_EQ(TrainDeViSE(text_only, spec_).status().code(),
            StatusCode::kFailedPrecondition);
  FusionInput image_only = input_;
  std::erase_if(image_only.points, [](const TrainPoint& p) {
    return p.modality == Modality::kText;
  });
  EXPECT_EQ(TrainDeViSE(image_only, spec_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FusionTest, DeterministicGivenSeed) {
  auto m1 = TrainEarlyFusion(input_, spec_);
  auto m2 = TrainEarlyFusion(input_, spec_);
  ASSERT_TRUE(m1.ok() && m2.ok());
  const FeatureVector& row = **store_->Get(corpus_.image_test[0].id);
  EXPECT_DOUBLE_EQ((*m1)->Score(row), (*m2)->Score(row));
}

// ---- Copy-free scoring against the copying reference -----------------------
//
// The reference rebuilds each fusion method from the same training pieces
// but scores the old way: a masked copy of the row, MaskRow(row, F, arity),
// encoded into a fresh SparseRow, and each reference score computed on a new
// thread, whose per-thread scratch buffers start empty (the allocating
// predict). Its training-side encodes go through MaskRow too. The models
// under test score on one thread, interleaved across methods, so they reuse
// one set of scratch buffers across model shapes.

using fusion_internal::BuildDataset;
using fusion_internal::CollectRows;
using fusion_internal::Projection;
using fusion_internal::UnionFeatures;

using ReferenceScore = std::function<double(const FeatureVector&)>;

/// Runs `fn` on a new thread, so every per-thread buffer starts empty.
double OnFreshThread(const std::function<double()>& fn) {
  double out = 0.0;
  std::thread worker([&fn, &out] { out = fn(); });
  worker.join();
  return out;
}

/// The old scoring-path encode: copy the row masked to `allowed`, then
/// encode the copy.
SparseRow CopyingEncode(const FeatureEncoder& encoder,
                        const FeatureVector& row,
                        const std::vector<FeatureId>& allowed, size_t arity) {
  return encoder.Encode(MaskRow(row, allowed, arity));
}

SparseRow Concat(const std::vector<double>& a, const std::vector<double>& b) {
  SparseRow row;
  for (size_t i = 0; i < a.size(); ++i) {
    row.Add(static_cast<uint32_t>(i), static_cast<float>(a[i]));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    row.Add(static_cast<uint32_t>(a.size() + i), static_cast<float>(b[i]));
  }
  return row;
}

/// One modality's encoder and model, trained on that modality's points.
struct Channel {
  std::shared_ptr<const FeatureEncoder> encoder;
  std::shared_ptr<const Model> model;
};

Channel TrainChannel(const FusionInput& input, Modality modality,
                     const ModelSpec& spec) {
  auto rows = CollectRows(input, &modality, true, {});
  CM_CHECK(rows.ok()) << rows.status();
  EncoderOptions options;
  options.features = FeaturesFor(input, modality);
  auto encoder =
      FeatureEncoder::Fit(input.store->schema(), rows->ptrs, options);
  CM_CHECK(encoder.ok()) << encoder.status();
  auto model = TrainModel(BuildDataset(*rows, *encoder), spec);
  CM_CHECK(model.ok()) << model.status();
  return {std::make_shared<const FeatureEncoder>(std::move(*encoder)),
          std::shared_ptr<const Model>(std::move(*model))};
}

ReferenceScore EarlyReference(const FusionInput& input,
                              const ModelSpec& spec) {
  const size_t arity = input.store->schema().size();
  auto rows = CollectRows(input, nullptr, true, {});
  CM_CHECK(rows.ok()) << rows.status();
  EncoderOptions options;
  options.features = UnionFeatures(input.text_features, input.image_features);
  auto fitted =
      FeatureEncoder::Fit(input.store->schema(), rows->ptrs, options);
  CM_CHECK(fitted.ok()) << fitted.status();
  auto encoder = std::make_shared<const FeatureEncoder>(std::move(*fitted));
  const auto slot = static_cast<uint32_t>(encoder->dim());
  Dataset data = BuildDataset(*rows, *encoder);
  data.dim = encoder->dim() + 1;
  for (size_t i = 0; i < data.examples.size(); ++i) {
    if (rows->points[i]->modality != Modality::kText) {
      data.examples[i].x.Add(slot, 1.0f);
    }
  }
  auto trained = TrainModel(data, spec);
  CM_CHECK(trained.ok()) << trained.status();
  std::shared_ptr<const Model> model(std::move(*trained));
  return [encoder, model, slot, features = input.image_features,
          arity](const FeatureVector& row) {
    SparseRow x = CopyingEncode(*encoder, row, features, arity);
    x.Add(slot, 1.0f);
    return model->Predict(x);
  };
}

ReferenceScore IntermediateReference(const FusionInput& input,
                                     const ModelSpec& spec) {
  const size_t arity = input.store->schema().size();
  const Channel text = TrainChannel(input, Modality::kText, spec);
  const Channel image = TrainChannel(input, Modality::kImage, spec);
  const auto embed = [text, image, arity, text_features = input.text_features,
                      image_features =
                          input.image_features](const FeatureVector& row) {
    return Concat(text.model->Embed(CopyingEncode(*text.encoder, row,
                                                  text_features, arity)),
                  image.model->Embed(CopyingEncode(*image.encoder, row,
                                                   image_features, arity)));
  };
  Dataset head_data;
  head_data.dim = text.model->embed_dim() + image.model->embed_dim();
  for (const TrainPoint& p : input.points) {
    Example ex;
    ex.x = embed(**input.store->Get(p.id));
    ex.target = p.target;
    ex.weight = p.weight;
    head_data.examples.push_back(std::move(ex));
  }
  ModelSpec head_spec = spec;
  head_spec.hidden = {16};
  auto trained = TrainModel(head_data, head_spec);
  CM_CHECK(trained.ok()) << trained.status();
  std::shared_ptr<const Model> head(std::move(*trained));
  return [embed, head](const FeatureVector& row) {
    return head->Predict(embed(row));
  };
}

ReferenceScore DeviseReference(const FusionInput& input,
                               const ModelSpec& spec) {
  const size_t arity = input.store->schema().size();
  const Channel a = TrainChannel(input, Modality::kText, spec);
  const Channel b = TrainChannel(input, Modality::kImage, spec);
  const Modality image = Modality::kImage;
  auto image_rows = CollectRows(input, &image, true, {});
  CM_CHECK(image_rows.ok()) << image_rows.status();
  std::vector<std::vector<double>> inputs, targets;
  for (size_t i = 0; i < image_rows->rows.size(); ++i) {
    const FeatureVector& full_row =
        **input.store->Get(image_rows->points[i]->id);
    inputs.push_back(b.model->Embed(b.encoder->Encode(image_rows->rows[i])));
    targets.push_back(a.model->Embed(
        CopyingEncode(*a.encoder, full_row, input.text_features, arity)));
  }
  auto projection = std::make_shared<Projection>(b.model->embed_dim(),
                                                 a.model->embed_dim());
  projection->Fit(inputs, targets, /*epochs=*/30, /*lr=*/0.01,
                  DeriveSeed(spec.train.seed, "devise_projection"));
  return [a, b, projection, features = input.image_features,
          arity](const FeatureVector& row) {
    return a.model->PredictFromEmbedding(projection->Apply(
        b.model->Embed(CopyingEncode(*b.encoder, row, features, arity))));
  };
}

/// Copy of `row` with `value` in slot `f`.
FeatureVector WithValue(const FeatureVector& row, FeatureId f,
                        FeatureValue value) {
  FeatureVector out = row;
  out.Set(f, std::move(value));
  return out;
}

TEST_F(FusionTest, CopyFreeScoringMatchesCopyingReference) {
  const FeatureSchema& schema = registry_->schema();
  const size_t arity = schema.size();
  const FeatureId risk = *schema.Find("content_risk_score");
  // Split channels ("T + ABCD, I + AB"): early fusion's encoder then holds C
  // and D slots that its image mask must treat as missing.
  FusionInput input = input_;
  input.image_features =
      schema.Select({ServiceSet::kA, ServiceSet::kB}, /*servable_only=*/true);
  input.image_features.push_back(*schema.Find("proprietary_embedding"));

  // Probe rows: stored image rows (the nonservable risk score set, some
  // features missing), text rows (text-only features set), and edited rows
  // with slots cleared or holding a value of the wrong type.
  std::vector<FeatureVector> rows;
  for (size_t i = 0; i < 40 && i < corpus_.image_test.size(); ++i) {
    rows.push_back(**store_->Get(corpus_.image_test[i].id));
  }
  for (size_t i = 0; i < 5; ++i) {
    rows.push_back(**store_->Get(corpus_.text_labeled[i].id));
  }
  const FeatureVector base = rows.front();
  ASSERT_FALSE(base.Get(risk).is_missing());
  FeatureVector sparse(arity);
  for (size_t f = 0; f < arity; f += 3) {
    const FeatureValue& v = base.Get(static_cast<FeatureId>(f));
    if (!v.is_missing()) sparse.Set(static_cast<FeatureId>(f), v);
  }
  sparse.Set(risk, FeatureValue::Numeric(999.0));
  rows.push_back(std::move(sparse));
  for (size_t f = 0; f < arity; ++f) {
    const auto id = static_cast<FeatureId>(f);
    switch (schema.def(id).type) {
      case FeatureType::kCategorical:
        rows.push_back(WithValue(base, id, FeatureValue::Numeric(2.5)));
        break;
      case FeatureType::kNumeric:
        rows.push_back(WithValue(base, id, FeatureValue::Embedding({1, 2})));
        break;
      case FeatureType::kEmbedding:
        rows.push_back(WithValue(base, id, FeatureValue::Categorical({0, 1})));
        break;
    }
  }

  ModelSpec mlp = spec_;
  mlp.ensemble_size = 2;
  mlp.train.epochs = 3;
  ModelSpec lr;
  lr.kind = ModelKind::kLogisticRegression;
  lr.train.epochs = 3;
  for (const ModelSpec& spec : {mlp, lr}) {
    SCOPED_TRACE(ModelKindName(spec.kind));
    std::vector<CrossModalModelPtr> models;
    for (auto train : {TrainEarlyFusion, TrainIntermediateFusion,
                       TrainDeViSE}) {
      auto model = train(input, spec);
      ASSERT_TRUE(model.ok()) << model.status();
      models.push_back(std::move(*model));
    }
    const std::vector<ReferenceScore> references = {
        EarlyReference(input, spec), IntermediateReference(input, spec),
        DeviseReference(input, spec)};
    std::vector<std::vector<double>> expected(models.size());
    for (size_t m = 0; m < models.size(); ++m) {
      for (const FeatureVector& row : rows) {
        expected[m].push_back(
            OnFreshThread([&] { return references[m](row); }));
      }
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t m = 0; m < models.size(); ++m) {
        EXPECT_EQ(models[m]->Score(rows[r]), expected[m][r])
            << models[m]->method_name() << " row " << r;
      }
    }
    EXPECT_EQ(models[0]->input_features(), input.image_features);
    EXPECT_EQ(models[1]->input_features(),
              UnionFeatures(input.text_features, input.image_features));
    EXPECT_EQ(models[2]->input_features(), input.image_features);
  }
}

TEST(FusionHelpersTest, FusionMethodNames) {
  EXPECT_STREQ(FusionMethodName(FusionMethod::kEarly), "early_fusion");
  EXPECT_STREQ(FusionMethodName(FusionMethod::kIntermediate),
               "intermediate_fusion");
  EXPECT_STREQ(FusionMethodName(FusionMethod::kDeViSE), "devise");
}

}  // namespace
}  // namespace crossmodal
