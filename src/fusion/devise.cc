#include <cmath>

#include "fusion/internal.h"
#include "util/logging.h"
#include "util/random.h"

namespace crossmodal {

namespace fusion_internal {

Projection::Projection(size_t in_dim, size_t out_dim)
    : in_dim_(in_dim), out_dim_(out_dim), w_(in_dim * out_dim, 0.0),
      b_(out_dim, 0.0) {}

std::vector<double> Projection::Apply(const std::vector<double>& e) const {
  std::vector<double> out(out_dim_);
  for (size_t o = 0; o < out_dim_; ++o) {
    double acc = b_[o];
    const double* row = &w_[o * in_dim_];
    for (size_t i = 0; i < in_dim_; ++i) acc += row[i] * e[i];
    out[o] = acc;
  }
  return out;
}

void Projection::Fit(const std::vector<std::vector<double>>& inputs,
                     const std::vector<std::vector<double>>& targets,
                     int epochs, double lr, uint64_t seed) {
  CM_CHECK(inputs.size() == targets.size());
  std::vector<double> mw(w_.size(), 0.0), vw(w_.size(), 0.0);
  std::vector<double> mb(b_.size(), 0.0), vb(b_.size(), 0.0);
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  double b1t = 1.0, b2t = 1.0;
  Rng rng(seed);
  std::vector<double> gw(w_.size()), gb(b_.size());
  const size_t n = inputs.size();
  const size_t batch = 32;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto perm = rng.Permutation(n);
    for (size_t start = 0; start < n; start += batch) {
      const size_t end = std::min(n, start + batch);
      std::fill(gw.begin(), gw.end(), 0.0);
      std::fill(gb.begin(), gb.end(), 0.0);
      for (size_t k = start; k < end; ++k) {
        const auto& x = inputs[perm[k]];
        const auto& y = targets[perm[k]];
        const auto pred = Apply(x);
        for (size_t o = 0; o < out_dim_; ++o) {
          const double err = pred[o] - y[o];
          double* row = &gw[o * in_dim_];
          for (size_t i = 0; i < in_dim_; ++i) row[i] += err * x[i];
          gb[o] += err;
        }
      }
      const double scale = 1.0 / static_cast<double>(end - start);
      b1t *= beta1;
      b2t *= beta2;
      const double c1 = 1.0 - b1t, c2 = 1.0 - b2t;
      for (size_t i = 0; i < w_.size(); ++i) {
        const double g = gw[i] * scale;
        mw[i] = beta1 * mw[i] + (1.0 - beta1) * g;
        vw[i] = beta2 * vw[i] + (1.0 - beta2) * g * g;
        w_[i] -= lr * (mw[i] / c1) / (std::sqrt(vw[i] / c2) + eps);
      }
      for (size_t i = 0; i < b_.size(); ++i) {
        const double g = gb[i] * scale;
        mb[i] = beta1 * mb[i] + (1.0 - beta1) * g;
        vb[i] = beta2 * vb[i] + (1.0 - beta2) * g * g;
        b_[i] -= lr * (mb[i] / c1) / (std::sqrt(vb[i] / c2) + eps);
      }
    }
  }
}

}  // namespace fusion_internal

namespace {

using fusion_internal::BuildDataset;
using fusion_internal::CollectRows;
using fusion_internal::MaskedRows;
using fusion_internal::Projection;
using fusion_internal::ScratchRow;

/// DeViSE adapted to the common feature space (§5): frozen old-modality
/// model A, new-modality model B, projection P from B's embedding space to
/// A's; inference passes B's embedding through P and A's prediction layer.
class DeviseModel : public CrossModalModel {
 public:
  DeviseModel(FeatureEncoder enc_a, ModelPtr model_a, FeatureEncoder enc_b,
              ModelPtr model_b, Projection projection,
              std::vector<FeatureId> image_features, size_t arity)
      : enc_a_(std::move(enc_a)),
        model_a_(std::move(model_a)),
        enc_b_(std::move(enc_b)),
        model_b_(std::move(model_b)),
        projection_(std::move(projection)),
        image_mask_(MakeFeatureMask(image_features, arity)),
        image_features_(std::move(image_features)) {}

  double Score(const FeatureVector& row) const override {
    SparseRow& x = ScratchRow();
    enc_b_.Encode(row, image_mask_, &x);
    return model_a_->PredictFromEmbedding(
        projection_.Apply(model_b_->Embed(x)));
  }

  std::vector<FeatureId> input_features() const override {
    return image_features_;
  }

  const char* method_name() const override { return "devise"; }

 private:
  FeatureEncoder enc_a_;
  ModelPtr model_a_;
  FeatureEncoder enc_b_;
  ModelPtr model_b_;
  Projection projection_;
  FeatureMask image_mask_;
  std::vector<FeatureId> image_features_;
};

}  // namespace

Result<CrossModalModelPtr> TrainDeViSE(const FusionInput& input,
                                       const ModelSpec& spec) {
  if (input.points.empty()) {
    return Status::InvalidArgument("no training points");
  }
  const size_t arity = input.store->schema().size();

  // ---- Model A over existing modalities (then frozen). -----------------
  const Modality text = Modality::kText;
  CM_ASSIGN_OR_RETURN(MaskedRows text_rows,
                      CollectRows(input, &text, true, {}));
  if (text_rows.rows.empty()) {
    return Status::FailedPrecondition("DeViSE needs old-modality points");
  }
  EncoderOptions enc_a_options;
  enc_a_options.features = input.text_features;
  CM_ASSIGN_OR_RETURN(FeatureEncoder enc_a,
                      FeatureEncoder::Fit(input.store->schema(),
                                          text_rows.ptrs, enc_a_options));
  CM_ASSIGN_OR_RETURN(ModelPtr model_a,
                      TrainModel(BuildDataset(text_rows, enc_a), spec));

  // ---- Model B pre-trained on the weakly supervised new modality. ------
  const Modality image = Modality::kImage;
  CM_ASSIGN_OR_RETURN(MaskedRows image_rows,
                      CollectRows(input, &image, true, {}));
  if (image_rows.rows.empty()) {
    return Status::FailedPrecondition("DeViSE needs new-modality points");
  }
  EncoderOptions enc_b_options;
  enc_b_options.features = input.image_features;
  CM_ASSIGN_OR_RETURN(FeatureEncoder enc_b,
                      FeatureEncoder::Fit(input.store->schema(),
                                          image_rows.ptrs, enc_b_options));
  CM_ASSIGN_OR_RETURN(ModelPtr model_b,
                      TrainModel(BuildDataset(image_rows, enc_b), spec));

  // ---- Projection layer: match B's embedding (Y) to A's embedding (X)
  // computed from the shared features of the same new-modality points. ----
  std::vector<std::vector<double>> inputs, targets;
  inputs.reserve(image_rows.rows.size());
  targets.reserve(image_rows.rows.size());
  const FeatureMask text_mask = MakeFeatureMask(input.text_features, arity);
  SparseRow x;
  for (size_t i = 0; i < image_rows.rows.size(); ++i) {
    CM_ASSIGN_OR_RETURN(const FeatureVector* full_row,
                        input.store->Get(image_rows.points[i]->id));
    inputs.push_back(model_b->Embed(enc_b.Encode(image_rows.rows[i])));
    enc_a.Encode(*full_row, text_mask, &x);
    targets.push_back(model_a->Embed(x));
  }
  Projection projection(model_b->embed_dim(), model_a->embed_dim());
  projection.Fit(inputs, targets, /*epochs=*/30, /*lr=*/0.01,
                 DeriveSeed(spec.train.seed, "devise_projection"));

  return CrossModalModelPtr(std::make_unique<DeviseModel>(
      std::move(enc_a), std::move(model_a), std::move(enc_b),
      std::move(model_b), std::move(projection), input.image_features, arity));
}

}  // namespace crossmodal
