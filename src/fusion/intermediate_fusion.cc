#include "fusion/internal.h"
#include "util/logging.h"

namespace crossmodal {

namespace {

using fusion_internal::BuildDataset;
using fusion_internal::CollectRows;
using fusion_internal::MaskedRows;
using fusion_internal::ScratchRow;
using fusion_internal::UnionFeatures;

/// Encodes the concatenation of two dense embeddings as a SparseRow.
SparseRow ConcatEmbeddings(const std::vector<double>& a,
                           const std::vector<double>& b) {
  SparseRow row;
  row.entries.reserve(a.size() + b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    row.Add(static_cast<uint32_t>(i), static_cast<float>(a[i]));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    row.Add(static_cast<uint32_t>(a.size() + i), static_cast<float>(b[i]));
  }
  return row;
}

/// Per-modality models whose penultimate embeddings feed a jointly trained
/// head (§5, intermediate fusion).
class IntermediateFusionModel : public CrossModalModel {
 public:
  IntermediateFusionModel(FeatureEncoder text_encoder, ModelPtr text_model,
                          FeatureEncoder image_encoder, ModelPtr image_model,
                          ModelPtr head, std::vector<FeatureId> text_features,
                          std::vector<FeatureId> image_features, size_t arity)
      : text_encoder_(std::move(text_encoder)),
        text_model_(std::move(text_model)),
        image_encoder_(std::move(image_encoder)),
        image_model_(std::move(image_model)),
        head_(std::move(head)),
        text_mask_(MakeFeatureMask(text_features, arity)),
        image_mask_(MakeFeatureMask(image_features, arity)),
        input_features_(UnionFeatures(text_features, image_features)) {}

  /// Shared features are passed into both modality models; each model sees
  /// the row masked to its own feature set.
  double Score(const FeatureVector& row) const override {
    SparseRow& x = ScratchRow();
    text_encoder_.Encode(row, text_mask_, &x);
    const auto e_text = text_model_->Embed(x);
    image_encoder_.Encode(row, image_mask_, &x);
    const auto e_image = image_model_->Embed(x);
    return head_->Predict(ConcatEmbeddings(e_text, e_image));
  }

  std::vector<FeatureId> input_features() const override {
    return input_features_;
  }

  const char* method_name() const override { return "intermediate_fusion"; }

 private:
  FeatureEncoder text_encoder_;
  ModelPtr text_model_;
  FeatureEncoder image_encoder_;
  ModelPtr image_model_;
  ModelPtr head_;
  FeatureMask text_mask_;
  FeatureMask image_mask_;
  std::vector<FeatureId> input_features_;
};

/// Trains one modality's first-stage model.
Result<std::pair<FeatureEncoder, ModelPtr>> TrainModalityModel(
    const FusionInput& input, Modality modality, const ModelSpec& spec) {
  CM_ASSIGN_OR_RETURN(
      MaskedRows rows,
      CollectRows(input, &modality, /*per_modality_mask=*/true,
                  /*fixed_mask=*/{}));
  if (rows.rows.empty()) {
    return Status::FailedPrecondition(
        std::string("no training points of modality ") +
        ModalityName(modality));
  }
  EncoderOptions enc_options;
  enc_options.features = modality == Modality::kText ? input.text_features
                                                     : input.image_features;
  CM_ASSIGN_OR_RETURN(FeatureEncoder encoder,
                      FeatureEncoder::Fit(input.store->schema(), rows.ptrs,
                                          std::move(enc_options)));
  const Dataset data = BuildDataset(rows, encoder);
  CM_ASSIGN_OR_RETURN(ModelPtr model, TrainModel(data, spec));
  return std::make_pair(std::move(encoder), std::move(model));
}

}  // namespace

Result<CrossModalModelPtr> TrainIntermediateFusion(const FusionInput& input,
                                                   const ModelSpec& spec) {
  if (input.points.empty()) {
    return Status::InvalidArgument("no training points");
  }
  // ---- Stage 1: independent per-modality models. -----------------------
  CM_ASSIGN_OR_RETURN(auto text_parts,
                      TrainModalityModel(input, Modality::kText, spec));
  CM_ASSIGN_OR_RETURN(auto image_parts,
                      TrainModalityModel(input, Modality::kImage, spec));
  auto& [text_encoder, text_model] = text_parts;
  auto& [image_encoder, image_model] = image_parts;

  // ---- Stage 2: second pass over all data; concatenated embeddings feed
  // the head model.
  const size_t arity = input.store->schema().size();
  const FeatureMask text_mask = MakeFeatureMask(input.text_features, arity);
  const FeatureMask image_mask = MakeFeatureMask(input.image_features, arity);
  Dataset head_data;
  head_data.dim = text_model->embed_dim() + image_model->embed_dim();
  SparseRow x;
  for (const TrainPoint& p : input.points) {
    CM_ASSIGN_OR_RETURN(const FeatureVector* row, input.store->Get(p.id));
    text_encoder.Encode(*row, text_mask, &x);
    const auto e_text = text_model->Embed(x);
    image_encoder.Encode(*row, image_mask, &x);
    const auto e_image = image_model->Embed(x);
    Example ex;
    ex.x = ConcatEmbeddings(e_text, e_image);
    ex.target = p.target;
    ex.weight = p.weight;
    head_data.examples.push_back(std::move(ex));
  }
  ModelSpec head_spec = spec;
  head_spec.hidden = {16};  // small head over the concatenated embedding
  CM_ASSIGN_OR_RETURN(ModelPtr head, TrainModel(head_data, head_spec));

  return CrossModalModelPtr(std::make_unique<IntermediateFusionModel>(
      std::move(text_encoder), std::move(text_model), std::move(image_encoder),
      std::move(image_model), std::move(head), input.text_features,
      input.image_features, arity));
}

}  // namespace crossmodal
