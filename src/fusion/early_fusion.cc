#include "fusion/internal.h"
#include "util/logging.h"

namespace crossmodal {

namespace {

using fusion_internal::BuildDataset;
using fusion_internal::CollectRows;
using fusion_internal::MaskedRows;
using fusion_internal::ScratchRow;
using fusion_internal::UnionFeatures;

/// Single model over the merged feature space; modality-specific features
/// are missing slots for rows of the other modality. One extra input slot
/// carries a modality indicator so the model can calibrate per channel (the
/// feature *distributions* differ across modalities even in the common
/// space, §6.6).
class EarlyFusionModel : public CrossModalModel {
 public:
  EarlyFusionModel(FeatureEncoder encoder, ModelPtr model,
                   std::vector<FeatureId> image_features, size_t arity)
      : encoder_(std::move(encoder)),
        model_(std::move(model)),
        image_mask_(MakeFeatureMask(image_features, arity)),
        image_features_(std::move(image_features)) {}

  static void AppendModalitySlot(const FeatureEncoder& encoder,
                                 Modality modality, SparseRow* encoded) {
    if (modality != Modality::kText) {
      encoded->Add(static_cast<uint32_t>(encoder.dim()), 1.0f);
    }
  }

  double Score(const FeatureVector& row) const override {
    SparseRow& x = ScratchRow();
    encoder_.Encode(row, image_mask_, &x);
    AppendModalitySlot(encoder_, Modality::kImage, &x);
    return model_->Predict(x);
  }

  std::vector<FeatureId> input_features() const override {
    return image_features_;
  }

  const char* method_name() const override { return "early_fusion"; }

 private:
  FeatureEncoder encoder_;
  ModelPtr model_;
  FeatureMask image_mask_;
  std::vector<FeatureId> image_features_;
};

}  // namespace

Result<CrossModalModelPtr> TrainEarlyFusion(const FusionInput& input,
                                            const ModelSpec& spec) {
  if (input.points.empty()) {
    return Status::InvalidArgument("no training points");
  }
  CM_ASSIGN_OR_RETURN(
      MaskedRows rows,
      CollectRows(input, /*modality=*/nullptr, /*per_modality_mask=*/true,
                  /*fixed_mask=*/{}));
  EncoderOptions enc_options;
  enc_options.features =
      UnionFeatures(input.text_features, input.image_features);
  CM_ASSIGN_OR_RETURN(FeatureEncoder encoder,
                      FeatureEncoder::Fit(input.store->schema(), rows.ptrs,
                                          std::move(enc_options)));
  Dataset data = BuildDataset(rows, encoder);
  data.dim = encoder.dim() + 1;  // + modality indicator
  for (size_t i = 0; i < data.examples.size(); ++i) {
    EarlyFusionModel::AppendModalitySlot(encoder, rows.points[i]->modality,
                                         &data.examples[i].x);
  }
  CM_ASSIGN_OR_RETURN(ModelPtr model, TrainModel(data, spec));
  return CrossModalModelPtr(std::make_unique<EarlyFusionModel>(
      std::move(encoder), std::move(model), input.image_features,
      input.store->schema().size()));
}

}  // namespace crossmodal
