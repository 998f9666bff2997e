// Fully-connected feed-forward network (ReLU hidden layers, sigmoid output)
// trained by minibatch Adam with manual backprop on soft targets.

#ifndef CROSSMODAL_ML_MLP_H_
#define CROSSMODAL_ML_MLP_H_

#include <vector>

#include "ml/model.h"

namespace crossmodal {

/// MLP hyperparameters.
struct MlpOptions {
  TrainOptions train;
  /// Hidden layer widths, e.g. {32} or {64, 32}. Must be non-empty.
  std::vector<int> hidden = {32};
};

/// The fully-connected DNN of the paper's TFX pipelines.
class Mlp : public Model {
 public:
  /// Trains on `data`; fails on an empty dataset or empty hidden spec.
  [[nodiscard]] static Result<Mlp> Train(const Dataset& data, const MlpOptions& options);

  double Predict(const SparseRow& x) const override;
  /// Last hidden layer activations (the embedding fusion architectures use).
  std::vector<double> Embed(const SparseRow& x) const override;
  size_t embed_dim() const override;
  double PredictFromEmbedding(const std::vector<double>& e) const override;
  size_t num_parameters() const override;

 private:
  /// Forward pass; returns all layer activations (activations[0] unused for
  /// the sparse input). `acts[l]` is layer l's post-ReLU output.
  void Forward(const SparseRow& x,
               std::vector<std::vector<double>>* acts) const;

  size_t input_dim_ = 0;
  std::vector<int> hidden_;
  /// weights_[l]: layer l weight matrix. Layer 0 is stored input-major
  /// ([input_dim][h0]) for sparse forward passes; later layers output-major.
  std::vector<std::vector<double>> weights_;
  std::vector<std::vector<double>> biases_;
  std::vector<double> out_weights_;
  double out_bias_ = 0.0;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_ML_MLP_H_
