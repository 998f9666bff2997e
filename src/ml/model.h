// Model interface for the end discriminative models (§6.3: logistic
// regression and fully-connected DNNs, trained with a noise-aware
// cross-entropy over probabilistic labels).

#ifndef CROSSMODAL_ML_MODEL_H_
#define CROSSMODAL_ML_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/dataset.h"
#include "util/parallel.h"
#include "util/result.h"

namespace crossmodal {

/// Training hyperparameters (Adam).
struct TrainOptions {
  int epochs = 12;
  double learning_rate = 0.05;
  double l2 = 1e-5;
  uint64_t seed = 0x7EA1;
  /// How many ensemble members train at once; read only by TrainModel and
  /// GridSearch through ModelSpec::train. A single model always trains
  /// serially, so trained weights are bit-identical for every
  /// ParallelConfig.
  ParallelConfig parallel;
};

/// Fixed number of gradient-accumulation slices per minibatch. Each slice
/// sums into a partial that folds into the batch gradient in slice order;
/// the count is a constant so that float summation tree, and with it every
/// fitted weight, never changes.
inline constexpr size_t kGradSlices = 8;

/// Mini-batch size of every trainer (one Adam step per batch).
inline constexpr size_t kBatchSize = 64;

/// A trained binary classifier.
class Model {
 public:
  virtual ~Model() = default;

  /// P(y = 1 | x).
  virtual double Predict(const SparseRow& x) const = 0;

  /// Penultimate representation (logit for linear models, last hidden layer
  /// for MLPs); consumed by intermediate fusion and DeViSE (§5).
  virtual std::vector<double> Embed(const SparseRow& x) const = 0;

  /// Dimension of Embed() outputs.
  virtual size_t embed_dim() const = 0;

  /// Applies only the frozen final prediction layer to an externally
  /// supplied embedding of embed_dim() (DeViSE passes projected embeddings
  /// through the old-modality model's head, §5).
  virtual double PredictFromEmbedding(const std::vector<double>& e) const = 0;

  /// Number of trainable parameters (for reports).
  virtual size_t num_parameters() const = 0;
};

using ModelPtr = std::unique_ptr<Model>;

/// Numerically safe logistic function.
double Sigmoid(double z);

}  // namespace crossmodal

#endif  // CROSSMODAL_ML_MODEL_H_
