#include "ml/softmax_regression.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace crossmodal {

Result<SoftmaxRegression> SoftmaxRegression::Train(
    const MulticlassDataset& data, const TrainOptions& options) {
  if (data.examples.empty()) {
    return Status::InvalidArgument("empty training set");
  }
  if (data.num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  for (const auto& ex : data.examples) {
    if (ex.target.size() != static_cast<size_t>(data.num_classes)) {
      return Status::InvalidArgument("target arity mismatch");
    }
  }

  SoftmaxRegression model;
  model.num_classes_ = data.num_classes;
  model.dim_ = data.dim;
  const size_t K = static_cast<size_t>(data.num_classes);
  model.weights_.assign(K * data.dim, 0.0);
  model.biases_.assign(K, 0.0);

  std::vector<double> mw(model.weights_.size(), 0.0),
      vw(model.weights_.size(), 0.0);
  std::vector<double> mb(K, 0.0), vb(K, 0.0);
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  double b1t = 1.0, b2t = 1.0;

  std::vector<double> grad_w(model.weights_.size(), 0.0);
  std::vector<double> grad_b(K, 0.0);
  std::vector<size_t> touched;  // touched weight indices per batch

  Rng rng(options.seed);
  const size_t n = data.examples.size();
  std::vector<double> probs(K);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const auto perm = rng.Permutation(n);
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t end = std::min(n, start + kBatchSize);
      touched.clear();
      std::fill(grad_b.begin(), grad_b.end(), 0.0);
      for (size_t k = start; k < end; ++k) {
        const MulticlassExample& ex = data.examples[perm[k]];
        // Forward.
        double max_z = -1e300;
        for (size_t c = 0; c < K; ++c) {
          double z = model.biases_[c];
          for (const auto& [idx, val] : ex.x.entries) {
            z += model.weights_[c * data.dim + idx] * val;
          }
          probs[c] = z;
          max_z = std::max(max_z, z);
        }
        double total = 0.0;
        for (size_t c = 0; c < K; ++c) {
          probs[c] = std::exp(probs[c] - max_z);
          total += probs[c];
        }
        for (size_t c = 0; c < K; ++c) probs[c] /= total;
        // Backward: dL/dz_c = p_c - target_c.
        for (size_t c = 0; c < K; ++c) {
          const double g = ex.weight * (probs[c] - ex.target[c]);
          grad_b[c] += g;
          for (const auto& [idx, val] : ex.x.entries) {
            const size_t w_idx = c * data.dim + idx;
            if (grad_w[w_idx] == 0.0) touched.push_back(w_idx);
            grad_w[w_idx] += g * val;
          }
        }
      }
      const double scale = 1.0 / static_cast<double>(end - start);
      b1t *= beta1;
      b2t *= beta2;
      const double c1 = 1.0 - b1t, c2 = 1.0 - b2t;
      for (size_t idx : touched) {
        const double g = grad_w[idx] * scale + options.l2 * model.weights_[idx];
        grad_w[idx] = 0.0;
        mw[idx] = beta1 * mw[idx] + (1.0 - beta1) * g;
        vw[idx] = beta2 * vw[idx] + (1.0 - beta2) * g * g;
        model.weights_[idx] -= options.learning_rate * (mw[idx] / c1) /
                               (std::sqrt(vw[idx] / c2) + eps);
      }
      for (size_t c = 0; c < K; ++c) {
        const double g = grad_b[c] * scale;
        mb[c] = beta1 * mb[c] + (1.0 - beta1) * g;
        vb[c] = beta2 * vb[c] + (1.0 - beta2) * g * g;
        model.biases_[c] -= options.learning_rate * (mb[c] / c1) /
                            (std::sqrt(vb[c] / c2) + eps);
      }
    }
  }
  return model;
}

std::vector<double> SoftmaxRegression::Predict(const SparseRow& x) const {
  const size_t K = static_cast<size_t>(num_classes_);
  std::vector<double> probs(K);
  double max_z = -1e300;
  for (size_t c = 0; c < K; ++c) {
    double z = biases_[c];
    for (const auto& [idx, val] : x.entries) {
      z += weights_[c * dim_ + idx] * val;
    }
    probs[c] = z;
    max_z = std::max(max_z, z);
  }
  double total = 0.0;
  for (size_t c = 0; c < K; ++c) {
    probs[c] = std::exp(probs[c] - max_z);
    total += probs[c];
  }
  for (size_t c = 0; c < K; ++c) probs[c] /= total;
  return probs;
}

int32_t SoftmaxRegression::PredictClass(const SparseRow& x) const {
  const auto probs = Predict(x);
  return static_cast<int32_t>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

double MulticlassAccuracy(const std::vector<int32_t>& predicted,
                          const std::vector<int32_t>& truth) {
  CM_CHECK(predicted.size() == truth.size());
  if (predicted.empty()) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    correct += (predicted[i] == truth[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(predicted.size());
}

double MacroF1(const std::vector<int32_t>& predicted,
               const std::vector<int32_t>& truth, int32_t num_classes) {
  CM_CHECK(predicted.size() == truth.size());
  double total_f1 = 0.0;
  for (int32_t c = 0; c < num_classes; ++c) {
    size_t tp = 0, fp = 0, fn = 0;
    for (size_t i = 0; i < predicted.size(); ++i) {
      if (predicted[i] == c && truth[i] == c) ++tp;
      if (predicted[i] == c && truth[i] != c) ++fp;
      if (predicted[i] != c && truth[i] == c) ++fn;
    }
    const double precision =
        tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
    const double recall =
        tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
    total_f1 += precision + recall > 0.0
                    ? 2.0 * precision * recall / (precision + recall)
                    : 0.0;
  }
  return total_f1 / static_cast<double>(num_classes);
}

}  // namespace crossmodal
