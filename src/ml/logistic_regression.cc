#include "ml/logistic_regression.h"

#include <cmath>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace crossmodal {

double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

Result<LogisticRegression> LogisticRegression::Train(
    const Dataset& data, const TrainOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty training set");

  LogisticRegression model;
  model.weights_.assign(data.dim, 0.0);
  model.bias_ = 0.0;

  // Adam state (dense; dims here are a few hundred).
  std::vector<double> m(data.dim, 0.0), v(data.dim, 0.0);
  double mb = 0.0, vb = 0.0;
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  double beta1_t = 1.0, beta2_t = 1.0;

  std::vector<double> grad(data.dim, 0.0);
  std::vector<uint32_t> touched;

  // Per-slice partial gradients: each of the kGradSlices fixed batch slices
  // accumulates into its own dense buffer (+ touched list for sparse
  // reset), then the partials are folded into `grad` in slice order. The
  // slices run inline in slice order (training parallelizes across
  // ensemble members instead, see TrainModel); the summation tree depends
  // only on the batch split.
  std::vector<std::vector<double>> slice_grad(kGradSlices);
  std::vector<std::vector<uint32_t>> slice_touched(kGradSlices);
  std::vector<double> slice_grad_b(kGradSlices, 0.0);
  for (auto& sg : slice_grad) sg.assign(data.dim, 0.0);

  Rng rng(options.seed);
  const size_t n = data.size();
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const auto perm = rng.Permutation(n);
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t end = std::min(n, start + kBatchSize);
      const size_t batch = end - start;
      std::fill(slice_grad_b.begin(), slice_grad_b.end(), 0.0);
      for (size_t slice = 0; slice < kGradSlices; ++slice) {
        const auto [s_begin, s_end] = SliceBounds(batch, kGradSlices, slice);
        if (s_begin == s_end) continue;
        auto& sg = slice_grad[slice];
        auto& st = slice_touched[slice];
        st.clear();
        // Worst case every feature of the slice is touched; reserving the
        // dense-gradient width keeps the inner loop allocation-free (the
        // capacity is retained across batches by clear()).
        st.reserve(sg.size());
        double gb = 0.0;
        for (size_t k = s_begin; k < s_end; ++k) {
          const Example& ex = data.examples[perm[start + k]];
          const double p = Sigmoid(ex.x.Dot(model.weights_) + model.bias_);
          // Noise-aware CE gradient: (p - soft_target).
          const double g = ex.weight * (p - ex.target);
          for (const auto& [idx, val] : ex.x.entries) {
            if (sg[idx] == 0.0) st.push_back(idx);
            sg[idx] += g * val;
          }
          gb += g;
        }
        slice_grad_b[slice] = gb;
      }
      // Fold partials in fixed slice order; clear them for the next batch.
      touched.clear();
      double grad_b = 0.0;
      for (size_t slice = 0; slice < kGradSlices; ++slice) {
        for (uint32_t idx : slice_touched[slice]) {
          if (grad[idx] == 0.0) touched.push_back(idx);
          grad[idx] += slice_grad[slice][idx];
          slice_grad[slice][idx] = 0.0;
        }
        grad_b += slice_grad_b[slice];
      }
      const double scale = 1.0 / static_cast<double>(end - start);
      beta1_t *= beta1;
      beta2_t *= beta2;
      const double corr1 = 1.0 - beta1_t, corr2 = 1.0 - beta2_t;
      for (uint32_t idx : touched) {
        const double g = grad[idx] * scale + options.l2 * model.weights_[idx];
        grad[idx] = 0.0;
        m[idx] = beta1 * m[idx] + (1.0 - beta1) * g;
        v[idx] = beta2 * v[idx] + (1.0 - beta2) * g * g;
        model.weights_[idx] -= options.learning_rate * (m[idx] / corr1) /
                               (std::sqrt(v[idx] / corr2) + eps);
      }
      const double gb = grad_b * scale;
      mb = beta1 * mb + (1.0 - beta1) * gb;
      vb = beta2 * vb + (1.0 - beta2) * gb * gb;
      model.bias_ -= options.learning_rate * (mb / corr1) /
                     (std::sqrt(vb / corr2) + eps);
    }
  }
  return model;
}

double LogisticRegression::Predict(const SparseRow& x) const {
  return Sigmoid(x.Dot(weights_) + bias_);
}

std::vector<double> LogisticRegression::Embed(const SparseRow& x) const {
  return {x.Dot(weights_) + bias_};
}

double LogisticRegression::PredictFromEmbedding(
    const std::vector<double>& e) const {
  CM_CHECK(e.size() == 1);
  return Sigmoid(e[0]);
}

}  // namespace crossmodal
