#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace crossmodal {

namespace {

/// Dense Adam optimizer state for one parameter vector.
struct AdamState {
  std::vector<double> m, v;
  explicit AdamState(size_t n) : m(n, 0.0), v(n, 0.0) {}

  void Step(std::vector<double>* params, const std::vector<double>& grad,
            double lr, double corr1, double corr2) {
    constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
    for (size_t i = 0; i < params->size(); ++i) {
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * grad[i];
      v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * grad[i] * grad[i];
      (*params)[i] -= lr * (m[i] / corr1) / (std::sqrt(v[i] / corr2) + kEps);
    }
  }
};

}  // namespace

void Mlp::Forward(const SparseRow& x,
                  std::vector<std::vector<double>>* acts) const {
  const size_t num_hidden = hidden_.size();
  acts->resize(num_hidden);
  // Layer 0: sparse input x dense [input_dim][h0] matrix.
  const size_t h0 = static_cast<size_t>(hidden_[0]);
  auto& a0 = (*acts)[0];
  a0.assign(h0, 0.0);
  for (const auto& [idx, val] : x.entries) {
    const double* w_row = &weights_[0][static_cast<size_t>(idx) * h0];
    for (size_t j = 0; j < h0; ++j) a0[j] += w_row[j] * val;
  }
  for (size_t j = 0; j < h0; ++j) {
    a0[j] = std::max(0.0, a0[j] + biases_[0][j]);
  }
  // Later layers: dense, output-major [h_l][h_{l-1}].
  for (size_t l = 1; l < num_hidden; ++l) {
    const size_t hl = static_cast<size_t>(hidden_[l]);
    const size_t hp = static_cast<size_t>(hidden_[l - 1]);
    auto& al = (*acts)[l];
    al.assign(hl, 0.0);
    const auto& prev = (*acts)[l - 1];
    for (size_t j = 0; j < hl; ++j) {
      const double* w_row = &weights_[l][j * hp];
      double acc = biases_[l][j];
      for (size_t i = 0; i < hp; ++i) acc += w_row[i] * prev[i];
      al[j] = std::max(0.0, acc);
    }
  }
}

Result<Mlp> Mlp::Train(const Dataset& data, const MlpOptions& options) {
  if (data.empty()) return Status::InvalidArgument("empty training set");
  if (options.hidden.empty()) {
    return Status::InvalidArgument("MLP needs at least one hidden layer");
  }
  for (int h : options.hidden) {
    if (h <= 0) return Status::InvalidArgument("hidden width must be > 0");
  }

  Mlp model;
  model.input_dim_ = data.dim;
  model.hidden_ = options.hidden;
  Rng rng(options.train.seed);

  const size_t num_hidden = model.hidden_.size();
  model.weights_.resize(num_hidden);
  model.biases_.resize(num_hidden);
  {
    const size_t h0 = static_cast<size_t>(model.hidden_[0]);
    model.weights_[0].resize(data.dim * h0);
    const double s0 = options.init_scale * std::sqrt(2.0 / std::max<size_t>(
                                                              1, data.dim));
    for (auto& w : model.weights_[0]) w = rng.Normal(0.0, s0);
    model.biases_[0].assign(h0, 0.0);
  }
  for (size_t l = 1; l < num_hidden; ++l) {
    const size_t hl = static_cast<size_t>(model.hidden_[l]);
    const size_t hp = static_cast<size_t>(model.hidden_[l - 1]);
    model.weights_[l].resize(hl * hp);
    const double sl = options.init_scale * std::sqrt(2.0 / hp);
    for (auto& w : model.weights_[l]) w = rng.Normal(0.0, sl);
    model.biases_[l].assign(hl, 0.0);
  }
  const size_t h_last = static_cast<size_t>(model.hidden_.back());
  model.out_weights_.resize(h_last);
  for (auto& w : model.out_weights_) {
    w = rng.Normal(0.0, options.init_scale * std::sqrt(2.0 / h_last));
  }
  model.out_bias_ = 0.0;

  // Adam states + gradient accumulators mirroring the parameter shapes.
  std::vector<AdamState> adam_w, adam_b;
  std::vector<std::vector<double>> grad_w(num_hidden), grad_b(num_hidden);
  for (size_t l = 0; l < num_hidden; ++l) {
    adam_w.emplace_back(model.weights_[l].size());
    adam_b.emplace_back(model.biases_[l].size());
    grad_w[l].assign(model.weights_[l].size(), 0.0);
    grad_b[l].assign(model.biases_[l].size(), 0.0);
  }
  AdamState adam_out(h_last), adam_out_b(1);
  std::vector<double> grad_out(h_last, 0.0), grad_out_b(1, 0.0);

  const TrainOptions& t = options.train;

  // Gradient partial + forward/backward workspaces of one batch slice. Each
  // of the kGradSlices fixed slices runs inline in slice order (training
  // parallelizes across ensemble members instead, see TrainModel): it
  // accumulates into the zeroed partial while reading the
  // frozen-within-batch weights, and the partial folds into grad_* before
  // the next slice. The summation tree depends only on the batch split, so
  // one partial serves all slices.
  struct SliceGrads {
    std::vector<std::vector<double>> grad_w, grad_b;
    std::vector<double> grad_out;
    double grad_out_b = 0.0;
    std::vector<std::vector<double>> acts, delta;  // workspaces
  };
  SliceGrads s;
  s.grad_w.resize(num_hidden);
  s.grad_b.resize(num_hidden);
  for (size_t l = 0; l < num_hidden; ++l) {
    s.grad_w[l].assign(model.weights_[l].size(), 0.0);
    s.grad_b[l].assign(model.biases_[l].size(), 0.0);
  }
  s.grad_out.assign(h_last, 0.0);
  s.delta.resize(num_hidden);

  double beta1_t = 1.0, beta2_t = 1.0;
  const size_t n = data.size();

  for (int epoch = 0; epoch < t.epochs; ++epoch) {
    const auto perm = rng.Permutation(n);
    for (size_t start = 0; start < n; start += t.batch_size) {
      const size_t end = std::min(n, start + t.batch_size);
      const size_t batch = end - start;
      for (size_t l = 0; l < num_hidden; ++l) {
        std::fill(grad_w[l].begin(), grad_w[l].end(), 0.0);
        std::fill(grad_b[l].begin(), grad_b[l].end(), 0.0);
      }
      std::fill(grad_out.begin(), grad_out.end(), 0.0);
      grad_out_b[0] = 0.0;

      for (size_t slice = 0; slice < kGradSlices; ++slice) {
        const auto [s_begin, s_end] = SliceBounds(batch, kGradSlices, slice);
        if (s_begin == s_end) continue;
        for (size_t l = 0; l < num_hidden; ++l) {
          std::fill(s.grad_w[l].begin(), s.grad_w[l].end(), 0.0);
          std::fill(s.grad_b[l].begin(), s.grad_b[l].end(), 0.0);
        }
        std::fill(s.grad_out.begin(), s.grad_out.end(), 0.0);
        s.grad_out_b = 0.0;
        for (size_t k = s_begin; k < s_end; ++k) {
          const Example& ex = data.examples[perm[start + k]];
          model.Forward(ex.x, &s.acts);
          const auto& last = s.acts.back();
          double logit = model.out_bias_;
          for (size_t j = 0; j < h_last; ++j) {
            logit += model.out_weights_[j] * last[j];
          }
          const double p = Sigmoid(logit);
          const double g_out = ex.weight * (p - ex.target);  // dL/dlogit

          // Output layer gradients.
          for (size_t j = 0; j < h_last; ++j) s.grad_out[j] += g_out * last[j];
          s.grad_out_b += g_out;

          // Backprop through hidden layers.
          auto& d_last = s.delta[num_hidden - 1];
          d_last.assign(h_last, 0.0);
          for (size_t j = 0; j < h_last; ++j) {
            if (last[j] > 0.0) d_last[j] = g_out * model.out_weights_[j];
          }
          for (size_t l = num_hidden - 1; l >= 1; --l) {
            const size_t hl = static_cast<size_t>(model.hidden_[l]);
            const size_t hp = static_cast<size_t>(model.hidden_[l - 1]);
            const auto& prev = s.acts[l - 1];
            auto& d_prev = s.delta[l - 1];
            d_prev.assign(hp, 0.0);
            for (size_t j = 0; j < hl; ++j) {
              const double dj = s.delta[l][j];
              if (dj == 0.0) continue;
              double* gw_row = &s.grad_w[l][j * hp];
              const double* w_row = &model.weights_[l][j * hp];
              for (size_t i = 0; i < hp; ++i) {
                gw_row[i] += dj * prev[i];
                if (prev[i] > 0.0) d_prev[i] += dj * w_row[i];
              }
              s.grad_b[l][j] += dj;
            }
          }
          // Input layer gradients (sparse).
          const size_t h0 = static_cast<size_t>(model.hidden_[0]);
          for (const auto& [idx, val] : ex.x.entries) {
            double* gw_row = &s.grad_w[0][static_cast<size_t>(idx) * h0];
            const auto& d0 = s.delta[0];
            for (size_t j = 0; j < h0; ++j) gw_row[j] += d0[j] * val;
          }
          for (size_t j = 0; j < h0; ++j) s.grad_b[0][j] += s.delta[0][j];
        }

        // Fold this slice's partial in slice order.
        for (size_t l = 0; l < num_hidden; ++l) {
          for (size_t i = 0; i < grad_w[l].size(); ++i) {
            grad_w[l][i] += s.grad_w[l][i];
          }
          for (size_t i = 0; i < grad_b[l].size(); ++i) {
            grad_b[l][i] += s.grad_b[l][i];
          }
        }
        for (size_t j = 0; j < h_last; ++j) grad_out[j] += s.grad_out[j];
        grad_out_b[0] += s.grad_out_b;
      }

      // Adam step (gradients averaged over the batch; L2 added).
      const double scale = 1.0 / static_cast<double>(end - start);
      beta1_t *= 0.9;
      beta2_t *= 0.999;
      const double corr1 = 1.0 - beta1_t, corr2 = 1.0 - beta2_t;
      for (size_t l = 0; l < num_hidden; ++l) {
        for (size_t i = 0; i < grad_w[l].size(); ++i) {
          grad_w[l][i] = grad_w[l][i] * scale + t.l2 * model.weights_[l][i];
        }
        for (auto& g : grad_b[l]) g *= scale;
        adam_w[l].Step(&model.weights_[l], grad_w[l], t.learning_rate, corr1,
                       corr2);
        adam_b[l].Step(&model.biases_[l], grad_b[l], t.learning_rate, corr1,
                       corr2);
      }
      for (size_t j = 0; j < h_last; ++j) {
        grad_out[j] = grad_out[j] * scale + t.l2 * model.out_weights_[j];
      }
      grad_out_b[0] *= scale;
      adam_out.Step(&model.out_weights_, grad_out, t.learning_rate, corr1,
                    corr2);
      std::vector<double> ob{model.out_bias_};
      adam_out_b.Step(&ob, grad_out_b, t.learning_rate, corr1, corr2);
      model.out_bias_ = ob[0];
    }
  }
  return model;
}

double Mlp::Predict(const SparseRow& x) const {
  std::vector<std::vector<double>> acts;
  Forward(x, &acts);
  double logit = out_bias_;
  const auto& last = acts.back();
  for (size_t j = 0; j < last.size(); ++j) logit += out_weights_[j] * last[j];
  return Sigmoid(logit);
}

std::vector<double> Mlp::Embed(const SparseRow& x) const {
  std::vector<std::vector<double>> acts;
  Forward(x, &acts);
  return acts.back();
}

double Mlp::PredictFromEmbedding(const std::vector<double>& e) const {
  CM_CHECK(e.size() == out_weights_.size());
  double logit = out_bias_;
  for (size_t j = 0; j < e.size(); ++j) logit += out_weights_[j] * e[j];
  return Sigmoid(logit);
}

size_t Mlp::embed_dim() const {
  return static_cast<size_t>(hidden_.back());
}

size_t Mlp::num_parameters() const {
  size_t total = out_weights_.size() + 1;
  for (size_t l = 0; l < weights_.size(); ++l) {
    total += weights_[l].size() + biases_[l].size();
  }
  return total;
}

}  // namespace crossmodal
