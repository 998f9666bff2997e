#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace crossmodal {

namespace {

/// He-style init scale multiplier.
constexpr double kInitScale = 0.2;
constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

/// The per-batch constants of one Adam step, shared by every tensor.
struct AdamBatch {
  double scale;         ///< 1 / batch size: averages the summed gradient.
  double l2;            ///< L2 coefficient (weights only, not biases).
  double lr;
  double corr1, corr2;  ///< Bias corrections 1 - beta^t.
};

/// Batch gradient and Adam moments of one parameter tensor.
struct ParamState {
  std::vector<double> grad, m, v;
  explicit ParamState(size_t n) : grad(n, 0.0), m(n, 0.0), v(n, 0.0) {}

  /// One fused pass: averages the batch gradient, adds the L2 term when
  /// kDecay, takes the Adam step on `params` and zeroes the gradient for the
  /// next batch. The per-element expressions and their evaluation order are
  /// part of the fitted weights: any change alters every cmaudit hash.
  template <bool kDecay>
  void Step(std::span<double> params, const AdamBatch& b) {
    double* w = params.data();
    for (size_t i = 0; i < params.size(); ++i) {
      double g = grad[i] * b.scale;
      if constexpr (kDecay) g = g + b.l2 * w[i];
      grad[i] = 0.0;
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g;
      v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * g * g;
      w[i] -= b.lr * (m[i] / b.corr1) / (std::sqrt(v[i] / b.corr2) + kEps);
    }
  }
};

/// Adds a slice partial into the batch gradient and re-zeroes the partial.
void FoldAndZero(std::span<double> partial, std::span<double> sum) {
  for (size_t i = 0; i < sum.size(); ++i) {
    sum[i] += partial[i];
    partial[i] = 0.0;
  }
}

/// The calling thread's activation buffers for Predict and Embed. Forward
/// re-assigns every layer before reading it, so reusing the buffers keeps
/// every value and only drops the per-call allocations.
std::vector<std::vector<double>>& ScratchActivations() {
  thread_local std::vector<std::vector<double>> acts;
  return acts;
}

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
  const size_t h0 = static_cast<size_t>(model.hidden_[0]);
  model.weights_.resize(num_hidden);
  model.biases_.resize(num_hidden);
  {
    model.weights_[0].resize(data.dim * h0);
    const double s0 =
        kInitScale * std::sqrt(2.0 / std::max<size_t>(1, data.dim));
    for (auto& w : model.weights_[0]) w = rng.Normal(0.0, s0);
    model.biases_[0].assign(h0, 0.0);
  }
  for (size_t l = 1; l < num_hidden; ++l) {
    const size_t hl = static_cast<size_t>(model.hidden_[l]);
    const size_t hp = static_cast<size_t>(model.hidden_[l - 1]);
    model.weights_[l].resize(hl * hp);
    const double sl = kInitScale * std::sqrt(2.0 / hp);
    for (auto& w : model.weights_[l]) w = rng.Normal(0.0, sl);
    model.biases_[l].assign(hl, 0.0);
  }
  const size_t h_last = static_cast<size_t>(model.hidden_.back());
  model.out_weights_.resize(h_last);
  for (auto& w : model.out_weights_) {
    w = rng.Normal(0.0, kInitScale * std::sqrt(2.0 / h_last));
  }
  model.out_bias_ = 0.0;

  // Batch gradients + Adam moments mirroring the parameter shapes.
  std::vector<ParamState> w_state, b_state;
  for (size_t l = 0; l < num_hidden; ++l) {
    w_state.emplace_back(model.weights_[l].size());
    b_state.emplace_back(model.biases_[l].size());
  }
  ParamState out_w_state(h_last), out_b_state(1);

  const TrainOptions& t = options.train;

  // Gradient partial + forward/backward workspaces of one batch slice. Each
  // of the kGradSlices fixed slices runs inline in slice order (training
  // parallelizes across ensemble members instead, see TrainModel): it
  // accumulates into the zero partial while reading the
  // frozen-within-batch weights, and the partial folds into the batch
  // gradient, and is re-zeroed, before the next slice. The summation tree
  // depends only on the batch split, so one partial serves all slices. Of
  // the [input_dim][h0] input layer only the rows of the slice's input
  // indices are nonzero; `rows` lists them once each (`row_seen` marks
  // them), and only they are folded and re-zeroed. Skipping the other rows
  // is exact: they hold +0.0, and a sum that starts at +0.0 is never -0.0,
  // so adding +0.0 leaves it unchanged.
  struct SliceGrads {
    std::vector<std::vector<double>> grad_w, grad_b;
    std::vector<double> grad_out;
    double grad_out_b = 0.0;
    std::vector<uint32_t> rows;
    std::vector<char> row_seen;
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
  s.row_seen.assign(data.dim, 0);
  s.delta.resize(num_hidden);

  double beta1_t = 1.0, beta2_t = 1.0;
  const size_t n = data.size();

  for (int epoch = 0; epoch < t.epochs; ++epoch) {
    const auto perm = rng.Permutation(n);
    for (size_t start = 0; start < n; start += kBatchSize) {
      const size_t end = std::min(n, start + kBatchSize);
      const size_t batch = end - start;
      for (size_t slice = 0; slice < kGradSlices; ++slice) {
        const auto [s_begin, s_end] = SliceBounds(batch, kGradSlices, slice);
        if (s_begin == s_end) continue;
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
          const auto& d0 = s.delta[0];
          for (const auto& [idx, val] : ex.x.entries) {
            if (!s.row_seen[idx]) {
              s.row_seen[idx] = 1;
              s.rows.push_back(idx);
            }
            double* gw_row = &s.grad_w[0][static_cast<size_t>(idx) * h0];
            for (size_t j = 0; j < h0; ++j) gw_row[j] += d0[j] * val;
          }
          for (size_t j = 0; j < h0; ++j) s.grad_b[0][j] += d0[j];
        }

        // Fold this slice's partial in slice order, re-zeroing it.
        for (uint32_t r : s.rows) {
          const size_t off = static_cast<size_t>(r) * h0;
          FoldAndZero(std::span(s.grad_w[0]).subspan(off, h0),
                      std::span(w_state[0].grad).subspan(off, h0));
          s.row_seen[r] = 0;
        }
        s.rows.clear();
        for (size_t l = 1; l < num_hidden; ++l) {
          FoldAndZero(s.grad_w[l], w_state[l].grad);
        }
        for (size_t l = 0; l < num_hidden; ++l) {
          FoldAndZero(s.grad_b[l], b_state[l].grad);
        }
        FoldAndZero(s.grad_out, out_w_state.grad);
        out_b_state.grad[0] += s.grad_out_b;
        s.grad_out_b = 0.0;
      }

      // Adam step (gradients averaged over the batch; L2 on weights).
      beta1_t *= kBeta1;
      beta2_t *= kBeta2;
      const AdamBatch step{1.0 / static_cast<double>(batch), t.l2,
                           t.learning_rate, 1.0 - beta1_t, 1.0 - beta2_t};
      for (size_t l = 0; l < num_hidden; ++l) {
        w_state[l].Step<true>(model.weights_[l], step);
        b_state[l].Step<false>(model.biases_[l], step);
      }
      out_w_state.Step<true>(model.out_weights_, step);
      out_b_state.Step<false>({&model.out_bias_, 1}, step);
    }
  }
  return model;
}

double Mlp::Predict(const SparseRow& x) const {
  std::vector<std::vector<double>>& acts = ScratchActivations();
  Forward(x, &acts);
  double logit = out_bias_;
  const auto& last = acts.back();
  for (size_t j = 0; j < last.size(); ++j) logit += out_weights_[j] * last[j];
  return Sigmoid(logit);
}

std::vector<double> Mlp::Embed(const SparseRow& x) const {
  std::vector<std::vector<double>>& acts = ScratchActivations();
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
