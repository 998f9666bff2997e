#include "labeling/label_model.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace crossmodal {

double TemperedDecisionThreshold(double class_balance, double temperature) {
  const double pi = std::clamp(class_balance, 1e-9, 1.0 - 1e-9);
  const double t = std::max(1e-3, temperature);
  const double prior_logit = std::log(pi / (1.0 - pi));
  const double thresh_logit = prior_logit * (1.0 - 1.0 / t);
  return 1.0 / (1.0 + std::exp(-thresh_logit));
}

std::vector<ProbabilisticLabel> MajorityVote(const LabelMatrix& matrix,
                                             double class_prior) {
  std::vector<ProbabilisticLabel> out(matrix.num_rows());
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    int pos = 0, neg = 0;
    for (size_t j = 0; j < matrix.num_lfs(); ++j) {
      const Vote v = matrix.at(i, j);
      if (v == Vote::kPositive) ++pos;
      if (v == Vote::kNegative) ++neg;
    }
    ProbabilisticLabel& label = out[i];
    label.entity = matrix.entity(i);
    label.covered = (pos + neg) > 0;
    label.p_positive = label.covered
                           ? static_cast<double>(pos) / (pos + neg)
                           : class_prior;
  }
  return out;
}

namespace {

/// Assumed precision of each LF's votes used to initialize theta (the
/// "LFs are better than random" prior Snorkel requires).
constexpr double kInitPrecision = 0.8;

/// Dirichlet-style smoothing added to each vote-count cell in the M-step
/// (keeps theta off the simplex boundary).
constexpr double kSmoothing = 0.2;

/// Index of a vote within a theta row: {-1, 0, +1} -> {0, 1, 2}.
inline size_t VoteIndex(Vote v) {
  return static_cast<size_t>(static_cast<int>(v) + 1);
}

/// Posterior P(y=1 | row) under theta, in log domain, abstains included.
/// `log_theta` is std::log of every theta entry, in theta's layout.
double RowPosterior(const LabelMatrix& matrix, size_t row,
                    const std::vector<double>& log_theta, double pi) {
  double log_pos = std::log(pi);
  double log_neg = std::log(1.0 - pi);
  for (size_t j = 0; j < matrix.num_lfs(); ++j) {
    const size_t v = VoteIndex(matrix.at(row, j));
    log_pos += log_theta[j * 6 + 3 + v];
    log_neg += log_theta[j * 6 + v];
  }
  const double m = std::max(log_pos, log_neg);
  const double denom = std::exp(log_pos - m) + std::exp(log_neg - m);
  return std::exp(log_pos - m) / denom;
}

}  // namespace

double GenerativeLabelModel::theta(size_t lf, int y, Vote v) const {
  CM_CHECK(lf < num_lfs_ && (y == 0 || y == 1));
  return theta_[lf * 6 + static_cast<size_t>(y) * 3 + VoteIndex(v)];
}

Result<GenerativeLabelModel> GenerativeLabelModel::Fit(
    const LabelMatrix& matrix, const GenerativeModelOptions& options) {
  const size_t n = matrix.num_rows();
  const size_t m = matrix.num_lfs();
  if (m == 0) return Status::InvalidArgument("label matrix has no LFs");
  size_t covered = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (matrix.at(i, j) != Vote::kAbstain) {
        ++covered;
        break;
      }
    }
  }
  if (covered == 0) {
    return Status::FailedPrecondition("no rows are covered by any LF");
  }

  GenerativeLabelModel model;
  model.num_lfs_ = m;
  model.temperature_ = std::max(1e-3, options.posterior_temperature);
  model.theta_.assign(m * 6, 0.0);
  model.class_balance_ =
      options.fixed_class_balance.value_or(options.init_class_balance);
  const double pi0 = model.class_balance_;

  // ---- Initialization: assume each vote's precision is a lift over the
  // polarity's class prior ("LFs are better than random", where random
  // means matching the prior): prec_v = prior_v + p0 * (1 - prior_v).
  // For an LF with observed vote rates r(v), split r(v) between the classes
  // accordingly: P(lambda=v | y) = r(v) * P(y | v) / P(y).
  const double p0 = kInitPrecision;
  const double prec_pos = pi0 + p0 * (1.0 - pi0);          // for +1 votes
  const double prec_neg = (1.0 - pi0) + p0 * pi0;          // for -1 votes
  for (size_t j = 0; j < m; ++j) {
    double rate[3] = {0.0, 0.0, 0.0};
    for (size_t i = 0; i < n; ++i) rate[VoteIndex(matrix.at(i, j))] += 1.0;
    for (double& r : rate) r /= static_cast<double>(n);
    auto cap = [](double v) { return std::clamp(v, 1e-4, 0.95); };
    // v = +1 : precision prec_pos toward y=1.
    const double pos_from_pos = cap(rate[2] * prec_pos / std::max(pi0, 1e-3));
    const double pos_from_neg =
        cap(rate[2] * (1.0 - prec_pos) / std::max(1.0 - pi0, 1e-3));
    // v = -1 : precision prec_neg toward y=0.
    const double neg_from_neg =
        cap(rate[0] * prec_neg / std::max(1.0 - pi0, 1e-3));
    const double neg_from_pos =
        cap(rate[0] * (1.0 - prec_neg) / std::max(pi0, 1e-3));
    double* t_neg = &model.theta_[j * 6];      // y = 0 row
    double* t_pos = &model.theta_[j * 6 + 3];  // y = 1 row
    t_pos[2] = pos_from_pos;
    t_neg[2] = pos_from_neg;
    t_pos[0] = neg_from_pos;
    t_neg[0] = neg_from_neg;
    t_pos[1] = std::max(1e-4, 1.0 - t_pos[0] - t_pos[2]);
    t_neg[1] = std::max(1e-4, 1.0 - t_neg[0] - t_neg[2]);
  }

  // vote_log_odds[j*3 + v] = log P(v | y=1) - log P(v | y=0) for LF j: the
  // E-step's per-cell term, which takes only 3·m values per iteration.
  std::vector<double> vote_log_odds(m * 3);
  // M-step vote counts in theta's layout. Every iteration starts them from
  // the smoothing plus the anchor's pseudo-counts at the initialization.
  const double anchor = std::max(0.0, options.prior_anchor) *
                        static_cast<double>(n);
  std::vector<double> count_init(m * 6);
  for (size_t j = 0; j < m; ++j) {
    for (size_t v = 0; v < 3; ++v) {
      count_init[j * 6 + 3 + v] =
          kSmoothing + anchor * pi0 * model.theta_[j * 6 + 3 + v];
      count_init[j * 6 + v] =
          kSmoothing + anchor * (1.0 - pi0) * model.theta_[j * 6 + v];
    }
  }
  std::vector<double> counts(m * 6);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    model.iterations_ = iter + 1;
    const double prior_logit =
        std::log(model.class_balance_ / (1.0 - model.class_balance_));
    for (size_t j = 0; j < m; ++j) {
      for (size_t v = 0; v < 3; ++v) {
        vote_log_odds[j * 3 + v] = std::log(model.theta_[j * 6 + 3 + v]) -
                                   std::log(model.theta_[j * 6 + v]);
      }
    }
    // ---- One pass over the rows: the E-step's full-row posterior of row
    // i, then its share of the M-step counts (each count still sums the
    // rows in order). (A leave-one-out variant — excluding LF j's own vote
    // from the evidence — removes the mild self-reinforcement bias of EM,
    // but collapses when few LFs are available; the full-posterior M-step
    // is the stable choice, with accuracies known to shrink a few points
    // toward the ensemble mean.) ------------------------------------------
    counts = count_init;
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double lo = prior_logit;
      for (size_t j = 0; j < m; ++j) {
        lo += vote_log_odds[j * 3 + VoteIndex(matrix.at(i, j))];
      }
      const double posterior = 1.0 / (1.0 + std::exp(-lo));
      mean += posterior;
      for (size_t j = 0; j < m; ++j) {
        const size_t v = VoteIndex(matrix.at(i, j));
        counts[j * 6 + 3 + v] += posterior;
        counts[j * 6 + v] += 1.0 - posterior;
      }
    }
    // ---- M-step. ---------------------------------------------------------
    double max_delta = 0.0;
    for (size_t j = 0; j < m; ++j) {
      const double* count_neg = &counts[j * 6];
      const double* count_pos = &counts[j * 6 + 3];
      const double total_pos = count_pos[0] + count_pos[1] + count_pos[2];
      const double total_neg = count_neg[0] + count_neg[1] + count_neg[2];
      for (size_t v = 0; v < 3; ++v) {
        const double new_pos = count_pos[v] / total_pos;
        const double new_neg = count_neg[v] / total_neg;
        max_delta =
            std::max(max_delta, std::abs(new_pos - model.theta_[j * 6 + 3 + v]));
        max_delta =
            std::max(max_delta, std::abs(new_neg - model.theta_[j * 6 + v]));
        model.theta_[j * 6 + 3 + v] = new_pos;
        model.theta_[j * 6 + v] = new_neg;
      }
    }
    if (!options.fixed_class_balance.has_value()) {
      mean /= static_cast<double>(n);
      mean = std::clamp(mean, 1e-4, 1.0 - 1e-4);
      max_delta = std::max(max_delta, std::abs(mean - model.class_balance_));
      model.class_balance_ = mean;
    }
    if (max_delta < options.tolerance) break;
  }
  return model;
}

std::vector<ProbabilisticLabel> GenerativeLabelModel::Predict(
    const LabelMatrix& matrix) const {
  CM_CHECK(matrix.num_lfs() == num_lfs_)
      << "matrix LF arity does not match the fitted model";
  std::vector<double> log_theta(theta_.size());
  for (size_t k = 0; k < theta_.size(); ++k) log_theta[k] = std::log(theta_[k]);
  std::vector<ProbabilisticLabel> out(matrix.num_rows());
  for (size_t i = 0; i < matrix.num_rows(); ++i) {
    ProbabilisticLabel& label = out[i];
    label.entity = matrix.entity(i);
    label.covered = false;
    for (size_t j = 0; j < matrix.num_lfs(); ++j) {
      if (matrix.at(i, j) != Vote::kAbstain) {
        label.covered = true;
        break;
      }
    }
    if (!label.covered) {
      label.p_positive = class_balance_;
      continue;
    }
    double p = RowPosterior(matrix, i, log_theta, class_balance_);
    if (temperature_ != 1.0) {
      // Temper the log-odds relative to the prior (correlated-LF
      // double-counting correction; see GenerativeModelOptions).
      p = std::clamp(p, 1e-12, 1.0 - 1e-12);
      const double prior_logit =
          std::log(class_balance_ / (1.0 - class_balance_));
      const double logit = std::log(p / (1.0 - p));
      const double tempered =
          prior_logit + (logit - prior_logit) / temperature_;
      p = 1.0 / (1.0 + std::exp(-tempered));
    }
    label.p_positive = p;
  }
  return out;
}

std::vector<double> GenerativeLabelModel::accuracies() const {
  std::vector<double> out(num_lfs_);
  const double pi = class_balance_;
  for (size_t j = 0; j < num_lfs_; ++j) {
    // P(vote agrees with y | vote cast).
    const double agree = pi * theta_[j * 6 + 3 + 2] +        // y=1, v=+1
                         (1.0 - pi) * theta_[j * 6 + 0];     // y=0, v=-1
    const double vote = pi * (theta_[j * 6 + 3 + 0] + theta_[j * 6 + 3 + 2]) +
                        (1.0 - pi) * (theta_[j * 6 + 0] + theta_[j * 6 + 2]);
    out[j] = vote > 0.0 ? agree / vote : 0.5;
  }
  return out;
}

std::vector<double> GenerativeLabelModel::propensities() const {
  std::vector<double> out(num_lfs_);
  const double pi = class_balance_;
  for (size_t j = 0; j < num_lfs_; ++j) {
    out[j] = pi * (1.0 - theta_[j * 6 + 3 + 1]) +
             (1.0 - pi) * (1.0 - theta_[j * 6 + 1]);
  }
  return out;
}

}  // namespace crossmodal
