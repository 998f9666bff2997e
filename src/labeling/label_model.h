// Label models: combine LF votes into probabilistic labels (§4.1 step 3).
//
// GenerativeLabelModel is the Snorkel(-Drybell) conditionally-independent
// generative model: each LF j has a full class-conditional vote distribution
// theta_j[y][v] = P(lambda_j = v | y) for v in {-1, 0, +1}, learned with EM
// over the unlabeled votes together with (optionally) the class balance pi;
// the posterior P(y=1 | lambda row) is the probabilistic label. Modeling the
// abstain state per class is essential for one-sided LFs (e.g. mined
// positive-only rules under heavy class imbalance): for them, *voting at
// all* is the evidence, which a class-independent propensity cannot express.
// MajorityVote is the standard weak baseline.

#ifndef CROSSMODAL_LABELING_LABEL_MODEL_H_
#define CROSSMODAL_LABELING_LABEL_MODEL_H_

#include <optional>
#include <vector>

#include "labeling/label_matrix.h"
#include "util/result.h"

namespace crossmodal {

/// A probabilistic training label.
struct ProbabilisticLabel {
  EntityId entity = 0;
  double p_positive = 0.5;  ///< Posterior P(y = 1 | LF votes).
  bool covered = false;     ///< False when every LF abstained.
};

/// The decision threshold on tempered posteriors equivalent to 0.5 on the
/// untempered posterior: sigmoid(prior_logit * (1 - 1/T)). Use this when
/// computing hard P/R/F1 of tempered probabilistic labels.
double TemperedDecisionThreshold(double class_balance, double temperature);

/// Majority vote over non-abstaining LFs; uncovered rows fall back to the
/// provided class prior.
std::vector<ProbabilisticLabel> MajorityVote(const LabelMatrix& matrix,
                                             double class_prior);

/// Configuration of the EM fit.
struct GenerativeModelOptions {
  int max_iterations = 100;
  double tolerance = 1e-6;  ///< Stop when params move less than this.
  /// Strength of the Dirichlet prior anchoring the M-step at the
  /// better-than-random initialization, as a fraction of the dataset size.
  /// Under model misspecification (correlated LFs), unanchored EM can drift
  /// to label-inverting fixed points; the anchor is the EM analogue of
  /// Snorkel's "LFs beat random" constraint. 0 disables anchoring.
  double prior_anchor = 0.15;
  /// If set, the class balance pi is fixed (e.g. estimated from the dev
  /// set); otherwise it is learned by EM.
  std::optional<double> fixed_class_balance;
  double init_class_balance = 0.1;
  /// Tempering of the predicted posteriors: the log-odds relative to the
  /// class prior are divided by this. Mined LFs violate the conditional
  /// independence assumption (they fire on the same underlying risky
  /// values), so the untempered model double-counts evidence; T in [2, 4]
  /// is a standard correction and yields better-calibrated soft training
  /// labels. 1.0 = the exact independent-model posterior.
  double posterior_temperature = 1.0;
};

/// The fitted generative model.
class GenerativeLabelModel {
 public:
  /// Fits the model to a label matrix. Fails when the matrix has no LFs or
  /// no covered rows.
  [[nodiscard]] static Result<GenerativeLabelModel> Fit(
      const LabelMatrix& matrix,
      const GenerativeModelOptions& options = GenerativeModelOptions());

  /// Probabilistic labels for every row of `matrix` (which must have the
  /// same LF columns as the training matrix).
  std::vector<ProbabilisticLabel> Predict(const LabelMatrix& matrix) const;

  /// Learned P(lambda_j = v | y); vote v indexed as 0:-1, 1:abstain, 2:+1.
  double theta(size_t lf, int y, Vote v) const;

  /// Derived P(lambda_j agrees with y | lambda_j votes).
  std::vector<double> accuracies() const;
  /// Derived P(lambda_j != 0) under the learned class balance.
  std::vector<double> propensities() const;
  /// Learned (or fixed) P(y = 1).
  double class_balance() const { return class_balance_; }
  /// EM iterations actually run.
  int iterations() const { return iterations_; }

 private:
  /// theta_[j*6 + y*3 + v] with v in {0:-1, 1:abstain, 2:+1}.
  std::vector<double> theta_;
  size_t num_lfs_ = 0;
  double class_balance_ = 0.5;
  double temperature_ = 1.0;
  int iterations_ = 0;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_LABELING_LABEL_MODEL_H_
