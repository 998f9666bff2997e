// Multi-class weak supervision (§4.1: "Snorkel supports both binary and
// multi-class classification tasks; ... we evaluate on binary ... but can
// easily extend to multi-class"). This module is that extension: LFs vote a
// class id or abstain, and a conditionally-independent generative model
// with full class-conditional vote tables is fit by EM, mirroring the
// binary GenerativeLabelModel.

#ifndef CROSSMODAL_LABELING_MULTICLASS_H_
#define CROSSMODAL_LABELING_MULTICLASS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "features/feature_vector.h"
#include "util/result.h"

namespace crossmodal {

/// A multi-class LF vote: kAbstainClass or a class id in [0, num_classes).
inline constexpr int32_t kAbstainClass = -1;

/// A labeling function voting one of K classes or abstaining.
class MulticlassLF {
 public:
  using Fn = std::function<int32_t(EntityId, const FeatureVector&)>;

  MulticlassLF(std::string name, Fn fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  const std::string& name() const { return name_; }
  int32_t Apply(EntityId id, const FeatureVector& row) const {
    return fn_(id, row);
  }

  /// LF voting `category_to_class(c)` when categorical feature `feature`
  /// contains category c mapped by the table (class id per category;
  /// kAbstainClass entries never vote). First matching category wins.
  static MulticlassLF FromCategoryMap(std::string name, FeatureId feature,
                                      std::vector<int32_t> category_to_class);

 private:
  std::string name_;
  Fn fn_;
};

/// Dense n x m matrix of multi-class votes.
class MulticlassLabelMatrix {
 public:
  MulticlassLabelMatrix(std::vector<EntityId> entities,
                        std::vector<std::string> lf_names,
                        int32_t num_classes);

  size_t num_rows() const { return entities_.size(); }
  size_t num_lfs() const { return lf_names_.size(); }
  int32_t num_classes() const { return num_classes_; }

  int32_t at(size_t row, size_t lf) const;
  void set(size_t row, size_t lf, int32_t vote);

  EntityId entity(size_t row) const { return entities_[row]; }
  const std::string& lf_name(size_t lf) const { return lf_names_[lf]; }

  /// Fraction of rows where LF `lf` votes.
  double Coverage(size_t lf) const;

 private:
  std::vector<EntityId> entities_;
  std::vector<std::string> lf_names_;
  int32_t num_classes_;
  std::vector<int32_t> votes_;
};

/// Applies multi-class LFs over a store.
MulticlassLabelMatrix ApplyMulticlassLFs(
    const std::vector<MulticlassLF>& lfs,
    const std::vector<EntityId>& entities, const FeatureStore& store,
    int32_t num_classes);

/// A probabilistic multi-class label: a distribution over classes.
struct MulticlassLabel {
  EntityId entity = 0;
  std::vector<double> p;  ///< Size num_classes, sums to 1.
  bool covered = false;

  /// Argmax class.
  int32_t Top() const;
};

/// EM options. Unlike the binary model, whose initial precision and
/// smoothing are constants, both are fields here.
struct MulticlassModelOptions {
  int max_iterations = 100;
  double tolerance = 1e-6;
  double init_precision = 0.8;
  double smoothing = 0.2;
  double prior_anchor = 0.15;
  /// Fixed class prior (size num_classes); uniform when empty.
  std::vector<double> class_balance;
};

/// The fitted multi-class generative model.
class MulticlassLabelModel {
 public:
  /// Fits theta_j[y][v] = P(lf j votes v | true class y) by anchored EM.
  [[nodiscard]] static Result<MulticlassLabelModel> Fit(
      const MulticlassLabelMatrix& matrix,
      const MulticlassModelOptions& options = MulticlassModelOptions());

  /// Posterior class distributions for every row.
  std::vector<MulticlassLabel> Predict(
      const MulticlassLabelMatrix& matrix) const;

  /// Derived P(lf agrees with y | lf votes).
  std::vector<double> accuracies() const;

  int32_t num_classes() const { return num_classes_; }
  int iterations() const { return iterations_; }

 private:
  /// theta_[ (j * K + y) * (K + 1) + (v + 1) ], v = -1 .. K-1.
  std::vector<double> theta_;
  std::vector<double> prior_;
  size_t num_lfs_ = 0;
  int32_t num_classes_ = 0;
  int iterations_ = 0;

  double Theta(size_t j, int32_t y, int32_t v) const;
  std::vector<double> RowPosterior(const MulticlassLabelMatrix& matrix,
                                   size_t row) const;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_LABELING_MULTICLASS_H_
