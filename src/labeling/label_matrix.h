// LabelMatrix: the n x m matrix of LF votes Snorkel's generative model fits.

#ifndef CROSSMODAL_LABELING_LABEL_MATRIX_H_
#define CROSSMODAL_LABELING_LABEL_MATRIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "features/feature_vector.h"
#include "labeling/labeling_function.h"
#include "util/check.h"

namespace crossmodal {

/// Dense matrix of votes: rows are data points, columns are LFs.
class LabelMatrix {
 public:
  LabelMatrix() = default;

  /// `entity_ids[i]` identifies row i; `lf_names[j]` labels column j.
  LabelMatrix(std::vector<EntityId> entity_ids,
              std::vector<std::string> lf_names);

  size_t num_rows() const { return entity_ids_.size(); }
  size_t num_lfs() const { return lf_names_.size(); }

  // at/set sit inside per-(row, lf) inner loops of EM and of every
  // coverage/conflict statistic, so they are inline and their bounds checks
  // are debug-only (active under the sanitizer presets, compiled out under
  // Release/NDEBUG).
  Vote at(size_t row, size_t lf) const {
    CM_DCHECK_LT(row, num_rows());
    CM_DCHECK_LT(lf, num_lfs());
    return static_cast<Vote>(votes_[row * num_lfs() + lf]);
  }
  void set(size_t row, size_t lf, Vote v) {
    CM_DCHECK_LT(row, num_rows());
    CM_DCHECK_LT(lf, num_lfs());
    votes_[row * num_lfs() + lf] = static_cast<int8_t>(v);
  }

  EntityId entity(size_t row) const { return entity_ids_[row]; }
  const std::string& lf_name(size_t lf) const { return lf_names_[lf]; }
  const std::vector<EntityId>& entity_ids() const { return entity_ids_; }

  /// Fraction of rows where LF `lf` does not abstain.
  double Coverage(size_t lf) const;

  /// Fraction of rows where at least one LF votes.
  double TotalCoverage() const;

  /// Fraction of rows where LF `lf` votes and at least one other LF votes.
  double Overlap(size_t lf) const;

  /// Fraction of rows where LF `lf` votes and some other LF votes the
  /// opposite polarity.
  double Conflict(size_t lf) const;

 private:
  std::vector<EntityId> entity_ids_;
  std::vector<std::string> lf_names_;
  std::vector<int8_t> votes_;  // row-major n x m
};

/// Applies `lfs` to every listed entity's feature row, producing the label
/// matrix. Entities missing from the store get all-abstain rows.
LabelMatrix ApplyLabelingFunctions(
    const std::vector<const LabelingFunction*>& lfs,
    const std::vector<EntityId>& entities, const FeatureStore& store);

/// Convenience overload over owned LFs.
LabelMatrix ApplyLabelingFunctions(const std::vector<LabelingFunctionPtr>& lfs,
                                   const std::vector<EntityId>& entities,
                                   const FeatureStore& store);

}  // namespace crossmodal

#endif  // CROSSMODAL_LABELING_LABEL_MATRIX_H_
