#include "labeling/label_matrix.h"

namespace crossmodal {

LabelMatrix::LabelMatrix(std::vector<EntityId> entity_ids,
                         std::vector<std::string> lf_names)
    : entity_ids_(std::move(entity_ids)), lf_names_(std::move(lf_names)) {
  votes_.assign(entity_ids_.size() * lf_names_.size(),
                static_cast<int8_t>(Vote::kAbstain));
}

double LabelMatrix::Coverage(size_t lf) const {
  if (num_rows() == 0) return 0.0;
  size_t covered = 0;
  for (size_t i = 0; i < num_rows(); ++i) {
    if (at(i, lf) != Vote::kAbstain) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(num_rows());
}

double LabelMatrix::TotalCoverage() const {
  if (num_rows() == 0) return 0.0;
  size_t covered = 0;
  for (size_t i = 0; i < num_rows(); ++i) {
    for (size_t j = 0; j < num_lfs(); ++j) {
      if (at(i, j) != Vote::kAbstain) {
        ++covered;
        break;
      }
    }
  }
  return static_cast<double>(covered) / static_cast<double>(num_rows());
}

double LabelMatrix::Overlap(size_t lf) const {
  if (num_rows() == 0) return 0.0;
  size_t overlapped = 0;
  for (size_t i = 0; i < num_rows(); ++i) {
    if (at(i, lf) == Vote::kAbstain) continue;
    for (size_t j = 0; j < num_lfs(); ++j) {
      if (j != lf && at(i, j) != Vote::kAbstain) {
        ++overlapped;
        break;
      }
    }
  }
  return static_cast<double>(overlapped) / static_cast<double>(num_rows());
}

double LabelMatrix::Conflict(size_t lf) const {
  if (num_rows() == 0) return 0.0;
  size_t conflicted = 0;
  for (size_t i = 0; i < num_rows(); ++i) {
    const Vote v = at(i, lf);
    if (v == Vote::kAbstain) continue;
    for (size_t j = 0; j < num_lfs(); ++j) {
      const Vote w = at(i, j);
      if (j != lf && w != Vote::kAbstain && w != v) {
        ++conflicted;
        break;
      }
    }
  }
  return static_cast<double>(conflicted) / static_cast<double>(num_rows());
}

LabelMatrix ApplyLabelingFunctions(
    const std::vector<const LabelingFunction*>& lfs,
    const std::vector<EntityId>& entities, const FeatureStore& store) {
  std::vector<std::string> names;
  names.reserve(lfs.size());
  for (const auto* lf : lfs) names.push_back(lf->name());
  LabelMatrix matrix(entities, std::move(names));
  const FeatureVector empty_row(store.schema().size());
  for (size_t i = 0; i < entities.size(); ++i) {
    auto row = store.Get(entities[i]);
    const FeatureVector& features = row.ok() ? **row : empty_row;
    for (size_t j = 0; j < lfs.size(); ++j) {
      matrix.set(i, j, lfs[j]->Apply(entities[i], features));
    }
  }
  return matrix;
}

LabelMatrix ApplyLabelingFunctions(const std::vector<LabelingFunctionPtr>& lfs,
                                   const std::vector<EntityId>& entities,
                                   const FeatureStore& store) {
  std::vector<const LabelingFunction*> raw;
  raw.reserve(lfs.size());
  for (const auto& lf : lfs) raw.push_back(lf.get());
  return ApplyLabelingFunctions(raw, entities, store);
}

}  // namespace crossmodal
