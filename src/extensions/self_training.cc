#include "extensions/self_training.h"

#include <algorithm>
#include <unordered_map>

#include "util/logging.h"

namespace crossmodal {

namespace {

/// Training weight of pseudo-labeled points.
constexpr float kPseudoWeight = 0.5f;

}  // namespace

Result<SelfTrainingResult> RunSelfTraining(
    const FusionInput& base_input, const std::vector<EntityId>& candidates,
    const ModelSpec& spec, const SelfTrainingOptions& options) {
  if (base_input.points.empty()) {
    return Status::InvalidArgument("base training input is empty");
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate pool");
  }
  if (options.negative_threshold >= options.positive_threshold) {
    return Status::InvalidArgument(
        "negative threshold must lie below the positive threshold");
  }
  if (options.rounds <= 0) {
    return Status::InvalidArgument("rounds must be positive");
  }

  FusionInput input = base_input;
  std::unordered_map<EntityId, size_t> point_index;
  for (size_t i = 0; i < input.points.size(); ++i) {
    if (input.points[i].modality == Modality::kImage) {
      point_index.emplace(input.points[i].id, i);
    }
  }

  SelfTrainingResult result;
  CM_ASSIGN_OR_RETURN(result.model, TrainEarlyFusion(input, spec));

  for (int round = 0; round < options.rounds; ++round) {
    // Score the pool and collect confident predictions per polarity.
    std::vector<std::pair<double, EntityId>> positives, negatives;
    for (EntityId id : candidates) {
      auto row = input.store->Get(id);
      if (!row.ok()) continue;
      const double p = result.model->Score(**row);
      if (p >= options.positive_threshold) positives.emplace_back(p, id);
      if (p <= options.negative_threshold) negatives.emplace_back(-p, id);
    }
    auto adopt = [&](std::vector<std::pair<double, EntityId>>* pool,
                     float target) -> size_t {
      std::sort(pool->begin(), pool->end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      size_t cap = options.max_per_polarity == 0 ? pool->size()
                                                 : options.max_per_polarity;
      cap = std::min(cap, pool->size());
      for (size_t k = 0; k < cap; ++k) {
        const EntityId id = (*pool)[k].second;
        const TrainPoint pseudo{id, Modality::kImage, target, kPseudoWeight};
        auto it = point_index.find(id);
        if (it != point_index.end()) {
          input.points[it->second] = pseudo;
        } else {
          point_index.emplace(id, input.points.size());
          input.points.push_back(pseudo);
        }
      }
      return cap;
    };
    result.pseudo_positives += adopt(&positives, 1.0f);
    result.pseudo_negatives += adopt(&negatives, 0.0f);
    CM_ASSIGN_OR_RETURN(result.model, TrainEarlyFusion(input, spec));
  }
  return result;
}

}  // namespace crossmodal
