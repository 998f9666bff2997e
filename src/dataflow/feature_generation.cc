#include "dataflow/feature_generation.h"

#include <utility>

#include "util/parallel.h"

namespace crossmodal {

void GenerateFeatures(const std::vector<Entity>& entities,
                      const ResourceRegistry& registry, ThreadPool* pool,
                      FeatureStore* store, FeatureGenStats* stats) {
  // Each slice writes only its own rows; the store is filled serially below.
  constexpr size_t kSlices = 32;
  std::vector<FeatureVector> rows(entities.size());
  ForEachSlice(pool, entities.size(), kSlices,
               [&rows, &entities, &registry](size_t, size_t begin, size_t end) {
                 for (size_t i = begin; i < end; ++i) {
                   rows[i] = registry.GenerateFeatures(entities[i]);
                 }
               });
  if (stats != nullptr && stats->populated.empty()) {
    stats->populated.assign(registry.schema().size(), 0);
  }
  for (size_t i = 0; i < entities.size(); ++i) {
    if (stats != nullptr) {
      ++stats->rows;
      for (size_t f = 0; f < rows[i].size(); ++f) {
        if (!rows[i].Get(static_cast<FeatureId>(f)).is_missing()) {
          ++stats->populated[f];
        }
      }
    }
    store->Put(entities[i].id, std::move(rows[i]));
  }
}

void GenerateFeatures(const std::vector<Entity>& entities,
                      const ResourceRegistry& registry, FeatureStore* store,
                      FeatureGenStats* stats) {
  GenerateFeatures(entities, registry, nullptr, store, stats);
}

}  // namespace crossmodal
