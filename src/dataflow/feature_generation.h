// Feature-generation job: pipeline step A, an embarrassingly parallel map of
// every entity through the registry (util/parallel.h slices).

#ifndef CROSSMODAL_DATAFLOW_FEATURE_GENERATION_H_
#define CROSSMODAL_DATAFLOW_FEATURE_GENERATION_H_

#include <vector>

#include "features/feature_vector.h"
#include "resources/registry.h"
#include "synth/entity.h"
#include "util/thread_pool.h"

namespace crossmodal {

// Kept only so the frozen perfbench/ harness still compiles; it goes with
// the next change to the benchmark.
using MapReduceExecutor = ThreadPool;

/// Volume/degradation telemetry for one or more feature-generation jobs.
/// Deterministic: every field is a sum over (entity, feature) slots, so it
/// is independent of scheduling.
struct FeatureGenStats {
  size_t rows = 0;  ///< Entities materialized.
  /// Populated slots per feature, index-aligned with the schema. A row's
  /// slot can be empty because the service does not apply to the entity's
  /// modality, abstained, or was degraded to missing by the fault layer
  /// (see resources/fault_injection.h) — the registry health counters
  /// distinguish those cases.
  std::vector<size_t> populated;
};

/// Applies every service in `registry` to every entity (in parallel on
/// `pool`, inline when it is null) and materializes the rows into `store`
/// in input order. A service that fails past its retry budget leaves a
/// missing slot — generation itself never aborts. `stats`, when non-null,
/// accumulates row/slot telemetry.
void GenerateFeatures(const std::vector<Entity>& entities,
                      const ResourceRegistry& registry, ThreadPool* pool,
                      FeatureStore* store, FeatureGenStats* stats = nullptr);

/// Serial convenience overload (no pool).
void GenerateFeatures(const std::vector<Entity>& entities,
                      const ResourceRegistry& registry, FeatureStore* store,
                      FeatureGenStats* stats = nullptr);

}  // namespace crossmodal

#endif  // CROSSMODAL_DATAFLOW_FEATURE_GENERATION_H_
