// Deterministic parallel execution: ParallelConfig + fixed-slice helpers.
//
// The pipeline's hot paths (feature generation, kNN-graph construction,
// label propagation) parallelize over *slices* whose boundaries depend only
// on the problem size — never on the thread count; model training
// parallelizes at coarser grain, one slice per ensemble member
// (ml/trainer.cc). Each slice owns its outputs (or a private partial
// accumulator), and cross-slice reductions are combined serially in slice
// order afterwards.
// Because the arithmetic structure is fixed, every ParallelConfig —
// including num_threads = 1, which runs the slices inline without a pool —
// produces bit-identical artifacts; threads only change the schedule.
// cmaudit and tests/parallel_equivalence_test.cc enforce this mechanically.

#ifndef CROSSMODAL_UTIL_PARALLEL_H_
#define CROSSMODAL_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <utility>

#include "util/thread_pool.h"

namespace crossmodal {

/// How many worker threads a stage may use. The default (1) runs serially
/// with no pool at all; every value yields bit-identical stage artifacts.
struct ParallelConfig {
  size_t num_threads = 1;

  bool enabled() const { return num_threads > 1; }
};

/// [begin, end) of slice `s` when `n` items are cut into `num_slices`
/// near-equal contiguous slices. Depends only on (n, num_slices, s), so a
/// per-slice reduction combined in slice order is independent of the thread
/// count. Slices beyond the item count are empty (begin == end).
inline std::pair<size_t, size_t> SliceBounds(size_t n, size_t num_slices,
                                             size_t s) {
  const size_t base = n / num_slices;
  const size_t rem = n % num_slices;
  const size_t begin = s * base + std::min(s, rem);
  return {begin, begin + base + (s < rem ? 1 : 0)};
}

/// Runs `fn(slice, begin, end)` for every slice of [0, n). With a pool the
/// slices run concurrently (fn must only write slice-owned state); without
/// one they run inline in slice order. Exceptions propagate per
/// ThreadPool::ParallelFor semantics.
inline void ForEachSlice(ThreadPool* pool, size_t n, size_t num_slices,
                         const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0 || num_slices == 0) return;
  if (pool == nullptr) {
    for (size_t s = 0; s < num_slices; ++s) {
      const auto [begin, end] = SliceBounds(n, num_slices, s);
      if (begin < end) fn(s, begin, end);
    }
    return;
  }
  pool->ParallelFor(num_slices, [n, num_slices, &fn](size_t s) {
    const auto [begin, end] = SliceBounds(n, num_slices, s);
    if (begin < end) fn(s, begin, end);
  });
}

/// Lazily materializes a ThreadPool only when the config enables
/// parallelism; get() returns nullptr otherwise (ForEachSlice then runs
/// inline). Stage entry points construct one per call, so a serial config
/// never pays thread-spawn cost.
class StagePool {
 public:
  explicit StagePool(const ParallelConfig& config) {
    if (config.enabled()) pool_.emplace(config.num_threads);
  }

  ThreadPool* get() { return pool_.has_value() ? &*pool_ : nullptr; }

 private:
  std::optional<ThreadPool> pool_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_UTIL_PARALLEL_H_
