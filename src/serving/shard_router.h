// ShardRouter: deterministic entity -> shard assignment for the serving
// tier.
//
// The paper's production deployment (§2.3) spreads user-facing traffic over
// many model replicas; which replica a user lands on must be stable so
// per-shard caches and feature stores stay warm. Routing here is a pure
// function of (route seed, entity id) via the repo's DeriveSeed chain, over
// a shard count fixed at creation, so nothing ever re-routes a live tier.

#ifndef CROSSMODAL_SERVING_SHARD_ROUTER_H_
#define CROSSMODAL_SERVING_SHARD_ROUTER_H_

#include <cstddef>
#include <cstdint>

#include "features/feature_vector.h"
#include "util/result.h"

namespace crossmodal {

/// Pure-function entity router over a fixed shard count.
class ShardRouter {
 public:
  /// `num_shards` must be >= 1.
  [[nodiscard]] static Result<ShardRouter> Create(size_t num_shards,
                                                  uint64_t route_seed);

  /// Shard owning `entity` — a pure function of (route seed, entity id);
  /// two routers with equal seed and shard count always agree.
  size_t ShardOf(EntityId entity) const;

  size_t num_shards() const { return num_shards_; }
  uint64_t route_seed() const { return route_seed_; }

 private:
  ShardRouter(size_t num_shards, uint64_t route_seed)
      : num_shards_(num_shards), route_seed_(route_seed) {}

  size_t num_shards_;
  uint64_t route_seed_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_SERVING_SHARD_ROUTER_H_
