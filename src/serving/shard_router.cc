#include "serving/shard_router.h"

#include "util/random.h"

namespace crossmodal {

Result<ShardRouter> ShardRouter::Create(size_t num_shards,
                                        uint64_t route_seed) {
  if (num_shards == 0) {
    return Status::InvalidArgument("shard router needs at least one shard");
  }
  return ShardRouter(num_shards, route_seed);
}

size_t ShardRouter::ShardOf(EntityId entity) const {
  // DeriveSeed is the repo's avalanche hash; reducing it mod the shard count
  // keeps assignment uniform and a pure function of (seed, entity).
  return static_cast<size_t>(DeriveSeed(route_seed_, entity) % num_shards_);
}

}  // namespace crossmodal
