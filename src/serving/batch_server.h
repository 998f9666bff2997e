// ShardedServer: the micro-batching, load-shedding serving tier over N
// ModelServer shards (§2.3's "millions of users" deployment setting).
//
// Request path:
//
//   Submit(entity, row)
//     └─ ShardRouter::ShardOf(entity)          pure fn of (seed, entity)
//         └─ shard's bounded MPMC queue        shed kUnavailable once it
//            │                                 holds queue_capacity
//            └─ shard worker thread            flush on max_batch or
//               │                              batch_window_us (virtual
//               │                              clock by default: the window
//               │                              is accounted, never slept)
//               ├─ ServingFaultHook probes     retries per the plan's
//               │                              policy, then sheds
//               └─ ModelServer::ScoreBatch     per-request latency stats
//
// Determinism contract: a request's score is exactly
// ModelServer::Score(row) — bit-identical regardless of shard count, batch
// boundaries, or thread interleaving — and with a fault plan installed,
// *which* requests fail is a pure function of (plan seed, entity, attempt).
// Only queue-shape statistics (batch histogram, high-water, shed counts
// under contention) are schedule-dependent. cmaudit exercises the sharded
// path against direct scoring, with and without faults.
//
// Callers see shed load as Status kUnavailable, the same code the PR-4
// retry layer treats as retryable, so upstream retry/backoff composes with
// admission control unchanged.

#ifndef CROSSMODAL_SERVING_BATCH_SERVER_H_
#define CROSSMODAL_SERVING_BATCH_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"
#include "fusion/fusion.h"
#include "resources/fault_injection.h"
#include "serving/model_server.h"
#include "serving/shard_router.h"
#include "util/result.h"

namespace crossmodal {

/// Serving-tier configuration.
struct ShardedServingOptions {
  /// Number of ModelServer shards (>= 1), each with its own queue + worker.
  size_t num_shards = 4;
  /// A worker flushes a batch when this many requests are waiting (>= 1).
  size_t max_batch = 16;
  /// Batch window: with real_time_batching the worker waits up to this long
  /// for max_batch to fill; by default the window is only *accounted* into
  /// the shard's virtual clock so tests never sleep.
  uint64_t batch_window_us = 200;
  /// Per-shard queue depth (>= 1): admission control sheds arrivals once
  /// the queue holds this many requests.
  size_t queue_capacity = 1024;
  /// Wait out batch_window_us on the wall clock instead of the virtual one.
  /// Benchmarks only — keep off in tests.
  bool real_time_batching = false;
  /// Start with workers paused so tests can fill queues deterministically;
  /// Resume() starts draining. Arrivals past queue_capacity still shed.
  bool start_paused = false;
  /// Seed of the entity -> shard hash (see ShardRouter).
  uint64_t route_seed = 0x5EED;
};

/// A served request: the score plus where/when it was served.
struct ServedScore {
  double score = 0.0;
  /// Shard that served the request.
  size_t shard = 0;
  /// 1-based position in that shard's serve order (monotonic per shard;
  /// per-client submission order to one shard is preserved).
  uint64_t sequence = 0;
};

/// Handle to one in-flight request. Every submitted request resolves —
/// served, shed (kUnavailable), or failed by the fault hook — even when the
/// server shuts down with requests still queued.
class Ticket {
 public:
  Ticket(Ticket&&) = default;
  Ticket& operator=(Ticket&&) = default;

  /// Blocks until the request resolves; consumes the ticket.
  [[nodiscard]] Result<ServedScore> Wait() { return future_.get(); }

  EntityId entity() const { return entity_; }
  /// Shard the request was routed to.
  size_t shard() const { return shard_; }

 private:
  friend class ShardedServer;
  friend class ServingShard;
  Ticket(EntityId entity, size_t shard,
         std::future<Result<ServedScore>> future)
      : entity_(entity), shard_(shard), future_(std::move(future)) {}

  EntityId entity_;
  size_t shard_;
  std::future<Result<ServedScore>> future_;
};

/// Point-in-time statistics of one shard.
struct ShardStats {
  size_t shard = 0;
  /// Requests routed here (served + shed + fault_shed + still queued).
  uint64_t submitted = 0;
  /// Requests answered with a score.
  uint64_t served = 0;
  /// Requests shed by admission control (kUnavailable at enqueue).
  uint64_t shed = 0;
  /// Requests shed after the fault hook exhausted its retry budget.
  uint64_t fault_shed = 0;
  /// Batches flushed.
  uint64_t batches = 0;
  /// Deepest the queue has been.
  size_t queue_high_water = 0;
  /// Virtual clock: batch_window_us accounted per flush, never slept.
  uint64_t virtual_time_us = 0;
  /// batch_size_hist[b] = flushes of size b + 1 (length max_batch).
  std::vector<uint64_t> batch_size_hist;
  /// Per-shard request latency (from the shard's ModelServer).
  LatencyStats latency;
};

/// Snapshot across every shard plus tier-level totals.
struct ShardedStats {
  std::vector<ShardStats> shards;

  uint64_t submitted() const { return Sum(&ShardStats::submitted); }
  uint64_t served() const { return Sum(&ShardStats::served); }
  uint64_t shed() const { return Sum(&ShardStats::shed); }
  uint64_t fault_shed() const { return Sum(&ShardStats::fault_shed); }
  uint64_t batches() const { return Sum(&ShardStats::batches); }

 private:
  uint64_t Sum(uint64_t ShardStats::* field) const {
    uint64_t total = 0;
    for (const ShardStats& s : shards) total += s.*field;
    return total;
  }
};

class ServingShard;  // one queue + worker + ModelServer (see .cc)

/// The sharded serving tier. Thread-safe: any number of client threads may
/// Submit/Score concurrently; each shard drains its queue on one worker.
class ShardedServer {
 public:
  /// Builds num_shards ModelServers over one shared immutable model.
  /// `fault_plan` may carry a `serving:` entry (see kServingFaultService);
  /// a mid-range down_after on that entry is rejected as order-sensitive.
  /// `schema` must outlive the server; the model is shared.
  [[nodiscard]] static Result<ShardedServer> Create(
      std::shared_ptr<const CrossModalModel> model,
      const FeatureSchema* schema, std::vector<FeatureId> serving_features,
      ShardedServingOptions options = ShardedServingOptions(),
      const FaultPlan& fault_plan = FaultPlan());

  ~ShardedServer();
  ShardedServer(ShardedServer&&);
  ShardedServer& operator=(ShardedServer&&);

  /// Routes and enqueues one request (the row is copied). Never blocks on a
  /// full queue: past queue_capacity the ticket resolves kUnavailable.
  Ticket Submit(EntityId entity, const FeatureVector& row);

  /// Submit + Wait.
  [[nodiscard]] Result<ServedScore> Score(EntityId entity,
                                          const FeatureVector& row);

  /// Pipelines a whole workload: submits everything, then waits, so batches
  /// actually fill. rows[i] is served for entity `entities[i]`; results are
  /// in input order. The two spans must have equal length.
  std::vector<Result<ServedScore>> ScoreAll(
      const std::vector<EntityId>& entities,
      const std::vector<const FeatureVector*>& rows);

  /// Starts draining when options.start_paused was set (no-op otherwise).
  void Resume();

  /// Per-shard + total statistics.
  ShardedStats stats() const;

  /// Health counters of the serving fault hook (all zero when the plan has
  /// no serving entry).
  ServiceHealth fault_health() const;

  const ShardRouter& router() const { return router_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  ShardedServer(ShardRouter router, ShardedServingOptions options);

  ShardRouter router_;
  ShardedServingOptions options_;
  // Heap-allocated so shards' back-pointers survive moves of the server.
  std::unique_ptr<ServiceHealthCounters> fault_counters_;
  std::unique_ptr<ServingFaultHook> fault_hook_;
  std::vector<std::unique_ptr<ServingShard>> shards_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_SERVING_BATCH_SERVER_H_
