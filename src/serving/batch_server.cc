#include "serving/batch_server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <string>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/mutex.h"
#include "util/retry.h"
#include "util/thread_annotations.h"

namespace crossmodal {

namespace {

/// One queued request. The row is copied at submit time so the caller's
/// buffer may die before the batch flushes.
struct Request {
  EntityId entity = 0;
  FeatureVector row;
  std::promise<Result<ServedScore>> promise;
};

}  // namespace

/// One shard: a bounded queue drained by a single worker thread that
/// micro-batches into its own ModelServer. Scoring and fault probing happen
/// outside mu_; the lock covers only queue and counter state.
class ServingShard {
 public:
  ServingShard(size_t index, ModelServer server,
               const ShardedServingOptions& options,
               const ServingFaultHook* hook)
      : index_(index),
        options_(options),
        hook_(hook),
        server_(std::move(server)) {
    {
      MutexLock lock(&mu_);
      paused_ = options_.start_paused;
      batch_size_hist_.assign(options_.max_batch, 0);
    }
    // Started last so the worker never sees a half-built shard.
    worker_ = std::thread([this] { WorkerLoop(); });
  }

  ServingShard(const ServingShard&) = delete;
  ServingShard& operator=(const ServingShard&) = delete;

  ~ServingShard() {
    {
      MutexLock lock(&mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    worker_.join();
  }

  Ticket Enqueue(EntityId entity, const FeatureVector& row)
      CM_LOCKS_EXCLUDED(mu_) {
    std::promise<Result<ServedScore>> promise;
    Ticket ticket(entity, index_, promise.get_future());
    if (!TryEnqueue(entity, row, &promise)) {
      promise.set_value(Status::Unavailable(
          "shard " + std::to_string(index_) +
          " queue full; request shed"));
      return ticket;
    }
    work_cv_.notify_one();
    return ticket;
  }

  void Resume() CM_LOCKS_EXCLUDED(mu_) {
    {
      MutexLock lock(&mu_);
      paused_ = false;
    }
    work_cv_.notify_all();
  }

  ShardStats stats() const CM_LOCKS_EXCLUDED(mu_) {
    ShardStats stats;
    stats.shard = index_;
    {
      MutexLock lock(&mu_);
      stats.submitted = submitted_;
      stats.served = served_;
      stats.shed = shed_;
      stats.fault_shed = fault_shed_;
      stats.batches = batches_;
      stats.queue_high_water = queue_high_water_;
      stats.virtual_time_us = virtual_time_us_;
      stats.batch_size_hist = batch_size_hist_;
    }
    // Outside mu_: the ModelServer has its own stats lock and nesting the
    // two buys nothing.
    stats.latency = server_.latency();
    return stats;
  }

 private:
  /// Admission under the queue lock: moves `*promise` into the queue and
  /// returns true, or counts a shed and returns false with `*promise`
  /// intact so the caller can reply on it — the shed reply never touches a
  /// moved-from promise.
  bool TryEnqueue(EntityId entity, const FeatureVector& row,
                  std::promise<Result<ServedScore>>* promise)
      CM_LOCKS_EXCLUDED(mu_) {
    MutexLock lock(&mu_);
    ++submitted_;
    if (stopping_ || queue_.size() >= options_.queue_capacity) {
      ++shed_;
      return false;
    }
    Request request;
    request.entity = entity;
    request.row = row;
    request.promise = std::move(*promise);
    queue_.push_back(std::move(request));
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
    return true;
  }

  void WorkerLoop() CM_LOCKS_EXCLUDED(mu_) {
    for (;;) {
      std::vector<Request> batch;
      {
        MutexLock lock(&mu_);
        while (!stopping_ && (paused_ || queue_.empty())) work_cv_.wait(lock);
        if (queue_.empty()) return;  // stopping, fully drained
        if (options_.real_time_batching && options_.batch_window_us > 0 &&
            !stopping_) {
          // Wall-clock mode (benchmarks): give the window a chance to fill
          // the batch. cv wait releases mu_ while blocked.
          const auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::microseconds(options_.batch_window_us);
          while (!stopping_ && queue_.size() < options_.max_batch &&
                 work_cv_.wait_until(lock, deadline) !=
                     std::cv_status::timeout) {
          }
        }
        const size_t take = std::min(queue_.size(), options_.max_batch);
        batch.reserve(take);
        for (size_t i = 0; i < take; ++i) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
        ++batches_;
        ++batch_size_hist_[take - 1];
        // The batch window is accounted on the shard's virtual clock; in
        // virtual-time mode (the default) nothing ever sleeps.
        virtual_time_us_ += options_.batch_window_us;
      }
      ProcessBatch(std::move(batch));
    }
  }

  /// Probes + scores one flushed batch and resolves its promises in queue
  /// order. Runs entirely outside mu_ so enqueues never wait on scoring.
  void ProcessBatch(std::vector<Request> batch) CM_LOCKS_EXCLUDED(mu_) {
    std::vector<Status> verdicts;
    verdicts.reserve(batch.size());
    std::vector<const FeatureVector*> rows;
    rows.reserve(batch.size());
    for (const Request& request : batch) {
      Status verdict = ProbeWithRetries(request.entity);
      if (verdict.ok()) rows.push_back(&request.row);
      verdicts.push_back(std::move(verdict));
    }
    const std::vector<double> scores = server_.ScoreBatch(rows);
    CM_CHECK(scores.size() == rows.size());

    std::vector<uint64_t> sequences(batch.size(), 0);
    {
      MutexLock lock(&mu_);
      for (size_t i = 0; i < batch.size(); ++i) {
        if (verdicts[i].ok()) {
          sequences[i] = ++serve_seq_;
          ++served_;
        } else {
          ++fault_shed_;
        }
      }
    }
    size_t next_score = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (verdicts[i].ok()) {
        ServedScore served;
        served.score = scores[next_score++];
        served.shard = index_;
        served.sequence = sequences[i];
        batch[i].promise.set_value(served);
      } else {
        batch[i].promise.set_value(std::move(verdicts[i]));
      }
    }
  }

  /// Runs the serving fault hook with its retry budget; the backoff between
  /// attempts is accounted, never slept. Returns the final verdict.
  Status ProbeWithRetries(EntityId entity) const {
    if (hook_ == nullptr || !hook_->active()) return Status::OK();
    return RetryWithBackoff(
        hook_->retry().max_attempts,
        [&](int attempt) { return hook_->Probe(entity, attempt); },
        IsTransientFault,
        [&](int attempt) { hook_->AccountRetryBackoff(entity, attempt); });
  }

  const size_t index_;
  const ShardedServingOptions options_;
  const ServingFaultHook* hook_;  // owned by the ShardedServer; may be null
  ModelServer server_;            // internally synchronized
  mutable Mutex mu_{"serving_shard"};
  std::condition_variable_any work_cv_;
  std::deque<Request> queue_ CM_GUARDED_BY(mu_);
  bool stopping_ CM_GUARDED_BY(mu_) = false;
  bool paused_ CM_GUARDED_BY(mu_) = false;
  uint64_t submitted_ CM_GUARDED_BY(mu_) = 0;
  uint64_t served_ CM_GUARDED_BY(mu_) = 0;
  uint64_t shed_ CM_GUARDED_BY(mu_) = 0;
  uint64_t fault_shed_ CM_GUARDED_BY(mu_) = 0;
  uint64_t batches_ CM_GUARDED_BY(mu_) = 0;
  uint64_t serve_seq_ CM_GUARDED_BY(mu_) = 0;
  size_t queue_high_water_ CM_GUARDED_BY(mu_) = 0;
  uint64_t virtual_time_us_ CM_GUARDED_BY(mu_) = 0;
  std::vector<uint64_t> batch_size_hist_ CM_GUARDED_BY(mu_);
  std::thread worker_;  // declared (and started) last
};

// ---- ShardedServer ---------------------------------------------------------

Result<ShardedServer> ShardedServer::Create(
    std::shared_ptr<const CrossModalModel> model, const FeatureSchema* schema,
    std::vector<FeatureId> serving_features, ShardedServingOptions options,
    const FaultPlan& fault_plan) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("sharded server needs at least one shard");
  }
  if (options.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be >= 1");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  const FaultPlan::Entry* serving_entry =
      fault_plan.ExactEntry(kServingFaultService);
  if (serving_entry != nullptr) {
    const uint64_t down_after = serving_entry->fault.down_after;
    if (down_after != 0 && down_after != ServiceFaultConfig::kNeverDown) {
      return Status::InvalidArgument(
          "fault plan: mid-range down_after is order-sensitive and not "
          "allowed on the serving path (use 'down' or omit it)");
    }
  }

  CM_ASSIGN_OR_RETURN(
      ShardRouter router,
      ShardRouter::Create(options.num_shards, options.route_seed));
  ShardedServer server(std::move(router), options);
  server.fault_counters_ = std::make_unique<ServiceHealthCounters>();
  server.fault_hook_ = std::make_unique<ServingFaultHook>(
      ServingFaultHook::FromPlan(fault_plan, server.fault_counters_.get()));
  server.shards_.reserve(options.num_shards);
  for (size_t s = 0; s < options.num_shards; ++s) {
    CM_ASSIGN_OR_RETURN(
        ModelServer shard_server,
        ModelServer::Create(model, schema, serving_features));
    server.shards_.push_back(std::make_unique<ServingShard>(
        s, std::move(shard_server), options, server.fault_hook_.get()));
  }
  return server;
}

ShardedServer::ShardedServer(ShardRouter router, ShardedServingOptions options)
    : router_(std::move(router)), options_(options) {}

ShardedServer::~ShardedServer() = default;
ShardedServer::ShardedServer(ShardedServer&&) = default;
ShardedServer& ShardedServer::operator=(ShardedServer&&) = default;

Ticket ShardedServer::Submit(EntityId entity, const FeatureVector& row) {
  const size_t shard = router_.ShardOf(entity);
  CM_DCHECK_LT(shard, shards_.size());
  return shards_[shard]->Enqueue(entity, row);
}

Result<ServedScore> ShardedServer::Score(EntityId entity,
                                         const FeatureVector& row) {
  return Submit(entity, row).Wait();
}

std::vector<Result<ServedScore>> ShardedServer::ScoreAll(
    const std::vector<EntityId>& entities,
    const std::vector<const FeatureVector*>& rows) {
  CM_CHECK(entities.size() == rows.size());
  std::vector<Ticket> tickets;
  tickets.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    CM_CHECK(rows[i] != nullptr);
    tickets.push_back(Submit(entities[i], *rows[i]));
  }
  std::vector<Result<ServedScore>> results;
  results.reserve(tickets.size());
  for (Ticket& ticket : tickets) results.push_back(ticket.Wait());
  return results;
}

void ShardedServer::Resume() {
  for (auto& shard : shards_) shard->Resume();
}

ShardedStats ShardedServer::stats() const {
  ShardedStats stats;
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) stats.shards.push_back(shard->stats());
  return stats;
}

ServiceHealth ShardedServer::fault_health() const {
  return fault_counters_->Snapshot(kServingFaultService);
}

}  // namespace crossmodal
