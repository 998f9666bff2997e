#include "serve_loop.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "serving/model_server.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

using namespace crossmodal;

namespace {

/// One sent request on its way to the waiter.
struct InFlight {
  Ticket ticket;
  int64_t due_ns;
  int64_t submit_ns;
};

/// The generator spins, instead of sleeping, for the last 2 ms before a
/// request is due.
constexpr int64_t kSpinNs = 2'000'000;

/// Backlog slack: the requests due in 2 ms at the rung's rate (at least two
/// full batches per shard), so a stall of the host shorter than that does
/// not count as a growing backlog.
constexpr double kBacklogSlackS = 0.002;

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  return NearestRankPercentile(*values, q);
}

}  // namespace

Result<ServeTarget> MakeServeTarget(
    const FeatureStore* store, std::shared_ptr<const CrossModalModel> model,
    std::vector<FeatureId> serving_features, std::vector<EntityId> ids) {
  ServeTarget target;
  target.store = store;
  target.model = std::move(model);
  target.serving_features = std::move(serving_features);
  target.ids = std::move(ids);
  std::vector<const FeatureVector*> rows;
  rows.reserve(target.ids.size());
  for (EntityId id : target.ids) {
    CM_ASSIGN_OR_RETURN(const FeatureVector* row, store->Get(id));
    rows.push_back(row);
  }
  CM_ASSIGN_OR_RETURN(ModelServer direct,
                      ModelServer::Create(target.model, &store->schema(),
                                          target.serving_features));
  const std::vector<double> scores = direct.ScoreBatch(rows);
  for (size_t i = 0; i < target.ids.size(); ++i) {
    target.expected.emplace(target.ids[i], scores[i]);
  }
  return target;
}

Result<std::unique_ptr<OpenLoop>> OpenLoop::Create(const ServeTarget* target,
                                                   uint64_t seed) {
  ShardedServingOptions options;
  options.num_shards = kShards;
  options.max_batch = kMaxBatch;
  options.batch_window_us = kBatchWindowUs;
  options.queue_capacity = kQueueCapacity;
  options.real_time_batching = true;
  CM_ASSIGN_OR_RETURN(
      ShardedServer server,
      ShardedServer::Create(target->model, &target->store->schema(),
                            target->serving_features, options));
  return std::unique_ptr<OpenLoop>(new OpenLoop(
      target, seed, std::make_unique<ShardedServer>(std::move(server))));
}

RungResult OpenLoop::Send(double rate, double seconds, RungSamples* samples) {
  const size_t total =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));
  const double interval_ns = 1e9 / rate;
  Rng rng(DeriveSeed(stream_seed_, rungs_sent_++));

  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> queue;
  bool done_sending = false;
  std::atomic<size_t> resolved{0};

  RungResult result;
  result.offered_rps = rate;
  result.sent = total;
  RungSamples local;
  RungSamples& out = samples != nullptr ? *samples : local;
  out.latency_us.reserve(out.latency_us.size() + total);
  out.tier_us.reserve(out.tier_us.size() + total);
  int64_t last_resolved_ns = 0;

  // The ticket waiter: resolves tickets in send order and checks every
  // served score against direct scoring, bit for bit.
  std::thread waiter([&] {
    for (;;) {
      std::optional<InFlight> request;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || done_sending; });
        if (queue.empty()) return;
        request.emplace(std::move(queue.front()));
        queue.pop_front();
      }
      const EntityId entity = request->ticket.entity();
      Result<ServedScore> served = request->ticket.Wait();
      last_resolved_ns = NowNs();
      if (served.ok()) {
        const auto want = target_->expected.find(entity);
        if (want != target_->expected.end() &&
            std::bit_cast<uint64_t>(served->score) ==
                std::bit_cast<uint64_t>(want->second)) {
          ++result.served;
          out.latency_us.push_back(
              static_cast<double>(last_resolved_ns - request->due_ns) / 1e3);
          out.tier_us.push_back(
              static_cast<double>(last_resolved_ns - request->submit_ns) / 1e3);
        } else {
          ++result.failed;
        }
      } else if (served.status().code() == StatusCode::kUnavailable) {
        ++result.shed;
      } else {
        ++result.failed;
      }
      resolved.fetch_add(1, std::memory_order_release);
    }
  });

  // The generator: this thread sends each request when it is due.
  std::vector<double> late_us;
  late_us.reserve(total);
  double quarter_sum[4] = {0, 0, 0, 0};
  double quarter_n[4] = {0, 0, 0, 0};
  const int64_t t0 = NowNs() + 1'000'000;
  for (size_t i = 0; i < total; ++i) {
    const int64_t due =
        t0 + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    // Sleep only through long gaps and spin through short ones: a thread
    // that sleeps for microseconds can take milliseconds to be scheduled
    // again on a busy virtual machine, which would make the generator, not
    // the server, late.
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (due - now > kSpinNs) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due - now - kSpinNs));
      } else {
        std::this_thread::yield();
      }
    }
    const int64_t send_ns = NowNs();
    late_us.push_back(static_cast<double>(send_ns - due) / 1e3);
    const EntityId id = target_->ids[rng.UniformInt(target_->ids.size())];
    const FeatureVector* row = *target_->store->Get(id);
    Ticket ticket = server_->Submit(id, *row);
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(InFlight{std::move(ticket), due, send_ns});
    }
    cv.notify_one();
    const size_t quarter = std::min<size_t>(3, i * 4 / total);
    quarter_sum[quarter] += static_cast<double>(
        i + 1 - resolved.load(std::memory_order_acquire));
    quarter_n[quarter] += 1.0;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
  }
  cv.notify_one();
  waiter.join();

  const double span_s =
      static_cast<double>(std::max(last_resolved_ns, t0 + 1) - t0) / 1e9;
  result.achieved_rps = static_cast<double>(result.served) / span_s;
  std::vector<double> latencies(out.latency_us.end() - result.served,
                                out.latency_us.end());
  result.tail_q = std::min(0.99, TailQuantile(latencies.size()));
  result.tail_us = Quantile(&latencies, result.tail_q);
  result.p50_us = Quantile(&latencies, 0.5);
  result.p90_us = Quantile(&latencies, 0.9);
  result.gen_late_p99_us = Quantile(&late_us, 0.99);
  auto mean = [&](int q) {
    return quarter_n[q] > 0 ? quarter_sum[q] / quarter_n[q] : 0.0;
  };
  result.backlog_grew =
      BacklogGrew(mean(1), mean(3),
                  std::max(2.0 * kShards * kMaxBatch, rate * kBacklogSlackS));
  return result;
}

std::vector<RungResult> ClimbLadder(OpenLoop* loop, double step_seconds,
                                    int start_rung, int stride) {
  return ClimbLadder(
      [&](int k) {
        const double rate = LadderRate(k);
        // At least 1100 requests, so p99 has 10 samples beyond it.
        return loop->Send(rate, std::max(step_seconds, 1100.0 / rate));
      },
      start_rung, stride, kP99LimitUs);
}

}  // namespace perfbench
