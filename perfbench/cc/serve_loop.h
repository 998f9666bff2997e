// Serving side of the benchmark: an open-loop load generator over
// FeatureStore::Get -> ShardedServer::Submit, and the rate ladder that finds
// serve_max_rps.
//
// Threads: the calling thread is the generator, one ticket waiter thread
// resolves tickets in send order, and the server runs kShards shard
// workers, so the whole loop uses kShards + 2 = 3 of the host's 4 cores.
// One shard keeps the shard worker the single bottleneck with a core to
// spare; with two, all four cores are busy at saturation and the highest
// sustainable rate moved by +-15% between runs on a 4-core host.
//
// The generator sends request i when it is due (t0 + i / rate) whether or
// not earlier requests have resolved; latency runs from when a request was
// due until the waiter sees its ticket resolve, so a stall also charges
// the requests queued behind it. The waiter waits on tickets in send order;
// one shard serves them in that order too, so it sees each as it resolves.

#ifndef PERFBENCH_SERVE_LOOP_H_
#define PERFBENCH_SERVE_LOOP_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "features/feature_vector.h"
#include "fusion/fusion.h"
#include "rules.h"
#include "serving/batch_server.h"
#include "util/result.h"

namespace perfbench {

inline constexpr size_t kShards = 1;
inline constexpr size_t kMaxBatch = 16;
inline constexpr uint64_t kBatchWindowUs = 0;
inline constexpr size_t kQueueCapacity = 1024;
/// The latency limit of the ladder rule, on p99.
inline constexpr double kP99LimitUs = 10000.0;
/// The fixed rate serve_p50_us is measured at.
inline constexpr double kReferenceRps = 10000.0;
/// The highest ladder rung at or below kReferenceRps (LadderRate(27) =
/// 9627/s), where the first ladder climb starts.
inline constexpr int kReferenceRung = 27;

/// What is served: rows of new-modality entities from a store, scored by a
/// fitted model, with the score direct ModelServer scoring gives each.
struct ServeTarget {
  const crossmodal::FeatureStore* store = nullptr;
  std::shared_ptr<const crossmodal::CrossModalModel> model;
  std::vector<crossmodal::FeatureId> serving_features;
  std::vector<crossmodal::EntityId> ids;
  std::unordered_map<crossmodal::EntityId, double> expected;
};

/// Scores every id once through ModelServer::ScoreBatch to record the
/// expected scores. Fails when an id has no row in `store`.
[[nodiscard]] crossmodal::Result<ServeTarget> MakeServeTarget(
    const crossmodal::FeatureStore* store,
    std::shared_ptr<const crossmodal::CrossModalModel> model,
    std::vector<crossmodal::FeatureId> serving_features,
    std::vector<crossmodal::EntityId> ids);

/// Everything one rung measured, beyond its RungResult.
struct RungSamples {
  std::vector<double> latency_us;  ///< Due -> resolved, served requests.
  std::vector<double> tier_us;     ///< Submit -> resolved, served requests.
};

/// One ShardedServer driven open-loop. The server lives as long as the
/// loop, so its stats cover every rung sent.
class OpenLoop {
 public:
  /// `target` must outlive the loop. Entity ids are drawn uniformly from
  /// target.ids with a stream seeded by `seed`.
  [[nodiscard]] static crossmodal::Result<std::unique_ptr<OpenLoop>> Create(
      const ServeTarget* target, uint64_t seed);

  /// Sends `rate` requests per second for `seconds`, waits until every
  /// ticket resolved, and reports. `samples`, when non-null, receives the
  /// per-request latencies.
  RungResult Send(double rate, double seconds, RungSamples* samples = nullptr);

  crossmodal::ShardedServer& server() { return *server_; }

 private:
  OpenLoop(const ServeTarget* target, uint64_t seed,
           std::unique_ptr<crossmodal::ShardedServer> server)
      : target_(target), stream_seed_(seed), server_(std::move(server)) {}

  const ServeTarget* target_;
  uint64_t stream_seed_;
  uint64_t rungs_sent_ = 0;
  std::unique_ptr<crossmodal::ShardedServer> server_;
};

/// One climb of the fixed ladder (rules.h ClimbLadder) against kP99LimitUs,
/// each rung sent for `step_seconds`. Returns every rung sent, in order.
std::vector<RungResult> ClimbLadder(OpenLoop* loop, double step_seconds,
                                    int start_rung, int stride);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOOP_H_
