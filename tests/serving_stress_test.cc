// ShardedServer stress suite: many client threads hammer a small bounded
// queue and we prove the accounting is airtight — every request resolves
// exactly once, no response is lost or cross-wired to another entity, the
// client-observed shed count matches ShardedStats exactly, and per-shard
// serve sequences are a permutation of 1..served. Runs under the tsan
// preset (see CMakePresets.json filter) so the same traffic doubles as a
// data-race / lockdep check.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "serving/batch_server.h"
#include "util/check.h"
#include "util/random.h"

namespace crossmodal {
namespace {

constexpr size_t kFeatures = 3;

std::vector<FeatureId> AllFeatures() {
  std::vector<FeatureId> ids;
  for (size_t f = 0; f < kFeatures; ++f) {
    ids.push_back(static_cast<FeatureId>(f));
  }
  return ids;
}

/// Score depends on every populated slot, so a row swapped between two
/// requests changes the answer — cross-wiring cannot pass unnoticed.
class StubModel : public CrossModalModel {
 public:
  double Score(const FeatureVector& row) const override {
    double acc = 0.0;
    for (size_t f = 0; f < row.size(); ++f) {
      const FeatureValue& v = row.Get(static_cast<FeatureId>(f));
      if (!v.is_missing() && v.type() == FeatureType::kNumeric) {
        acc += v.numeric() * static_cast<double>(f + 1);
      }
    }
    return 0.5 + 0.5 * std::sin(acc);
  }
  std::vector<FeatureId> input_features() const override {
    return AllFeatures();
  }
  const char* method_name() const override { return "stub"; }
};

FeatureSchema MakeSchema() {
  FeatureSchema schema;
  for (size_t f = 0; f < kFeatures; ++f) {
    FeatureDef def;
    def.name = "num_" + std::to_string(f);
    def.type = FeatureType::kNumeric;
    CM_CHECK(schema.Add(def).ok());
  }
  return schema;
}

FeatureVector MakeRow(EntityId id) {
  Rng rng(DeriveSeed(77, id));
  FeatureVector row(kFeatures);
  for (size_t f = 0; f < kFeatures; ++f) {
    row.Set(static_cast<FeatureId>(f),
            FeatureValue::Numeric(rng.Uniform(-2.0, 2.0)));
  }
  return row;
}

TEST(ServingStressTest, ConcurrentClientsAgainstBoundedQueue) {
  const FeatureSchema schema = MakeSchema();
  const auto model = std::make_shared<const StubModel>();
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 400;
  constexpr size_t kTotal = kClients * kPerClient;

  ShardedServingOptions options;
  options.num_shards = 3;
  options.max_batch = 8;
  // Small enough that admission control actually engages under 8 clients.
  options.queue_capacity = 32;
  options.route_seed = 4242;
  auto server = ShardedServer::Create(model, &schema, AllFeatures(), options);
  ASSERT_TRUE(server.ok()) << server.status();

  // Precompute expected scores so client threads only compare.
  auto direct = ModelServer::Create(model, &schema, AllFeatures());
  ASSERT_TRUE(direct.ok());
  std::vector<double> expected(kTotal);
  for (size_t i = 0; i < kTotal; ++i) {
    expected[i] = direct->Score(MakeRow(static_cast<EntityId>(i + 1)));
  }

  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> wrong_score{0};
  std::atomic<uint64_t> wrong_status{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Each client pipelines a burst, then waits — bursts keep queues full.
      std::vector<Ticket> inflight;
      std::vector<size_t> indices;
      for (size_t r = 0; r < kPerClient; ++r) {
        const size_t i = c * kPerClient + r;
        const EntityId id = static_cast<EntityId>(i + 1);
        inflight.push_back(server->Submit(id, MakeRow(id)));
        indices.push_back(i);
        if (inflight.size() == 16 || r + 1 == kPerClient) {
          for (size_t k = 0; k < inflight.size(); ++k) {
            auto result = inflight[k].Wait();
            if (result.ok()) {
              served.fetch_add(1, std::memory_order_relaxed);
              if (result->score != expected[indices[k]]) {
                wrong_score.fetch_add(1, std::memory_order_relaxed);
              }
            } else if (result.status().code() == StatusCode::kUnavailable) {
              shed.fetch_add(1, std::memory_order_relaxed);
            } else {
              wrong_status.fetch_add(1, std::memory_order_relaxed);
            }
          }
          inflight.clear();
          indices.clear();
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Nothing lost, nothing duplicated, nothing cross-wired.
  EXPECT_EQ(served.load() + shed.load(), kTotal);
  EXPECT_EQ(wrong_score.load(), 0u);
  EXPECT_EQ(wrong_status.load(), 0u);

  // Client-side tallies must match the server's own books exactly.
  const ShardedStats stats = server->stats();
  EXPECT_EQ(stats.submitted(), kTotal);
  EXPECT_EQ(stats.served(), served.load());
  EXPECT_EQ(stats.shed(), shed.load());
  EXPECT_EQ(stats.fault_shed(), 0u);
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.served + shard.shed, shard.submitted);
    EXPECT_LE(shard.queue_high_water, options.queue_capacity);
    EXPECT_EQ(shard.latency.count, shard.served);
    uint64_t mass = 0;
    for (size_t b = 0; b < shard.batch_size_hist.size(); ++b) {
      mass += shard.batch_size_hist[b] * (b + 1);
    }
    EXPECT_EQ(mass, shard.served);
  }
}

TEST(ServingStressTest, PerShardSequencesArePermutations) {
  const FeatureSchema schema = MakeSchema();
  const auto model = std::make_shared<const StubModel>();
  ShardedServingOptions options;
  options.num_shards = 4;
  options.max_batch = 8;
  options.queue_capacity = 4096;  // roomy: every request is served
  options.route_seed = 99;
  auto server = ShardedServer::Create(model, &schema, AllFeatures(), options);
  ASSERT_TRUE(server.ok());

  constexpr size_t kClients = 6;
  constexpr size_t kPerClient = 200;
  std::vector<std::vector<ServedScore>> per_client(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kPerClient; ++r) {
        const EntityId id = static_cast<EntityId>(c * kPerClient + r + 1);
        auto result = server->Score(id, MakeRow(id));
        ASSERT_TRUE(result.ok()) << result.status();
        per_client[c].push_back(*result);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Across all clients, each shard handed out sequence numbers
  // 1..served(shard) exactly once.
  const ShardedStats stats = server->stats();
  std::vector<std::set<uint64_t>> seen(options.num_shards);
  for (const auto& results : per_client) {
    for (const ServedScore& s : results) {
      ASSERT_LT(s.shard, options.num_shards);
      EXPECT_TRUE(seen[s.shard].insert(s.sequence).second)
          << "duplicate sequence " << s.sequence << " on shard " << s.shard;
    }
  }
  for (size_t shard = 0; shard < options.num_shards; ++shard) {
    ASSERT_EQ(seen[shard].size(), stats.shards[shard].served);
    if (!seen[shard].empty()) {
      EXPECT_EQ(*seen[shard].begin(), 1u);
      EXPECT_EQ(*seen[shard].rbegin(), stats.shards[shard].served);
    }
  }
}

TEST(ServingStressTest, DestructorDrainsQueuedRequests) {
  const FeatureSchema schema = MakeSchema();
  const auto model = std::make_shared<const StubModel>();
  ShardedServingOptions options;
  options.num_shards = 2;
  options.max_batch = 4;
  options.queue_capacity = 128;
  options.start_paused = true;  // requests stay queued until destruction
  std::vector<Ticket> tickets;
  {
    auto server =
        ShardedServer::Create(model, &schema, AllFeatures(), options);
    ASSERT_TRUE(server.ok());
    for (EntityId id = 1; id <= 40; ++id) {
      tickets.push_back(server->Submit(id, MakeRow(id)));
    }
    // Server destroyed here with every request still queued (paused).
  }
  // Every ticket must still resolve — the worker drains on shutdown.
  size_t resolved = 0;
  for (Ticket& ticket : tickets) {
    auto result = ticket.Wait();
    ASSERT_TRUE(result.ok()) << result.status();
    ++resolved;
  }
  EXPECT_EQ(resolved, 40u);
}

}  // namespace
}  // namespace crossmodal
