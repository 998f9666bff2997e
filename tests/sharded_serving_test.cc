// ShardedServer equivalence suite: scores through the sharded
// micro-batching tier must be bit-identical to direct ModelServer scoring
// for every shard count x batch window, routing must be a pure function of
// (route seed, entity id), and queue/batch/shed accounting must add up.
// Runs under the tsan preset (see CMakePresets.json filter).

#include "serving/batch_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "serving/shard_router.h"
#include "util/check.h"
#include "util/random.h"

namespace crossmodal {
namespace {

constexpr size_t kFeatures = 4;

std::vector<FeatureId> AllFeatures() {
  std::vector<FeatureId> ids;
  for (size_t f = 0; f < kFeatures; ++f) {
    ids.push_back(static_cast<FeatureId>(f));
  }
  return ids;
}

/// Deterministic model over numeric slots — cheap enough that the suite
/// needs no pipeline training, nonlinear enough that row mix-ups change the
/// score.
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

/// Row contents are a pure function of (seed, entity id).
FeatureVector MakeRow(uint64_t seed, EntityId id) {
  Rng rng(DeriveSeed(seed, id));
  FeatureVector row(kFeatures);
  for (size_t f = 0; f < kFeatures; ++f) {
    if (rng.Bernoulli(0.85)) {
      row.Set(static_cast<FeatureId>(f),
              FeatureValue::Numeric(rng.Uniform(-2.0, 2.0)));
    }
  }
  return row;
}

struct Workload {
  std::vector<EntityId> ids;
  std::vector<FeatureVector> rows;
  std::vector<const FeatureVector*> row_ptrs;
};

Workload MakeWorkload(uint64_t seed, size_t n) {
  Workload load;
  Rng rng(DeriveSeed(seed, "ids"));
  for (size_t i = 0; i < n; ++i) {
    load.ids.push_back(rng.UniformInt(uint64_t{1} << 48));
    load.rows.push_back(MakeRow(seed, load.ids.back()));
  }
  for (const FeatureVector& row : load.rows) load.row_ptrs.push_back(&row);
  return load;
}

// ---- Equivalence across shard counts and batch windows ---------------------

class ShardedEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedEquivalence, BitIdenticalToDirectScoring) {
  const uint64_t seed = GetParam();
  const FeatureSchema schema = MakeSchema();
  const auto model = std::make_shared<const StubModel>();
  const Workload load = MakeWorkload(seed, 96);

  auto direct = ModelServer::Create(model, &schema, AllFeatures());
  ASSERT_TRUE(direct.ok()) << direct.status();
  const std::vector<double> reference = direct->ScoreBatch(load.row_ptrs);

  for (const size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    for (const uint64_t window_us : {uint64_t{0}, uint64_t{250}}) {
      ShardedServingOptions options;
      options.num_shards = shards;
      options.max_batch = 4;
      options.batch_window_us = window_us;
      options.queue_capacity = load.ids.size() + 8;
      options.route_seed = DeriveSeed(seed, "route");
      auto server =
          ShardedServer::Create(model, &schema, AllFeatures(), options);
      ASSERT_TRUE(server.ok()) << server.status();

      const auto results = server->ScoreAll(load.ids, load.row_ptrs);
      ASSERT_EQ(results.size(), reference.size());
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_TRUE(results[i].ok()) << results[i].status();
        // Bitwise equality, not almost-equal: the sharded path must invoke
        // exactly the same scoring computation.
        EXPECT_EQ(results[i]->score, reference[i])
            << "shards=" << shards << " window=" << window_us << " i=" << i;
        EXPECT_LT(results[i]->shard, shards);
      }
      const ShardedStats stats = server->stats();
      EXPECT_EQ(stats.submitted(), load.ids.size());
      EXPECT_EQ(stats.served(), load.ids.size());
      EXPECT_EQ(stats.shed(), 0u);
      EXPECT_EQ(stats.fault_shed(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedEquivalence,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---- Routing purity --------------------------------------------------------

TEST(ShardRouterTest, RoutingIsPureFunctionOfSeedAndEntity) {
  auto a = ShardRouter::Create(8, 1234);
  auto b = ShardRouter::Create(8, 1234);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(99);
  bool different_seed_diverges = false;
  auto c = ShardRouter::Create(8, 4321);
  ASSERT_TRUE(c.ok());
  for (int i = 0; i < 1000; ++i) {
    const EntityId id = rng.UniformInt(uint64_t{1} << 62);
    const size_t shard = a->ShardOf(id);
    EXPECT_LT(shard, 8u);
    EXPECT_EQ(shard, b->ShardOf(id));       // same seed: always agrees
    EXPECT_EQ(shard, a->ShardOf(id));       // stateless: repeat call agrees
    if (c->ShardOf(id) != shard) different_seed_diverges = true;
  }
  EXPECT_TRUE(different_seed_diverges);
  EXPECT_EQ(ShardRouter::Create(0, 1234).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardRouterTest, TicketShardMatchesRouter) {
  const FeatureSchema schema = MakeSchema();
  const auto model = std::make_shared<const StubModel>();
  ShardedServingOptions options;
  options.num_shards = 5;
  options.route_seed = 777;
  auto server = ShardedServer::Create(model, &schema, AllFeatures(), options);
  ASSERT_TRUE(server.ok());
  for (EntityId id : {uint64_t{1}, uint64_t{99}, uint64_t{123456789}}) {
    const FeatureVector row = MakeRow(3, id);
    Ticket ticket = server->Submit(id, row);
    EXPECT_EQ(ticket.entity(), id);
    EXPECT_EQ(ticket.shard(), server->router().ShardOf(id));
    auto result = ticket.Wait();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->shard, server->router().ShardOf(id));
  }
}

// ---- Backpressure + batching accounting ------------------------------------

TEST(ShardedServerTest, PausedServerShedsPastWatermark) {
  const FeatureSchema schema = MakeSchema();
  const auto model = std::make_shared<const StubModel>();
  ShardedServingOptions options;
  options.num_shards = 1;
  options.max_batch = 4;
  options.queue_capacity = 4;
  options.start_paused = true;  // deterministic queue occupancy
  auto server = ShardedServer::Create(model, &schema, AllFeatures(), options);
  ASSERT_TRUE(server.ok());

  std::vector<Ticket> tickets;
  for (EntityId id = 1; id <= 10; ++id) {
    tickets.push_back(server->Submit(id, MakeRow(5, id)));
  }
  {
    const ShardedStats stats = server->stats();
    EXPECT_EQ(stats.submitted(), 10u);
    EXPECT_EQ(stats.shed(), 6u);  // 4 queued (capacity), 6 shed
    EXPECT_EQ(stats.shards[0].queue_high_water, 4u);
  }
  server->Resume();
  size_t served = 0, shed = 0;
  for (Ticket& ticket : tickets) {
    auto result = ticket.Wait();
    if (result.ok()) {
      ++served;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(served, 4u);
  EXPECT_EQ(shed, 6u);
  const ShardedStats stats = server->stats();
  EXPECT_EQ(stats.served() + stats.shed(), stats.submitted());
}

TEST(ShardedServerTest, BatchHistogramAndVirtualClockAccountFlushes) {
  const FeatureSchema schema = MakeSchema();
  const auto model = std::make_shared<const StubModel>();
  ShardedServingOptions options;
  options.num_shards = 1;
  options.max_batch = 4;
  options.batch_window_us = 100;
  options.queue_capacity = 64;
  options.start_paused = true;  // all 10 requests queued before any flush
  auto server = ShardedServer::Create(model, &schema, AllFeatures(), options);
  ASSERT_TRUE(server.ok());

  std::vector<Ticket> tickets;
  for (EntityId id = 1; id <= 10; ++id) {
    tickets.push_back(server->Submit(id, MakeRow(6, id)));
  }
  server->Resume();
  for (Ticket& ticket : tickets) ASSERT_TRUE(ticket.Wait().ok());

  const ShardStats shard = server->stats().shards[0];
  EXPECT_EQ(shard.served, 10u);
  // 10 queued requests drain as 4 + 4 + 2 with max_batch=4.
  EXPECT_EQ(shard.batches, 3u);
  ASSERT_EQ(shard.batch_size_hist.size(), 4u);
  EXPECT_EQ(shard.batch_size_hist[3], 2u);
  EXPECT_EQ(shard.batch_size_hist[1], 1u);
  // Histogram mass equals requests served.
  uint64_t mass = 0;
  for (size_t b = 0; b < shard.batch_size_hist.size(); ++b) {
    mass += shard.batch_size_hist[b] * (b + 1);
  }
  EXPECT_EQ(mass, shard.served);
  // The batch window is accounted per flush on the virtual clock — the test
  // never slept for it.
  EXPECT_EQ(shard.virtual_time_us, 300u);
  // Per-shard latency flows through from the shard's ModelServer.
  EXPECT_EQ(shard.latency.count, 10u);
  EXPECT_EQ(shard.latency.p100_us, shard.latency.max_us);
}

TEST(ShardedServerTest, CreateValidatesOptionsAndFaultPlan) {
  const FeatureSchema schema = MakeSchema();
  const auto model = std::make_shared<const StubModel>();
  ShardedServingOptions zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_EQ(ShardedServer::Create(model, &schema, AllFeatures(), zero_shards)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ShardedServingOptions zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_EQ(ShardedServer::Create(model, &schema, AllFeatures(), zero_batch)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Mid-range down_after on the serving path is order-sensitive: rejected.
  auto plan = FaultPlan::Parse("serving:down_after=5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(ShardedServer::Create(model, &schema, AllFeatures(),
                                  ShardedServingOptions(), *plan)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedServerTest, CreateRefusesNonservableFeature) {
  // §6.4: nonservable resources may feed curation but never the served
  // model, and no option turns the check off on the sharded path.
  FeatureSchema schema = MakeSchema();
  FeatureDef risk;
  risk.name = "content_risk_score";
  risk.type = FeatureType::kNumeric;
  risk.servable = false;
  auto risk_id = schema.Add(risk);
  ASSERT_TRUE(risk_id.ok());
  std::vector<FeatureId> features = AllFeatures();
  features.push_back(*risk_id);
  auto server = ShardedServer::Create(std::make_shared<const StubModel>(),
                                      &schema, features);
  EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(server.status().message().find("content_risk_score"),
            std::string::npos);
}

}  // namespace
}  // namespace crossmodal
