// Fault-injection layer tests: FaultPlan parsing, the deterministic fault
// schedule, retry/backoff accounting, graceful degradation through the
// registry, the end-to-end contract that the pipeline completes (LFs
// abstain, coverage drops, no crash) with services permanently down, and
// the serving-path hook (reserved `serving:` target): retries-then-shed
// through ShardedServer with bit-identical surviving scores.

#include "resources/fault_injection.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "audit/determinism.h"
#include "core/pipeline.h"
#include "dataflow/feature_generation.h"
#include "io/columnar.h"
#include "io/file_io.h"
#include "resources/registry.h"
#include "serving/batch_server.h"
#include "synth/corpus_generator.h"
#include "util/check.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace crossmodal {
namespace {

/// Minimal deterministic upstream: numeric feature, never abstains.
class StubService : public FeatureService {
 public:
  explicit StubService(std::string name) {
    def_.name = std::move(name);
    def_.type = FeatureType::kNumeric;
  }
  const FeatureDef& output_def() const override { return def_; }
  ResourceKind kind() const override {
    return ResourceKind::kRuleBasedService;
  }
  FeatureValue Apply(const Entity& entity) const override {
    return FeatureValue::Numeric(static_cast<double>(entity.id) * 0.5);
  }

 private:
  FeatureDef def_;
};

Entity MakeEntity(EntityId id) {
  Entity e;
  e.id = id;
  e.modality = Modality::kImage;
  return e;
}

// ---- FaultPlan parsing -----------------------------------------------------

TEST(FaultPlanTest, EmptySpecYieldsEmptyPlan) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty());
  EXPECT_TRUE(plan->IsScheduleDeterministic());
}

TEST(FaultPlanTest, ParsesDirectives) {
  auto plan = FaultPlan::Parse(
      "seed=42; *:transient=0.1,attempts=4; "
      "topic_primary:down; kg_entities:timeout=0.3,latency_us=250");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->seed, 42u);
  ASSERT_EQ(plan->entries.size(), 3u);
  EXPECT_EQ(plan->entries[0].service, "*");
  EXPECT_DOUBLE_EQ(plan->entries[0].fault.transient_rate, 0.1);
  EXPECT_EQ(plan->entries[0].retry.max_attempts, 4);
  EXPECT_EQ(plan->entries[1].fault.down_after, 0u);
  EXPECT_DOUBLE_EQ(plan->entries[2].fault.timeout_rate, 0.3);
  EXPECT_EQ(plan->entries[2].fault.latency_us, 250u);
  EXPECT_TRUE(plan->IsScheduleDeterministic());
}

TEST(FaultPlanTest, LastMatchingEntryWins) {
  auto plan =
      FaultPlan::Parse("*:transient=0.1; topic_primary:transient=0.9");
  ASSERT_TRUE(plan.ok());
  const FaultPlan::Entry* e = plan->FindEntry("topic_primary");
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(e->fault.transient_rate, 0.9);
  const FaultPlan::Entry* other = plan->FindEntry("kg_entities");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->fault.transient_rate, 0.1);
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("garbage").ok());
  EXPECT_FALSE(FaultPlan::Parse("svc:transient=abc").ok());
  EXPECT_FALSE(FaultPlan::Parse("svc:transient=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("svc:transient=-0.1").ok());
  EXPECT_FALSE(FaultPlan::Parse("svc:transient=nan").ok());
  EXPECT_FALSE(FaultPlan::Parse("svc:bogus_key=1").ok());
  EXPECT_FALSE(FaultPlan::Parse("svc:attempts=0").ok());
  EXPECT_FALSE(FaultPlan::Parse(":down").ok());
  EXPECT_FALSE(FaultPlan::Parse("seed=notanumber").ok());
}

TEST(FaultPlanTest, MidRangeDownAfterIsNotScheduleDeterministic) {
  auto plan = FaultPlan::Parse("svc:down_after=10");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->IsScheduleDeterministic());
  // Hard down and rate-based faults are safe under any parallelism.
  EXPECT_TRUE(FaultPlan::Parse("svc:down")->IsScheduleDeterministic());
  EXPECT_TRUE(
      FaultPlan::Parse("svc:transient=0.5")->IsScheduleDeterministic());
}

// ---- FaultInjectingService -------------------------------------------------

TEST(FaultInjectingServiceTest, FaultScheduleIsAPureFunctionOfSeeds) {
  auto make = [](uint64_t seed) {
    ServiceFaultConfig config;
    config.transient_rate = 0.5;
    return FaultInjectingService(std::make_unique<StubService>("svc"), config,
                                 seed);
  };
  const FaultInjectingService a = make(123), b = make(123), c = make(456);
  size_t diverged_from_c = 0;
  for (EntityId id = 1; id <= 200; ++id) {
    const Entity e = MakeEntity(id);
    for (int attempt = 0; attempt < 3; ++attempt) {
      const bool ok_a = a.Call(e, attempt).ok();
      // Same seed, same (entity, attempt) → identical decision, and the
      // decision is stable on repeated evaluation (no hidden state).
      EXPECT_EQ(ok_a, b.Call(e, attempt).ok());
      EXPECT_EQ(ok_a, a.Call(e, attempt).ok());
      if (ok_a != c.Call(e, attempt).ok()) ++diverged_from_c;
    }
  }
  // A different fault seed is a genuinely different schedule.
  EXPECT_GT(diverged_from_c, 0u);
}

TEST(FaultInjectingServiceTest, AttemptsDrawIndependentFaults) {
  ServiceFaultConfig config;
  config.transient_rate = 0.5;
  FaultInjectingService svc(std::make_unique<StubService>("svc"), config,
                            /*fault_seed=*/99);
  bool saw_fail_then_ok = false;
  for (EntityId id = 1; id <= 200 && !saw_fail_then_ok; ++id) {
    const Entity e = MakeEntity(id);
    saw_fail_then_ok = !svc.Call(e, 0).ok() && svc.Call(e, 1).ok();
  }
  EXPECT_TRUE(saw_fail_then_ok);
}

TEST(FaultInjectingServiceTest, HardDownFailsEveryCallWithoutRngDraws) {
  ServiceFaultConfig config;
  config.down_after = 0;
  ServiceHealthCounters counters;
  FaultInjectingService svc(std::make_unique<StubService>("svc"), config,
                            /*fault_seed=*/1, &counters);
  for (EntityId id = 1; id <= 5; ++id) {
    auto v = svc.Call(MakeEntity(id), 0);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(counters.permanent_failures.load(), 5u);
  EXPECT_EQ(counters.successes.load(), 0u);
  // Apply() degrades to a missing value instead of propagating the error.
  EXPECT_TRUE(svc.Apply(MakeEntity(1)).is_missing());
}

TEST(FaultInjectingServiceTest, MidRangeDownAfterCountsSerialArrivals) {
  ServiceFaultConfig config;
  config.down_after = 2;
  FaultInjectingService svc(std::make_unique<StubService>("svc"), config,
                            /*fault_seed=*/1);
  // Serial semantics: the first two requests get through, then the outage.
  EXPECT_TRUE(svc.Call(MakeEntity(1), 0).ok());
  EXPECT_TRUE(svc.Call(MakeEntity(2), 0).ok());
  EXPECT_FALSE(svc.Call(MakeEntity(3), 0).ok());
  EXPECT_FALSE(svc.Call(MakeEntity(4), 0).ok());
}

TEST(FaultInjectingServiceTest, SimulatedLatencyAccumulates) {
  ServiceFaultConfig config;
  config.latency_us = 150;
  ServiceHealthCounters counters;
  FaultInjectingService svc(std::make_unique<StubService>("svc"), config,
                            /*fault_seed=*/1, &counters);
  for (EntityId id = 1; id <= 4; ++id) {
    EXPECT_TRUE(svc.Call(MakeEntity(id), 0).ok());
  }
  EXPECT_EQ(counters.simulated_latency_us.load(), 600u);
}

// ---- RetryingService -------------------------------------------------------

TEST(RetryingServiceTest, RecoversFromTransientFaults) {
  ServiceFaultConfig config;
  config.transient_rate = 0.5;
  ServiceHealthCounters counters;
  auto faulty = std::make_unique<FaultInjectingService>(
      std::make_unique<StubService>("svc"), config, /*fault_seed=*/7,
      &counters);
  RetryPolicy policy;
  policy.max_attempts = 6;
  RetryingService svc(std::move(faulty), policy, /*fault_seed=*/7, &counters);
  size_t successes = 0;
  for (EntityId id = 1; id <= 100; ++id) {
    if (svc.Call(MakeEntity(id), 0).ok()) ++successes;
  }
  // P(all 6 attempts fail) ~ 1.6%; nearly every request must recover, and
  // with rate 0.5 some first attempts must have failed.
  EXPECT_GE(successes, 90u);
  EXPECT_GT(counters.retries.load(), 0u);
  EXPECT_GT(counters.backoff_us.load(), 0u);
}

TEST(RetryingServiceTest, ExhaustedBudgetReturnsLastTransientError) {
  ServiceFaultConfig config;
  config.transient_rate = 1.0;
  ServiceHealthCounters counters;
  auto faulty = std::make_unique<FaultInjectingService>(
      std::make_unique<StubService>("svc"), config, /*fault_seed=*/7,
      &counters);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_us = 1000;
  policy.max_backoff_us = 4000;
  RetryingService svc(std::move(faulty), policy, /*fault_seed=*/7, &counters);
  auto v = svc.Call(MakeEntity(1), 0);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(counters.attempts.load(), 3u);
  EXPECT_EQ(counters.retries.load(), 2u);
  // Each backoff is jittered into [capped/2, capped]; two retries of at
  // most max_backoff_us each.
  EXPECT_GE(counters.backoff_us.load(), (1000u / 2) + (2000u / 2));
  EXPECT_LE(counters.backoff_us.load(), 1000u + 2000u);
  EXPECT_TRUE(svc.Apply(MakeEntity(1)).is_missing());
}

TEST(RetryingServiceTest, PermanentOutageIsNotRetried) {
  ServiceFaultConfig config;
  config.down_after = 0;
  ServiceHealthCounters counters;
  auto faulty = std::make_unique<FaultInjectingService>(
      std::make_unique<StubService>("svc"), config, /*fault_seed=*/7,
      &counters);
  RetryingService svc(std::move(faulty), RetryPolicy{}, /*fault_seed=*/7,
                      &counters);
  auto v = svc.Call(MakeEntity(1), 0);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(counters.attempts.load(), 1u);
  EXPECT_EQ(counters.retries.load(), 0u);
}

TEST(RetryingServiceTest, BackoffTotalsAreDeterministic) {
  auto run = [] {
    ServiceFaultConfig config;
    config.transient_rate = 1.0;
    auto counters = std::make_unique<ServiceHealthCounters>();
    auto faulty = std::make_unique<FaultInjectingService>(
        std::make_unique<StubService>("svc"), config, /*fault_seed=*/11,
        counters.get());
    RetryPolicy policy;
    policy.max_attempts = 4;
    RetryingService svc(std::move(faulty), policy, /*fault_seed=*/11,
                        counters.get());
    for (EntityId id = 1; id <= 50; ++id) {
      (void)svc.Call(MakeEntity(id), 0).ok();
    }
    return counters->Snapshot("svc");
  };
  const ServiceHealth a = run(), b = run();
  EXPECT_EQ(a.backoff_us, b.backoff_us);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_GT(a.backoff_us, 0u);
}

TEST(RetryBackoffTest, PlanBackoffSaturatesInsteadOfWrapping) {
  // backoff_us = 2^40: before the shared draw saturated, retry 24 computed
  // 2^40 << 24 = 2^64, which wrapped to a backoff of 0.
  auto plan = FaultPlan::Parse(
      "serving:backoff_us=1099511627776,attempts=26;"
      "io:backoff_us=1099511627776,attempts=26");
  ASSERT_TRUE(plan.ok());
  const ServingFaultHook hook = ServingFaultHook::FromPlan(*plan, nullptr);
  const IoFaultInjector io(IoFaultConfigFromPlan(*plan));
  for (int retry = 0; retry < 25; ++retry) {
    // Every retry backs off the capped 25-50 ms.
    const uint64_t serving = hook.AccountRetryBackoff(7, retry);
    EXPECT_GE(serving, 25000u) << "retry " << retry;
    EXPECT_LE(serving, 50000u) << "retry " << retry;
    const uint64_t artifact = io.AccountRetryBackoff("store.cmc", retry);
    EXPECT_GE(artifact, 25000u) << "retry " << retry;
    EXPECT_LE(artifact, 50000u) << "retry " << retry;
  }
}

// ---- Registry integration --------------------------------------------------

class FaultyRegistryTest : public ::testing::Test {
 protected:
  FaultyRegistryTest()
      : generator_(world_, TaskSpec::CT(1).Scaled(0.05)),
        corpus_(generator_.Generate()) {}

  ResourceRegistry MakeRegistry() {
    auto registry = BuildModerationRegistry(generator_, /*seed=*/7);
    CM_CHECK(registry.ok());
    return std::move(registry).value();
  }

  WorldConfig world_;
  CorpusGenerator generator_;
  Corpus corpus_;
};

TEST_F(FaultyRegistryTest, InstallRejectsUnknownServiceAndDoubleInstall) {
  ResourceRegistry registry = MakeRegistry();
  auto bad = FaultPlan::Parse("no_such_service:down");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(registry.InstallFaultLayer(*bad).code(), StatusCode::kNotFound);

  auto plan = FaultPlan::Parse("topic_primary:down");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(registry.InstallFaultLayer(*plan).ok());
  EXPECT_TRUE(registry.fault_layer_installed());
  EXPECT_EQ(registry.InstallFaultLayer(*plan).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FaultyRegistryTest, WrappingPreservesSchemaAndDegradesDownedSlots) {
  ResourceRegistry registry = MakeRegistry();
  const size_t n_before = registry.schema().size();
  auto plan = FaultPlan::Parse("topic_primary:down");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(registry.InstallFaultLayer(*plan).ok());
  EXPECT_EQ(registry.schema().size(), n_before);

  auto downed = registry.schema().Find("topic_primary");
  ASSERT_TRUE(downed.ok());
  for (size_t i = 0; i < 20; ++i) {
    const FeatureVector row =
        registry.GenerateFeatures(corpus_.image_unlabeled[i]);
    EXPECT_TRUE(row.Get(*downed).is_missing());
  }
  const std::vector<ServiceHealth> health = registry.HealthSnapshot();
  ASSERT_EQ(health.size(), registry.size());
  const ServiceHealth& h = health[static_cast<size_t>(*downed)];
  EXPECT_EQ(h.service, "topic_primary");
  EXPECT_TRUE(h.degraded());
  EXPECT_EQ(h.degraded_misses, 20u);
  // Healthy neighbors stay healthy.
  size_t degraded_services = 0;
  for (const ServiceHealth& s : health) degraded_services += s.degraded();
  EXPECT_EQ(degraded_services, 1u);
}

TEST_F(FaultyRegistryTest, FaultyFeatureRowsAreScheduleIndependent) {
  // Parallel dataflow generation vs a serial loop, and two independent
  // registries with the same plan: all three produce bit-identical rows.
  auto plan =
      FaultPlan::Parse("seed=77; *:transient=0.2,attempts=2; sentiment:down");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->IsScheduleDeterministic());

  std::vector<Entity> entities(corpus_.image_unlabeled.begin(),
                               corpus_.image_unlabeled.begin() + 200);
  std::vector<EntityId> order;
  for (const Entity& e : entities) order.push_back(e.id);

  ThreadPool pool(4);
  auto hash_parallel = [&](ResourceRegistry& registry) {
    FeatureStore store(&registry.schema());
    GenerateFeatures(entities, registry, &pool, &store);
    return DeterminismHarness::HashFeatureRows(store, order);
  };

  ResourceRegistry r1 = MakeRegistry(), r2 = MakeRegistry(),
                   r3 = MakeRegistry();
  ASSERT_TRUE(r1.InstallFaultLayer(*plan).ok());
  ASSERT_TRUE(r2.InstallFaultLayer(*plan).ok());
  ASSERT_TRUE(r3.InstallFaultLayer(*plan).ok());

  const uint64_t parallel_a = hash_parallel(r1);
  const uint64_t parallel_b = hash_parallel(r2);
  EXPECT_EQ(parallel_a, parallel_b);

  FeatureStore serial_store(&r3.schema());
  for (const Entity& e : entities) {
    serial_store.Put(e.id, r3.GenerateFeatures(e));
  }
  EXPECT_EQ(parallel_a,
            DeterminismHarness::HashFeatureRows(serial_store, order));

  // Health totals are sums of per-entity contributions → identical too.
  const auto ha = r1.HealthSnapshot(), hb = r2.HealthSnapshot(),
             hc = r3.HealthSnapshot();
  for (size_t i = 0; i < ha.size(); ++i) {
    EXPECT_EQ(ha[i].transient_failures, hb[i].transient_failures) << i;
    EXPECT_EQ(ha[i].transient_failures, hc[i].transient_failures) << i;
    EXPECT_EQ(ha[i].degraded_misses, hc[i].degraded_misses) << i;
    EXPECT_EQ(ha[i].retries, hc[i].retries) << i;
  }
}

// ---- End-to-end degradation ------------------------------------------------

TEST_F(FaultyRegistryTest, PipelineCompletesWithServicesPermanentlyDown) {
  PipelineConfig config;
  config.seed = 0x5EED;
  config.model.hidden = {8};
  config.model.train.epochs = 3;
  config.curation.dev_sample = 600;
  config.curation.graph_seed_sample = 300;
  config.curation.graph_tune_sample = 120;

  auto run = [&](const std::string& plan_spec) {
    ResourceRegistry registry = MakeRegistry();
    if (!plan_spec.empty()) {
      auto plan = FaultPlan::Parse(plan_spec);
      CM_CHECK(plan.ok());
      CM_CHECK_OK(registry.InstallFaultLayer(*plan));
    }
    CrossModalPipeline pipeline(&registry, &corpus_, config);
    auto result = pipeline.Run();
    CM_CHECK(result.ok()) << result.status();
    return std::move(*result);
  };

  const PipelineResult healthy = run("");
  EXPECT_EQ(healthy.report.services_degraded, 0u);
  EXPECT_EQ(healthy.report.feature_degraded_fraction, 0.0);
  EXPECT_EQ(healthy.report.service_health.size(), 18u);
  EXPECT_GT(healthy.report.rows_generated, 0u);

  // Three model-based services hard down: the pipeline must degrade —
  // missing slots, abstaining LFs, lower coverage — and still train.
  const PipelineResult degraded =
      run("topic_primary:down; content_category:down; keyword_topics:down");
  ASSERT_NE(degraded.model, nullptr);
  EXPECT_FALSE(degraded.curation.weak_labels.empty());
  EXPECT_EQ(degraded.report.services_degraded, 3u);
  EXPECT_GT(degraded.report.feature_degraded_fraction, 0.0);
  EXPECT_GT(degraded.report.feature_missing_fraction,
            healthy.report.feature_missing_fraction);
  // Coverage of the *mined* LF set is not comparable across arms (mining
  // picks a different set when features are missing); the contract is only
  // that curation still covers a usable fraction of the corpus.
  EXPECT_GT(degraded.report.lf_coverage, 0.0);
}

// ---- Serving-path fault injection ------------------------------------------

/// Deterministic model for serving-path tests (no trained pipeline needed).
class ServingStubModel : public CrossModalModel {
 public:
  double Score(const FeatureVector& row) const override {
    double acc = 0.0;
    for (size_t f = 0; f < row.size(); ++f) {
      const FeatureValue& v = row.Get(static_cast<FeatureId>(f));
      if (!v.is_missing() && v.type() == FeatureType::kNumeric) {
        acc += v.numeric() * static_cast<double>(f + 1);
      }
    }
    return acc;
  }
  /// The numeric slots of the schema it is served with.
  std::vector<FeatureId> input_features() const override { return {0, 1}; }
  const char* method_name() const override { return "stub"; }
};

struct ServingWorld {
  FeatureSchema schema;
  std::vector<FeatureId> features;
  std::vector<EntityId> ids;
  std::vector<FeatureVector> rows;
  std::vector<const FeatureVector*> ptrs;
};

ServingWorld MakeServingWorld(size_t n) {
  ServingWorld world;
  for (int f = 0; f < 2; ++f) {
    FeatureDef def;
    def.name = "num_" + std::to_string(f);
    def.type = FeatureType::kNumeric;
    auto id = world.schema.Add(def);
    CM_CHECK(id.ok());
    world.features.push_back(*id);
  }
  for (size_t i = 0; i < n; ++i) {
    const EntityId id = 1000 + i;
    world.ids.push_back(id);
    FeatureVector row(world.schema.size());
    Rng rng(DeriveSeed(31, id));
    for (FeatureId f : world.features) {
      row.Set(f, FeatureValue::Numeric(rng.Uniform(-1.0, 1.0)));
    }
    world.rows.push_back(std::move(row));
  }
  for (const auto& row : world.rows) world.ptrs.push_back(&row);
  return world;
}

/// Mirrors ServingShard's retry loop: the verdict a request ends up with is
/// a pure function of (plan, entity) that tests can recompute independently.
Status ExpectedServingVerdict(const ServingFaultHook& hook, EntityId entity) {
  if (!hook.active()) return Status::OK();
  const int budget = std::max(1, hook.retry().max_attempts);
  Status last = Status::OK();
  for (int attempt = 0; attempt < budget; ++attempt) {
    last = hook.Probe(entity, attempt);
    if (last.ok()) return last;
    const bool retryable =
        last.code() == StatusCode::kUnavailable ||
        last.code() == StatusCode::kDeadlineExceeded;
    if (!retryable || attempt + 1 >= budget) break;
  }
  return last;
}

TEST(ServingFaultPlanTest, ServingEntryIsExactMatchOnly) {
  // The * wildcard must NOT reach the serving tier — existing plans keep
  // their meaning of "every feature service".
  auto wildcard = FaultPlan::Parse("*:transient=0.5");
  ASSERT_TRUE(wildcard.ok());
  EXPECT_EQ(wildcard->ExactEntry(kServingFaultService), nullptr);
  EXPECT_FALSE(ServingFaultHook::FromPlan(*wildcard, nullptr).active());

  auto plan = FaultPlan::Parse(
      "seed=5; *:transient=0.1; serving:transient=0.2,attempts=4");
  ASSERT_TRUE(plan.ok());
  const FaultPlan::Entry* entry = plan->ExactEntry(kServingFaultService);
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->fault.transient_rate, 0.2);
  EXPECT_EQ(entry->retry.max_attempts, 4);
}

TEST(ServingFaultHookTest, VerdictsArePureFunctionOfSeedEntityAttempt) {
  auto plan =
      FaultPlan::Parse("seed=1234; serving:transient=0.4,timeout=0.2");
  ASSERT_TRUE(plan.ok());
  const ServingFaultHook a = ServingFaultHook::FromPlan(*plan, nullptr);
  const ServingFaultHook b = ServingFaultHook::FromPlan(*plan, nullptr);
  ASSERT_TRUE(a.active());
  bool saw_ok = false, saw_fault = false;
  for (EntityId entity = 1; entity <= 200; ++entity) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const Status va = a.Probe(entity, attempt);
      const Status vb = b.Probe(entity, attempt);
      EXPECT_EQ(va.code(), vb.code());
      // Repeat probes of the same (entity, attempt) agree — no hidden state.
      EXPECT_EQ(a.Probe(entity, attempt).code(), va.code());
      (va.ok() ? saw_ok : saw_fault) = true;
      EXPECT_EQ(a.AccountRetryBackoff(entity, attempt),
                b.AccountRetryBackoff(entity, attempt));
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_fault);

  // A different plan seed yields a different fault schedule.
  auto other = FaultPlan::Parse("seed=99; serving:transient=0.4,timeout=0.2");
  ASSERT_TRUE(other.ok());
  const ServingFaultHook c = ServingFaultHook::FromPlan(*other, nullptr);
  int diverged = 0;
  for (EntityId entity = 1; entity <= 200; ++entity) {
    if (c.Probe(entity, 0).code() != a.Probe(entity, 0).code()) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(ServingFaultHookTest, InactiveHookAlwaysOk) {
  const ServingFaultHook hook;
  EXPECT_FALSE(hook.active());
  for (EntityId entity = 1; entity <= 50; ++entity) {
    EXPECT_TRUE(hook.Probe(entity, 0).ok());
    EXPECT_EQ(hook.AccountRetryBackoff(entity, 0), 0u);
  }
}

TEST(ShardedServingFaultTest, ExhaustedRetriesShedWithFullAccounting) {
  const ServingWorld world = MakeServingWorld(60);
  const auto model = std::make_shared<const ServingStubModel>();
  auto plan = FaultPlan::Parse("seed=7; serving:transient=1.0,attempts=3");
  ASSERT_TRUE(plan.ok());
  ShardedServingOptions options;
  options.num_shards = 2;
  options.queue_capacity = world.ids.size() + 8;
  auto server = ShardedServer::Create(model, &world.schema, world.features,
                                      options, *plan);
  ASSERT_TRUE(server.ok()) << server.status();

  const auto results = server->ScoreAll(world.ids, world.ptrs);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    // Callers see retries-then-shed as kUnavailable — the same retryable
    // code admission-control shedding uses, so upstream handling is uniform.
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  const uint64_t n = world.ids.size();
  const ShardedStats stats = server->stats();
  EXPECT_EQ(stats.fault_shed(), n);
  EXPECT_EQ(stats.served(), 0u);
  EXPECT_EQ(stats.shed(), 0u);

  // Every request burned its full budget: 3 attempts, 2 retries, backoff
  // accounted (never slept).
  const ServiceHealth health = server->fault_health();
  EXPECT_EQ(health.attempts, 3 * n);
  EXPECT_EQ(health.transient_failures, 3 * n);
  EXPECT_EQ(health.retries, 2 * n);
  EXPECT_GT(health.backoff_us, 0u);
  EXPECT_EQ(health.successes, 0u);
}

TEST(ShardedServingFaultTest, PartialFaultsPreserveBitIdentity) {
  const ServingWorld world = MakeServingWorld(300);
  const auto model = std::make_shared<const ServingStubModel>();
  auto plan =
      FaultPlan::Parse("seed=21; serving:transient=0.3,timeout=0.1,attempts=2");
  ASSERT_TRUE(plan.ok());

  auto direct = ModelServer::Create(model, &world.schema, world.features);
  ASSERT_TRUE(direct.ok());
  const std::vector<double> reference = direct->ScoreBatch(world.ptrs);
  const ServingFaultHook oracle = ServingFaultHook::FromPlan(*plan, nullptr);

  // The failure set and every surviving score must be identical across tier
  // shapes — graceful degradation never perturbs scoring.
  for (const size_t shards : {size_t{1}, size_t{3}}) {
    ShardedServingOptions options;
    options.num_shards = shards;
    options.max_batch = 8;
    options.queue_capacity = world.ids.size() + 8;
    auto server = ShardedServer::Create(model, &world.schema, world.features,
                                        options, *plan);
    ASSERT_TRUE(server.ok());
    const auto results = server->ScoreAll(world.ids, world.ptrs);
    size_t failed = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const Status expected = ExpectedServingVerdict(oracle, world.ids[i]);
      if (expected.ok()) {
        ASSERT_TRUE(results[i].ok()) << results[i].status();
        EXPECT_EQ(results[i]->score, reference[i]);
      } else {
        ASSERT_FALSE(results[i].ok());
        EXPECT_EQ(results[i].status().code(), expected.code());
        ++failed;
      }
    }
    // The plan actually bites, and plenty of requests survive it.
    EXPECT_GT(failed, 0u);
    EXPECT_LT(failed, results.size());
    EXPECT_EQ(server->stats().fault_shed(), failed);
  }
}

TEST(ShardedServingFaultTest, HardDownFailsEverythingWithoutRetries) {
  const ServingWorld world = MakeServingWorld(20);
  const auto model = std::make_shared<const ServingStubModel>();
  auto plan = FaultPlan::Parse("serving:down,attempts=5");
  ASSERT_TRUE(plan.ok());
  ShardedServingOptions options;
  options.queue_capacity = world.ids.size() + 8;
  auto server = ShardedServer::Create(model, &world.schema, world.features,
                                      options, *plan);
  ASSERT_TRUE(server.ok());
  const auto results = server->ScoreAll(world.ids, world.ptrs);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    // A permanent outage is not retryable: FailedPrecondition, one attempt.
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  }
  const ServiceHealth health = server->fault_health();
  EXPECT_EQ(health.attempts, world.ids.size());
  EXPECT_EQ(health.permanent_failures, world.ids.size());
  EXPECT_EQ(health.retries, 0u);
  EXPECT_EQ(health.backoff_us, 0u);
}

TEST(ShardedServingFaultTest, MidRangeDownAfterIsRejectedAtCreate) {
  const ServingWorld world = MakeServingWorld(1);
  const auto model = std::make_shared<const ServingStubModel>();
  auto plan = FaultPlan::Parse("serving:down_after=10");
  ASSERT_TRUE(plan.ok());
  auto server = ShardedServer::Create(model, &world.schema, world.features,
                                      ShardedServingOptions(), *plan);
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

// ---- Reserved io: target ---------------------------------------------------

TEST(IoFaultPlanTest, IoEntryIsExactMatchOnly) {
  auto wildcard = FaultPlan::Parse("*:transient=0.5");
  ASSERT_TRUE(wildcard.ok());
  EXPECT_EQ(wildcard->ExactEntry(kIoFaultService), nullptr);

  auto plan = FaultPlan::Parse(
      "seed=9; *:transient=0.1; io:transient=0.2,torn=0.3,corrupt=0.05,"
      "attempts=6,backoff_us=10,max_backoff_us=100");
  ASSERT_TRUE(plan.ok());
  const FaultPlan::Entry* entry = plan->ExactEntry(kIoFaultService);
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->fault.transient_rate, 0.2);
  EXPECT_DOUBLE_EQ(entry->fault.torn_write_rate, 0.3);
  EXPECT_DOUBLE_EQ(entry->fault.corrupt_rate, 0.05);
}

TEST(IoFaultPlanTest, LastIoEntryWinsAndRatesAreValidated) {
  auto plan = FaultPlan::Parse("io:torn=0.1; io:torn=0.9");
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->ExactEntry(kIoFaultService), nullptr);
  EXPECT_DOUBLE_EQ(plan->ExactEntry(kIoFaultService)->fault.torn_write_rate,
                   0.9);

  EXPECT_FALSE(FaultPlan::Parse("io:torn=1.5").ok());
  EXPECT_FALSE(FaultPlan::Parse("io:corrupt=-0.1").ok());
  EXPECT_FALSE(FaultPlan::Parse("io:torn=nan").ok());
}

TEST(IoFaultPlanTest, WithoutReservedStripsServingAndIo) {
  auto plan = FaultPlan::Parse(
      "seed=5; *:transient=0.1; serving:transient=0.2; io:torn=0.3");
  ASSERT_TRUE(plan.ok());
  const FaultPlan registry_plan = plan->WithoutReserved();
  EXPECT_EQ(registry_plan.seed, 5u);
  ASSERT_EQ(registry_plan.entries.size(), 1u);
  EXPECT_EQ(registry_plan.entries[0].service, "*");
  EXPECT_EQ(registry_plan.ExactEntry(kServingFaultService), nullptr);
  EXPECT_EQ(registry_plan.ExactEntry(kIoFaultService), nullptr);
}

TEST(IoFaultPlanTest, ConfigFromPlanMapsEveryKnob) {
  auto plan = FaultPlan::Parse(
      "seed=21; io:transient=0.25,torn=0.5,corrupt=0.125,attempts=7,"
      "backoff_us=11,max_backoff_us=222");
  ASSERT_TRUE(plan.ok());
  const IoFaultConfig config = IoFaultConfigFromPlan(*plan);
  EXPECT_DOUBLE_EQ(config.open_fail_rate, 0.25);
  EXPECT_DOUBLE_EQ(config.torn_write_rate, 0.5);
  EXPECT_DOUBLE_EQ(config.corrupt_rate, 0.125);
  EXPECT_EQ(config.retry.max_attempts, 7);
  EXPECT_EQ(config.retry.base_backoff_us, 11u);
  EXPECT_EQ(config.retry.max_backoff_us, 222u);
  // The injector seed is derived from the plan seed, so io and service
  // fault streams never correlate even under one plan seed.
  EXPECT_EQ(config.seed, DeriveSeed(21, kIoFaultService));

  // No io entry: the defaults come back untouched (callers look up the io
  // entry before installing anyway).
  auto healthy = FaultPlan::Parse("*:transient=0.1");
  ASSERT_TRUE(healthy.ok());
  const IoFaultConfig defaults = IoFaultConfigFromPlan(*healthy);
  EXPECT_DOUBLE_EQ(defaults.open_fail_rate, 0.0);
  EXPECT_DOUBLE_EQ(defaults.torn_write_rate, 0.0);
}

// ---- Golden fault schedule -------------------------------------------------
//
// The determinism tests above compare two runs of the same code. These pin
// the schedule itself: every counter, verdict and backoff value under fixed
// plans, as computed before the retry layers were merged. A change to the
// retry loop, the backoff draw or the fault draw that moves any value fails
// here.

std::string Describe(const ServiceHealth& h) {
  return "attempts=" + std::to_string(h.attempts) +
         " successes=" + std::to_string(h.successes) +
         " transient=" + std::to_string(h.transient_failures) +
         " timeouts=" + std::to_string(h.timeouts) +
         " permanent=" + std::to_string(h.permanent_failures) +
         " retries=" + std::to_string(h.retries) +
         " degraded=" + std::to_string(h.degraded_misses) +
         " backoff_us=" + std::to_string(h.backoff_us) +
         " latency_us=" + std::to_string(h.simulated_latency_us);
}

std::string Describe(const IoFaultStats& s) {
  return "reads=" + std::to_string(s.read_attempts) +
         " writes=" + std::to_string(s.write_attempts) +
         " open_failures=" + std::to_string(s.open_failures) +
         " torn=" + std::to_string(s.torn_writes) +
         " corrupt=" + std::to_string(s.corruptions) +
         " retries=" + std::to_string(s.retries) +
         " backoff_us=" + std::to_string(s.backoff_us);
}

TEST(GoldenFaultScheduleTest, RetryingServiceHealth) {
  auto plan = FaultPlan::Parse(
      "seed=99; *:transient=0.3,timeout=0.1,latency_us=5,attempts=4,"
      "backoff_us=700,max_backoff_us=9000");
  ASSERT_TRUE(plan.ok());
  const FaultPlan::Entry* entry = plan->FindEntry("svc");
  ASSERT_NE(entry, nullptr);
  ServiceHealthCounters counters;
  RetryingService svc(
      std::make_unique<FaultInjectingService>(
          std::make_unique<StubService>("svc"), entry->fault, plan->seed,
          &counters),
      entry->retry, plan->seed, &counters);
  for (EntityId id = 1; id <= 300; ++id) (void)svc.Apply(MakeEntity(id));
  // A nested layer's attempt > 0 shifts the inner attempt range.
  for (EntityId id = 1; id <= 20; ++id) (void)svc.Call(MakeEntity(id), 1).ok();
  EXPECT_EQ(Describe(counters.Snapshot("svc")),
            "attempts=489 successes=313 transient=133 timeouts=43 "
            "permanent=0 retries=169 degraded=7 backoff_us=140919 "
            "latency_us=1565");
}

TEST(GoldenFaultScheduleTest, ServingHookVerdictsAndBackoff) {
  auto plan = FaultPlan::Parse(
      "seed=1234; serving:transient=0.4,timeout=0.2,attempts=3");
  ASSERT_TRUE(plan.ok());
  ServiceHealthCounters counters;
  const ServingFaultHook hook = ServingFaultHook::FromPlan(*plan, &counters);
  std::string verdicts;
  std::vector<uint64_t> backoffs;
  for (EntityId entity = 1; entity <= 8; ++entity) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const StatusCode code = hook.Probe(entity, attempt).code();
      verdicts += code == StatusCode::kOk                 ? 'o'
                  : code == StatusCode::kUnavailable      ? 'u'
                  : code == StatusCode::kDeadlineExceeded ? 'd'
                                                          : '?';
      backoffs.push_back(hook.AccountRetryBackoff(entity, attempt));
    }
  }
  EXPECT_EQ(verdicts, "uoduoouododduououoouduuu");
  EXPECT_EQ(backoffs, (std::vector<uint64_t>{
                          975, 1774, 3524, 741, 1561, 2231, 636, 1699,
                          2480, 836, 1232, 3220, 598, 1192, 3748, 705,
                          1846, 3368, 821, 1931, 3159, 971, 1645, 2227}));
  EXPECT_EQ(Describe(counters.Snapshot("serving")),
            "attempts=24 successes=9 transient=10 timeouts=5 permanent=0 "
            "retries=24 degraded=0 backoff_us=43120 latency_us=0");
}

TEST(GoldenFaultScheduleTest, IoFaultStatsOverScriptedOperations) {
  auto plan = FaultPlan::Parse("io:transient=0.5,torn=0.3,attempts=4");
  ASSERT_TRUE(plan.ok());
  // Fault keys are basenames, so a per-process directory keeps the schedule
  // while letting concurrent test runs stay apart.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cm_golden_io_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto path = [&](int i) {
    return (dir / ("golden_" + std::to_string(i) + ".bin")).string();
  };
  std::string formats;
  IoFaultStats stats;
  {
    ScopedIoFaultInjection scoped(IoFaultConfigFromPlan(*plan));
    for (int i = 0; i < 8; ++i) {
      (void)WriteFileBytes(path(i), std::string(100 + i, 'g'));
    }
    for (int i = 0; i < 9; ++i) (void)ReadFileBytes(path(i)).ok();
    for (int i = 0; i < 9; ++i) {
      auto format = DetectStoreFormat(path(i));
      formats += format.ok() ? 't' : 'x';
    }
    stats = scoped.stats();
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(formats, "tttxttttx");
  EXPECT_EQ(Describe(stats), 
            "reads=38 writes=16 open_failures=26 torn=1 corrupt=0 "
            "retries=28 backoff_us=35026");
}

}  // namespace
}  // namespace crossmodal
