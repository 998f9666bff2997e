#include <vector>

#include <gtest/gtest.h>

#include "audit/determinism.h"
#include "dataflow/feature_generation.h"
#include "synth/corpus_generator.h"
#include "util/thread_pool.h"

namespace crossmodal {
namespace {

TEST(FeatureGenerationTest, MaterializesAllEntities) {
  WorldConfig world;
  CorpusGenerator gen(world, TaskSpec::CT(1).Scaled(0.03));
  const Corpus corpus = gen.Generate();
  auto registry = BuildModerationRegistry(gen, 11);
  ASSERT_TRUE(registry.ok());
  FeatureStore store(&registry->schema());
  GenerateFeatures(corpus.text_labeled, *registry, &store);
  GenerateFeatures(corpus.image_unlabeled, *registry, &store);
  EXPECT_EQ(store.size(),
            corpus.text_labeled.size() + corpus.image_unlabeled.size());
  for (const Entity& e : corpus.text_labeled) {
    EXPECT_TRUE(store.Contains(e.id));
  }
}

TEST(FeatureGenerationTest, DeterministicAcrossExecutors) {
  // The inline path (no pool) and the pooled path must materialize the same
  // rows and count the same slots.
  WorldConfig world;
  CorpusGenerator gen(world, TaskSpec::CT(1).Scaled(0.02));
  const Corpus corpus = gen.Generate();
  auto registry = BuildModerationRegistry(gen, 11);
  ASSERT_TRUE(registry.ok());
  ThreadPool eight_threads(8);
  std::vector<EntityId> ids;
  FeatureStore serial_store(&registry->schema());
  FeatureStore pooled_store(&registry->schema());
  FeatureGenStats serial_stats;
  FeatureGenStats pooled_stats;
  for (const auto* split : {&corpus.text_labeled, &corpus.image_unlabeled,
                            &corpus.image_labeled_pool, &corpus.image_test}) {
    for (const Entity& e : *split) ids.push_back(e.id);
    GenerateFeatures(*split, *registry, nullptr, &serial_store, &serial_stats);
    GenerateFeatures(*split, *registry, &eight_threads, &pooled_store,
                     &pooled_stats);
  }
  EXPECT_EQ(serial_store.size(), ids.size());
  EXPECT_EQ(DeterminismHarness::HashFeatureRows(serial_store, ids),
            DeterminismHarness::HashFeatureRows(pooled_store, ids));
  EXPECT_EQ(serial_stats.rows, ids.size());
  EXPECT_EQ(serial_stats.rows, pooled_stats.rows);
  ASSERT_EQ(serial_stats.populated.size(), registry->schema().size());
  EXPECT_EQ(serial_stats.populated, pooled_stats.populated);
}

}  // namespace
}  // namespace crossmodal
