// Parallel-equivalence property: for randomized seeds, every parallelized
// hot path must produce bit-identical artifacts at num_threads=1 and
// num_threads=4 — the util/parallel.h contract that thread count only
// changes scheduling, never results. Slice boundaries are fixed by the work
// size, partial results are folded in slice order, and per-node RNG streams
// are derived from (seed, index), so any divergence here means a reduction
// picked up an order dependence.
//
// Artifacts are compared through the same canonical FNV-1a hashes the
// determinism auditor uses (DeterminismHarness), pinning graph adjacency,
// propagation scores, and trained weights exactly — not through a tolerance.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "audit/determinism.h"
#include "dataflow/feature_generation.h"
#include "graph/knn_graph.h"
#include "graph/label_propagation.h"
#include "ml/encoder.h"
#include "ml/trainer.h"
#include "resources/registry.h"
#include "synth/corpus_generator.h"
#include "util/hashing.h"
#include "util/random.h"

namespace crossmodal {
namespace {

constexpr size_t kThreads = 4;

/// One small world per property seed: corpus + features + the graph inputs.
struct TestWorld {
  explicit TestWorld(uint64_t seed) {
    TaskSpec task = TaskSpec::CT(1).Scaled(0.08);
    task.seed = seed;
    CorpusGenerator generator(world, task);
    corpus = generator.Generate();
    auto reg = BuildModerationRegistry(generator, DeriveSeed(seed, "registry"));
    CM_CHECK(reg.ok()) << reg.status();
    registry = std::make_unique<ResourceRegistry>(std::move(reg).value());
    store = std::make_unique<FeatureStore>(&registry->schema());
    GenerateFeatures(corpus.text_labeled, *registry, store.get());
    GenerateFeatures(corpus.image_unlabeled, *registry, store.get());
    for (const Entity& e : corpus.text_labeled) {
      auto row = store->Get(e.id);
      CM_CHECK(row.ok());
      dev_rows.push_back(*row);
      dev_labels.push_back(e.label == 1 ? 1 : 0);
    }
  }

  WorldConfig world;
  Corpus corpus;
  std::unique_ptr<ResourceRegistry> registry;
  std::unique_ptr<FeatureStore> store;
  std::vector<const FeatureVector*> dev_rows;
  std::vector<int> dev_labels;
};

/// The property seeds: pseudo-random draws from a fixed meta-seed so the
/// test is reproducible while still sweeping unstructured seed values.
std::vector<uint64_t> PropertySeeds(size_t count) {
  Rng rng(0xE9514CEULL);
  std::vector<uint64_t> seeds;
  seeds.reserve(count);
  for (size_t i = 0; i < count; ++i) seeds.push_back(rng());
  return seeds;
}

Dataset EncodeDataset(const TestWorld& w, size_t cap) {
  EncoderOptions options;
  options.features = w.registry->schema().AllIds();
  auto encoder = FeatureEncoder::Fit(w.registry->schema(), w.dev_rows, options);
  CM_CHECK(encoder.ok());
  Dataset data;
  data.dim = encoder->dim();
  for (size_t i = 0; i < cap && i < w.dev_rows.size(); ++i) {
    Example ex;
    ex.x = encoder->Encode(*w.dev_rows[i]);
    ex.target = static_cast<float>(w.dev_labels[i]);
    data.examples.push_back(std::move(ex));
  }
  return data;
}

/// Behavioral weight fingerprint for models whose weights are private: any
/// weight divergence that can ever change an output changes some score.
uint64_t HashPredictions(const Model& model, const Dataset& data) {
  std::vector<double> scores;
  scores.reserve(data.size());
  for (const Example& ex : data.examples) scores.push_back(model.Predict(ex.x));
  return HashDoubles(scores);
}

TEST(ParallelEquivalenceTest, KnnGraphAndPropagationBitIdentical) {
  for (uint64_t seed : PropertySeeds(3)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TestWorld w(seed);
    FeatureSimilarity sim(&w.registry->schema(), w.registry->schema().AllIds());
    sim.FitNormalization(w.dev_rows);

    std::vector<EntityId> nodes;
    for (const Entity& e : w.corpus.image_unlabeled) {
      nodes.push_back(e.id);
      if (nodes.size() >= 400) break;
    }
    std::unordered_map<EntityId, double> prop_seeds;
    for (size_t i = 0; i < 200 && i < w.corpus.text_labeled.size(); ++i) {
      const Entity& e = w.corpus.text_labeled[i];
      nodes.push_back(e.id);
      prop_seeds.emplace(e.id, e.label == 1 ? 1.0 : 0.0);
    }

    KnnGraphOptions serial;
    serial.seed = DeriveSeed(seed, "knn");
    serial.parallel.num_threads = 1;
    KnnGraphOptions parallel = serial;
    parallel.parallel.num_threads = kThreads;

    auto g1 = BuildKnnGraph(nodes, *w.store, sim, serial);
    auto gN = BuildKnnGraph(nodes, *w.store, sim, parallel);
    ASSERT_TRUE(g1.ok() && gN.ok());
    EXPECT_EQ(DeterminismHarness::HashGraph(*g1),
              DeterminismHarness::HashGraph(*gN));

    PropagationOptions prop_serial;
    prop_serial.parallel.num_threads = 1;
    PropagationOptions prop_parallel = prop_serial;
    prop_parallel.parallel.num_threads = kThreads;

    auto p1 = PropagateLabels(*g1, prop_seeds, prop_serial);
    auto pN = PropagateLabels(*g1, prop_seeds, prop_parallel);
    ASSERT_TRUE(p1.ok() && pN.ok());
    EXPECT_EQ(p1->iterations, pN->iterations);
    EXPECT_EQ(DeterminismHarness::HashPropagationScores(p1->scores, nodes),
              DeterminismHarness::HashPropagationScores(pN->scores, nodes));
  }
}

TEST(ParallelEquivalenceTest, TrainedWeightsBitIdentical) {
  // Training parallelizes across ensemble members, so the property is over
  // TrainModel with several members: the thread count changes which worker
  // trains a member, never the member or the order they are averaged in.
  for (uint64_t seed : PropertySeeds(2)) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TestWorld w(seed);
    const Dataset data = EncodeDataset(w, 600);
    ASSERT_GE(data.size(), 100u);

    for (const ModelKind kind :
         {ModelKind::kLogisticRegression, ModelKind::kMlp}) {
      SCOPED_TRACE(ModelKindName(kind));
      ModelSpec spec;
      spec.kind = kind;
      spec.hidden = {16};
      spec.ensemble_size = 3;
      spec.train.epochs = 3;
      spec.train.seed = DeriveSeed(seed, "train");
      std::vector<uint64_t> hashes;
      for (const size_t threads : {size_t{1}, kThreads, size_t{8}}) {
        spec.train.parallel.num_threads = threads;
        auto model = TrainModel(data, spec);
        ASSERT_TRUE(model.ok()) << model.status();
        hashes.push_back(HashPredictions(**model, data));
      }
      EXPECT_EQ(hashes[0], hashes[1]);
      EXPECT_EQ(hashes[0], hashes[2]);
    }
  }
}

}  // namespace
}  // namespace crossmodal
