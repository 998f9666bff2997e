// Microbenchmarks (google-benchmark) for every substrate: feature
// generation, itemset mining, LF application, label-model fitting, kNN
// graph construction, label propagation, encoding, and model training.
//
// The parallelized hot paths (kNN graph, propagation, ensemble training)
// take a thread-count argument so 1-vs-N scaling shows up in one run.
// Besides the console table, the run emits BENCH_micro_substrates.json (see
// BenchReporter in bench_common.h) for tools/bench_compare.cc.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/pipeline.h"
#include "dataflow/feature_generation.h"
#include "graph/knn_graph.h"
#include "graph/label_propagation.h"
#include "labeling/label_model.h"
#include "mining/itemset_miner.h"
#include "ml/encoder.h"
#include "ml/trainer.h"
#include "synth/corpus_generator.h"
#include "util/logging.h"

namespace crossmodal {
namespace {

/// Shared small world reused across benchmarks (built once).
struct MicroWorld {
  MicroWorld() : task(TaskSpec::CT(1).Scaled(0.15)), generator(world, task) {
    corpus = generator.Generate();
    auto r = BuildModerationRegistry(generator, 77);
    CM_CHECK(r.ok());
    registry = std::make_unique<ResourceRegistry>(std::move(r).value());
    store = std::make_unique<FeatureStore>(&registry->schema());
    GenerateFeatures(corpus.text_labeled, *registry, store.get());
    GenerateFeatures(corpus.image_unlabeled, *registry, store.get());

    for (const Entity& e : corpus.text_labeled) {
      auto row = store->Get(e.id);
      CM_CHECK(row.ok());
      dev_rows.push_back(*row);
      dev_labels.push_back(e.label == 1 ? 1 : 0);
    }
    for (const Entity& e : corpus.image_unlabeled) {
      unlabeled_ids.push_back(e.id);
    }
  }

  WorldConfig world;
  TaskSpec task;
  CorpusGenerator generator;
  Corpus corpus;
  std::unique_ptr<ResourceRegistry> registry;
  std::unique_ptr<FeatureStore> store;
  std::vector<const FeatureVector*> dev_rows;
  std::vector<int> dev_labels;
  std::vector<EntityId> unlabeled_ids;
};

MicroWorld& World() {
  static MicroWorld* world = new MicroWorld();
  return *world;
}

void BM_CorpusGeneration(benchmark::State& state) {
  const WorldConfig world;
  const TaskSpec task =
      TaskSpec::CT(1).Scaled(static_cast<double>(state.range(0)) / 1000.0);
  for (auto _ : state) {
    CorpusGenerator gen(world, task);
    benchmark::DoNotOptimize(gen.Generate());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(task.n_text_labeled + task.n_image_unlabeled +
                           task.n_image_pool + task.n_image_test));
}
BENCHMARK(BM_CorpusGeneration)->Arg(20)->Arg(60);

void BM_FeatureGeneration(benchmark::State& state) {
  MicroWorld& w = World();
  const size_t n = std::min<size_t>(w.corpus.image_unlabeled.size(),
                                    static_cast<size_t>(state.range(0)));
  std::vector<Entity> slice(w.corpus.image_unlabeled.begin(),
                            w.corpus.image_unlabeled.begin() + n);
  for (auto _ : state) {
    FeatureStore store(&w.registry->schema());
    GenerateFeatures(slice, *w.registry, &store);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FeatureGeneration)->Arg(256)->Arg(1024);

void BM_ItemsetMining(benchmark::State& state) {
  MicroWorld& w = World();
  MiningOptions options;
  options.max_order = static_cast<int>(state.range(0));
  ItemsetMiner miner(&w.registry->schema(), options);
  for (auto _ : state) {
    auto result = miner.MineLFs(w.dev_rows, w.dev_labels);
    CM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->lfs.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.dev_rows.size()));
}
BENCHMARK(BM_ItemsetMining)->Arg(1)->Arg(2);

void BM_LFApplication(benchmark::State& state) {
  MicroWorld& w = World();
  MiningOptions options;
  ItemsetMiner miner(&w.registry->schema(), options);
  auto mined = miner.MineLFs(w.dev_rows, w.dev_labels);
  CM_CHECK(mined.ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ApplyLabelingFunctions(mined->lfs, w.unlabeled_ids, *w.store));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.unlabeled_ids.size() *
                                               mined->lfs.size()));
}
BENCHMARK(BM_LFApplication);

void BM_LabelModelFit(benchmark::State& state) {
  MicroWorld& w = World();
  MiningOptions options;
  ItemsetMiner miner(&w.registry->schema(), options);
  auto mined = miner.MineLFs(w.dev_rows, w.dev_labels);
  CM_CHECK(mined.ok());
  const LabelMatrix matrix =
      ApplyLabelingFunctions(mined->lfs, w.unlabeled_ids, *w.store);
  GenerativeModelOptions lm;
  lm.fixed_class_balance = 0.041;
  for (auto _ : state) {
    auto fit = GenerativeLabelModel::Fit(matrix, lm);
    CM_CHECK(fit.ok());
    benchmark::DoNotOptimize(fit->accuracies());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(matrix.num_rows()));
}
BENCHMARK(BM_LabelModelFit);

void BM_KnnGraphBuild(benchmark::State& state) {
  MicroWorld& w = World();
  const size_t n = std::min<size_t>(w.unlabeled_ids.size(),
                                    static_cast<size_t>(state.range(0)));
  std::vector<EntityId> nodes(w.unlabeled_ids.begin(),
                              w.unlabeled_ids.begin() + n);
  FeatureSimilarity sim(&w.registry->schema(),
                        w.registry->schema().AllIds());
  sim.FitNormalization(w.dev_rows);
  KnnGraphOptions options;
  options.parallel.num_threads = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    auto graph = BuildKnnGraph(nodes, *w.store, sim, options);
    CM_CHECK(graph.ok());
    benchmark::DoNotOptimize(graph->num_edges());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  state.counters["threads"] =
      static_cast<double>(options.parallel.num_threads);
  state.counters["entities"] = static_cast<double>(n);
  state.counters["seed"] = static_cast<double>(w.task.seed);
}
BENCHMARK(BM_KnnGraphBuild)
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Args({1024, 4});

void BM_LabelPropagation(benchmark::State& state) {
  MicroWorld& w = World();
  FeatureSimilarity sim(&w.registry->schema(),
                        w.registry->schema().AllIds());
  sim.FitNormalization(w.dev_rows);
  std::vector<EntityId> nodes = w.unlabeled_ids;
  for (size_t i = 0; i < 400 && i < w.corpus.text_labeled.size(); ++i) {
    nodes.push_back(w.corpus.text_labeled[i].id);
  }
  auto graph = BuildKnnGraph(nodes, *w.store, sim, KnnGraphOptions{});
  CM_CHECK(graph.ok());
  std::unordered_map<EntityId, double> seeds;
  for (size_t i = 0; i < 400 && i < w.corpus.text_labeled.size(); ++i) {
    const Entity& e = w.corpus.text_labeled[i];
    seeds[e.id] = e.label == 1 ? 1.0 : 0.0;
  }
  for (auto _ : state) {
    auto result = PropagateLabels(*graph, seeds);
    CM_CHECK(result.ok());
    benchmark::DoNotOptimize(result->iterations);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(graph->num_nodes()));
  state.counters["entities"] = static_cast<double>(graph->num_nodes());
  state.counters["seed"] = static_cast<double>(w.task.seed);
}
BENCHMARK(BM_LabelPropagation);  // one serial loop: no thread variants

void BM_EncodeRows(benchmark::State& state) {
  MicroWorld& w = World();
  EncoderOptions options;
  options.features = w.registry->schema().AllIds();
  auto encoder =
      FeatureEncoder::Fit(w.registry->schema(), w.dev_rows, options);
  CM_CHECK(encoder.ok());
  for (auto _ : state) {
    for (const auto* row : w.dev_rows) {
      benchmark::DoNotOptimize(encoder->Encode(*row));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.dev_rows.size()));
}
BENCHMARK(BM_EncodeRows);

Dataset EncodedDataset(size_t cap) {
  MicroWorld& w = World();
  EncoderOptions options;
  options.features = w.registry->schema().AllIds();
  auto encoder =
      FeatureEncoder::Fit(w.registry->schema(), w.dev_rows, options);
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

/// Trains a 3-member ensemble of `kind` at state.range(0) threads: the
/// members are the unit of training parallelism (TrainModel).
void BenchEnsembleTrain(benchmark::State& state, ModelKind kind) {
  const Dataset data = EncodedDataset(2000);
  ModelSpec spec;
  spec.kind = kind;
  spec.hidden = {32};
  spec.ensemble_size = 3;
  spec.train.epochs = 3;
  spec.train.parallel.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto model = TrainModel(data, spec);
    CM_CHECK(model.ok());
    benchmark::DoNotOptimize((*model)->embed_dim());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size() * 3 * 3));
  state.counters["threads"] =
      static_cast<double>(spec.train.parallel.num_threads);
  state.counters["entities"] = static_cast<double>(data.size());
  state.counters["seed"] = static_cast<double>(spec.train.seed);
}

void BM_LogisticRegressionTrain(benchmark::State& state) {
  BenchEnsembleTrain(state, ModelKind::kLogisticRegression);
}
BENCHMARK(BM_LogisticRegressionTrain)->Arg(1)->Arg(4);

void BM_MlpTrain(benchmark::State& state) {
  BenchEnsembleTrain(state, ModelKind::kMlp);
}
BENCHMARK(BM_MlpTrain)->Arg(1)->Arg(4);

/// Console output as usual, plus a BenchStage per run for the JSON file.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      bench::BenchStage stage;
      stage.stage = run.benchmark_name();
      stage.wall_ms =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e3
              : 0.0;
      stage.threads = static_cast<size_t>(Counter(run, "threads", 1.0));
      stage.entities = static_cast<size_t>(Counter(run, "entities", 0.0));
      stage.seed = static_cast<uint64_t>(Counter(run, "seed", 0.0));
      stage.reps = static_cast<int>(run.iterations);
      stages.push_back(std::move(stage));
    }
  }

  std::vector<bench::BenchStage> stages;

 private:
  static double Counter(const Run& run, const char* name, double fallback) {
    auto it = run.counters.find(name);
    return it == run.counters.end() ? fallback
                                    : static_cast<double>(it->second.value);
  }
};

}  // namespace
}  // namespace crossmodal

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  crossmodal::JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  crossmodal::bench::BenchReporter json("micro_substrates");
  for (auto& stage : reporter.stages) json.AddStage(std::move(stage));
  return json.Write() ? 0 : 1;
}
