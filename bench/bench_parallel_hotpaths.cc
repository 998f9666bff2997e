// Perf harness (not a paper table): measures the parallelized hot paths —
// kNN graph construction and ensemble training (members train
// concurrently) — on identical inputs at 1 thread vs CM_BENCH_THREADS
// (default 4) threads, and checks the artifacts are bit-identical across
// thread counts (the util/parallel.h determinism contract). Label
// propagation, the label model's EM fit and serving-path scoring
// (ModelServer::ScoreBatch over the image rows), serial loops, get a
// 1-thread row only.
//
// Timing is warm-up + median-of-N (MedianWallMs). Besides the console
// table, the run writes BENCH_parallel_hotpaths.json via BenchReporter; the
// checked-in bench/BENCH_parallel_hotpaths.json is a reference run of this
// binary, and tools/bench_compare.cc diffs any two such files.

#include "bench_common.h"
#include "audit/determinism.h"
#include "core/feature_selection.h"
#include "dataflow/feature_generation.h"
#include "fusion/fusion.h"
#include "graph/knn_graph.h"
#include "graph/label_propagation.h"
#include "labeling/label_model.h"
#include "mining/itemset_miner.h"
#include "ml/encoder.h"
#include "ml/trainer.h"
#include "serving/model_server.h"
#include "util/hashing.h"

using namespace crossmodal;
using namespace crossmodal::bench;

namespace {

/// Behavioral fingerprint of a trained model: hash of its scores over the
/// training rows (any weight divergence that can ever change an output
/// changes this hash; weights themselves are not exposed).
uint64_t HashModelScores(const Model& model, const Dataset& data) {
  std::vector<double> scores;
  const size_t n = std::min<size_t>(data.size(), 512);
  scores.reserve(n);
  for (size_t i = 0; i < n; ++i) scores.push_back(model.Predict(data.examples[i].x));
  return HashDoubles(scores);
}

struct StageRow {
  std::string stage;
  size_t entities = 0;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool identical = false;
  bool serial_only = false;  ///< No thread-count variant to time or compare.
};

}  // namespace

int main() {
  const size_t threads = BenchThreads() > 1 ? BenchThreads() : 4;
  const int warmup = BenchWarmup();
  const int reps = BenchReps();
  PrintHeader("Parallel hot paths: serial vs " + std::to_string(threads) +
                  " threads",
              "perf harness; artifacts must be thread-count-invariant");

  // A mid-sized CT1 world: large enough that per-node work dominates the
  // ForEachSlice dispatch overhead, small enough for a CI smoke run.
  WorldConfig world;
  const TaskSpec task = TaskSpec::CT(1).Scaled(0.5 * BenchScale());
  CorpusGenerator generator(world, task);
  Corpus corpus = generator.Generate();
  auto reg = BuildModerationRegistry(generator, 77);
  CM_CHECK(reg.ok()) << reg.status();
  ResourceRegistry registry = std::move(reg).value();
  FeatureStore store(&registry.schema());
  GenerateFeatures(corpus.text_labeled, registry, &store);
  GenerateFeatures(corpus.image_unlabeled, registry, &store);

  std::vector<const FeatureVector*> dev_rows;
  std::vector<int> dev_labels;
  for (const Entity& e : corpus.text_labeled) {
    auto row = store.Get(e.id);
    CM_CHECK(row.ok());
    dev_rows.push_back(*row);
    dev_labels.push_back(e.label == 1 ? 1 : 0);
  }
  FeatureSimilarity sim(&registry.schema(), registry.schema().AllIds());
  sim.FitNormalization(dev_rows);

  std::vector<StageRow> rows;

  // ---- kNN graph construction. -------------------------------------------
  {
    std::vector<EntityId> nodes;
    for (const Entity& e : corpus.image_unlabeled) nodes.push_back(e.id);
    KnnGraphOptions serial;
    serial.parallel.num_threads = 1;
    KnnGraphOptions parallel = serial;
    parallel.parallel.num_threads = threads;

    auto g1 = BuildKnnGraph(nodes, store, sim, serial);
    auto gN = BuildKnnGraph(nodes, store, sim, parallel);
    CM_CHECK(g1.ok() && gN.ok());

    StageRow row;
    row.stage = "knn_graph_build";
    row.entities = nodes.size();
    row.identical = DeterminismHarness::HashGraph(*g1) ==
                    DeterminismHarness::HashGraph(*gN);
    row.serial_ms = MedianWallMs(warmup, reps, [&] {
      CM_CHECK(BuildKnnGraph(nodes, store, sim, serial).ok());
    });
    row.parallel_ms = MedianWallMs(warmup, reps, [&] {
      CM_CHECK(BuildKnnGraph(nodes, store, sim, parallel).ok());
    });
    rows.push_back(row);

    // ---- Label propagation over the graph just built. --------------------
    std::vector<EntityId> prop_nodes = nodes;
    std::unordered_map<EntityId, double> seeds;
    const size_t n_seeds = std::min<size_t>(corpus.text_labeled.size(), 1000);
    for (size_t i = 0; i < n_seeds; ++i) {
      const Entity& e = corpus.text_labeled[i];
      prop_nodes.push_back(e.id);
      seeds.emplace(e.id, e.label == 1 ? 1.0 : 0.0);
    }
    auto prop_graph = BuildKnnGraph(prop_nodes, store, sim, parallel);
    CM_CHECK(prop_graph.ok());
    // Propagation is one serial loop: only its 1-thread row is measured.
    StageRow prop_row;
    prop_row.stage = "label_propagation";
    prop_row.entities = prop_graph->num_nodes();
    prop_row.serial_only = true;
    prop_row.serial_ms = MedianWallMs(warmup, reps, [&] {
      CM_CHECK(PropagateLabels(*prop_graph, seeds).ok());
    });
    rows.push_back(prop_row);

    // ---- Label-model EM over the kNN nodes' votes. -----------------------
    // LFs mined from the dev rows, applied to the graph's nodes, fit with
    // the dev class balance fixed (as CrossModalPipeline does).
    ItemsetMiner miner(&registry.schema(), MiningOptions{});
    auto mined = miner.MineLFs(dev_rows, dev_labels);
    CM_CHECK(mined.ok()) << mined.status();
    const LabelMatrix matrix =
        ApplyLabelingFunctions(mined->lfs, nodes, store);
    GenerativeModelOptions lm_options;
    double pos_rate = 0.0;
    for (int y : dev_labels) pos_rate += y;
    lm_options.fixed_class_balance =
        pos_rate / static_cast<double>(dev_labels.size());
    StageRow em_row;
    em_row.stage = "label_model_fit";
    em_row.entities = matrix.num_rows();
    em_row.serial_only = true;
    em_row.serial_ms = MedianWallMs(warmup, reps, [&] {
      CM_CHECK(GenerativeLabelModel::Fit(matrix, lm_options).ok());
    });
    rows.push_back(em_row);
  }

  // ---- Ensemble trainers. ------------------------------------------------
  {
    EncoderOptions enc_options;
    enc_options.features = registry.schema().AllIds();
    auto encoder = FeatureEncoder::Fit(registry.schema(), dev_rows, enc_options);
    CM_CHECK(encoder.ok());
    Dataset data;
    data.dim = encoder->dim();
    const size_t cap = std::min<size_t>(dev_rows.size(), 4000);
    for (size_t i = 0; i < cap; ++i) {
      Example ex;
      ex.x = encoder->Encode(*dev_rows[i]);
      ex.target = static_cast<float>(dev_labels[i]);
      data.examples.push_back(std::move(ex));
    }

    // Training parallelizes across ensemble members: each row trains a
    // 3-member ensemble at 1 thread and at `threads` threads.
    auto train_row = [&](const std::string& stage, const ModelSpec& serial) {
      ModelSpec parallel = serial;
      parallel.train.parallel.num_threads = threads;
      auto m1 = TrainModel(data, serial);
      auto mN = TrainModel(data, parallel);
      CM_CHECK(m1.ok() && mN.ok());
      StageRow row;
      row.stage = stage;
      row.entities = data.size();
      row.identical =
          HashModelScores(**m1, data) == HashModelScores(**mN, data);
      row.serial_ms = MedianWallMs(warmup, reps, [&] {
        CM_CHECK(TrainModel(data, serial).ok());
      });
      row.parallel_ms = MedianWallMs(warmup, reps, [&] {
        CM_CHECK(TrainModel(data, parallel).ok());
      });
      rows.push_back(row);
    };

    ModelSpec lr_spec;
    lr_spec.kind = ModelKind::kLogisticRegression;
    lr_spec.ensemble_size = 3;
    lr_spec.train.epochs = 5;
    lr_spec.train.parallel.num_threads = 1;
    train_row("logreg_train", lr_spec);

    ModelSpec mlp_spec;
    mlp_spec.kind = ModelKind::kMlp;
    mlp_spec.hidden = {32};
    mlp_spec.ensemble_size = 3;
    mlp_spec.train.epochs = 3;
    mlp_spec.train.parallel.num_threads = 1;
    train_row("mlp_train", mlp_spec);
  }

  // ---- Serving-path scoring. ---------------------------------------------
  // An early-fusion model (the pipeline's default) scores every image row
  // through ModelServer::ScoreBatch. The rows hold the nonservable
  // content_risk_score, as the store's image rows do when served.
  {
    auto selection =
        SelectFeatures(registry.schema(), FeatureSelectionOptions{});
    CM_CHECK(selection.ok()) << selection.status();
    FusionInput input;
    input.store = &store;
    input.text_features = selection->text_model_features;
    input.image_features = selection->image_model_features;
    for (const Entity& e : corpus.text_labeled) {
      input.points.push_back(TrainPoint{e.id, Modality::kText,
                                        e.label == 1 ? 1.0f : 0.0f, 1.0f});
    }
    std::vector<const FeatureVector*> image_rows;
    for (const Entity& e : corpus.image_unlabeled) {
      input.points.push_back(TrainPoint{e.id, Modality::kImage,
                                        e.label == 1 ? 0.9f : 0.1f, 1.0f});
      image_rows.push_back(*store.Get(e.id));
    }
    auto score_row = [&](const std::string& stage, const ModelSpec& spec) {
      auto model = TrainEarlyFusion(input, spec);
      CM_CHECK(model.ok()) << model.status();
      auto server = ModelServer::Create(std::move(*model), &registry.schema(),
                                        input.image_features);
      CM_CHECK(server.ok()) << server.status();
      StageRow row;
      row.stage = stage;
      row.entities = image_rows.size();
      row.serial_only = true;
      row.serial_ms = MedianWallMs(warmup, reps, [&] {
        CM_CHECK(server->ScoreBatch(image_rows).size() == image_rows.size());
      });
      rows.push_back(row);
    };

    ModelSpec mlp_spec;
    mlp_spec.kind = ModelKind::kMlp;
    mlp_spec.hidden = {32};
    mlp_spec.ensemble_size = 3;
    mlp_spec.train.epochs = 2;
    score_row("model_score_mlp", mlp_spec);

    ModelSpec lr_spec;
    lr_spec.kind = ModelKind::kLogisticRegression;
    lr_spec.ensemble_size = 3;
    lr_spec.train.epochs = 2;
    score_row("model_score_lr", lr_spec);
  }

  // ---- Report. -----------------------------------------------------------
  const std::string par_col = std::to_string(threads) + "-thread ms";
  TablePrinter table(
      {"stage", "entities", "1-thread ms", par_col, "speedup", "identical"});
  BenchReporter json("parallel_hotpaths");
  bool all_identical = true;
  for (const StageRow& row : rows) {
    json.AddStage(BenchStage{row.stage, row.serial_ms, 1, row.entities,
                             task.seed, reps});
    if (row.serial_only) {
      table.AddRow({row.stage, std::to_string(row.entities),
                    TablePrinter::Num(row.serial_ms, 2), "-", "-", "-"});
      continue;
    }
    all_identical = all_identical && row.identical;
    table.AddRow({row.stage, std::to_string(row.entities),
                  TablePrinter::Num(row.serial_ms, 2),
                  TablePrinter::Num(row.parallel_ms, 2),
                  TablePrinter::Factor(row.serial_ms /
                                       std::max(row.parallel_ms, 1e-9)),
                  row.identical ? "yes" : "NO"});
    json.AddStage(BenchStage{row.stage, row.parallel_ms, threads,
                             row.entities, task.seed, reps});
  }
  table.Print(std::cout);
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_parallel_hotpaths: FAIL — artifacts diverged "
                 "between thread counts\n");
    return 1;
  }
  std::printf("\nAll artifacts bit-identical across thread counts.\n");
  return json.Write() ? 0 : 1;
}
