#include "replay.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "audit/determinism.h"
#include "core/evaluation.h"
#include "dataflow/feature_generation.h"
#include "graph/similarity.h"
#include "util/hashing.h"
#include "util/random.h"

namespace perfbench {

using namespace crossmodal;

namespace {

/// The benches' default configuration (MLP hidden 32, ensemble of 3, early
/// fusion; logistic regression where the spec asks for it) at the
/// workload's thread budget.
PipelineConfig BenchConfig(const TaskSpec& task, ModelKind model) {
  PipelineConfig config;
  config.seed = DeriveSeed(task.seed, "pipeline");
  config.model.kind = model;
  config.model.hidden = {32};
  config.model.ensemble_size = 3;
  config.model.train.epochs = 10;
  config.model.train.learning_rate = 0.03;
  config.curation.label_model.fixed_class_balance = task.pos_rate;
  config.curation.prop_target_precision_pos =
      std::clamp(10.0 * task.pos_rate, 0.12, 0.80);
  config.curation.graph.k = 15;
  config.parallel.num_threads = kPipelineThreads;
  return config;
}

/// `config` at `threads` workers, fanned out to the stage options the way
/// the CrossModalPipeline constructor does.
PipelineConfig WithThreads(PipelineConfig config, size_t threads) {
  config.parallel.num_threads = threads;
  config.curation.graph.parallel = config.parallel;
  config.curation.propagation.parallel = config.parallel;
  config.model.train.parallel = config.parallel;
  return config;
}

std::vector<EntityId> AllEntityIds(const Corpus& corpus) {
  std::vector<EntityId> ids;
  ids.reserve(corpus.TotalSize());
  for (const auto* split : {&corpus.text_labeled, &corpus.image_unlabeled,
                            &corpus.image_labeled_pool, &corpus.image_test}) {
    for (const Entity& e : *split) ids.push_back(e.id);
  }
  return ids;
}

std::vector<EntityId> UnlabeledIds(const Corpus& corpus) {
  std::vector<EntityId> ids;
  ids.reserve(corpus.image_unlabeled.size());
  for (const Entity& e : corpus.image_unlabeled) ids.push_back(e.id);
  return ids;
}

/// Training points exactly as CrossModalPipeline::Run assembles them.
FusionInput AssembleTrainingPoints(
    const AdaptContext& ctx, const PipelineConfig& config,
    const FeatureStore& store, const FeatureSelection& selection,
    const std::vector<ProbabilisticLabel>& weak_labels) {
  FusionInput input;
  input.store = &store;
  input.text_features = selection.text_model_features;
  input.image_features = selection.image_model_features;
  Rng rng(DeriveSeed(config.seed, "train_sample"));
  size_t n_ws = 0;
  for (const ProbabilisticLabel& label : weak_labels) {
    if (config.curation.drop_uncovered && !label.covered) continue;
    if (config.max_ws_points != 0 && n_ws >= config.max_ws_points) break;
    input.points.push_back(TrainPoint{label.entity, Modality::kImage,
                                      static_cast<float>(label.p_positive),
                                      1.0f});
    ++n_ws;
  }
  const auto& text = ctx.corpus.text_labeled;
  const size_t n_text = config.max_text_points == 0
                            ? text.size()
                            : std::min(config.max_text_points, text.size());
  float text_weight = 1.0f;
  if (config.balance_modalities && n_text > 0 && n_ws > 0) {
    text_weight = static_cast<float>(
        std::clamp(static_cast<double>(n_ws) / static_cast<double>(n_text),
                   0.2, 1.0));
  }
  for (size_t i : rng.SampleWithoutReplacement(text.size(), n_text)) {
    input.points.push_back(TrainPoint{text[i].id, Modality::kText,
                                      text[i].label == 1 ? 1.0f : 0.0f,
                                      text_weight});
  }
  return input;
}

/// The label-propagation LF of CrossModalPipeline's curation step, one span
/// per graph call.
struct PropagationLf {
  LabelingFunctionPtr lf;
  SimilarityGraph graph;
  std::vector<EntityId> nodes;
  PropagationResult propagation;
};

Result<PropagationLf> BuildPropagationLf(
    const AdaptContext& ctx, const PipelineConfig& config,
    const FeatureStore& store, const FeatureSelection& selection,
    const std::vector<const Entity*>& dev_entities, Tracer* tracer,
    ReplayOutcome* out) {
  const CurationOptions& cur = config.curation;
  Rng rng(DeriveSeed(config.seed, "label_prop"));
  const auto& text = ctx.corpus.text_labeled;
  std::vector<size_t> pos_idx, neg_idx;
  for (size_t i = 0; i < text.size(); ++i) {
    (text[i].label == 1 ? pos_idx : neg_idx).push_back(i);
  }
  auto shuffle_indices = [&rng](std::vector<size_t>* idx) {
    const auto perm = rng.Permutation(idx->size());
    std::vector<size_t> shuffled;
    shuffled.reserve(idx->size());
    for (size_t p : perm) shuffled.push_back((*idx)[p]);
    *idx = std::move(shuffled);
  };
  shuffle_indices(&pos_idx);
  shuffle_indices(&neg_idx);

  const size_t seed_pos =
      std::min(pos_idx.size() * 2 / 3, cur.graph_seed_sample / 2);
  const size_t seed_neg = std::min(
      neg_idx.size() * 2 / 3,
      cur.graph_seed_sample - std::min(cur.graph_seed_sample / 2, seed_pos));
  const size_t tune_pos =
      std::min(pos_idx.size() - seed_pos, cur.graph_tune_sample / 4);
  const size_t tune_neg =
      std::min(neg_idx.size() - seed_neg, cur.graph_tune_sample - tune_pos);

  PropagationLf result;
  std::unordered_map<EntityId, double> seeds;
  std::vector<const Entity*> tune_entities;
  for (size_t k = 0; k < seed_pos; ++k) {
    result.nodes.push_back(text[pos_idx[k]].id);
    seeds.emplace(text[pos_idx[k]].id, 1.0);
  }
  for (size_t k = 0; k < seed_neg; ++k) {
    result.nodes.push_back(text[neg_idx[k]].id);
    seeds.emplace(text[neg_idx[k]].id, 0.0);
  }
  for (size_t k = 0; k < tune_pos; ++k) {
    result.nodes.push_back(text[pos_idx[seed_pos + k]].id);
    tune_entities.push_back(&text[pos_idx[seed_pos + k]]);
  }
  for (size_t k = 0; k < tune_neg; ++k) {
    result.nodes.push_back(text[neg_idx[seed_neg + k]].id);
    tune_entities.push_back(&text[neg_idx[seed_neg + k]]);
  }
  const double w_pos =
      tune_pos > 0 ? static_cast<double>(pos_idx.size()) / tune_pos : 1.0;
  const double w_neg =
      tune_neg > 0 ? static_cast<double>(neg_idx.size()) / tune_neg : 1.0;
  for (const Entity& e : ctx.corpus.image_unlabeled) {
    result.nodes.push_back(e.id);
  }

  FeatureSimilarity similarity(&ctx.registry->schema(),
                               selection.graph_features);
  std::vector<const FeatureVector*> norm_rows;
  norm_rows.reserve(dev_entities.size());
  for (const Entity* e : dev_entities) {
    auto row = store.Get(e->id);
    if (row.ok()) norm_rows.push_back(*row);
  }
  {
    ScopedSpan span(tracer, "graph/normalize");
    similarity.FitNormalization(norm_rows);
    out->ms["graph/normalize"] = span.Stop();
  }
  {
    ScopedSpan span(tracer, "graph/knn_build");
    CM_ASSIGN_OR_RETURN(result.graph, BuildKnnGraph(result.nodes, store,
                                                    similarity, cur.graph));
    out->ms["graph/knn_build"] = span.Stop();
  }
  {
    ScopedSpan span(tracer, "graph/propagate");
    CM_ASSIGN_OR_RETURN(result.propagation,
                        PropagateLabels(result.graph, seeds, cur.propagation));
    out->ms["graph/propagate"] = span.Stop();
  }

  std::vector<WeightedScore> holdout;
  for (const Entity* e : tune_entities) {
    auto it = result.propagation.scores.find(e->id);
    if (it == result.propagation.scores.end()) continue;
    const int label = e->label == 1 ? 1 : 0;
    holdout.push_back(
        WeightedScore{it->second, label, label == 1 ? w_pos : w_neg});
  }
  ScoreThresholds thresholds;
  {
    ScopedSpan span(tracer, "graph/tune_thresholds");
    thresholds = TuneScoreThresholds(holdout, cur.prop_target_precision_pos,
                                     cur.prop_target_precision_neg);
  }
  std::unordered_map<EntityId, double> image_scores;
  for (const Entity& e : ctx.corpus.image_unlabeled) {
    auto it = result.propagation.scores.find(e.id);
    if (it != result.propagation.scores.end()) {
      image_scores.emplace(e.id, it->second);
    }
  }
  out->prop_lf_scores = image_scores.size();
  result.lf = std::make_unique<ScoreThresholdLF>(
      "label_propagation", std::move(image_scores), thresholds.positive,
      thresholds.negative);
  return result;
}

/// The hashes of the artifacts Run() exposes, for comparison with a replay.
struct RunHashes {
  uint64_t store_hash = 0;
  uint64_t matrix_hash = 0;
  uint64_t weak_labels_hash = 0;
  uint64_t test_scores_hash = 0;
};

RunHashes HashRun(const AdaptContext& ctx, const RunOutcome& run) {
  const FeatureStore& store = run.pipeline->store();
  RunHashes hashes;
  hashes.store_hash =
      DeterminismHarness::HashFeatureRows(store, AllEntityIds(ctx.corpus));
  hashes.matrix_hash = DeterminismHarness::HashLabelMatrix(
      ApplyLabelingFunctions(run.result.curation.lfs, UnlabeledIds(ctx.corpus),
                             store));
  hashes.weak_labels_hash =
      DeterminismHarness::HashWeakLabels(run.result.curation.weak_labels);
  hashes.test_scores_hash = HashDoubles(run.test_scores);
  return hashes;
}

}  // namespace

Result<AdaptContext> SetupAdapt(const AdaptSpec& spec, uint64_t seed,
                                Tracer* tracer) {
  AdaptContext ctx;
  ctx.task = TaskSpec::CT(spec.task).Scaled(spec.scale);
  ctx.task.n_image_test = spec.test_entities;
  ctx.task.seed = DeriveSeed(ctx.task.seed, seed);
  {
    ScopedSpan span(tracer, "synth/corpus");
    ctx.generator =
        std::make_unique<CorpusGenerator>(WorldConfig(), ctx.task);
    ctx.corpus = ctx.generator->Generate();
  }
  {
    ScopedSpan span(tracer, "resources/registry");
    CM_ASSIGN_OR_RETURN(ResourceRegistry registry,
                        BuildModerationRegistry(*ctx.generator, ctx.task.seed));
    ctx.registry = std::make_unique<ResourceRegistry>(std::move(registry));
  }
  ctx.config = BenchConfig(ctx.task, spec.model);
  return ctx;
}

Result<RunOutcome> RunPipeline(const AdaptContext& ctx) {
  RunOutcome run;
  run.pipeline = std::make_unique<CrossModalPipeline>(ctx.registry.get(),
                                                      &ctx.corpus, ctx.config);
  const int64_t start = NowNs();
  CM_ASSIGN_OR_RETURN(run.result, run.pipeline->Run());
  run.seconds = static_cast<double>(NowNs() - start) / 1e9;
  run.test_scores = run.pipeline->ScoreTestSet(*run.result.model);
  const EvalResult eval =
      EvaluateScores(run.test_scores, ctx.corpus.image_test);
  run.test_auprc = eval.auprc;
  run.test_roc_auc = eval.roc_auc;
  return run;
}

Result<ReplayOutcome> Replay(const AdaptContext& ctx, size_t threads,
                             const RunOutcome& run, Tracer* tracer) {
  const PipelineConfig config = WithThreads(ctx.config, threads);
  const CurationOptions& cur = config.curation;
  const ResourceRegistry& registry = *ctx.registry;
  const Corpus& corpus = ctx.corpus;
  ReplayOutcome out;
  ScopedSpan root(tracer, "replay/" + std::to_string(threads) + "t");

  // ---- Step A: feature generation. --------------------------------------
  FeatureStore store(&registry.schema());
  registry.ResetHealth();
  FeatureGenStats gen_stats;
  {
    ScopedSpan span(tracer, "dataflow/feature_gen");
    MapReduceExecutor executor(threads);
    for (const auto* split : {&corpus.text_labeled, &corpus.image_unlabeled,
                              &corpus.image_labeled_pool, &corpus.image_test}) {
      GenerateFeatures(*split, registry, &executor, &store, &gen_stats);
    }
    out.ms["dataflow/feature_gen"] = span.Stop();
  }
  double service_calls = 0.0;
  for (const ServiceHealth& h : registry.HealthSnapshot()) {
    service_calls += static_cast<double>(h.requests);
  }
  out.counts["dataflow.rows"] = static_cast<double>(gen_stats.rows);
  out.counts["resources.service_calls"] = service_calls;
  out.store_hash =
      DeterminismHarness::HashFeatureRows(store, AllEntityIds(corpus));
  CM_ASSIGN_OR_RETURN(const FeatureSelection selection,
                      SelectFeatures(registry.schema(), config.features));

  // ---- Step B: development set, mining, propagation, label model. -------
  Rng rng(DeriveSeed(config.seed, "dev_sample"));
  const auto& text = corpus.text_labeled;
  std::vector<const Entity*> dev_entities;
  std::vector<const FeatureVector*> dev_rows;
  std::vector<int> dev_labels;
  for (size_t i : rng.SampleWithoutReplacement(
           text.size(), std::min(cur.dev_sample, text.size()))) {
    auto row = store.Get(text[i].id);
    if (!row.ok()) continue;
    dev_entities.push_back(&text[i]);
    dev_rows.push_back(*row);
    dev_labels.push_back(text[i].label == 1 ? 1 : 0);
  }
  double dev_pos_rate = 0.0;
  for (int y : dev_labels) dev_pos_rate += y;
  dev_pos_rate /= static_cast<double>(std::max<size_t>(1, dev_labels.size()));

  MiningOptions mining = cur.mining;
  if (mining.allowed_features.empty()) {
    mining.allowed_features = selection.lf_features;
  }
  const ItemsetMiner miner(&registry.schema(), mining);
  std::vector<LabelingFunctionPtr> lfs;
  {
    ScopedSpan span(tracer, "mining/mine");
    CM_ASSIGN_OR_RETURN(MiningResult mined,
                        miner.MineLFs(dev_rows, dev_labels));
    out.ms["mining/mine"] = span.Stop();
    lfs = std::move(mined.lfs);
    out.counts["mining.candidates"] =
        static_cast<double>(mined.report.order1_candidates +
                            mined.report.higher_order_candidates);
    out.counts["mining.lfs"] = static_cast<double>(lfs.size());
  }

  if (cur.use_label_propagation) {
    CM_ASSIGN_OR_RETURN(PropagationLf prop,
                        BuildPropagationLf(ctx, config, store, selection,
                                           dev_entities, tracer, &out));
    out.graph_hash = DeterminismHarness::HashGraph(prop.graph);
    out.propagation_hash = DeterminismHarness::HashPropagationScores(
        prop.propagation.scores, prop.nodes);
    out.avg_degree = prop.graph.AverageDegree();
    out.prop_iterations = prop.propagation.iterations;
    out.counts["graph.knn_nodes"] =
        static_cast<double>(prop.graph.num_nodes());
    out.counts["graph.prop_iterations"] = prop.propagation.iterations;
    lfs.push_back(std::move(prop.lf));
  }

  const std::vector<EntityId> unlabeled_ids = UnlabeledIds(corpus);
  LabelMatrix matrix;
  {
    ScopedSpan span(tracer, "labeling/apply");
    matrix = ApplyLabelingFunctions(lfs, unlabeled_ids, store);
    out.ms["labeling/apply"] = span.Stop();
  }
  out.matrix_hash = DeterminismHarness::HashLabelMatrix(matrix);
  out.coverage = matrix.TotalCoverage();

  GenerativeModelOptions lm_options = cur.label_model;
  if (!lm_options.fixed_class_balance.has_value()) {
    lm_options.fixed_class_balance = std::clamp(dev_pos_rate, 1e-4, 1 - 1e-4);
  }
  std::vector<ProbabilisticLabel> weak_labels;
  {
    ScopedSpan span(tracer, "labeling/em_fit");
    CM_ASSIGN_OR_RETURN(GenerativeLabelModel label_model,
                        GenerativeLabelModel::Fit(matrix, lm_options));
    out.ms["labeling/em_fit"] = span.Stop();
    out.counts["labeling.em_iterations"] = label_model.iterations();
    ScopedSpan predict(tracer, "labeling/predict");
    weak_labels = label_model.Predict(matrix);
    out.ms["labeling/predict"] = predict.Stop();
  }
  out.weak_labels_hash = DeterminismHarness::HashWeakLabels(weak_labels);

  // ---- Step C: fused training and test-set scoring. ---------------------
  const FusionInput input =
      AssembleTrainingPoints(ctx, config, store, selection, weak_labels);
  CrossModalModelPtr model;
  {
    ScopedSpan span(tracer, "fusion/train");
    CM_ASSIGN_OR_RETURN(model, TrainFused(input, config.model, config.fusion));
    out.ms["fusion/train"] = span.Stop();
  }
  {
    ScopedSpan span(tracer, "core/score_test");
    out.test_scores_hash = HashDoubles(run.pipeline->ScoreTestSet(*model));
    out.ms["core/score_test"] = span.Stop();
  }
  return out;
}

Result<double> MemberTrainMs(const AdaptContext& ctx, const RunOutcome& run,
                             Tracer* tracer) {
  const PipelineConfig config = WithThreads(ctx.config, kPipelineThreads);
  const int members = config.model.ensemble_size;
  if (members < 2) return Status::InvalidArgument("ensemble of one member");
  CM_ASSIGN_OR_RETURN(const FeatureSelection selection,
                      SelectFeatures(ctx.registry->schema(), config.features));
  const FusionInput input =
      AssembleTrainingPoints(ctx, config, run.pipeline->store(), selection,
                             run.result.curation.weak_labels);
  ModelSpec single = config.model;
  single.ensemble_size = 1;
  ScopedSpan one(tracer, "fusion/train_1_member");
  CM_ASSIGN_OR_RETURN(CrossModalModelPtr small,
                      TrainFused(input, single, config.fusion));
  const double one_ms = one.Stop();
  ScopedSpan all(tracer, "fusion/train_all_members");
  CM_ASSIGN_OR_RETURN(CrossModalModelPtr full,
                      TrainFused(input, config.model, config.fusion));
  const double all_ms = all.Stop();
  return (all_ms - one_ms) / (members - 1);
}

std::vector<std::string> CheckReplay(const AdaptContext& ctx,
                                     const RunOutcome& run,
                                     const ReplayOutcome& four,
                                     const ReplayOutcome& one) {
  std::vector<std::string> failures;
  auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  // Run() does not expose its kNN graph or propagation scores; the replay
  // is checked against every artifact it does expose (the graph's average
  // degree, the iteration count, the propagation LF's scored entities and
  // its votes inside the label matrix).
  const RunHashes run_hashes = HashRun(ctx, run);
  const CurationArtifacts& cur = run.result.curation;
  size_t run_prop_scores = 0;
  for (const LabelingFunctionPtr& lf : cur.lfs) {
    if (const auto* prop = dynamic_cast<const ScoreThresholdLF*>(lf.get())) {
      run_prop_scores = prop->num_scores();
    }
  }
  expect(four.store_hash == run_hashes.store_hash,
         "replay feature store differs from Run()");
  expect(four.avg_degree == cur.graph_avg_degree,
         "replay kNN graph degree differs from Run()");
  expect(four.prop_iterations == cur.propagation_iterations,
         "replay propagation iterations differ from Run()");
  expect(four.prop_lf_scores == run_prop_scores,
         "replay propagation LF scores a different entity set than Run()");
  expect(four.matrix_hash == run_hashes.matrix_hash,
         "replay label matrix differs from Run()");
  expect(four.weak_labels_hash == run_hashes.weak_labels_hash,
         "replay weak labels differ from Run()");
  expect(four.test_scores_hash == run_hashes.test_scores_hash,
         "replay test scores differ from Run()");
  expect(one.store_hash == four.store_hash, "feature store: 1t != 4t");
  expect(one.graph_hash == four.graph_hash, "kNN graph: 1t != 4t");
  expect(one.propagation_hash == four.propagation_hash,
         "propagation scores: 1t != 4t");
  expect(one.matrix_hash == four.matrix_hash, "label matrix: 1t != 4t");
  expect(one.weak_labels_hash == four.weak_labels_hash,
         "weak labels: 1t != 4t");
  expect(one.test_scores_hash == four.test_scores_hash,
         "test scores: 1t != 4t");
  return failures;
}

}  // namespace perfbench
