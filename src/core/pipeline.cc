#include "core/pipeline.h"

#include <algorithm>
#include <unordered_set>

#include "dataflow/feature_generation.h"
#include "graph/similarity.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/timer.h"

namespace crossmodal {

CrossModalPipeline::CrossModalPipeline(const ResourceRegistry* registry,
                                       const Corpus* corpus,
                                       PipelineConfig config)
    : registry_(registry), corpus_(corpus), config_(std::move(config)) {
  CM_CHECK(registry_ != nullptr && corpus_ != nullptr);
  // One knob drives every measured hot path: fan the pipeline-level
  // ParallelConfig out to the stage options consumed downstream.
  config_.curation.graph.parallel = config_.parallel;
  config_.curation.propagation.parallel = config_.parallel;
  config_.model.train.parallel = config_.parallel;
}

Status CrossModalPipeline::GenerateFeatureSpace() {
  if (features_generated_) return Status::OK();
  CM_ASSIGN_OR_RETURN(selection_,
                      SelectFeatures(registry_->schema(), config_.features));
  Timer timer;
  store_ = std::make_unique<FeatureStore>(&registry_->schema());
  // Health counters are scoped to this pipeline's step A so the report is a
  // pure function of (corpus, registry, fault plan).
  registry_->ResetHealth();
  StagePool pool(config_.parallel);
  for (const auto* split : {&corpus_->text_labeled, &corpus_->image_unlabeled,
                            &corpus_->image_labeled_pool,
                            &corpus_->image_test}) {
    GenerateFeatures(*split, *registry_, pool.get(), store_.get(),
                     &gen_stats_);
  }
  feature_gen_seconds_ = timer.ElapsedSeconds();
  features_generated_ = true;
  return Status::OK();
}

Result<std::vector<LabelingFunctionPtr>>
CrossModalPipeline::BuildLabelPropagationLF(
    const std::vector<const Entity*>& dev_entities,
    CurationArtifacts* artifacts) {
  const CurationOptions& cur = config_.curation;
  Rng rng(DeriveSeed(config_.seed, "label_prop"));

  // Seed and tune samples from the labeled old modality (disjoint).
  // Stratified: positives are precious under class imbalance (0.9% of CT 4),
  // so up to half the seed budget goes to positives; the tune holdout is
  // likewise stratified and re-weighted back to the natural class mix.
  const auto& text = corpus_->text_labeled;
  std::vector<size_t> pos_idx, neg_idx;
  for (size_t i = 0; i < text.size(); ++i) {
    (text[i].label == 1 ? pos_idx : neg_idx).push_back(i);
  }
  auto shuffle_indices = [&rng](std::vector<size_t>* idx) {
    const auto perm = rng.Permutation(idx->size());
    std::vector<size_t> out;
    out.reserve(idx->size());
    for (size_t p : perm) out.push_back((*idx)[p]);
    *idx = std::move(out);
  };
  shuffle_indices(&pos_idx);
  shuffle_indices(&neg_idx);

  const size_t seed_pos = std::min(pos_idx.size() * 2 / 3,
                                   cur.graph_seed_sample / 2);
  const size_t seed_neg =
      std::min(neg_idx.size() * 2 / 3,
               cur.graph_seed_sample - std::min(cur.graph_seed_sample / 2,
                                                seed_pos));
  const size_t tune_pos = std::min(pos_idx.size() - seed_pos,
                                   cur.graph_tune_sample / 4);
  const size_t tune_neg = std::min(neg_idx.size() - seed_neg,
                                   cur.graph_tune_sample - tune_pos);

  std::vector<EntityId> nodes;
  std::unordered_map<EntityId, double> seeds;
  std::vector<const Entity*> tune_entities;
  for (size_t k = 0; k < seed_pos; ++k) {
    const Entity& e = text[pos_idx[k]];
    nodes.push_back(e.id);
    seeds.emplace(e.id, 1.0);
  }
  for (size_t k = 0; k < seed_neg; ++k) {
    const Entity& e = text[neg_idx[k]];
    nodes.push_back(e.id);
    seeds.emplace(e.id, 0.0);
  }
  for (size_t k = 0; k < tune_pos; ++k) {
    const Entity& e = text[pos_idx[seed_pos + k]];
    nodes.push_back(e.id);
    tune_entities.push_back(&e);
  }
  for (size_t k = 0; k < tune_neg; ++k) {
    const Entity& e = text[neg_idx[seed_neg + k]];
    nodes.push_back(e.id);
    tune_entities.push_back(&e);
  }
  // Inverse-sampling weights restoring the natural class mix in tuning.
  const double w_pos =
      tune_pos > 0 ? static_cast<double>(pos_idx.size()) / tune_pos : 1.0;
  const double w_neg =
      tune_neg > 0 ? static_cast<double>(neg_idx.size()) / tune_neg : 1.0;
  for (const Entity& e : corpus_->image_unlabeled) nodes.push_back(e.id);

  // Similarity over the graph features (common features + embeddings).
  FeatureSimilarity similarity(&registry_->schema(),
                               selection_.graph_features);
  std::vector<const FeatureVector*> norm_rows;
  norm_rows.reserve(dev_entities.size());
  for (const Entity* e : dev_entities) {
    auto row = store_->Get(e->id);
    if (row.ok()) norm_rows.push_back(*row);
  }
  similarity.FitNormalization(norm_rows);

  CM_ASSIGN_OR_RETURN(SimilarityGraph graph,
                      BuildKnnGraph(nodes, *store_, similarity, cur.graph));
  artifacts->graph_avg_degree = graph.AverageDegree();

  PropagationOptions prop_options = cur.propagation;
  CM_ASSIGN_OR_RETURN(PropagationResult prop,
                      PropagateLabels(graph, seeds, prop_options));
  artifacts->propagation_iterations = prop.iterations;

  // Tune thresholds on the held-out labeled text nodes (weighted back to
  // the natural class mix).
  std::vector<WeightedScore> holdout;
  for (const Entity* e : tune_entities) {
    auto it = prop.scores.find(e->id);
    if (it == prop.scores.end()) continue;
    const int label = e->label == 1 ? 1 : 0;
    holdout.push_back(
        WeightedScore{it->second, label, label == 1 ? w_pos : w_neg});
  }
  const ScoreThresholds thresholds = TuneScoreThresholds(
      holdout, cur.prop_target_precision_pos, cur.prop_target_precision_neg);

  // The LF carries scores for the unlabeled new-modality points only.
  std::unordered_map<EntityId, double> image_scores;
  for (const Entity& e : corpus_->image_unlabeled) {
    auto it = prop.scores.find(e.id);
    if (it != prop.scores.end()) image_scores.emplace(e.id, it->second);
  }

  // Note on heavy imbalance: the thresholds are tuned on old-modality
  // nodes, which sit closer to the seeds than new-modality nodes do, so on
  // tasks like CT 4 the positive threshold transfers conservatively and
  // the LF labels few — but precise — borderline positives. Relaxing it to
  // a prior-mass quantile floods the label model with low-precision votes
  // and hurts end AUPRC (measured), so precision-targeted tuning stands.
  std::vector<LabelingFunctionPtr> out;
  out.push_back(std::make_unique<ScoreThresholdLF>(
      "label_propagation", std::move(image_scores), thresholds.positive,
      thresholds.negative));
  return out;
}

Result<CurationArtifacts> CrossModalPipeline::CurateTrainingData() {
  CM_RETURN_IF_ERROR(GenerateFeatureSpace());
  const CurationOptions& cur = config_.curation;
  CurationArtifacts artifacts;
  Rng rng(DeriveSeed(config_.seed, "dev_sample"));

  // ---- Development set: labeled points of the existing modality (§4.2).
  const auto& text = corpus_->text_labeled;
  const size_t n_dev = std::min(cur.dev_sample, text.size());
  const auto dev_idx = rng.SampleWithoutReplacement(text.size(), n_dev);
  std::vector<const Entity*> dev_entities;
  std::vector<const FeatureVector*> dev_rows;
  std::vector<int> dev_labels;
  for (size_t i : dev_idx) {
    auto row = store_->Get(text[i].id);
    if (!row.ok()) continue;
    dev_entities.push_back(&text[i]);
    dev_rows.push_back(*row);
    dev_labels.push_back(text[i].label == 1 ? 1 : 0);
  }
  double dev_pos_rate = 0.0;
  for (int y : dev_labels) dev_pos_rate += y;
  dev_pos_rate /= std::max<size_t>(1, dev_labels.size());

  // ---- Automatic LF generation by itemset mining (§4.3). ---------------
  MiningOptions mining = cur.mining;
  if (mining.allowed_features.empty()) {
    mining.allowed_features = selection_.lf_features;
  }
  ItemsetMiner miner(&registry_->schema(), mining);
  CM_ASSIGN_OR_RETURN(MiningResult mined, miner.MineLFs(dev_rows, dev_labels));
  artifacts.lfs = std::move(mined.lfs);
  artifacts.mining_report = mined.report;

  // ---- Label-propagation LF (§4.4). -------------------------------------
  if (cur.use_label_propagation) {
    CM_ASSIGN_OR_RETURN(auto prop_lfs,
                        BuildLabelPropagationLF(dev_entities, &artifacts));
    for (auto& lf : prop_lfs) artifacts.lfs.push_back(std::move(lf));
    artifacts.used_label_propagation = true;
  }

  // ---- Apply LFs + fit the generative model (§4.1). ---------------------
  std::vector<EntityId> unlabeled_ids;
  unlabeled_ids.reserve(corpus_->image_unlabeled.size());
  for (const Entity& e : corpus_->image_unlabeled) {
    unlabeled_ids.push_back(e.id);
  }
  const LabelMatrix matrix =
      ApplyLabelingFunctions(artifacts.lfs, unlabeled_ids, *store_);
  artifacts.lf_total_coverage = matrix.TotalCoverage();

  GenerativeModelOptions lm_options = cur.label_model;
  if (!lm_options.fixed_class_balance.has_value()) {
    // Fix the class balance to the dev-set estimate; EM is unstable under
    // heavy imbalance otherwise.
    lm_options.fixed_class_balance =
        std::clamp(dev_pos_rate, 1e-4, 1.0 - 1e-4);
  }
  CM_ASSIGN_OR_RETURN(GenerativeLabelModel label_model,
                      GenerativeLabelModel::Fit(matrix, lm_options));
  artifacts.label_model_iterations = label_model.iterations();
  artifacts.learned_class_balance = label_model.class_balance();
  artifacts.weak_labels = label_model.Predict(matrix);
  return artifacts;
}

Result<PipelineResult> CrossModalPipeline::Run() {
  Timer total;
  CM_ASSIGN_OR_RETURN(CurationArtifacts curation, CurateTrainingData());
  const double curation_seconds = total.ElapsedSeconds();

  // ---- Assemble multi-modal training points (§5). -----------------------
  Timer train_timer;
  FusionInput input;
  input.store = store_.get();
  input.text_features = selection_.text_model_features;
  input.image_features = selection_.image_model_features;

  Rng rng(DeriveSeed(config_.seed, "train_sample"));
  size_t n_ws = 0;
  for (const ProbabilisticLabel& label : curation.weak_labels) {
    if (config_.curation.drop_uncovered && !label.covered) continue;
    if (config_.max_ws_points != 0 && n_ws >= config_.max_ws_points) break;
    input.points.push_back(TrainPoint{label.entity, Modality::kImage,
                                      static_cast<float>(label.p_positive),
                                      1.0f});
    ++n_ws;
  }
  const auto& text = corpus_->text_labeled;
  const size_t n_text = config_.max_text_points == 0
                            ? text.size()
                            : std::min(config_.max_text_points, text.size());
  float text_weight = 1.0f;
  if (config_.balance_modalities && n_text > 0 && n_ws > 0) {
    text_weight = static_cast<float>(
        std::clamp(static_cast<double>(n_ws) / static_cast<double>(n_text),
                   0.2, 1.0));
  }
  const auto text_idx = rng.SampleWithoutReplacement(text.size(), n_text);
  for (size_t i : text_idx) {
    input.points.push_back(TrainPoint{text[i].id, Modality::kText,
                                      text[i].label == 1 ? 1.0f : 0.0f,
                                      text_weight});
  }

  CM_ASSIGN_OR_RETURN(CrossModalModelPtr model,
                      TrainFused(input, config_.model, config_.fusion));

  PipelineResult result;
  result.model = std::move(model);
  result.curation = std::move(curation);
  result.report.feature_gen_seconds = feature_gen_seconds_;
  result.report.curation_seconds = curation_seconds - feature_gen_seconds_;
  result.report.training_seconds = train_timer.ElapsedSeconds();
  result.report.n_text_train = n_text;
  result.report.n_ws_train = n_ws;
  result.report.n_features = registry_->schema().size();

  // ---- Step-A degradation stats (see resources/fault_injection.h). -------
  result.report.rows_generated = gen_stats_.rows;
  result.report.service_health = registry_->HealthSnapshot();
  uint64_t requests = 0, missing = 0, degraded = 0;
  for (const ServiceHealth& h : result.report.service_health) {
    requests += h.requests;
    missing += h.abstains_served + h.degraded_misses;
    degraded += h.degraded_misses;
    result.report.cache_hits += h.cache_hits;
    result.report.cache_misses += h.cache_misses;
    if (h.degraded()) ++result.report.services_degraded;
  }
  if (requests > 0) {
    result.report.feature_missing_fraction =
        static_cast<double>(missing) / static_cast<double>(requests);
    result.report.feature_degraded_fraction =
        static_cast<double>(degraded) / static_cast<double>(requests);
  }
  result.report.lf_coverage = result.curation.lf_total_coverage;
  return result;
}

std::vector<double> CrossModalPipeline::ScoreTestSet(
    const CrossModalModel& model) const {
  CM_CHECK(features_generated_) << "call Run()/GenerateFeatureSpace() first";
  std::vector<double> scores;
  scores.reserve(corpus_->image_test.size());
  const FeatureVector empty(store_->schema().size());
  for (const Entity& e : corpus_->image_test) {
    auto row = store_->Get(e.id);
    scores.push_back(model.Score(row.ok() ? **row : empty));
  }
  return scores;
}

}  // namespace crossmodal
