// CrossModalPipeline: the paper's augmented three-step split architecture.
//
//   (A) Feature generation  — organizational resources induce a common
//                             feature space over old and new modalities;
//   (B) Training-data curation — automatic LFs (itemset mining, §4.3) plus a
//                             label-propagation LF (§4.4), combined by the
//                             Snorkel-style generative model into
//                             probabilistic labels for the new modality;
//   (C) Model training       — multi-modal fusion over old-modality human
//                             labels and new-modality weak labels (§5).

#ifndef CROSSMODAL_CORE_PIPELINE_H_
#define CROSSMODAL_CORE_PIPELINE_H_

#include <memory>
#include <vector>

#include "core/feature_selection.h"
#include "dataflow/feature_generation.h"
#include "fusion/fusion.h"
#include "graph/knn_graph.h"
#include "graph/label_propagation.h"
#include "io/store_format.h"
#include "labeling/label_model.h"
#include "labeling/labeling_function.h"
#include "mining/itemset_miner.h"
#include "resources/registry.h"
#include "synth/entity.h"

namespace crossmodal {

/// Step-B (curation) parameters.
struct CurationOptions {
  CurationOptions() {
    // Mined LFs are correlated; temper the posteriors (see label_model.h).
    label_model.posterior_temperature = 3.0;
  }

  MiningOptions mining;
  /// Labeled old-modality points used as the mining/LF development set.
  size_t dev_sample = 4000;
  bool use_label_propagation = true;
  KnnGraphOptions graph;
  PropagationOptions propagation;
  /// Labeled old-modality points seeded into the graph, and held out to
  /// tune the propagation-score thresholds.
  size_t graph_seed_sample = 2500;
  size_t graph_tune_sample = 800;
  double prop_target_precision_pos = 0.80;
  double prop_target_precision_neg = 0.98;
  GenerativeModelOptions label_model;
  /// Drop weakly labeled points every LF abstained on (uninformative).
  bool drop_uncovered = true;
};

/// Full pipeline configuration.
struct PipelineConfig {
  FeatureSelectionOptions features;
  CurationOptions curation;
  ModelSpec model;
  FusionMethod fusion = FusionMethod::kEarly;
  /// Sample caps for training (0 = use everything).
  size_t max_text_points = 0;
  size_t max_ws_points = 0;
  /// Down-weight the larger modality so neither channel overpowers the
  /// early-fusion loss (the imbalance §5 flags as intermediate fusion's
  /// motivation; weighting solves it without a second training pass).
  bool balance_modalities = true;
  uint64_t seed = 0x5EED;
  /// On-disk representation for persisted feature-store artifacts (cmctl
  /// generate/curate/convert consult this; the in-memory pipeline does not
  /// write files itself).
  StoreFormat store_format = StoreFormat::kTsv;
  /// Worker budget for the measured hot paths (feature generation, kNN
  /// graph, model training). Overrides the per-stage ParallelConfig in
  /// curation.graph / model.train; every value produces bit-identical
  /// artifacts (util/parallel.h).
  ParallelConfig parallel;
};

/// Artifacts of the curation step (exposed for benches and inspection).
struct CurationArtifacts {
  std::vector<LabelingFunctionPtr> lfs;
  MiningReport mining_report;
  bool used_label_propagation = false;
  int propagation_iterations = 0;
  double graph_avg_degree = 0.0;
  double lf_total_coverage = 0.0;  ///< On the unlabeled new modality.
  int label_model_iterations = 0;
  double learned_class_balance = 0.0;
  /// Probabilistic labels for the unlabeled new-modality points (aligned to
  /// the order they were passed in).
  std::vector<ProbabilisticLabel> weak_labels;
};

/// Timing and volume report, plus per-stage degradation stats when a fault
/// layer is installed on the registry (resources/fault_injection.h).
struct PipelineReport {
  double feature_gen_seconds = 0.0;
  double curation_seconds = 0.0;
  double training_seconds = 0.0;
  size_t n_text_train = 0;
  size_t n_ws_train = 0;
  size_t n_features = 0;

  // ---- Degradation (step A) ----
  /// Per-service health counters, index-aligned with the schema. All zeros
  /// except `requests` when no fault layer is installed.
  std::vector<ServiceHealth> service_health;
  /// Services that lost at least one request past the retry budget.
  size_t services_degraded = 0;
  /// Fraction of applicable (service, entity) requests answered with a
  /// missing value — natural abstains plus degraded misses.
  double feature_missing_fraction = 0.0;
  /// Fraction lost to outages alone (degraded misses / requests).
  double feature_degraded_fraction = 0.0;
  /// Entities materialized in step A (all corpus splits).
  size_t rows_generated = 0;
  /// Response-cache totals across all services (zero with no cache
  /// installed; see ResourceRegistry::InstallResponseCache).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  // ---- Degradation (step B) ----
  /// LF coverage on the unlabeled new modality; drops when services are
  /// down because LFs over their features abstain.
  double lf_coverage = 0.0;
};

/// A fitted pipeline.
struct PipelineResult {
  CrossModalModelPtr model;
  CurationArtifacts curation;
  PipelineReport report;
};

/// The end-to-end system. The pipeline owns the feature store it builds in
/// step A so later steps (and evaluation) share one copy.
class CrossModalPipeline {
 public:
  /// `registry` and `corpus` must outlive the pipeline.
  CrossModalPipeline(const ResourceRegistry* registry, const Corpus* corpus,
                     PipelineConfig config);

  /// Runs steps A-C and returns the fitted cross-modal model + artifacts.
  [[nodiscard]] Result<PipelineResult> Run();

  /// Runs only step A (idempotent; Run() calls it internally).
  [[nodiscard]] Status GenerateFeatureSpace();

  /// Runs step B against the generated features (Run() calls it).
  [[nodiscard]] Result<CurationArtifacts> CurateTrainingData();

  /// The materialized common feature space (valid after
  /// GenerateFeatureSpace()).
  const FeatureStore& store() const { return *store_; }

  /// Scores the held-out image test set with a fitted model.
  std::vector<double> ScoreTestSet(const CrossModalModel& model) const;

  const FeatureSelection& selection() const { return selection_; }
  const PipelineConfig& config() const { return config_; }

 private:
  [[nodiscard]] Result<std::vector<LabelingFunctionPtr>> BuildLabelPropagationLF(
      const std::vector<const Entity*>& dev_entities,
      CurationArtifacts* artifacts);

  const ResourceRegistry* registry_;
  const Corpus* corpus_;
  PipelineConfig config_;
  FeatureSelection selection_;
  std::unique_ptr<FeatureStore> store_;
  bool features_generated_ = false;
  double feature_gen_seconds_ = 0.0;
  FeatureGenStats gen_stats_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_CORE_PIPELINE_H_
