#include "audit/determinism.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <utility>

#include "core/pipeline.h"
#include "io/artifacts.h"
#include "io/columnar.h"
#include "io/io_faults.h"
#include "resources/registry.h"
#include "serving/batch_server.h"
#include "serving/model_server.h"
#include "synth/corpus_generator.h"
#include "util/hashing.h"
#include "util/table_printer.h"

namespace crossmodal {

namespace {

void HashEntities(const std::vector<Entity>& entities, Fnv1aHasher* hasher) {
  hasher->AddU64(entities.size());
  for (const Entity& e : entities) {
    hasher->AddU64(e.id);
    hasher->AddByte(static_cast<uint8_t>(e.modality));
    hasher->AddByte(static_cast<uint8_t>(e.label));
    hasher->AddI64(e.timestamp);
    hasher->AddU64(e.latent.semantic.size());
    for (float v : e.latent.semantic) hasher->AddFloat(v);
  }
}

void HashFeatureValue(const FeatureValue& value, Fnv1aHasher* hasher) {
  if (value.is_missing()) {
    hasher->AddByte(0xFF);
    return;
  }
  hasher->AddByte(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case FeatureType::kNumeric:
      hasher->AddDouble(value.numeric());
      break;
    case FeatureType::kCategorical:
      hasher->AddU64(value.categories().size());
      for (int32_t c : value.categories()) hasher->AddI32(c);
      break;
    case FeatureType::kEmbedding:
      hasher->AddU64(value.embedding().size());
      for (float v : value.embedding()) hasher->AddFloat(v);
      break;
  }
}

/// The per-run stage hashes, in audit order.
using StageHashes = std::vector<std::pair<std::string, uint64_t>>;

}  // namespace

bool DeterminismReport::AllPass() const {
  return std::all_of(stages.begin(), stages.end(),
                     [](const StageAudit& s) { return s.pass(); });
}

DeterminismHarness::DeterminismHarness(DeterminismOptions options)
    : options_(options) {}

uint64_t DeterminismHarness::HashCorpus(const Corpus& corpus) {
  Fnv1aHasher hasher;
  HashEntities(corpus.text_labeled, &hasher);
  HashEntities(corpus.image_unlabeled, &hasher);
  HashEntities(corpus.image_labeled_pool, &hasher);
  HashEntities(corpus.image_test, &hasher);
  return hasher.digest();
}

uint64_t DeterminismHarness::HashFeatureRows(
    const FeatureStore& store, const std::vector<EntityId>& order) {
  Fnv1aHasher hasher;
  hasher.AddU64(order.size());
  for (EntityId id : order) {
    hasher.AddU64(id);
    auto row = store.Get(id);
    if (!row.ok()) {
      hasher.AddByte(0xFE);  // missing-row marker
      continue;
    }
    hasher.AddU64((*row)->size());
    for (const FeatureValue& value : (*row)->values()) {
      HashFeatureValue(value, &hasher);
    }
  }
  return hasher.digest();
}

uint64_t DeterminismHarness::HashGraph(const SimilarityGraph& graph) {
  Fnv1aHasher hasher;
  hasher.AddU64(graph.nodes.size());
  for (EntityId id : graph.nodes) hasher.AddU64(id);
  for (const auto& neighbors : graph.adjacency) {
    hasher.AddU64(neighbors.size());
    for (const auto& [j, w] : neighbors) {
      hasher.AddU32(j);
      hasher.AddFloat(w);
    }
  }
  return hasher.digest();
}

uint64_t DeterminismHarness::HashPropagationScores(
    const std::unordered_map<EntityId, double>& scores,
    const std::vector<EntityId>& order) {
  Fnv1aHasher hasher;
  hasher.AddU64(order.size());
  for (EntityId id : order) {
    hasher.AddU64(id);
    auto it = scores.find(id);
    if (it == scores.end()) {
      hasher.AddByte(0xFD);  // unscored marker
    } else {
      hasher.AddDouble(it->second);
    }
  }
  return hasher.digest();
}

uint64_t DeterminismHarness::HashLabelMatrix(const LabelMatrix& matrix) {
  Fnv1aHasher hasher;
  hasher.AddU64(matrix.num_rows());
  hasher.AddU64(matrix.num_lfs());
  for (size_t lf = 0; lf < matrix.num_lfs(); ++lf) {
    hasher.AddString(matrix.lf_name(lf));
  }
  for (size_t row = 0; row < matrix.num_rows(); ++row) {
    hasher.AddU64(matrix.entity(row));
    for (size_t lf = 0; lf < matrix.num_lfs(); ++lf) {
      hasher.AddByte(static_cast<uint8_t>(
          static_cast<int8_t>(matrix.at(row, lf))));
    }
  }
  return hasher.digest();
}

uint64_t DeterminismHarness::HashWeakLabels(
    const std::vector<ProbabilisticLabel>& labels) {
  Fnv1aHasher hasher;
  hasher.AddU64(labels.size());
  for (const ProbabilisticLabel& label : labels) {
    hasher.AddU64(label.entity);
    hasher.AddDouble(label.p_positive);
    hasher.AddByte(label.covered ? 1 : 0);
  }
  return hasher.digest();
}

namespace {

/// Executes the full stack once and returns every stage hash in audit
/// order. Everything is local to the call: two invocations share no state
/// except the options, which is precisely the determinism claim under test.
Result<StageHashes> RunStack(const DeterminismOptions& options) {
  StageHashes hashes;

  // An `io:` entry arms the artifact IO layer for the whole run; verdicts
  // are pure functions of (derived seed, op, basename, attempt), so both
  // audit runs see the identical fault schedule.
  std::unique_ptr<ScopedIoFaultInjection> io_faults;
  if (options.fault_plan.IoEntry() != nullptr) {
    io_faults = std::make_unique<ScopedIoFaultInjection>(
        IoFaultConfigFromPlan(options.fault_plan));
  }

  // ---- Stage: corpus synthesis. ----------------------------------------
  WorldConfig world;
  CorpusGenerator generator(world,
                            TaskSpec::CT(options.task).Scaled(options.scale));
  Corpus corpus = generator.Generate();
  hashes.emplace_back("corpus", DeterminismHarness::HashCorpus(corpus));

  CM_ASSIGN_OR_RETURN(ResourceRegistry registry,
                      BuildModerationRegistry(generator,
                                              options.registry_seed));
  if (!options.fault_plan.empty()) {
    if (!options.fault_plan.IsScheduleDeterministic()) {
      return Status::InvalidArgument(
          "fault plan uses arrival-ordered down_after; such faults depend on "
          "thread interleaving and cannot pass a determinism audit");
    }
    // The registry only knows feature services; a `serving:` entry is
    // routed to the ShardedServer's fault hook below and an `io:` entry to
    // the scoped injector above instead.
    const FaultPlan registry_plan = options.fault_plan.WithoutReserved();
    if (!registry_plan.empty()) {
      CM_RETURN_IF_ERROR(registry.InstallFaultLayer(registry_plan));
    }
  }

  PipelineConfig config;
  config.seed = options.seed;
  config.parallel.num_threads = options.num_threads;
  // The pipeline constructor fans config.parallel out to its own copy of the
  // stage options; the standalone BuildKnnGraph call below reads this local
  // config directly, so mirror the fan-out here.
  config.curation.graph.parallel = config.parallel;
  config.model.train.parallel = config.parallel;
  // Reduced-footprint fit so the ctest entry stays fast; the audited code
  // paths (mining, propagation, EM, fusion training) are all exercised.
  config.model.hidden = {16};
  config.model.train.epochs = 6;
  config.curation.dev_sample = 1200;
  config.curation.graph_seed_sample = 600;
  config.curation.graph_tune_sample = 250;

  CrossModalPipeline pipeline(&registry, &corpus, config);

  // ---- Stage: feature generation. --------------------------------------
  CM_RETURN_IF_ERROR(pipeline.GenerateFeatureSpace());
  std::vector<EntityId> all_entities;
  all_entities.reserve(corpus.TotalSize());
  for (const auto* split : {&corpus.text_labeled, &corpus.image_unlabeled,
                            &corpus.image_labeled_pool, &corpus.image_test}) {
    for (const Entity& e : *split) all_entities.push_back(e.id);
  }
  const uint64_t store_hash =
      DeterminismHarness::HashFeatureRows(pipeline.store(), all_entities);
  hashes.emplace_back("feature_store", store_hash);

  // ---- Stage: columnar round trip. -------------------------------------
  // The in-memory store goes to disk as TSV and as the binary columnar
  // format (io/columnar.h), comes back through both readers (the columnar
  // one via mmap), and all three copies must hash bit-identically. Runs
  // under the armed IO fault layer, so injected open failures and torn
  // writes must be absorbed by the deterministic retry budget. Fixed
  // basenames keep the fault schedule stable; the per-process directory
  // keeps parallel ctest entries apart.
  {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path dir =
        fs::temp_directory_path(ec) /
        ("cmaudit_store_" + std::to_string(static_cast<long>(::getpid())));
    if (ec) return Status::IOError("no temp directory: " + ec.message());
    fs::create_directories(dir, ec);
    if (ec) return Status::IOError("cannot create " + dir.string());
    const std::string tsv_path = (dir / "audit_features.tsv").string();
    const std::string columnar_path = (dir / "audit_features.cmc").string();

    CM_RETURN_IF_ERROR(WriteFeatureStoreTsv(pipeline.store(), tsv_path));
    CM_ASSIGN_OR_RETURN(FeatureStore tsv_store,
                        ReadFeatureStoreTsv(&registry.schema(), tsv_path));
    CM_RETURN_IF_ERROR(
        WriteFeatureStoreColumnar(pipeline.store(), columnar_path));
    CM_ASSIGN_OR_RETURN(ColumnarReader reader,
                        ColumnarReader::Open(&registry.schema(),
                                             columnar_path));
    CM_ASSIGN_OR_RETURN(FeatureStore columnar_store, reader.Materialize());

    const uint64_t tsv_hash =
        DeterminismHarness::HashFeatureRows(tsv_store, all_entities);
    const uint64_t columnar_hash =
        DeterminismHarness::HashFeatureRows(columnar_store, all_entities);
    if (tsv_hash != store_hash) {
      return Status::Internal(
          "TSV round trip diverged from the in-memory store");
    }
    if (columnar_hash != tsv_hash) {
      return Status::Internal(
          "columnar round trip diverged from the TSV path");
    }
    hashes.emplace_back("columnar_roundtrip", columnar_hash);
    fs::remove_all(dir, ec);  // best-effort cleanup
  }

  // ---- Stages: kNN graph + label propagation. --------------------------
  // Built standalone (the pipeline's internal graph is not exposed) over
  // the same feature subset and options the curation step uses.
  const FeatureSelection& selection = pipeline.selection();
  FeatureSimilarity similarity(&registry.schema(), selection.graph_features);
  std::vector<const FeatureVector*> fit_rows;
  const size_t n_fit = std::min<size_t>(corpus.text_labeled.size(), 1000);
  for (size_t i = 0; i < n_fit; ++i) {
    auto row = pipeline.store().Get(corpus.text_labeled[i].id);
    if (row.ok()) fit_rows.push_back(*row);
  }
  similarity.FitNormalization(fit_rows);

  std::vector<EntityId> nodes;
  std::unordered_map<EntityId, double> prop_seeds;
  const size_t n_seeds =
      std::min(corpus.text_labeled.size(), config.curation.graph_seed_sample);
  for (size_t i = 0; i < n_seeds; ++i) {
    const Entity& e = corpus.text_labeled[i];
    nodes.push_back(e.id);
    prop_seeds.emplace(e.id, e.label == 1 ? 1.0 : 0.0);
  }
  for (const Entity& e : corpus.image_unlabeled) nodes.push_back(e.id);

  CM_ASSIGN_OR_RETURN(SimilarityGraph graph,
                      BuildKnnGraph(nodes, pipeline.store(), similarity,
                                    config.curation.graph));
  hashes.emplace_back("knn_graph", DeterminismHarness::HashGraph(graph));

  CM_ASSIGN_OR_RETURN(PropagationResult propagation,
                      PropagateLabels(graph, prop_seeds,
                                      config.curation.propagation));
  hashes.emplace_back("propagation",
                      DeterminismHarness::HashPropagationScores(
                          propagation.scores, nodes));

  // ---- Stages: curation artifacts + trained model (full pipeline). -----
  CM_ASSIGN_OR_RETURN(PipelineResult result, pipeline.Run());

  std::vector<EntityId> unlabeled_ids;
  unlabeled_ids.reserve(corpus.image_unlabeled.size());
  for (const Entity& e : corpus.image_unlabeled) unlabeled_ids.push_back(e.id);
  const LabelMatrix matrix = ApplyLabelingFunctions(
      result.curation.lfs, unlabeled_ids, pipeline.store());
  hashes.emplace_back("label_matrix",
                      DeterminismHarness::HashLabelMatrix(matrix));
  hashes.emplace_back("weak_labels",
                      DeterminismHarness::HashWeakLabels(
                          result.curation.weak_labels));

  hashes.emplace_back("trained_model",
                      HashDoubles(pipeline.ScoreTestSet(*result.model)));

  // ---- Stage: serving (nonservable stripping included). ----------------
  const std::shared_ptr<const CrossModalModel> model(std::move(result.model));
  CM_ASSIGN_OR_RETURN(ModelServer server,
                      ModelServer::Create(model, &registry.schema(),
                                          selection.image_model_features));
  std::vector<EntityId> test_ids;
  std::vector<const FeatureVector*> test_rows;
  for (const Entity& e : corpus.image_test) {
    auto row = pipeline.store().Get(e.id);
    if (row.ok()) {
      test_ids.push_back(e.id);
      test_rows.push_back(*row);
    }
  }
  const std::vector<double> direct_scores = server.ScoreBatch(test_rows);
  hashes.emplace_back("served_scores", HashDoubles(direct_scores));

  // ---- Stage: sharded serving. -----------------------------------------
  // Same rows through the micro-batching tier: every served score must be
  // bit-identical to direct scoring, and with a `serving:` fault entry the
  // set of failed requests must be a pure function of the plan — both
  // checked here (equality now, purity by the run-vs-run hash).
  ShardedServingOptions sharded_options;
  sharded_options.num_shards = 3;
  sharded_options.max_batch = 8;
  // Roomy queues: admission sheds depend on thread timing and would break
  // the audit; fault sheds are deterministic and allowed.
  sharded_options.queue_capacity = test_rows.size() + 64;
  CM_ASSIGN_OR_RETURN(
      ShardedServer sharded,
      ShardedServer::Create(model, &registry.schema(),
                            selection.image_model_features, sharded_options,
                            options.fault_plan));
  const std::vector<Result<ServedScore>> sharded_results =
      sharded.ScoreAll(test_ids, test_rows);
  Fnv1aHasher sharded_hasher;
  sharded_hasher.AddU64(sharded_results.size());
  for (size_t i = 0; i < sharded_results.size(); ++i) {
    if (sharded_results[i].ok()) {
      const double score = sharded_results[i]->score;
      if (score != direct_scores[i]) {
        return Status::Internal(
            "sharded serving diverged from direct scoring for entity " +
            std::to_string(test_ids[i]));
      }
      sharded_hasher.AddByte(1);
      sharded_hasher.AddDouble(score);
    } else {
      sharded_hasher.AddByte(0);
      sharded_hasher.AddByte(static_cast<uint8_t>(
          sharded_results[i].status().code()));
    }
  }
  hashes.emplace_back("sharded_scores", sharded_hasher.digest());

  return hashes;
}

}  // namespace

Result<DeterminismReport> DeterminismHarness::RunAudit() const {
  CM_ASSIGN_OR_RETURN(StageHashes first, RunStack(options_));
  CM_ASSIGN_OR_RETURN(StageHashes second, RunStack(options_));
  if (first.size() != second.size()) {
    return Status::Internal("stage lists diverged between runs");
  }
  DeterminismReport report;
  report.stages.reserve(first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    if (first[i].first != second[i].first) {
      return Status::Internal("stage order diverged between runs");
    }
    report.stages.push_back(
        StageAudit{first[i].first, first[i].second, second[i].second});
  }
  return report;
}

void DeterminismHarness::PrintReport(const DeterminismReport& report,
                                     std::ostream& os) {
  TablePrinter table({"stage", "run 1 hash", "run 2 hash", "verdict"});
  char buf[24];
  auto hex = [&buf](uint64_t h) {
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return std::string(buf);
  };
  for (const StageAudit& stage : report.stages) {
    table.AddRow({stage.stage, hex(stage.hash_first), hex(stage.hash_second),
                  stage.pass() ? "PASS" : "DIVERGED"});
  }
  table.Print(os);
}

}  // namespace crossmodal
