// Pipeline side of the benchmark: workload setup, the untraced
// CrossModalPipeline::Run(), and the traced replay that re-executes the
// same pipeline through each layer's public function so every call can be
// timed from outside.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "synth/corpus_generator.h"
#include "trace.h"
#include "util/result.h"

namespace perfbench {

/// The pipeline thread budget of every workload.
inline constexpr size_t kPipelineThreads = 4;

/// Which Table-2 task and end model a workload adapts. The corpus is the
/// task's preset scaled by `scale`, except that the image test split keeps
/// `test_entities` rows so test quality is measured on ~120+ positives.
struct AdaptSpec {
  int task = 1;
  double scale = 0.2;
  size_t test_entities = 3000;
  crossmodal::ModelKind model = crossmodal::ModelKind::kMlp;
};

/// Corpus, registry and config of one workload seed.
struct AdaptContext {
  crossmodal::TaskSpec task;
  std::unique_ptr<crossmodal::CorpusGenerator> generator;
  crossmodal::Corpus corpus;
  std::unique_ptr<crossmodal::ResourceRegistry> registry;
  crossmodal::PipelineConfig config;
};

/// Generates the corpus and builds the registry from the workload seed
/// (spans synth/corpus and resources/registry).
[[nodiscard]] crossmodal::Result<AdaptContext> SetupAdapt(
    const AdaptSpec& spec, uint64_t seed, Tracer* tracer);

/// One untraced CrossModalPipeline::Run() on a fresh pipeline.
struct RunOutcome {
  double seconds = 0.0;  ///< Wall time of Run().
  std::unique_ptr<crossmodal::CrossModalPipeline> pipeline;
  crossmodal::PipelineResult result;
  std::vector<double> test_scores;  ///< ScoreTestSet of the fitted model.
  double test_auprc = 0.0;
  double test_roc_auc = 0.0;
};

[[nodiscard]] crossmodal::Result<RunOutcome> RunPipeline(
    const AdaptContext& ctx);

/// Artifact hashes and per-layer figures of one replay.
struct ReplayOutcome {
  uint64_t store_hash = 0;
  uint64_t graph_hash = 0;
  uint64_t propagation_hash = 0;
  uint64_t matrix_hash = 0;
  uint64_t weak_labels_hash = 0;
  uint64_t test_scores_hash = 0;
  double avg_degree = 0.0;
  int prop_iterations = 0;
  double coverage = 0.0;  ///< LF coverage of the unlabeled split.
  size_t prop_lf_scores = 0;
  /// Per-call milliseconds, keyed by span name ("graph/knn_build", ...).
  std::map<std::string, double> ms;
  /// Per-layer counts, keyed by metric name ("mining.lfs", ...).
  std::map<std::string, double> counts;
};

/// Replays the pipeline of `ctx` at `threads` workers, one span per layer
/// call under a root span "replay/<threads>t". `run` supplies the
/// CrossModalPipeline whose ScoreTestSet scores the replayed model.
[[nodiscard]] crossmodal::Result<ReplayOutcome> Replay(
    const AdaptContext& ctx, size_t threads, const RunOutcome& run,
    Tracer* tracer);

/// Milliseconds of one extra ensemble member of TrainFused: the difference
/// between training at the workload's ensemble size and at size 1, divided
/// by the number of extra members (one TrainFused call per size).
[[nodiscard]] crossmodal::Result<double> MemberTrainMs(
    const AdaptContext& ctx, const RunOutcome& run, Tracer* tracer);

/// Output checks of the traced run: the 4-thread replay must reproduce
/// Run()'s artifacts, and the 1- and 4-thread replays must be
/// bit-identical. Returns one message per failed check.
std::vector<std::string> CheckReplay(const AdaptContext& ctx,
                                     const RunOutcome& run,
                                     const ReplayOutcome& four,
                                     const ReplayOutcome& one);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
