// DeterminismHarness: double-run auditing of the pipeline's stage artifacts.
//
// Weak-supervision outputs are artifacts consumed by downstream trainers
// (Snorkel DryBell's reproducibility requirement), so every stage of the
// pipeline must be a pure function of its seed: same WorldConfig/TaskSpec/
// PipelineConfig in, bit-identical artifacts out. The harness enforces this
// mechanically: it executes the whole stack twice from scratch — corpus
// synthesis, feature generation, the TSV/columnar store round trip, kNN
// graph, label propagation, the label matrix, the generative label model,
// model training, serving — and compares a canonical FNV-1a content hash of
// each stage's artifact between the two runs. Any hash mismatch pinpoints
// the first nondeterministic stage instead of a vague "scores differ".
//
// The columnar_roundtrip stage persists the generated store as TSV and as
// the binary columnar format (io/columnar.h), reads both back (columnar via
// mmap), and fails outright unless all three copies hash bit-identically;
// with an `io:` fault entry the round trip additionally runs under injected
// open failures and torn writes (io/io_faults.h), which the deterministic
// IO retry budget must absorb.
//
// Model weights are not directly exposed by CrossModalModel, so the
// trained-model stage hashes the model's scores over the held-out test set
// (a behavioral fingerprint: any weight divergence that can ever affect an
// output diverges this hash); the serving stage re-scores through
// ModelServer, whose rows still hold the nonservable feature the model
// must never read. The sharded_scores stage then pushes the same rows
// through ShardedServer — micro-batched, multi-threaded, optionally under a
// `serving:` fault entry — and fails the audit outright if any served score
// differs bitwise from direct scoring.
//
// tools/cmaudit.cc wraps this as a CLI + ctest entry.

#ifndef CROSSMODAL_AUDIT_DETERMINISM_H_
#define CROSSMODAL_AUDIT_DETERMINISM_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "graph/knn_graph.h"
#include "labeling/label_matrix.h"
#include "labeling/label_model.h"
#include "resources/fault_injection.h"
#include "synth/entity.h"
#include "util/result.h"

namespace crossmodal {

/// Audit configuration. Defaults run a reduced-scale Task-2 corpus sized
/// for a ctest entry; cmaudit exposes the knobs as flags.
struct DeterminismOptions {
  int task = 2;              ///< TaskSpec::CT(task).
  double scale = 0.05;       ///< Corpus scale factor.
  uint64_t seed = 0x5EED;    ///< Pipeline seed under audit.
  uint64_t registry_seed = 31;
  /// Worker threads for the audited hot paths (PipelineConfig::parallel).
  /// Any value must produce the same hashes — the double run also proves
  /// the parallel schedule cannot leak into the artifacts.
  size_t num_threads = 1;
  /// Fault plan installed on the registry before the audit, so determinism
  /// is provable *with* injected outages, retries, and degraded rows. Must
  /// satisfy FaultPlan::IsScheduleDeterministic() (RunAudit rejects
  /// arrival-ordered `down_after` plans, whose faults depend on thread
  /// interleaving by construction). Empty = audit the healthy pipeline.
  FaultPlan fault_plan;
};

/// One stage's double-run comparison.
struct StageAudit {
  std::string stage;
  uint64_t hash_first = 0;
  uint64_t hash_second = 0;
  bool pass() const { return hash_first == hash_second; }
};

/// The full audit: per-stage hashes plus the overall verdict.
struct DeterminismReport {
  std::vector<StageAudit> stages;
  bool AllPass() const;
};

class DeterminismHarness {
 public:
  explicit DeterminismHarness(DeterminismOptions options = {});

  /// Runs every stage twice from the configured seed and compares hashes.
  [[nodiscard]] Result<DeterminismReport> RunAudit() const;

  /// Renders the PASS/DIVERGED table.
  static void PrintReport(const DeterminismReport& report, std::ostream& os);

  // ---- Canonical artifact hashes (exposed for tests) ----------------------

  /// Hash of entity identity + label + timestamp, in corpus split order.
  static uint64_t HashCorpus(const Corpus& corpus);

  /// Hash of the feature rows of `order`'s entities, in that order (missing
  /// rows hash as a marker). FeatureStore iteration order itself is
  /// unordered; callers supply a canonical entity order.
  static uint64_t HashFeatureRows(const FeatureStore& store,
                                  const std::vector<EntityId>& order);

  /// Hash of nodes + adjacency (per-node neighbor lists in stored order).
  static uint64_t HashGraph(const SimilarityGraph& graph);

  /// Hash of propagation scores keyed by `order` (score maps are unordered;
  /// the node list fixes a canonical order).
  static uint64_t HashPropagationScores(
      const std::unordered_map<EntityId, double>& scores,
      const std::vector<EntityId>& order);

  /// Hash of LF names + every vote of the matrix, row-major.
  static uint64_t HashLabelMatrix(const LabelMatrix& matrix);

  /// Hash of (entity, p_positive, covered) in vector order.
  static uint64_t HashWeakLabels(const std::vector<ProbabilisticLabel>& labels);

 private:
  DeterminismOptions options_;
};

}  // namespace crossmodal

#endif  // CROSSMODAL_AUDIT_DETERMINISM_H_
