#include "mining/model_lf_generator.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace crossmodal {

namespace {

/// Candidate heuristics trained per committee round.
constexpr int kCandidatesPerRound = 24;
/// Recall floor on the dev set.
constexpr double kMinRecall = 0.02;
/// A candidate must vote on at least this fraction of points the committee
/// currently abstains on (diversity pressure).
constexpr double kMinNewCoverage = 0.01;
/// Abstain band: a heuristic abstains when its score is within this margin
/// of its decision threshold (Snuba's beta parameter).
constexpr double kAbstainMargin = 0.15;
/// Seed of the candidate-sampling stream.
constexpr uint64_t kSeed = 0x57BA;

/// One scalar input of a tiny heuristic model: a category indicator or a
/// standardized numeric feature.
struct Signal {
  FeatureId feature = -1;
  bool categorical = true;
  int32_t category = 0;
  double mean = 0.0;
  double inv_std = 1.0;

  double Value(const FeatureVector& row) const {
    const FeatureValue& v = row.Get(feature);
    if (categorical) {
      return v.HasCategory(category) ? 1.0 : 0.0;
    }
    if (v.is_missing() || v.type() != FeatureType::kNumeric) return 0.0;
    return (v.numeric() - mean) * inv_std;
  }
};

/// A trained heuristic: logistic over 1-2 signals with an abstain band.
struct Heuristic {
  std::vector<Signal> signals;
  std::vector<double> weights;  // parallel to signals
  double bias = 0.0;
  double margin = 0.15;

  double Score(const FeatureVector& row) const {
    double z = bias;
    for (size_t k = 0; k < signals.size(); ++k) {
      z += weights[k] * signals[k].Value(row);
    }
    return 1.0 / (1.0 + std::exp(-z));
  }

  Vote Apply(const FeatureVector& row) const {
    const double p = Score(row);
    if (p >= 0.5 + margin) return Vote::kPositive;
    if (p <= 0.5 - margin) return Vote::kNegative;
    return Vote::kAbstain;
  }
};

/// Class-balanced logistic fit over the dev set (few epochs; tiny model).
void FitHeuristic(Heuristic* h, const std::vector<const FeatureVector*>& rows,
                  const std::vector<int>& labels, double w_pos, double w_neg,
                  Rng* rng) {
  h->weights.assign(h->signals.size(), 0.0);
  h->bias = 0.0;
  const double lr = 0.1;
  for (int epoch = 0; epoch < 12; ++epoch) {
    const auto perm = rng->Permutation(rows.size());
    for (size_t i : perm) {
      const double y = labels[i];
      const double w = labels[i] == 1 ? w_pos : w_neg;
      const double p = h->Score(*rows[i]);
      const double g = w * (p - y);
      for (size_t k = 0; k < h->signals.size(); ++k) {
        h->weights[k] -= lr * g * h->signals[k].Value(*rows[i]);
      }
      h->bias -= lr * g;
    }
  }
}

}  // namespace

ModelLfGenerator::ModelLfGenerator(const FeatureSchema* schema,
                                   ModelLfOptions options)
    : schema_(schema), options_(std::move(options)) {
  CM_CHECK(schema_ != nullptr);
}

Result<ModelLfResult> ModelLfGenerator::Generate(
    const std::vector<const FeatureVector*>& rows,
    const std::vector<int>& labels) const {
  if (rows.size() != labels.size()) {
    return Status::InvalidArgument("rows and labels must align");
  }
  if (rows.empty()) return Status::InvalidArgument("empty dev set");
  size_t n_pos = 0;
  for (int y : labels) n_pos += (y == 1);
  if (n_pos == 0 || n_pos == labels.size()) {
    return Status::FailedPrecondition("dev set must contain both classes");
  }

  Timer timer;
  // ---- Build the signal pool: category indicators that occur in
  // positives, plus standardized numeric features. ------------------------
  std::vector<FeatureId> features = options_.allowed_features.empty()
                                        ? schema_->AllIds()
                                        : options_.allowed_features;
  std::vector<Signal> pool;
  for (FeatureId f : features) {
    const FeatureDef& def = schema_->def(f);
    if (def.type == FeatureType::kCategorical) {
      std::vector<char> seen(static_cast<size_t>(std::max(def.cardinality,
                                                          1)),
                             0);
      for (size_t i = 0; i < rows.size(); ++i) {
        if (labels[i] != 1) continue;
        const FeatureValue& v = rows[i]->Get(f);
        if (v.is_missing() || v.type() != FeatureType::kCategorical) continue;
        for (int32_t c : v.categories()) {
          if (c >= 0 && c < def.cardinality) seen[static_cast<size_t>(c)] = 1;
        }
      }
      for (int32_t c = 0; c < def.cardinality; ++c) {
        if (seen[static_cast<size_t>(c)]) {
          pool.push_back(Signal{f, true, c, 0.0, 1.0});
        }
      }
    } else if (def.type == FeatureType::kNumeric) {
      double sum = 0.0, sum_sq = 0.0;
      size_t count = 0;
      for (const auto* row : rows) {
        const FeatureValue& v = row->Get(f);
        if (v.is_missing() || v.type() != FeatureType::kNumeric) continue;
        sum += v.numeric();
        sum_sq += v.numeric() * v.numeric();
        ++count;
      }
      if (count < 10) continue;
      const double mean = sum / count;
      const double var = std::max(1e-12, sum_sq / count - mean * mean);
      pool.push_back(Signal{f, false, 0, mean, 1.0 / std::sqrt(var)});
    }
  }
  if (pool.empty()) {
    return Status::FailedPrecondition("no usable signals in the dev set");
  }

  // Class-balanced weights normalized to mean 1 so the SGD step size is
  // independent of the class imbalance.
  const double w_pos =
      static_cast<double>(labels.size()) / (2.0 * static_cast<double>(n_pos));
  const double w_neg = static_cast<double>(labels.size()) /
                       (2.0 * static_cast<double>(labels.size() - n_pos));

  // ---- Rank signals by individual lift over the class prior (Snuba
  // enumerates small feature subsets; ranking focuses the budget). --------
  const double prior =
      static_cast<double>(n_pos) / static_cast<double>(labels.size());
  std::vector<std::pair<double, size_t>> ranked;  // (lift, pool index)
  ranked.reserve(pool.size());
  for (size_t s = 0; s < pool.size(); ++s) {
    double pos_mass = 0.0, total_mass = 0.0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const double v = pool[s].Value(*rows[i]);
      const double mag = std::abs(v);
      total_mass += mag;
      if (labels[i] == 1) pos_mass += mag;
    }
    const double precision = total_mass > 0.0 ? pos_mass / total_mass : 0.0;
    ranked.emplace_back(precision / std::max(prior, 1e-9), s);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const size_t top = std::min<size_t>(ranked.size(), 40);

  ModelLfResult result;
  Rng rng(kSeed);
  std::vector<char> committee_covers(rows.size(), 0);
  std::vector<Heuristic> committee;
  size_t next_single = 0;  // round-robin cursor over the ranked singles

  for (int round = 0; round < options_.max_lfs; ++round) {
    Heuristic best;
    double best_f1 = -1.0;
    double best_precision = 0.0, best_recall = 0.0;
    for (int c = 0; c < kCandidatesPerRound; ++c) {
      Heuristic h;
      h.margin = kAbstainMargin;
      if (c % 2 == 0 && next_single < ranked.size()) {
        // Ranked singles, in lift order.
        h.signals.push_back(pool[ranked[next_single++].second]);
      } else {
        // Random pairs among the top-ranked signals.
        h.signals.push_back(pool[ranked[rng.UniformInt(top)].second]);
        h.signals.push_back(pool[ranked[rng.UniformInt(top)].second]);
      }
      FitHeuristic(&h, rows, labels, w_pos, w_neg, &rng);
      ++result.candidates_trained;

      // Dev evaluation + diversity check.
      size_t votes = 0, correct_pos = 0, pos_votes = 0, new_cover = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        const Vote v = h.Apply(*rows[i]);
        if (v == Vote::kAbstain) continue;
        ++votes;
        if (!committee_covers[i]) ++new_cover;
        if (v == Vote::kPositive) {
          ++pos_votes;
          correct_pos += (labels[i] == 1);
        }
      }
      if (pos_votes == 0) continue;
      const double precision =
          static_cast<double>(correct_pos) / static_cast<double>(pos_votes);
      const double recall =
          static_cast<double>(correct_pos) / static_cast<double>(n_pos);
      const double coverage_gain =
          static_cast<double>(new_cover) / static_cast<double>(rows.size());
      if (precision < options_.min_precision ||
          recall < kMinRecall || coverage_gain < kMinNewCoverage) {
        continue;
      }
      const double f1 = 2.0 * precision * recall / (precision + recall);
      if (f1 > best_f1) {
        best_f1 = f1;
        best = h;
        best_precision = precision;
        best_recall = recall;
      }
    }
    if (best_f1 < 0.0) continue;  // keep exploring the remaining rounds
    (void)best_precision;
    (void)best_recall;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (best.Apply(*rows[i]) != Vote::kAbstain) committee_covers[i] = 1;
    }
    committee.push_back(best);
  }

  for (size_t j = 0; j < committee.size(); ++j) {
    // LFs capture the heuristic by value; they stay valid independently of
    // the generator.
    const Heuristic h = committee[j];
    result.lfs.push_back(std::make_unique<LambdaLF>(
        "snuba_lf_" + std::to_string(j),
        [h](EntityId, const FeatureVector& row) { return h.Apply(row); }));
  }
  result.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace crossmodal
