#include "resources/validation.h"

#include <algorithm>
#include <map>

#include "util/logging.h"
#include "util/random.h"

namespace crossmodal {

namespace {

/// Minimum coverage on either modality.
constexpr double kMinCoverage = 0.5;
/// Items below this lift over the positive rate mark the service as
/// carrying no task signal (context-only; not flagged) — suspicion is
/// raised only for coverage failures and adversarial channels (items whose
/// precision falls *below* the class prior by this factor).
constexpr double kAdversarialLift = 0.5;
/// Categorical features whose old-vs-new marginal L1 distance exceeds this
/// are suspect. Legit services shift substantially already (channel noise +
/// background rotation put them near 1.0 here), so only gross
/// inconsistencies are flagged automatically; subtler text-only label leaks
/// require the §7.2 human review of mined LFs (see the resource-quality
/// ablation bench).
constexpr double kMaxMarginalShift = 1.35;

double SafeDiv(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Best order-1 item quality for one feature over labeled rows
/// (self-contained so the resources layer does not depend on the miner).
void BestItemQuality(const FeatureStore& store, FeatureId feature,
                     FeatureType type, const std::vector<EntityId>& entities,
                     const std::vector<int>& labels, double* best_f1,
                     double* best_precision, double* worst_precision) {
  *best_f1 = 0.0;
  *best_precision = 0.0;
  *worst_precision = 1.0;
  size_t n_pos = 0;
  for (int y : labels) n_pos += (y == 1);
  if (n_pos == 0) return;

  if (type == FeatureType::kCategorical) {
    std::map<int32_t, std::pair<size_t, size_t>> counts;  // cat -> (pos,neg)
    for (size_t i = 0; i < entities.size(); ++i) {
      auto row = store.Get(entities[i]);
      if (!row.ok()) continue;
      const FeatureValue& v = (*row)->Get(feature);
      if (v.is_missing() || v.type() != FeatureType::kCategorical) continue;
      for (int32_t c : v.categories()) {
        auto& cnt = counts[c];
        (labels[i] == 1 ? cnt.first : cnt.second)++;
      }
    }
    for (const auto& [cat, cnt] : counts) {
      const size_t total = cnt.first + cnt.second;
      if (total < 10) continue;  // too rare to judge
      const double precision = SafeDiv(cnt.first, total);
      const double recall = SafeDiv(cnt.first, n_pos);
      const double f1 = SafeDiv(2 * precision * recall, precision + recall);
      *best_f1 = std::max(*best_f1, f1);
      *best_precision = std::max(*best_precision, precision);
      *worst_precision = std::min(*worst_precision, precision);
    }
  } else if (type == FeatureType::kNumeric) {
    std::vector<std::pair<double, int>> values;
    for (size_t i = 0; i < entities.size(); ++i) {
      auto row = store.Get(entities[i]);
      if (!row.ok()) continue;
      const FeatureValue& v = (*row)->Get(feature);
      if (v.is_missing() || v.type() != FeatureType::kNumeric) continue;
      values.emplace_back(v.numeric(), labels[i]);
    }
    if (values.size() < 20) return;
    std::sort(values.begin(), values.end());
    // Evaluate quartile buckets as items.
    for (int b = 0; b < 4; ++b) {
      const size_t lo = values.size() * b / 4;
      const size_t hi = values.size() * (b + 1) / 4;
      size_t pos = 0;
      for (size_t k = lo; k < hi; ++k) pos += (values[k].second == 1);
      const double precision = SafeDiv(pos, hi - lo);
      const double recall = SafeDiv(pos, n_pos);
      const double f1 = SafeDiv(2 * precision * recall, precision + recall);
      *best_f1 = std::max(*best_f1, f1);
      *best_precision = std::max(*best_precision, precision);
      *worst_precision = std::min(*worst_precision, precision);
    }
  }
}

/// L1 distance between normalized category histograms of two entity sets.
double MarginalShift(const FeatureStore& store, FeatureId feature,
                     const std::vector<EntityId>& old_entities,
                     const std::vector<EntityId>& new_entities) {
  std::map<int32_t, double> hist_old, hist_new;
  double n_old = 0.0, n_new = 0.0;
  auto accumulate = [&](const std::vector<EntityId>& entities,
                        std::map<int32_t, double>* hist, double* n) {
    for (EntityId id : entities) {
      auto row = store.Get(id);
      if (!row.ok()) continue;
      const FeatureValue& v = (*row)->Get(feature);
      if (v.is_missing() || v.type() != FeatureType::kCategorical) continue;
      for (int32_t c : v.categories()) {
        (*hist)[c] += 1.0;
        *n += 1.0;
      }
    }
  };
  accumulate(old_entities, &hist_old, &n_old);
  accumulate(new_entities, &hist_new, &n_new);
  if (n_old == 0.0 || n_new == 0.0) return 0.0;
  double l1 = 0.0;
  for (const auto& [c, count] : hist_old) {
    const auto it = hist_new.find(c);
    const double q = it == hist_new.end() ? 0.0 : it->second / n_new;
    l1 += std::abs(count / n_old - q);
  }
  for (const auto& [c, count] : hist_new) {
    if (hist_old.count(c) == 0) l1 += count / n_new;
  }
  return l1;
}

double Coverage(const FeatureStore& store, FeatureId feature,
                const std::vector<EntityId>& entities) {
  size_t present = 0, total = 0;
  for (EntityId id : entities) {
    auto row = store.Get(id);
    if (!row.ok()) continue;
    ++total;
    present += !(*row)->Get(feature).is_missing();
  }
  return SafeDiv(present, total);
}

}  // namespace

Result<std::vector<ResourceQualityReport>> ValidateResources(
    const ResourceRegistry& registry, const FeatureStore& store,
    const std::vector<EntityId>& old_entities,
    const std::vector<int>& old_labels,
    const std::vector<EntityId>& new_entities) {
  if (old_entities.size() != old_labels.size()) {
    return Status::InvalidArgument("old entities and labels must align");
  }
  if (old_entities.empty()) {
    return Status::InvalidArgument("need labeled old-modality rows");
  }
  double pos_rate = 0.0;
  for (int y : old_labels) pos_rate += (y == 1);
  pos_rate /= static_cast<double>(old_labels.size());

  std::vector<ResourceQualityReport> reports;
  reports.reserve(registry.size());
  for (size_t f = 0; f < registry.size(); ++f) {
    const FeatureId id = static_cast<FeatureId>(f);
    const FeatureDef& def = registry.schema().def(id);
    ResourceQualityReport report;
    report.name = def.name;
    report.feature = id;
    report.coverage_old = Coverage(store, id, old_entities);
    report.coverage_new = Coverage(store, id, new_entities);
    double worst_precision = 1.0;
    if (def.type != FeatureType::kEmbedding) {
      BestItemQuality(store, id, def.type, old_entities, old_labels,
                      &report.best_item_f1, &report.best_item_precision,
                      &worst_precision);
    }
    const bool applies_old = MaskContains(def.modalities, Modality::kText);
    const bool applies_new = MaskContains(def.modalities, Modality::kImage);
    if (applies_old && applies_new &&
        def.type == FeatureType::kCategorical) {
      report.marginal_shift =
          MarginalShift(store, id, old_entities, new_entities);
    }
    const bool low_coverage =
        (applies_old && report.coverage_old < kMinCoverage) ||
        (applies_new && report.coverage_new < kMinCoverage);
    // Adversarial channel: some item is *anti-correlated* far below prior.
    const bool adversarial =
        def.type != FeatureType::kEmbedding && report.best_item_f1 > 0.0 &&
        report.best_item_precision < pos_rate * (1.0 + kAdversarialLift) &&
        report.coverage_old > kMinCoverage;
    // Modality-inconsistent: the channels share the vocabulary but not the
    // distribution — LFs mined over it will not transfer.
    const bool inconsistent = report.marginal_shift > kMaxMarginalShift;
    report.suspect = low_coverage || adversarial || inconsistent;
    reports.push_back(std::move(report));
  }
  return reports;
}

CorruptedService::CorruptedService(std::string name, int32_t vocab,
                                   uint64_t seed, CorruptionMode mode,
                                   ServiceSet set)
    : seed_(seed), mode_(mode) {
  def_.name = std::move(name);
  def_.type = FeatureType::kCategorical;
  def_.set = set;
  def_.cardinality = vocab;
  def_.modalities = kAllModalities;
  def_.servable = true;
  seed_ = DeriveSeed(seed_, def_.name.c_str());
}

FeatureValue CorruptedService::Apply(const Entity& entity) const {
  Rng rng(DeriveSeed(seed_, entity.id));
  if (mode_ == CorruptionMode::kSpuriousTextOnly &&
      entity.modality == Modality::kText) {
    // A text-channel artifact: the bulk output is heavily skewed toward
    // low category ids (u^2 draw), and positives leak onto the first two
    // categories. Mined LFs will love it; on image it is uniform noise.
    std::vector<int32_t> categories;
    if (entity.label == 1 && rng.Bernoulli(0.8)) {
      categories.push_back(static_cast<int32_t>(rng.UniformInt(uint64_t{2})));
    } else {
      const double u = rng.Uniform();
      categories.push_back(static_cast<int32_t>(
          u * u * static_cast<double>(def_.cardinality)));
    }
    return FeatureValue::Categorical(std::move(categories));
  }
  // 1-3 uniformly random categories, unrelated to the entity.
  std::vector<int32_t> categories;
  const int count = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
  for (int k = 0; k < count; ++k) {
    categories.push_back(static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(def_.cardinality))));
  }
  return FeatureValue::Categorical(std::move(categories));
}

}  // namespace crossmodal
