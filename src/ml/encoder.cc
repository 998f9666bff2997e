#include "ml/encoder.h"

#include <cmath>

#include "util/logging.h"

namespace crossmodal {

FeatureMask MakeFeatureMask(const std::vector<FeatureId>& allowed,
                            size_t arity) {
  FeatureMask mask(arity, 0);
  for (FeatureId f : allowed) {
    if (f >= 0 && static_cast<size_t>(f) < arity) {
      mask[static_cast<size_t>(f)] = 1;
    }
  }
  return mask;
}

Result<FeatureEncoder> FeatureEncoder::Fit(
    const FeatureSchema& schema,
    const std::vector<const FeatureVector*>& rows, EncoderOptions options) {
  if (options.features.empty()) {
    return Status::InvalidArgument("encoder needs at least one feature");
  }
  FeatureEncoder encoder;
  encoder.options_ = std::move(options);
  uint32_t offset = 0;
  for (FeatureId f : encoder.options_.features) {
    if (f < 0 || static_cast<size_t>(f) >= schema.size()) {
      return Status::InvalidArgument("unknown feature id " +
                                     std::to_string(f));
    }
    const FeatureDef& def = schema.def(f);
    Slot slot;
    slot.feature = f;
    slot.type = def.type;
    slot.offset = offset;
    switch (def.type) {
      case FeatureType::kCategorical:
        if (def.cardinality <= 0) {
          return Status::InvalidArgument("categorical feature " + def.name +
                                         " has no declared vocabulary");
        }
        slot.width = static_cast<uint32_t>(def.cardinality);
        break;
      case FeatureType::kNumeric: {
        slot.width = 1;
        double sum = 0.0, sum_sq = 0.0;
        size_t count = 0;
        for (const auto* row : rows) {
          const FeatureValue& v = row->Get(f);
          if (v.is_missing() || v.type() != FeatureType::kNumeric) continue;
          sum += v.numeric();
          sum_sq += v.numeric() * v.numeric();
          ++count;
        }
        if (count >= 2) {
          slot.mean = sum / count;
          const double var =
              std::max(1e-12, sum_sq / count - slot.mean * slot.mean);
          slot.inv_std = 1.0 / std::sqrt(var);
        }
        break;
      }
      case FeatureType::kEmbedding:
        if (def.cardinality <= 0) {
          return Status::InvalidArgument("embedding feature " + def.name +
                                         " has no declared dimension");
        }
        slot.width = static_cast<uint32_t>(def.cardinality);
        break;
    }
    offset += slot.width;
    encoder.max_entries_ += slot.width;
    slot.missing_slot = offset++;
    encoder.slots_.push_back(slot);
  }
  encoder.dim_ = offset;
  return encoder;
}

SparseRow FeatureEncoder::Encode(const FeatureVector& row) const {
  SparseRow out;
  EncodeInto(row, /*mask=*/nullptr, &out);
  return out;
}

void FeatureEncoder::Encode(const FeatureVector& row, const FeatureMask& mask,
                            SparseRow* out) const {
  out->entries.clear();
  out->entries.reserve(max_entries_);
  EncodeInto(row, &mask, out);
}

void FeatureEncoder::EncodeInto(const FeatureVector& row,
                                const FeatureMask* mask,
                                SparseRow* out) const {
  for (const Slot& slot : slots_) {
    const size_t f = static_cast<size_t>(slot.feature);
    const bool admitted = mask == nullptr || (f < mask->size() && (*mask)[f]);
    const FeatureValue* v = admitted ? &row.Get(slot.feature) : nullptr;
    if (v == nullptr || v->is_missing() || v->type() != slot.type) {
      out->Add(slot.missing_slot, 1.0f);
      continue;
    }
    switch (slot.type) {
      case FeatureType::kCategorical: {
        const auto& cats = v->categories();
        const float value =
            cats.size() > 1 ? 1.0f / std::sqrt(static_cast<float>(cats.size()))
                            : 1.0f;
        for (int32_t c : cats) {
          if (c < 0 || static_cast<uint32_t>(c) >= slot.width) continue;
          out->Add(slot.offset + static_cast<uint32_t>(c), value);
        }
        break;
      }
      case FeatureType::kNumeric:
        out->Add(slot.offset, static_cast<float>((v->numeric() - slot.mean) *
                                                 slot.inv_std));
        break;
      case FeatureType::kEmbedding: {
        const auto& emb = v->embedding();
        for (uint32_t i = 0; i < slot.width && i < emb.size(); ++i) {
          out->Add(slot.offset + i, emb[i]);
        }
        break;
      }
    }
  }
}

void Dataset::Append(const Dataset& other) {
  CM_CHECK(dim == other.dim) << "appending datasets of different dims";
  examples.insert(examples.end(), other.examples.begin(),
                  other.examples.end());
}

}  // namespace crossmodal
