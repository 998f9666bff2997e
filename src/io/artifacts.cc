#include "io/artifacts.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "io/tsv.h"
#include "util/parse_number.h"

namespace crossmodal {

namespace {

std::string JoinNumbers(const std::vector<int32_t>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += '|';
    out += std::to_string(values[i]);
  }
  return out;
}

Result<std::vector<std::string>> SplitPipe(const std::string& text) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == '|') {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty() || !text.empty()) parts.push_back(current);
  return parts;
}

// Numeric parsing lives in util/parse_number.h (ParseInt64 / ParseDouble /
// ParseFiniteDouble) so the readers here and the CLI tools agree on what a
// malformed number is.

/// Fails unless the file's header row matches `expected` exactly — a
/// truncated or reordered header would otherwise silently misassign every
/// column below it.
Status CheckHeader(const std::vector<std::string>& header,
                   const std::vector<std::string>& expected,
                   const std::string& what) {
  if (header != expected) {
    std::string want;
    for (size_t i = 0; i < expected.size(); ++i) {
      if (i > 0) want += '\t';
      want += expected[i];
    }
    return Status::InvalidArgument("bad " + what + " header; expected: " +
                                   want);
  }
  return Status::OK();
}

std::string FormatDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace

std::string EncodeFeatureValue(const FeatureValue& value) {
  if (value.is_missing()) return "-";
  switch (value.type()) {
    case FeatureType::kNumeric:
      return "N:" + FormatDouble(value.numeric());
    case FeatureType::kCategorical:
      return "C:" + JoinNumbers(value.categories());
    case FeatureType::kEmbedding: {
      std::string out = "E:";
      const auto& e = value.embedding();
      for (size_t i = 0; i < e.size(); ++i) {
        if (i > 0) out += '|';
        out += FormatDouble(e[i]);
      }
      return out;
    }
  }
  return "-";
}

Result<FeatureValue> DecodeFeatureValue(const std::string& text) {
  if (text == "-") return FeatureValue::Missing();
  if (text.size() < 2 || text[1] != ':') {
    return Status::InvalidArgument("malformed feature value: " + text);
  }
  const std::string body = text.substr(2);
  switch (text[0]) {
    case 'N': {
      CM_ASSIGN_OR_RETURN(double v, ParseDouble(body));
      return FeatureValue::Numeric(v);
    }
    case 'C': {
      if (body.empty()) return FeatureValue::Categorical({});
      CM_ASSIGN_OR_RETURN(auto parts, SplitPipe(body));
      std::vector<int32_t> categories;
      categories.reserve(parts.size());
      for (const auto& p : parts) {
        CM_ASSIGN_OR_RETURN(int64_t v, ParseInt64(p));
        if (v < std::numeric_limits<int32_t>::min() ||
            v > std::numeric_limits<int32_t>::max()) {
          return Status::InvalidArgument("category id out of int32 range: " +
                                         p);
        }
        categories.push_back(static_cast<int32_t>(v));
      }
      return FeatureValue::Categorical(std::move(categories));
    }
    case 'E': {
      CM_ASSIGN_OR_RETURN(auto parts, SplitPipe(body));
      std::vector<float> values;
      values.reserve(parts.size());
      for (const auto& p : parts) {
        CM_ASSIGN_OR_RETURN(double v, ParseDouble(p));
        values.push_back(static_cast<float>(v));
      }
      return FeatureValue::Embedding(std::move(values));
    }
    default:
      return Status::InvalidArgument("unknown feature value tag: " + text);
  }
}

Status WriteSchemaTsv(const FeatureSchema& schema, const std::string& path) {
  std::vector<std::string> lines;
  lines.push_back(
      TsvJoin({"name", "type", "set", "cardinality", "modalities",
               "servable"}));
  for (const FeatureDef& def : schema.defs()) {
    lines.push_back(TsvJoin(
        {def.name, std::to_string(static_cast<int>(def.type)),
         std::to_string(static_cast<int>(def.set)),
         std::to_string(def.cardinality), std::to_string(def.modalities),
         def.servable ? "1" : "0"}));
  }
  return WriteLines(path, lines);
}

Result<FeatureSchema> ReadSchemaTsv(const std::string& path) {
  CM_ASSIGN_OR_RETURN(auto lines, ReadLines(path));
  if (lines.empty()) return Status::InvalidArgument("empty schema file");
  CM_RETURN_IF_ERROR(CheckHeader(
      TsvSplit(lines[0]),
      {"name", "type", "set", "cardinality", "modalities", "servable"},
      "schema"));
  FeatureSchema schema;
  for (size_t i = 1; i < lines.size(); ++i) {
    const auto fields = TsvSplit(lines[i]);
    if (fields.size() != 6) {
      return Status::InvalidArgument("bad schema line: " + lines[i]);
    }
    FeatureDef def;
    def.name = fields[0];
    CM_ASSIGN_OR_RETURN(int64_t type, ParseInt64(fields[1]));
    CM_ASSIGN_OR_RETURN(int64_t set, ParseInt64(fields[2]));
    CM_ASSIGN_OR_RETURN(int64_t cardinality, ParseInt64(fields[3]));
    CM_ASSIGN_OR_RETURN(int64_t modalities, ParseInt64(fields[4]));
    CM_ASSIGN_OR_RETURN(int64_t servable, ParseInt64(fields[5]));
    // Range-check every enum/bitmask field before the narrowing cast: a
    // corrupt file must fail typed, not materialize an out-of-range enum.
    if (type < 0 || type > static_cast<int64_t>(FeatureType::kEmbedding)) {
      return Status::InvalidArgument("schema feature '" + def.name +
                                     "': type out of range: " + fields[1]);
    }
    if (set < 0 || set > static_cast<int64_t>(ServiceSet::kImage)) {
      return Status::InvalidArgument("schema feature '" + def.name +
                                     "': set out of range: " + fields[2]);
    }
    if (cardinality < 0 ||
        cardinality > std::numeric_limits<int32_t>::max()) {
      return Status::InvalidArgument("schema feature '" + def.name +
                                     "': cardinality out of range: " +
                                     fields[3]);
    }
    if (modalities < 0 || modalities > kAllModalities) {
      return Status::InvalidArgument("schema feature '" + def.name +
                                     "': modalities out of range: " +
                                     fields[4]);
    }
    if (servable != 0 && servable != 1) {
      return Status::InvalidArgument("schema feature '" + def.name +
                                     "': servable must be 0 or 1: " +
                                     fields[5]);
    }
    def.type = static_cast<FeatureType>(type);
    def.set = static_cast<ServiceSet>(set);
    def.cardinality = static_cast<int32_t>(cardinality);
    def.modalities = static_cast<uint8_t>(modalities);
    def.servable = servable != 0;
    CM_RETURN_IF_ERROR(schema.Add(std::move(def)).status());
  }
  return schema;
}

Status WriteFeatureStoreTsv(const FeatureStore& store,
                            const std::string& path) {
  const FeatureSchema& schema = store.schema();
  std::vector<std::string> lines;
  {
    std::vector<std::string> header{"entity"};
    for (const FeatureDef& def : schema.defs()) header.push_back(def.name);
    lines.push_back(TsvJoin(header));
  }
  // Rows sorted by entity id: the store is an unordered_map, and the file
  // is a determinism-audited artifact, so its line order must not depend on
  // hash iteration order.
  std::vector<std::pair<EntityId, const FeatureVector*>> rows;
  rows.reserve(store.size());
  // cmlint: unordered-ok — collected only to be sorted on the next line
  for (const auto& [entity, row] : store) rows.emplace_back(entity, &row);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [entity, row] : rows) {
    std::vector<std::string> fields{std::to_string(entity)};
    for (size_t f = 0; f < schema.size(); ++f) {
      fields.push_back(EncodeFeatureValue(row->Get(static_cast<FeatureId>(f))));
    }
    lines.push_back(TsvJoin(fields));
  }
  return WriteLines(path, lines);
}

Result<FeatureStore> ReadFeatureStoreTsv(const FeatureSchema* schema,
                                         const std::string& path) {
  if (schema == nullptr) return Status::InvalidArgument("schema is null");
  CM_ASSIGN_OR_RETURN(auto lines, ReadLines(path));
  if (lines.empty()) return Status::InvalidArgument("empty store file");
  const auto header = TsvSplit(lines[0]);
  if (header.size() != schema->size() + 1) {
    return Status::InvalidArgument("store arity does not match the schema");
  }
  for (size_t f = 0; f < schema->size(); ++f) {
    if (header[f + 1] != schema->def(static_cast<FeatureId>(f)).name) {
      return Status::InvalidArgument("store column mismatch: " +
                                     header[f + 1]);
    }
  }
  FeatureStore store(schema);
  for (size_t i = 1; i < lines.size(); ++i) {
    const auto fields = TsvSplit(lines[i]);
    if (fields.size() != schema->size() + 1) {
      return Status::InvalidArgument("bad store line: " + lines[i]);
    }
    CM_ASSIGN_OR_RETURN(int64_t entity, ParseInt64(fields[0]));
    // A duplicate id means a corrupt or hand-merged artifact; silently
    // keeping the last row would drop data.
    if (store.Contains(static_cast<EntityId>(entity))) {
      return Status::InvalidArgument("duplicate entity id in store file: " +
                                     fields[0]);
    }
    FeatureVector row(schema->size());
    for (size_t f = 0; f < schema->size(); ++f) {
      CM_ASSIGN_OR_RETURN(FeatureValue value,
                          DecodeFeatureValue(fields[f + 1]));
      if (!value.is_missing()) {
        row.Set(static_cast<FeatureId>(f), std::move(value));
      }
    }
    store.Put(static_cast<EntityId>(entity), std::move(row));
  }
  return store;
}

Status WriteWeakLabelsTsv(const std::vector<ProbabilisticLabel>& labels,
                          const std::string& path) {
  std::vector<std::string> lines;
  lines.push_back(TsvJoin({"entity", "p_positive", "covered"}));
  for (const auto& label : labels) {
    lines.push_back(TsvJoin({std::to_string(label.entity),
                             FormatDouble(label.p_positive),
                             label.covered ? "1" : "0"}));
  }
  return WriteLines(path, lines);
}

Result<std::vector<ProbabilisticLabel>> ReadWeakLabelsTsv(
    const std::string& path) {
  CM_ASSIGN_OR_RETURN(auto lines, ReadLines(path));
  if (lines.empty()) return Status::InvalidArgument("empty labels file");
  CM_RETURN_IF_ERROR(CheckHeader(TsvSplit(lines[0]),
                                 {"entity", "p_positive", "covered"},
                                 "weak-labels"));
  std::vector<ProbabilisticLabel> labels;
  labels.reserve(lines.size() - 1);
  for (size_t i = 1; i < lines.size(); ++i) {
    const auto fields = TsvSplit(lines[i]);
    if (fields.size() != 3) {
      return Status::InvalidArgument("bad label line: " + lines[i]);
    }
    ProbabilisticLabel label;
    CM_ASSIGN_OR_RETURN(int64_t entity, ParseInt64(fields[0]));
    // A NaN/inf probability would silently poison downstream training.
    CM_ASSIGN_OR_RETURN(label.p_positive, ParseFiniteDouble(fields[1]));
    CM_ASSIGN_OR_RETURN(int64_t covered, ParseInt64(fields[2]));
    label.entity = static_cast<EntityId>(entity);
    label.covered = covered != 0;
    labels.push_back(label);
  }
  return labels;
}

Status WritePrCurveCsv(const std::vector<PrPoint>& curve,
                       const std::string& path) {
  // Routed through the CSV helper (io/tsv.h) rather than hand-joined
  // strings: the fields here are plain numbers today, but the writer must
  // not silently produce unparseable CSV if that ever changes.
  std::vector<std::string> lines;
  lines.push_back(CsvJoin({"threshold", "precision", "recall"}));
  for (const PrPoint& p : curve) {
    lines.push_back(CsvJoin({FormatDouble(p.threshold),
                             FormatDouble(p.precision),
                             FormatDouble(p.recall)}));
  }
  return WriteLines(path, lines);
}

Result<std::vector<PrPoint>> ReadPrCurveCsv(const std::string& path) {
  CM_ASSIGN_OR_RETURN(auto lines, ReadLines(path));
  if (lines.empty()) return Status::InvalidArgument("empty PR-curve file");
  CM_ASSIGN_OR_RETURN(auto header, CsvSplit(lines[0]));
  CM_RETURN_IF_ERROR(
      CheckHeader(header, {"threshold", "precision", "recall"}, "PR-curve"));
  std::vector<PrPoint> curve;
  curve.reserve(lines.size() - 1);
  for (size_t i = 1; i < lines.size(); ++i) {
    CM_ASSIGN_OR_RETURN(auto fields, CsvSplit(lines[i]));
    if (fields.size() != 3) {
      return Status::InvalidArgument("bad PR-curve line: " + lines[i]);
    }
    PrPoint p;
    CM_ASSIGN_OR_RETURN(p.threshold, ParseFiniteDouble(fields[0]));
    CM_ASSIGN_OR_RETURN(p.precision, ParseFiniteDouble(fields[1]));
    CM_ASSIGN_OR_RETURN(p.recall, ParseFiniteDouble(fields[2]));
    curve.push_back(p);
  }
  return curve;
}

}  // namespace crossmodal
