#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/random.h"

#include "audit/determinism.h"
#include "dataflow/feature_generation.h"
#include "io/artifacts.h"
#include "io/columnar.h"
#include "io/file_io.h"
#include "io/io_faults.h"
#include "io/store_format.h"
#include "io/tsv.h"
#include "synth/corpus_generator.h"

namespace crossmodal {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("cm_io_" + name))
      .string();
}

// ---------- TSV -------------------------------------------------------------

TEST(TsvTest, EscapeRoundTrip) {
  const std::string nasty = "a\tb\nc\\d";
  EXPECT_EQ(TsvUnescape(TsvEscape(nasty)), nasty);
  EXPECT_EQ(TsvEscape("plain"), "plain");
}

TEST(TsvTest, JoinSplitRoundTrip) {
  const std::vector<std::string> fields = {"x", "tab\there", "", "end\n"};
  const auto split = TsvSplit(TsvJoin(fields));
  EXPECT_EQ(split, fields);
}

TEST(TsvTest, SplitEmptyLine) {
  const auto fields = TsvSplit("");
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(TsvTest, FileRoundTrip) {
  const std::string path = TempPath("lines.tsv");
  const std::vector<std::string> lines = {"one", "two\tstill two", ""};
  ASSERT_TRUE(WriteLines(path, lines).ok());
  auto read = ReadLines(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, lines);
  std::remove(path.c_str());
}

TEST(TsvTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadLines("/nonexistent/dir/x.tsv").status().code(),
            StatusCode::kIOError);
}

// ---------- FeatureValue codec ------------------------------------------------

TEST(ArtifactsTest, FeatureValueCodecRoundTrip) {
  const std::vector<FeatureValue> values = {
      FeatureValue::Missing(),
      FeatureValue::Numeric(3.14159),
      FeatureValue::Numeric(-1e-17),
      FeatureValue::Categorical({}),
      FeatureValue::Categorical({5, 1, 9}),
      FeatureValue::Categorical({std::numeric_limits<int32_t>::min(),
                                 std::numeric_limits<int32_t>::max()}),
      FeatureValue::Embedding({0.5f, -2.25f, 0.0f}),
  };
  for (const FeatureValue& v : values) {
    auto decoded = DecodeFeatureValue(EncodeFeatureValue(v));
    ASSERT_TRUE(decoded.ok()) << EncodeFeatureValue(v);
    EXPECT_EQ(*decoded, v) << EncodeFeatureValue(v);
  }
}

TEST(ArtifactsTest, FeatureValueCodecRejectsGarbage) {
  EXPECT_FALSE(DecodeFeatureValue("").ok());
  EXPECT_FALSE(DecodeFeatureValue("X:1").ok());
  EXPECT_FALSE(DecodeFeatureValue("N:notanumber").ok());
  EXPECT_FALSE(DecodeFeatureValue("C:1|x|3").ok());
  // Category ids must fit int32; a wider id must not wrap to a valid one.
  EXPECT_EQ(DecodeFeatureValue("C:4294967297|-4294967295").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(DecodeFeatureValue("C:2147483648").ok());
  EXPECT_FALSE(DecodeFeatureValue("C:-2147483649").ok());
}

// ---------- Schema / store / labels round trips --------------------------------

class IoRoundTripTest : public ::testing::Test {
 protected:
  IoRoundTripTest()
      : generator_(world_, TaskSpec::CT(1).Scaled(0.02)),
        corpus_(generator_.Generate()) {
    auto registry = BuildModerationRegistry(generator_, 61);
    CM_CHECK(registry.ok());
    registry_ =
        std::make_unique<ResourceRegistry>(std::move(registry).value());
  }

  WorldConfig world_;
  CorpusGenerator generator_;
  Corpus corpus_;
  std::unique_ptr<ResourceRegistry> registry_;
};

TEST_F(IoRoundTripTest, SchemaRoundTrip) {
  const std::string path = TempPath("schema.tsv");
  ASSERT_TRUE(WriteSchemaTsv(registry_->schema(), path).ok());
  auto schema = ReadSchemaTsv(path);
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_EQ(schema->size(), registry_->schema().size());
  for (size_t f = 0; f < schema->size(); ++f) {
    const auto& a = schema->def(static_cast<FeatureId>(f));
    const auto& b = registry_->schema().def(static_cast<FeatureId>(f));
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.set, b.set);
    EXPECT_EQ(a.cardinality, b.cardinality);
    EXPECT_EQ(a.modalities, b.modalities);
    EXPECT_EQ(a.servable, b.servable);
  }
  std::remove(path.c_str());
}

TEST_F(IoRoundTripTest, FeatureStoreRoundTrip) {
  FeatureStore store(&registry_->schema());
  GenerateFeatures(corpus_.image_unlabeled, *registry_, &store);
  const std::string path = TempPath("store.tsv");
  ASSERT_TRUE(WriteFeatureStoreTsv(store, path).ok());
  auto loaded = ReadFeatureStoreTsv(&registry_->schema(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), store.size());
  for (const Entity& e : corpus_.image_unlabeled) {
    auto a = store.Get(e.id);
    auto b = loaded->Get(e.id);
    ASSERT_TRUE(a.ok() && b.ok());
    for (size_t f = 0; f < registry_->schema().size(); ++f) {
      EXPECT_EQ((*a)->Get(static_cast<FeatureId>(f)),
                (*b)->Get(static_cast<FeatureId>(f)))
          << "feature " << f << " of entity " << e.id;
    }
  }
  std::remove(path.c_str());
}

TEST_F(IoRoundTripTest, StoreRejectsWrongSchema) {
  FeatureStore store(&registry_->schema());
  GenerateFeatures({corpus_.image_unlabeled.front()}, *registry_, &store);
  const std::string path = TempPath("store2.tsv");
  ASSERT_TRUE(WriteFeatureStoreTsv(store, path).ok());
  FeatureSchema other;
  FeatureDef def;
  def.name = "unrelated";
  def.type = FeatureType::kNumeric;
  ASSERT_TRUE(other.Add(def).ok());
  EXPECT_FALSE(ReadFeatureStoreTsv(&other, path).ok());
  std::remove(path.c_str());
}

TEST_F(IoRoundTripTest, WeakLabelsRoundTrip) {
  std::vector<ProbabilisticLabel> labels(5);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i].entity = 100 + i;
    labels[i].p_positive = 0.1 * static_cast<double>(i) + 0.01;
    labels[i].covered = (i % 2) == 0;
  }
  const std::string path = TempPath("labels.tsv");
  ASSERT_TRUE(WriteWeakLabelsTsv(labels, path).ok());
  auto loaded = ReadWeakLabelsTsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ((*loaded)[i].entity, labels[i].entity);
    EXPECT_DOUBLE_EQ((*loaded)[i].p_positive, labels[i].p_positive);
    EXPECT_EQ((*loaded)[i].covered, labels[i].covered);
  }
  std::remove(path.c_str());
}

// ---- Malformed-input coverage for the TSV readers --------------------------

/// Writes `lines` to a temp file, runs `read` on it, and expects failure.
template <typename ReadFn>
void ExpectReadFails(const std::string& name,
                     const std::vector<std::string>& lines, ReadFn read) {
  const std::string path = TempPath(name);
  ASSERT_TRUE(WriteLines(path, lines).ok());
  EXPECT_FALSE(read(path).ok()) << name;
  std::remove(path.c_str());
}

TEST(WeakLabelsValidationTest, HeaderOnlyFileYieldsNoLabels) {
  const std::string path = TempPath("labels_header_only.tsv");
  ASSERT_TRUE(WriteLines(path, {"entity\tp_positive\tcovered"}).ok());
  auto loaded = ReadWeakLabelsTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
  std::remove(path.c_str());
}

TEST(WeakLabelsValidationTest, RejectsBadHeader) {
  // Line 0 used to be skipped blind; a reordered or truncated header must
  // fail instead of silently misassigning columns.
  ExpectReadFails("labels_bad_header.tsv",
                  {"p_positive\tentity\tcovered", "1\t0.5\t1"},
                  ReadWeakLabelsTsv);
  ExpectReadFails("labels_no_header.tsv", {"1\t0.5\t1"}, ReadWeakLabelsTsv);
}

TEST(WeakLabelsValidationTest, RejectsWrongColumnCounts) {
  ExpectReadFails("labels_short_row.tsv",
                  {"entity\tp_positive\tcovered", "1\t0.5"},
                  ReadWeakLabelsTsv);
  ExpectReadFails("labels_long_row.tsv",
                  {"entity\tp_positive\tcovered", "1\t0.5\t1\textra"},
                  ReadWeakLabelsTsv);
}

TEST(WeakLabelsValidationTest, RejectsNonFiniteAndMalformedNumbers) {
  for (const char* bad : {"nan", "inf", "-inf", "0.5x", ""}) {
    ExpectReadFails(std::string("labels_bad_p_") + bad + ".tsv",
                    {"entity\tp_positive\tcovered",
                     std::string("1\t") + bad + "\t1"},
                    ReadWeakLabelsTsv);
  }
  ExpectReadFails("labels_bad_entity.tsv",
                  {"entity\tp_positive\tcovered", "1x\t0.5\t1"},
                  ReadWeakLabelsTsv);
}

TEST(SchemaValidationTest, RejectsBadHeaderAndColumnCounts) {
  ExpectReadFails("schema_bad_header.tsv",
                  {"name\ttype", "f0\t0\t0\t4\t7\t1"}, ReadSchemaTsv);
  ExpectReadFails("schema_short_row.tsv",
                  {"name\ttype\tset\tcardinality\tmodalities\tservable",
                   "f0\t0\t0"},
                  ReadSchemaTsv);
  ExpectReadFails("schema_bad_int.tsv",
                  {"name\ttype\tset\tcardinality\tmodalities\tservable",
                   "f0\t0\t0\tfour\t7\t1"},
                  ReadSchemaTsv);
}

TEST(SchemaValidationTest, HeaderOnlyFileYieldsEmptySchema) {
  const std::string path = TempPath("schema_header_only.tsv");
  ASSERT_TRUE(WriteLines(
      path, {"name\ttype\tset\tcardinality\tmodalities\tservable"}).ok());
  auto schema = ReadSchemaTsv(path);
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->empty());
  std::remove(path.c_str());
}

TEST_F(IoRoundTripTest, PrCurveCsvWrites) {
  std::vector<PrPoint> curve(3);
  curve[0] = {0.1, 1.0, 0.9};
  curve[1] = {0.5, 0.8, 0.5};
  curve[2] = {1.0, 0.5, 0.1};
  const std::string path = TempPath("curve.csv");
  ASSERT_TRUE(WritePrCurveCsv(curve, path).ok());
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->size(), 4u);
  EXPECT_EQ((*lines)[0], "threshold,precision,recall");
  std::remove(path.c_str());
}

// ---------- CSV helpers -----------------------------------------------------

TEST(CsvTest, EscapePlainFieldsUnchanged) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("0.125"), "0.125");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(CsvTest, EscapeQuotesSpecialFields) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, JoinSplitRoundTrip) {
  const std::vector<std::string> fields = {"x", "a,b", "say \"hi\"", "",
                                           "plain"};
  auto split = CsvSplit(CsvJoin(fields));
  ASSERT_TRUE(split.ok()) << split.status();
  EXPECT_EQ(*split, fields);
}

TEST(CsvTest, SplitRejectsMalformed) {
  EXPECT_FALSE(CsvSplit("\"unterminated").ok());
  EXPECT_FALSE(CsvSplit("\"a\"b").ok());      // bytes after a quoted field
  EXPECT_FALSE(CsvSplit("mid\"quote").ok());  // quote inside a bare field
}

TEST(CsvTest, PrCurveCsvRoundTrip) {
  std::vector<PrPoint> curve(4);
  curve[0] = {0.015625, 1.0, 0.875};
  curve[1] = {0.25, 0.8125, 0.5};
  curve[2] = {0.625, 0.75, 0.25};
  curve[3] = {1.0, 0.5, 0.125};
  const std::string path = TempPath("curve_roundtrip.csv");
  ASSERT_TRUE(WritePrCurveCsv(curve, path).ok());
  auto loaded = ReadPrCurveCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), curve.size());
  for (size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ((*loaded)[i].threshold, curve[i].threshold);
    EXPECT_EQ((*loaded)[i].precision, curve[i].precision);
    EXPECT_EQ((*loaded)[i].recall, curve[i].recall);
  }
  std::remove(path.c_str());
}

TEST(CsvTest, PrCurveReadRejectsBadInput) {
  ExpectReadFails("curve_bad_header.csv",
                  {"precision,threshold,recall", "0.5,1,0.5"}, ReadPrCurveCsv);
  ExpectReadFails("curve_bad_number.csv",
                  {"threshold,precision,recall", "0.5,one,0.5"},
                  ReadPrCurveCsv);
  ExpectReadFails("curve_short_row.csv",
                  {"threshold,precision,recall", "0.5,1.0"}, ReadPrCurveCsv);
}

// ---------- Schema enum-range validation ------------------------------------

/// One schema line with the given raw fields, under the canonical header.
std::vector<std::string> SchemaLines(const std::string& row) {
  return {"name\ttype\tset\tcardinality\tmodalities\tservable", row};
}

TEST(SchemaValidationTest, RejectsOutOfRangeType) {
  // 3 is one past kEmbedding; a cast without the range check would
  // materialize a FeatureType no switch handles.
  ExpectReadFails("schema_bad_type.tsv", SchemaLines("f0\t3\t0\t4\t7\t1"),
                  ReadSchemaTsv);
  ExpectReadFails("schema_neg_type.tsv", SchemaLines("f0\t-1\t0\t4\t7\t1"),
                  ReadSchemaTsv);
}

TEST(SchemaValidationTest, RejectsOutOfRangeSet) {
  ExpectReadFails("schema_bad_set.tsv", SchemaLines("f0\t0\t5\t4\t7\t1"),
                  ReadSchemaTsv);
}

TEST(SchemaValidationTest, RejectsOutOfRangeCardinality) {
  ExpectReadFails("schema_neg_card.tsv", SchemaLines("f0\t1\t0\t-1\t7\t1"),
                  ReadSchemaTsv);
  ExpectReadFails("schema_huge_card.tsv",
                  SchemaLines("f0\t1\t0\t4294967296\t7\t1"), ReadSchemaTsv);
}

TEST(SchemaValidationTest, RejectsOutOfRangeModalities) {
  // kAllModalities is the 3-bit mask 7; 8 sets a bit no modality owns.
  ExpectReadFails("schema_bad_modalities.tsv",
                  SchemaLines("f0\t0\t0\t4\t8\t1"), ReadSchemaTsv);
}

TEST(SchemaValidationTest, RejectsNonBooleanServable) {
  ExpectReadFails("schema_bad_servable.tsv",
                  SchemaLines("f0\t0\t0\t4\t7\t2"), ReadSchemaTsv);
}

TEST(SchemaValidationTest, AcceptsBoundaryValues) {
  const std::string path = TempPath("schema_boundary.tsv");
  ASSERT_TRUE(
      WriteLines(path, SchemaLines("f0\t2\t4\t0\t7\t1")).ok());
  auto schema = ReadSchemaTsv(path);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->def(0).type, FeatureType::kEmbedding);
  EXPECT_EQ(schema->def(0).set, ServiceSet::kImage);
  std::remove(path.c_str());
}

// ---------- Duplicate-entity validation -------------------------------------

TEST_F(IoRoundTripTest, StoreRejectsDuplicateEntityIds) {
  FeatureStore store(&registry_->schema());
  GenerateFeatures({corpus_.image_unlabeled.front()}, *registry_, &store);
  const std::string path = TempPath("store_dup.tsv");
  ASSERT_TRUE(WriteFeatureStoreTsv(store, path).ok());
  auto lines = ReadLines(path);
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 2u);  // header + one row
  lines->push_back(lines->back());
  ASSERT_TRUE(WriteLines(path, *lines).ok());
  const auto read = ReadFeatureStoreTsv(&registry_->schema(), path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("duplicate entity"),
            std::string::npos)
      << read.status();
  std::remove(path.c_str());
}

// ---------- Columnar format -------------------------------------------------

std::vector<EntityId> SortedEntities(const FeatureStore& store) {
  std::vector<EntityId> ids;
  ids.reserve(store.size());
  // cmlint: unordered-ok — collected only to be sorted on the next line
  for (const auto& [id, row] : store) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(IoRoundTripTest, ColumnarRoundTripBitIdentical) {
  FeatureStore store(&registry_->schema());
  GenerateFeatures(corpus_.image_unlabeled, *registry_, &store);
  const std::vector<EntityId> order = SortedEntities(store);
  const uint64_t want = DeterminismHarness::HashFeatureRows(store, order);

  const std::string path = TempPath("store.cmc");
  ASSERT_TRUE(WriteFeatureStoreColumnar(store, path).ok());
  auto reader = ColumnarReader::Open(&registry_->schema(), path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->num_rows(), store.size());
  EXPECT_EQ(reader->num_cols(), registry_->schema().size());

  auto materialized = reader->Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(DeterminismHarness::HashFeatureRows(*materialized, order), want);
  std::remove(path.c_str());
}

TEST_F(IoRoundTripTest, ColumnarReaderMovedFromUseTripsDcheck) {
  FeatureStore store(&registry_->schema());
  GenerateFeatures(corpus_.image_unlabeled, *registry_, &store);
  const std::string path = TempPath("store_moved.cmc");
  ASSERT_TRUE(WriteFeatureStoreColumnar(store, path).ok());
  auto opened = ColumnarReader::Open(&registry_->schema(), path);
  ASSERT_TRUE(opened.ok()) << opened.status();

  ColumnarReader first = std::move(*opened);
  ASSERT_EQ(first.num_rows(), store.size());
  ColumnarReader second = std::move(first);

  // The mapping travels with the move: the destination decodes normally.
  auto materialized = second.Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status();
  EXPECT_EQ(materialized->size(), store.size());

  // Using the moved-from source is the bug ColumnarReader's generation
  // guard exists to catch; this test commits it on purpose.
#ifndef NDEBUG
  // cmlife: move-ok — deliberate use-after-move to exercise the guard
  EXPECT_DEATH(first.entity(0), "moved-from or closed ColumnarReader");
  // cmlife: move-ok — deliberate use-after-move to exercise the guard
  EXPECT_DEATH((void)first.Materialize(),
               "moved-from or closed ColumnarReader");
#else
  // Release builds compile the CM_DCHECK out; the moved-from reader is
  // merely empty (null mapping), and only the destination stays usable.
  EXPECT_EQ(second.num_rows(), store.size());
#endif
  std::remove(path.c_str());
}

TEST_F(IoRoundTripTest, StoreFormatDispatchAndDetection) {
  FeatureStore store(&registry_->schema());
  GenerateFeatures(corpus_.image_unlabeled, *registry_, &store);
  const std::vector<EntityId> order = SortedEntities(store);
  const uint64_t want = DeterminismHarness::HashFeatureRows(store, order);

  const std::string tsv_path = TempPath("dispatch.tsv");
  const std::string cmc_path = TempPath("dispatch.cmc");
  ASSERT_TRUE(WriteFeatureStore(store, tsv_path, StoreFormat::kTsv).ok());
  ASSERT_TRUE(
      WriteFeatureStore(store, cmc_path, StoreFormat::kColumnar).ok());

  auto tsv_format = DetectStoreFormat(tsv_path);
  auto cmc_format = DetectStoreFormat(cmc_path);
  ASSERT_TRUE(tsv_format.ok() && cmc_format.ok());
  EXPECT_EQ(*tsv_format, StoreFormat::kTsv);
  EXPECT_EQ(*cmc_format, StoreFormat::kColumnar);

  for (const auto& [path, format] :
       {std::pair<std::string, StoreFormat>{tsv_path, StoreFormat::kTsv},
        {cmc_path, StoreFormat::kColumnar}}) {
    auto loaded = ReadFeatureStore(&registry_->schema(), path, format);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(DeterminismHarness::HashFeatureRows(*loaded, order), want)
        << path;
  }
  std::remove(tsv_path.c_str());
  std::remove(cmc_path.c_str());
}

/// Schema with all three value types, as the corrupted-file fixtures use.
FeatureSchema SmallSchema() {
  FeatureSchema schema;
  FeatureDef numeric;
  numeric.name = "num";
  numeric.type = FeatureType::kNumeric;
  CM_CHECK(schema.Add(numeric).ok());
  FeatureDef categorical;
  categorical.name = "cats";
  categorical.type = FeatureType::kCategorical;
  categorical.cardinality = 16;
  CM_CHECK(schema.Add(categorical).ok());
  FeatureDef embedding;
  embedding.name = "emb";
  embedding.type = FeatureType::kEmbedding;
  CM_CHECK(schema.Add(embedding).ok());
  return schema;
}

/// A small deterministic store over SmallSchema with some missing slots.
FeatureStore SmallStore(const FeatureSchema* schema, uint64_t seed,
                        size_t rows) {
  FeatureStore store(schema);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    FeatureVector row(schema->size());
    if (rng.Bernoulli(0.8)) {
      row.Set(0, FeatureValue::Numeric(rng.Uniform() * 2.0 - 1.0));
    }
    if (rng.Bernoulli(0.8)) {
      std::vector<int32_t> cats;
      const size_t n = rng.UniformInt(4);
      for (size_t i = 0; i < n; ++i) {
        cats.push_back(static_cast<int32_t>(rng.UniformInt(16)));
      }
      row.Set(1, FeatureValue::Categorical(std::move(cats)));
    }
    if (rng.Bernoulli(0.8)) {
      std::vector<float> emb(8);
      for (float& v : emb) {
        v = static_cast<float>(rng.Uniform() * 4.0 - 2.0);
      }
      row.Set(2, FeatureValue::Embedding(std::move(emb)));
    }
    store.Put(static_cast<EntityId>(1000 + r * 3), std::move(row));
  }
  return store;
}

class ColumnarFixtureTest : public ::testing::Test {
 protected:
  ColumnarFixtureTest() : schema_(SmallSchema()) {}

  /// Writes a valid store file and returns its bytes.
  std::string ValidBytes() {
    const FeatureStore store = SmallStore(&schema_, 0xF1D0, 24);
    const std::string path = TempPath("fixture.cmc");
    CM_CHECK(WriteFeatureStoreColumnar(store, path).ok());
    auto bytes = ReadFileBytes(path);
    CM_CHECK(bytes.ok());
    std::remove(path.c_str());
    return *bytes;
  }

  /// Writes `bytes` to a temp file and opens it, expecting a typed failure.
  void ExpectOpenFails(const std::string& name, const std::string& bytes,
                       StatusCode code, const std::string& needle) {
    const std::string path = TempPath(name);
    ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
    const auto reader = ColumnarReader::Open(&schema_, path);
    ASSERT_FALSE(reader.ok()) << name;
    EXPECT_EQ(reader.status().code(), code) << reader.status();
    EXPECT_NE(reader.status().message().find(needle), std::string::npos)
        << reader.status();
    std::remove(path.c_str());
  }

  FeatureSchema schema_;
};

TEST_F(ColumnarFixtureTest, TruncatedFileFailsTyped) {
  const std::string bytes = ValidBytes();
  // Every truncation point must fail typed — header-short files, a clipped
  // body, and a clipped footer all decode as "truncated" or a checksum
  // mismatch, never a crash (run under asan-ubsan in CI).
  for (const size_t keep :
       {size_t{0}, size_t{7}, size_t{31}, size_t{39}, bytes.size() / 2,
        bytes.size() - 1}) {
    ExpectOpenFails("trunc_" + std::to_string(keep) + ".cmc",
                    bytes.substr(0, keep), StatusCode::kInvalidArgument,
                    "columnar");
  }
}

TEST_F(ColumnarFixtureTest, FlippedChecksumFailsTyped) {
  std::string bytes = ValidBytes();
  bytes[bytes.size() - 1] ^= 0x01;  // footer checksum byte
  ExpectOpenFails("bad_footer.cmc", bytes, StatusCode::kInvalidArgument,
                  "checksum mismatch");
  // A body flip is caught by the same checksum.
  std::string body_flip = ValidBytes();
  body_flip[32 + 3] ^= 0x40;  // first entity-id word, past the 32-B header
  ExpectOpenFails("bad_body.cmc", body_flip, StatusCode::kInvalidArgument,
                  "checksum mismatch");
}

TEST_F(ColumnarFixtureTest, WrongVersionFailsTyped) {
  std::string bytes = ValidBytes();
  bytes[4] = 0x7F;  // version field (little-endian u32 at offset 4)
  ExpectOpenFails("bad_version.cmc", bytes, StatusCode::kInvalidArgument,
                  "unsupported columnar version");
}

TEST_F(ColumnarFixtureTest, BadMagicFailsTyped) {
  std::string bytes = ValidBytes();
  bytes[0] = 'X';
  ExpectOpenFails("bad_magic.cmc", bytes, StatusCode::kInvalidArgument,
                  "not a columnar store");
  // A TSV store is rejected the same way by magic sniffing.
  ExpectOpenFails("tsv_as_cmc.cmc",
                  "entity\tnum\tcats\temb\n1\tN:0.5\t-\t-\n" +
                      std::string(64, ' '),
                  StatusCode::kInvalidArgument, "not a columnar store");
}

TEST_F(ColumnarFixtureTest, WrongSchemaFingerprintFailsTyped) {
  const std::string path = TempPath("fingerprint.cmc");
  ASSERT_TRUE(WriteFileBytes(path, ValidBytes()).ok());
  FeatureSchema other = SmallSchema();
  FeatureDef extra;
  extra.name = "extra";
  extra.type = FeatureType::kNumeric;
  ASSERT_TRUE(other.Add(extra).ok());
  const auto reader = ColumnarReader::Open(&other, path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(reader.status().message().find("fingerprint mismatch"),
            std::string::npos)
      << reader.status();
  EXPECT_NE(SchemaFingerprint(schema_), SchemaFingerprint(other));
  std::remove(path.c_str());
}

// ---------- Property test: randomized stores through every path -------------

TEST(ColumnarPropertyTest, RandomStoresRoundTripBitIdentical) {
  const FeatureSchema schema = SmallSchema();
  Rng seeds(0xC0FFEE);
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t seed = seeds();
    const size_t rows = 1 + seeds.UniformInt(40);
    const FeatureStore store = SmallStore(&schema, seed, rows);
    const std::vector<EntityId> order = SortedEntities(store);
    const uint64_t want = DeterminismHarness::HashFeatureRows(store, order);

    // Path 1: store -> TSV -> read -> columnar -> mmap read.
    const std::string tsv_path = TempPath("prop.tsv");
    const std::string cmc_path = TempPath("prop.cmc");
    ASSERT_TRUE(WriteFeatureStoreTsv(store, tsv_path).ok());
    auto via_tsv = ReadFeatureStoreTsv(&schema, tsv_path);
    ASSERT_TRUE(via_tsv.ok()) << via_tsv.status();
    ASSERT_EQ(DeterminismHarness::HashFeatureRows(*via_tsv, order), want)
        << "trial " << trial;
    ASSERT_TRUE(WriteFeatureStoreColumnar(*via_tsv, cmc_path).ok());
    auto reader = ColumnarReader::Open(&schema, cmc_path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    auto via_cmc = reader->Materialize();
    ASSERT_TRUE(via_cmc.ok()) << via_cmc.status();
    ASSERT_EQ(DeterminismHarness::HashFeatureRows(*via_cmc, order), want)
        << "trial " << trial;

    // Path 2: the columnar bytes are a pure function of the rows, so the
    // re-encoded store must be byte-identical, not just value-identical.
    const std::string again_path = TempPath("prop_again.cmc");
    ASSERT_TRUE(WriteFeatureStoreColumnar(*via_cmc, again_path).ok());
    auto bytes_a = ReadFileBytes(cmc_path);
    auto bytes_b = ReadFileBytes(again_path);
    ASSERT_TRUE(bytes_a.ok() && bytes_b.ok());
    ASSERT_EQ(*bytes_a, *bytes_b) << "trial " << trial;

    std::remove(tsv_path.c_str());
    std::remove(cmc_path.c_str());
    std::remove(again_path.c_str());
  }
}

// ---------- IO fault injection ----------------------------------------------

TEST(IoFaultsTest, ScopedInstallExposesInjector) {
  EXPECT_EQ(ActiveIoFaultInjector(), nullptr);
  {
    IoFaultConfig config;
    config.torn_write_rate = 0.5;
    ScopedIoFaultInjection scoped(config);
    ASSERT_NE(ActiveIoFaultInjector(), nullptr);
    EXPECT_EQ(ActiveIoFaultInjector()->config().torn_write_rate, 0.5);
  }
  EXPECT_EQ(ActiveIoFaultInjector(), nullptr);
}

TEST(IoFaultsTest, TornWritesRetryToRecovery) {
  IoFaultConfig config;
  config.torn_write_rate = 0.5;
  config.retry.max_attempts = 10;
  config.retry.base_backoff_us = 1;
  config.retry.max_backoff_us = 4;
  config.seed = 0x70AD;
  ScopedIoFaultInjection scoped(config);
  // Across many keys some first attempts tear; every write must still land
  // intact within the retry budget, and reads must see the full payload.
  for (int i = 0; i < 50; ++i) {
    const std::string path = TempPath("torn_" + std::to_string(i) + ".bin");
    const std::string payload(256 + i, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(WriteFileBytes(path, payload).ok()) << path;
    auto read = ReadFileBytes(path);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(*read, payload) << path;
    std::remove(path.c_str());
  }
  const IoFaultStats stats = scoped.injector().stats();
  EXPECT_GT(stats.torn_writes, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.backoff_us, 0u);
}

TEST(IoFaultsTest, CertainTornWritesExhaustBudget) {
  IoFaultConfig config;
  config.torn_write_rate = 1.0;
  config.retry.max_attempts = 3;
  config.retry.base_backoff_us = 1;
  ScopedIoFaultInjection scoped(config);
  const std::string path = TempPath("always_torn.bin");
  const Status status = WriteFileBytes(path, std::string(128, 'x'));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // The torn prefix is on disk — exactly the failure a checksum must catch.
  auto left_behind = ReadFileBytes(path);
  ASSERT_TRUE(left_behind.ok());
  EXPECT_EQ(left_behind->size(), 64u);
  EXPECT_EQ(scoped.injector().stats().torn_writes, 3u);
  std::remove(path.c_str());
}

TEST(IoFaultsTest, SilentCorruptionCaughtByColumnarChecksum) {
  const FeatureSchema schema = SmallSchema();
  const FeatureStore store = SmallStore(&schema, 0xBADD, 16);
  const std::string path = TempPath("corrupt.cmc");
  {
    IoFaultConfig config;
    config.corrupt_rate = 1.0;  // every surviving write loses one byte
    ScopedIoFaultInjection scoped(config);
    // The write itself reports success: corruption is silent at write time.
    ASSERT_TRUE(WriteFeatureStoreColumnar(store, path).ok());
    EXPECT_EQ(scoped.injector().stats().corruptions, 1u);
  }
  // Only the footer checksum can notice after the fact.
  const auto reader = ColumnarReader::Open(&schema, path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoFaultsTest, TransientOpenFailuresRetryAndExhaust) {
  IoFaultConfig config;
  config.open_fail_rate = 1.0;
  config.retry.max_attempts = 4;
  config.retry.base_backoff_us = 1;
  ScopedIoFaultInjection scoped(config);
  const std::string path = TempPath("unopenable.bin");
  const Status write = WriteFileBytes(path, "payload");
  ASSERT_FALSE(write.ok());
  EXPECT_EQ(write.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(ReadFileBytes(path).ok());
  EXPECT_FALSE(ColumnarReader::Open(nullptr, path).ok());
  const IoFaultStats stats = scoped.injector().stats();
  EXPECT_EQ(stats.open_failures, 8u);  // 4 write attempts + 4 read attempts
}

TEST(IoFaultsTest, FaultScheduleIsDeterministic) {
  IoFaultConfig config;
  config.open_fail_rate = 0.3;
  config.torn_write_rate = 0.3;
  config.retry.max_attempts = 6;
  config.retry.base_backoff_us = 1;
  config.seed = 0xD00D;
  auto run = [&] {
    ScopedIoFaultInjection scoped(config);
    for (int i = 0; i < 30; ++i) {
      const std::string path =
          TempPath("det_" + std::to_string(i) + ".bin");
      (void)WriteFileBytes(path, std::string(64, 'd'));
      auto read = ReadFileBytes(path);
      (void)read;
      std::remove(path.c_str());
    }
    return scoped.injector().stats();
  };
  const IoFaultStats a = run();
  const IoFaultStats b = run();
  EXPECT_EQ(a.open_failures, b.open_failures);
  EXPECT_EQ(a.torn_writes, b.torn_writes);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.backoff_us, b.backoff_us);
  EXPECT_GT(a.open_failures + a.torn_writes, 0u);
}

}  // namespace
}  // namespace crossmodal
