#include "io/columnar.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "io/artifacts.h"
#include "io/file_io.h"
#include "util/check.h"
#include "util/hashing.h"

namespace crossmodal {

namespace {

constexpr char kMagic[4] = {'C', 'M', 'C', 'F'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderSize = 4 + 4 + 8 + 8 + 8;
constexpr size_t kFooterSize = 8;

// Source for ColumnarReader::generation_: every successful mapping gets a
// distinct nonzero id, so a moved-from or destroyed reader (generation_ == 0)
// is distinguishable from every live one. The count is never read back for
// ordering — relaxed is sufficient.
std::atomic<uint64_t> g_reader_generation{0};

// ---- Little-endian primitives (byte-at-a-time: no alignment or host
// endianness assumptions, which also keeps UBSan quiet on the mapped
// region). ------------------------------------------------------------------

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendF32(std::string* out, float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU32(out, bits);
}

void PatchU64(std::string* out, size_t pos, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*out)[pos + static_cast<size_t>(i)] = static_cast<char>(v >> (8 * i));
  }
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double LoadF64(const uint8_t* p) {
  const uint64_t bits = LoadU64(p);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

float LoadF32(const uint8_t* p) {
  const uint32_t bits = LoadU32(p);
  float v = 0.0F;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool BitSet(const uint8_t* bitmap, size_t row) {
  return (bitmap[row / 8] >> (row % 8)) & 1;
}

Status Truncated(const std::string& what) {
  return Status::InvalidArgument("truncated columnar store: " + what);
}

// ---- Column-block view -----------------------------------------------------

/// Validated pointers into one column block of the mapped file. Lengths and
/// values alias the mapping directly (the zero-copy part); `lengths` is
/// null for numeric columns.
struct ColumnLayout {
  FeatureType type = FeatureType::kNumeric;
  const uint8_t* bitmap = nullptr;
  uint64_t n_present = 0;
  const uint8_t* lengths = nullptr;  // u32[n_present]
  const uint8_t* values = nullptr;   // payload elements
  uint64_t total = 0;                // element count (categorical/embedding)
};

/// Parses and bounds-checks the column block at `offset` against the body
/// region [kHeaderSize, limit). Every downstream decode trusts the pointers
/// this returns, so all size arithmetic is overflow-checked here.
Result<ColumnLayout> ParseColumnBlock(const uint8_t* data, size_t limit,
                                      uint64_t offset, size_t n_rows,
                                      const FeatureDef& def) {
  ColumnLayout col;
  if (offset < kHeaderSize || offset >= limit) {
    return Truncated("column offset out of range for '" + def.name + "'");
  }
  size_t pos = static_cast<size_t>(offset);
  auto take = [&](size_t n) -> const uint8_t* {
    if (n > limit - pos) return nullptr;
    const uint8_t* p = data + pos;
    pos += n;
    return p;
  };

  const uint8_t* type_byte = take(1);
  if (type_byte == nullptr) return Truncated("column type");
  if (*type_byte > static_cast<uint8_t>(FeatureType::kEmbedding)) {
    return Status::InvalidArgument("columnar: bad column type byte");
  }
  col.type = static_cast<FeatureType>(*type_byte);
  if (col.type != def.type) {
    return Status::InvalidArgument("columnar: column '" + def.name +
                                   "' type does not match the schema");
  }

  const size_t bitmap_bytes = (n_rows + 7) / 8;
  col.bitmap = take(bitmap_bytes);
  if (col.bitmap == nullptr) return Truncated("missing bitmap");

  const uint8_t* n_present_bytes = take(8);
  if (n_present_bytes == nullptr) return Truncated("presence count");
  col.n_present = LoadU64(n_present_bytes);
  size_t popcount = 0;
  for (size_t r = 0; r < n_rows; ++r) {
    if (BitSet(col.bitmap, r)) ++popcount;
  }
  if (popcount != col.n_present) {
    return Status::InvalidArgument(
        "columnar: presence count disagrees with the bitmap for '" +
        def.name + "'");
  }

  if (col.type == FeatureType::kNumeric) {
    if (col.n_present > (limit - pos) / 8) return Truncated("numeric values");
    col.values = take(static_cast<size_t>(col.n_present) * 8);
    return col;
  }

  const uint8_t* total_bytes = take(8);
  if (total_bytes == nullptr) return Truncated("element total");
  col.total = LoadU64(total_bytes);
  if (col.n_present > (limit - pos) / 4) return Truncated("length array");
  col.lengths = take(static_cast<size_t>(col.n_present) * 4);
  uint64_t sum = 0;
  for (uint64_t i = 0; i < col.n_present; ++i) {
    sum += LoadU32(col.lengths + 4 * i);
  }
  if (sum != col.total) {
    return Status::InvalidArgument(
        "columnar: length array disagrees with the element total for '" +
        def.name + "'");
  }
  if (col.total > (limit - pos) / 4) return Truncated("value array");
  col.values = take(static_cast<size_t>(col.total) * 4);
  return col;
}

/// Decodes the present value at `rank` (presence index) whose elements
/// start at `elem` (element offset for categorical/embedding payloads).
FeatureValue DecodeAt(const ColumnLayout& col, uint64_t rank, uint64_t elem) {
  switch (col.type) {
    case FeatureType::kNumeric:
      return FeatureValue::Numeric(LoadF64(col.values + 8 * rank));
    case FeatureType::kCategorical: {
      const uint32_t len = LoadU32(col.lengths + 4 * rank);
      std::vector<int32_t> categories;
      categories.reserve(len);
      for (uint32_t i = 0; i < len; ++i) {
        categories.push_back(
            static_cast<int32_t>(LoadU32(col.values + 4 * (elem + i))));
      }
      return FeatureValue::Categorical(std::move(categories));
    }
    case FeatureType::kEmbedding: {
      const uint32_t len = LoadU32(col.lengths + 4 * rank);
      std::vector<float> values;
      values.reserve(len);
      for (uint32_t i = 0; i < len; ++i) {
        values.push_back(LoadF32(col.values + 4 * (elem + i)));
      }
      return FeatureValue::Embedding(std::move(values));
    }
  }
  return FeatureValue::Missing();
}

}  // namespace

uint64_t SchemaFingerprint(const FeatureSchema& schema) {
  Fnv1aHasher hasher;
  hasher.AddU64(schema.size());
  for (const FeatureDef& def : schema.defs()) {
    hasher.AddString(def.name);
    hasher.AddByte(static_cast<uint8_t>(def.type));
    hasher.AddByte(static_cast<uint8_t>(def.set));
    hasher.AddU32(static_cast<uint32_t>(def.cardinality));
    hasher.AddByte(def.modalities);
    hasher.AddByte(def.servable ? 1 : 0);
  }
  return hasher.digest();
}

Status WriteFeatureStoreColumnar(const FeatureStore& store,
                                 const std::string& path) {
  const FeatureSchema& schema = store.schema();
  const size_t n_cols = schema.size();

  // Rows sorted by entity id, matching the TSV writer: the file is a
  // determinism-audited artifact, so byte layout must not depend on hash
  // iteration order.
  std::vector<std::pair<EntityId, const FeatureVector*>> rows;
  rows.reserve(store.size());
  // cmlint: unordered-ok — collected only to be sorted on the next line
  for (const auto& [entity, row] : store) rows.emplace_back(entity, &row);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const size_t n_rows = rows.size();

  std::string out;
  out.reserve(kHeaderSize + 8 * n_rows + 8 * n_cols + 64 * n_rows);
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kVersion);
  AppendU64(&out, SchemaFingerprint(schema));
  AppendU64(&out, n_rows);
  AppendU64(&out, n_cols);
  for (const auto& [entity, row] : rows) AppendU64(&out, entity);

  const size_t offsets_pos = out.size();
  for (size_t c = 0; c < n_cols; ++c) AppendU64(&out, 0);  // patched below

  std::vector<uint8_t> bitmap((n_rows + 7) / 8);
  for (size_t c = 0; c < n_cols; ++c) {
    const FeatureId id = static_cast<FeatureId>(c);
    const FeatureDef& def = schema.def(id);
    PatchU64(&out, offsets_pos + 8 * c, out.size());
    out.push_back(static_cast<char>(def.type));

    std::fill(bitmap.begin(), bitmap.end(), 0);
    uint64_t n_present = 0;
    for (size_t r = 0; r < n_rows; ++r) {
      const FeatureValue& value = rows[r].second->Get(id);
      if (value.is_missing()) continue;
      if (value.type() != def.type) {
        return Status::InvalidArgument(
            "columnar: value type for '" + def.name +
            "' does not match the schema (entity " +
            std::to_string(rows[r].first) + ")");
      }
      bitmap[r / 8] |= static_cast<uint8_t>(1U << (r % 8));
      ++n_present;
    }
    out.append(reinterpret_cast<const char*>(bitmap.data()), bitmap.size());
    AppendU64(&out, n_present);

    if (def.type == FeatureType::kNumeric) {
      for (size_t r = 0; r < n_rows; ++r) {
        const FeatureValue& value = rows[r].second->Get(id);
        if (!value.is_missing()) AppendF64(&out, value.numeric());
      }
      continue;
    }
    uint64_t total = 0;
    for (size_t r = 0; r < n_rows; ++r) {
      const FeatureValue& value = rows[r].second->Get(id);
      if (value.is_missing()) continue;
      total += def.type == FeatureType::kCategorical
                   ? value.categories().size()
                   : value.embedding().size();
    }
    AppendU64(&out, total);
    for (size_t r = 0; r < n_rows; ++r) {
      const FeatureValue& value = rows[r].second->Get(id);
      if (value.is_missing()) continue;
      AppendU32(&out, static_cast<uint32_t>(
                          def.type == FeatureType::kCategorical
                              ? value.categories().size()
                              : value.embedding().size()));
    }
    for (size_t r = 0; r < n_rows; ++r) {
      const FeatureValue& value = rows[r].second->Get(id);
      if (value.is_missing()) continue;
      if (def.type == FeatureType::kCategorical) {
        for (int32_t cat : value.categories()) {
          AppendU32(&out, static_cast<uint32_t>(cat));
        }
      } else {
        for (float v : value.embedding()) AppendF32(&out, v);
      }
    }
  }

  Fnv1aHasher checksum;
  checksum.AddBytes(out.data(), out.size());
  AppendU64(&out, checksum.digest());
  return WriteFileBytes(path, out);
}

// ---- ColumnarReader --------------------------------------------------------

ColumnarReader::ColumnarReader(ColumnarReader&& other) noexcept
    : schema_(other.schema_),
      data_(other.data_),
      size_(other.size_),
      num_rows_(other.num_rows_),
      num_cols_(other.num_cols_),
      ids_offset_(other.ids_offset_),
      offsets_offset_(other.offsets_offset_),
      generation_(other.generation_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.generation_ = 0;
}

ColumnarReader& ColumnarReader::operator=(ColumnarReader&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<uint8_t*>(data_), size_);
    }
    schema_ = other.schema_;
    data_ = other.data_;
    size_ = other.size_;
    num_rows_ = other.num_rows_;
    num_cols_ = other.num_cols_;
    ids_offset_ = other.ids_offset_;
    offsets_offset_ = other.offsets_offset_;
    generation_ = other.generation_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.generation_ = 0;
  }
  return *this;
}

ColumnarReader::~ColumnarReader() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  generation_ = 0;
}

Result<ColumnarReader> ColumnarReader::Open(const FeatureSchema* schema,
                                            const std::string& path) {
  if (schema == nullptr) return Status::InvalidArgument("schema is null");

  CM_ASSIGN_OR_RETURN(const int fd, OpenFileForReading(path));

  struct stat file_info {};
  if (::fstat(fd, &file_info) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat: " + path);
  }
  const size_t size = static_cast<size_t>(file_info.st_size);
  if (size < kHeaderSize + kFooterSize) {
    ::close(fd);
    return Truncated(path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path);
  }

  // From here the mapping is owned by `reader`, so every error path
  // munmap's via its destructor.
  ColumnarReader reader;
  reader.schema_ = schema;
  reader.data_ = static_cast<const uint8_t*>(map);
  reader.size_ = size;
  // Mark the reader live as soon as it owns the mapping (validation below
  // already reads through entity()); fetch_add returns the prior count, so
  // +1 keeps the first generation nonzero.
  reader.generation_ =
      g_reader_generation.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint8_t* data = reader.data_;

  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a columnar store: " + path);
  }
  const uint32_t version = LoadU32(data + 4);
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported columnar version " +
                                   std::to_string(version) + ": " + path);
  }
  Fnv1aHasher checksum;
  checksum.AddBytes(data, size - kFooterSize);
  if (checksum.digest() != LoadU64(data + size - kFooterSize)) {
    return Status::InvalidArgument("columnar checksum mismatch: " + path);
  }
  if (LoadU64(data + 8) != SchemaFingerprint(*schema)) {
    return Status::InvalidArgument(
        "columnar schema fingerprint mismatch: " + path);
  }

  const uint64_t n_rows = LoadU64(data + 16);
  const uint64_t n_cols = LoadU64(data + 24);
  if (n_cols != schema->size()) {
    return Status::InvalidArgument("columnar column count mismatch: " + path);
  }
  const size_t limit = size - kFooterSize;  // body ends before the footer
  const size_t body = limit - kHeaderSize;
  if (n_rows > body / 8 || n_cols > (body - 8 * n_rows) / 8) {
    return Truncated(path);
  }
  reader.num_rows_ = static_cast<size_t>(n_rows);
  reader.num_cols_ = static_cast<size_t>(n_cols);
  reader.ids_offset_ = kHeaderSize;
  reader.offsets_offset_ = kHeaderSize + 8 * reader.num_rows_;

  for (size_t r = 1; r < reader.num_rows_; ++r) {
    if (reader.entity(r - 1) >= reader.entity(r)) {
      return Status::InvalidArgument(
          "columnar entity ids are not strictly ascending: " + path);
    }
  }
  // Validate every column block now so decode paths can trust the layout.
  for (size_t c = 0; c < reader.num_cols_; ++c) {
    const uint64_t offset = LoadU64(data + reader.offsets_offset_ + 8 * c);
    CM_RETURN_IF_ERROR(
        ParseColumnBlock(data, limit, offset, reader.num_rows_,
                         schema->def(static_cast<FeatureId>(c)))
            .status());
  }
  return reader;
}

EntityId ColumnarReader::entity(size_t row) const {
  CM_DCHECK(generation_ != 0) << "use of moved-from or closed ColumnarReader";
  return LoadU64(data_ + ids_offset_ + 8 * row);
}

Result<FeatureStore> ColumnarReader::Materialize() const {
  CM_DCHECK(generation_ != 0) << "use of moved-from or closed ColumnarReader";
  std::vector<FeatureVector> rows(num_rows_, FeatureVector(num_cols_));
  const size_t limit = size_ - kFooterSize;
  for (size_t c = 0; c < num_cols_; ++c) {
    const uint64_t offset = LoadU64(data_ + offsets_offset_ + 8 * c);
    CM_ASSIGN_OR_RETURN(
        ColumnLayout col,
        ParseColumnBlock(data_, limit, offset, num_rows_,
                         schema_->def(static_cast<FeatureId>(c))));
    uint64_t rank = 0;
    uint64_t elem = 0;
    for (size_t r = 0; r < num_rows_; ++r) {
      if (!BitSet(col.bitmap, r)) continue;
      rows[r].Set(static_cast<FeatureId>(c), DecodeAt(col, rank, elem));
      if (col.lengths != nullptr) elem += LoadU32(col.lengths + 4 * rank);
      ++rank;
    }
  }
  FeatureStore store(schema_);
  for (size_t r = 0; r < num_rows_; ++r) {
    store.Put(entity(r), std::move(rows[r]));
  }
  return store;
}

// ---- Format dispatch -------------------------------------------------------

Status WriteFeatureStore(const FeatureStore& store, const std::string& path,
                         StoreFormat format) {
  if (format == StoreFormat::kColumnar) {
    return WriteFeatureStoreColumnar(store, path);
  }
  return WriteFeatureStoreTsv(store, path);
}

Result<FeatureStore> ReadFeatureStore(const FeatureSchema* schema,
                                      const std::string& path,
                                      StoreFormat format) {
  if (format == StoreFormat::kColumnar) {
    CM_ASSIGN_OR_RETURN(ColumnarReader reader,
                        ColumnarReader::Open(schema, path));
    return reader.Materialize();
  }
  return ReadFeatureStoreTsv(schema, path);
}

Result<StoreFormat> DetectStoreFormat(const std::string& path) {
  CM_ASSIGN_OR_RETURN(const int fd, OpenFileForReading(path));
  char magic[sizeof(kMagic)];
  const ssize_t got = ::read(fd, magic, sizeof(magic));
  ::close(fd);
  if (got < 0) return Status::IOError("read failed: " + path);
  if (static_cast<size_t>(got) == sizeof(kMagic) &&
      std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) {
    return StoreFormat::kColumnar;
  }
  return StoreFormat::kTsv;
}

}  // namespace crossmodal
