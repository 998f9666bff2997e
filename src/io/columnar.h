// Binary columnar feature-store format with mmap-backed reads.
//
// The TSV artifact layer (io/artifacts.h) is human-auditable but is the
// slowest IO path in the repo: every read re-parses and re-escapes every
// value. This file adds the production-shaped alternative the paper's
// deployments lean on (feature infrastructure, not flat text): a binary
// columnar file that round-trips bit-identically with the TSV store and is
// read zero-copy through mmap.
//
// Layout (all integers little-endian; "u32" = 4 bytes, "u64" = 8 bytes):
//
//   header   u32 magic "CMCF" | u32 version (=1) | u64 schema fingerprint
//            u64 n_rows | u64 n_cols
//   ids      u64 entity_id[n_rows]            — strictly ascending
//   offsets  u64 column_offset[n_cols]        — absolute byte offsets
//   columns  n_cols blocks, each:
//              u8  type (FeatureType)
//              u8  bitmap[ceil(n_rows/8)]     — bit r set = row r present
//              u64 n_present
//              payload by type:
//                numeric:     f64 value[n_present]
//                categorical: u64 total | u32 len[n_present] | i32 v[total]
//                embedding:   u64 total | u32 len[n_present] | f32 v[total]
//   footer   u64 FNV-1a checksum over every preceding byte
//
// The schema fingerprint (SchemaFingerprint) hashes every FeatureDef field,
// so a store can never be decoded against the wrong schema. The footer
// checksum makes torn writes and silent byte corruption (io/io_faults.h
// rehearses both) fail typed — InvalidArgument, never a crash or garbage
// rows. Doubles/floats are stored as raw IEEE bits, so the round trip is
// bit-exact by construction (TSV gets the same via %.17g).
//
// ColumnarReader maps the file read-only and validates header, bounds, and
// checksum once at Open; Materialize() then decodes straight out of the
// mapping with no intermediate heap buffer.

#ifndef CROSSMODAL_IO_COLUMNAR_H_
#define CROSSMODAL_IO_COLUMNAR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "features/feature_schema.h"
#include "features/feature_vector.h"
#include "io/store_format.h"
#include "util/result.h"

namespace crossmodal {

/// FNV-1a fingerprint over every field of every FeatureDef, in schema
/// order. Written into the columnar header and checked at Open.
uint64_t SchemaFingerprint(const FeatureSchema& schema);

/// Serializes the store in the columnar layout above (rows sorted by entity
/// id, like the TSV writer) and writes it through the fault-aware byte IO.
[[nodiscard]] Status WriteFeatureStoreColumnar(const FeatureStore& store,
                                               const std::string& path);

/// mmap-backed reader over one columnar file. Move-only; the mapping lives
/// until destruction, and all decoding reads directly from it.
class ColumnarReader {
 public:
  /// Maps and validates `path` against `schema` (must outlive the reader).
  /// Open attempts route through the active IO fault injector. Structural
  /// problems (bad magic, wrong version, foreign schema fingerprint,
  /// truncation, checksum mismatch) fail InvalidArgument; OS-level failures
  /// fail IOError.
  [[nodiscard]] static Result<ColumnarReader> Open(const FeatureSchema* schema,
                                                   const std::string& path);

  ColumnarReader(ColumnarReader&& other) noexcept;
  ColumnarReader& operator=(ColumnarReader&& other) noexcept;
  ColumnarReader(const ColumnarReader&) = delete;
  ColumnarReader& operator=(const ColumnarReader&) = delete;
  ~ColumnarReader();

  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return num_cols_; }

  /// Entity id of row `row` (row < num_rows()).
  EntityId entity(size_t row) const;

  /// Decodes the whole file into an in-memory store (one sequential pass
  /// per column).
  [[nodiscard]] Result<FeatureStore> Materialize() const;

 private:
  ColumnarReader() = default;

  const FeatureSchema* schema_ = nullptr;
  const uint8_t* data_ = nullptr;  // mmap'ed region (munmap'ed on destroy)
  size_t size_ = 0;
  size_t num_rows_ = 0;
  size_t num_cols_ = 0;
  size_t ids_offset_ = 0;      // byte offset of the entity-id array
  size_t offsets_offset_ = 0;  // byte offset of the column directory
  // Debug-build lifetime guard: nonzero once Open() validated the mapping,
  // zeroed when the reader is moved from or destroyed. Accessors CM_DCHECK
  // it so a use of a moved-from/closed reader trips in sanitizer and debug
  // builds instead of dereferencing a null mapping.
  uint64_t generation_ = 0;
};

/// Writes `store` to `path` in the chosen format.
[[nodiscard]] Status WriteFeatureStore(const FeatureStore& store,
                                       const std::string& path,
                                       StoreFormat format);

/// Reads a store in the chosen format into memory (columnar reads map,
/// validate, and materialize).
[[nodiscard]] Result<FeatureStore> ReadFeatureStore(const FeatureSchema* schema,
                                                    const std::string& path,
                                                    StoreFormat format);

/// Sniffs the on-disk format from the file's magic bytes: "CMCF" means
/// columnar, anything else TSV.
[[nodiscard]] Result<StoreFormat> DetectStoreFormat(const std::string& path);

}  // namespace crossmodal

#endif  // CROSSMODAL_IO_COLUMNAR_H_
