// Whole-file byte IO routed through the IO fault injector.
//
// Every artifact reader/writer in io/ (TSV lines, the binary columnar
// store) funnels through these helpers, so installing a
// ScopedIoFaultInjection (io/io_faults.h) reaches every artifact path at
// once. When an injector is active, transient verdicts (injected open
// failures, torn writes) are retried with the injector's deterministic
// backoff budget; without one, operations run plainly with no retries.

#ifndef CROSSMODAL_IO_FILE_IO_H_
#define CROSSMODAL_IO_FILE_IO_H_

#include <string>

#include "util/result.h"

namespace crossmodal {

/// Reads the whole file into a byte string.
[[nodiscard]] Result<std::string> ReadFileBytes(const std::string& path);

/// Opens `path` read-only and returns its file descriptor, which the caller
/// must close. Under an active injector each open attempt first takes the
/// same read verdict ReadFileBytes would, with the same retries.
[[nodiscard]] Result<int> OpenFileForReading(const std::string& path);

/// Writes `bytes` to `path`, replacing any existing file. Under an active
/// injector a torn attempt leaves a partial file on disk and is retried
/// (each attempt truncates), and a surviving write may silently flip one
/// byte — the rehearsal a downstream checksum must catch.
[[nodiscard]] Status WriteFileBytes(const std::string& path,
                                    const std::string& bytes);

}  // namespace crossmodal

#endif  // CROSSMODAL_IO_FILE_IO_H_
