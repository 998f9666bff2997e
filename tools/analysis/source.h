// Source-tree loading for the static-analysis tools: file IO, directory
// walking, the per-file text bundle every rule inspects, and the in-source
// suppression-comment convention.

#ifndef CROSSMODAL_TOOLS_ANALYSIS_SOURCE_H_
#define CROSSMODAL_TOOLS_ANALYSIS_SOURCE_H_

#include <filesystem>
#include <string>
#include <vector>

namespace analysis {

/// One loaded source file plus the derived views the token rules consume.
struct SourceFile {
  std::filesystem::path path;  ///< Absolute (or as-given) filesystem path.
  std::string rel;             ///< Root-relative path, '/'-separated.
  bool is_header = false;
  std::vector<std::string> raw_lines;       ///< Original text (suppressions).
  std::string stripped_text;                ///< Comments/strings blanked.
  std::vector<std::string> stripped_lines;  ///< stripped_text split on '\n'.
};

/// Reads `path` into `*out`; false on IO error.
bool ReadFileToString(const std::filesystem::path& path, std::string* out);

/// Loads one file and builds the stripped views. `rel` is the path used in
/// findings. False on IO error.
bool LoadSourceFile(const std::filesystem::path& path, const std::string& rel,
                    SourceFile* out);

/// Collects every .h/.cc/.cpp under `root/<subdir>` for each subdir (missing
/// subdirs are skipped), sorted by relative path so output is deterministic.
/// Returned rel paths are root-relative.
std::vector<std::filesystem::path> ListSourceFiles(
    const std::filesystem::path& root,
    const std::vector<std::string>& subdirs);

/// True when `marker` appears in the raw source on `line` (1-based) or the
/// line above it — the suppression-comment convention shared by every
/// cmcheck rule family.
bool HasSuppressionNear(const std::vector<std::string>& raw_lines, int line,
                        const char* marker);

}  // namespace analysis

#endif  // CROSSMODAL_TOOLS_ANALYSIS_SOURCE_H_
