// Finding, allowlist, and report plumbing for the cmcheck driver. A Finding
// is one rule violation at one source location; the reporting layer handles
// per-file allowlisting (rule:path keys), stale allowlist-entry notes, and
// both human-readable and machine-readable (JSON) output.

#ifndef CROSSMODAL_TOOLS_ANALYSIS_FINDINGS_H_
#define CROSSMODAL_TOOLS_ANALYSIS_FINDINGS_H_

#include <filesystem>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace analysis {

/// One rule violation at one source location.
struct Finding {
  std::string rule;
  std::string file;  ///< Path relative to the analysis root.
  int line = 0;
  std::string message;
  /// Suggested fix (often the exact suppression line to add), printed as a
  /// `fix:` line; empty when the rule has none.
  std::string fix_hint;
};

/// Loads `rule:path` allowlist entries ('#' starts a comment; blank lines
/// ignored). Sets *ok=false on IO error; an empty path yields an empty
/// allowlist with *ok=true.
std::set<std::string> LoadAllowlist(const std::filesystem::path& path,
                                    bool* ok);

/// Result of filtering findings through an allowlist.
struct FilteredFindings {
  std::vector<Finding> reported;   ///< Not allowlisted.
  size_t suppressed = 0;           ///< Allowlisted count.
  std::vector<std::string> stale;  ///< Allowlist entries that matched nothing.
};

/// Partitions `findings` on the `rule:file` allowlist keys.
FilteredFindings ApplyAllowlist(const std::vector<Finding>& findings,
                                const std::set<std::string>& allow);

/// `file:line: [rule] message` per finding, followed by a `fix:` line when
/// the finding carries a fix hint.
void PrintFindings(const std::vector<Finding>& findings, std::ostream& out);

/// Machine-readable report: a JSON object with `tool`, `findings` (array of
/// {rule, file, line, message, fix_hint}), and `count`.
void PrintFindingsJson(const std::string& tool,
                       const std::vector<Finding>& findings,
                       std::ostream& out);

}  // namespace analysis

#endif  // CROSSMODAL_TOOLS_ANALYSIS_FINDINGS_H_
