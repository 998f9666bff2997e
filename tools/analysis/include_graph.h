// Whole-repo #include graph for the cmcheck deps family's layering rules.
//
// Every quoted `#include "..."` in the scanned tree becomes a file-level
// edge; edges whose target resolves to a library module under src/ are
// additionally projected onto a module-level graph (module = first path
// component under src/, e.g. src/graph/knn_graph.h -> "graph"). The
// layering checker consumes the module graph and reports the file-level
// edge behind every violation so the offending include chain is printable.

#ifndef CROSSMODAL_TOOLS_ANALYSIS_INCLUDE_GRAPH_H_
#define CROSSMODAL_TOOLS_ANALYSIS_INCLUDE_GRAPH_H_

#include <map>
#include <string>
#include <vector>

#include "analysis/source.h"

namespace analysis {

/// One `#include "..."` directive.
struct IncludeEdge {
  std::string from_file;   ///< Root-relative path of the including file.
  std::string to_include;  ///< The quoted include text, e.g. "util/status.h".
  int line = 0;            ///< 1-based line of the directive.
  std::string from_module;  ///< "" when the includer is not under src/.
  std::string to_module;    ///< "" when the target is not a src/ module.
};

/// The parsed graph: every quoted include, plus the src/-module projection.
struct IncludeGraph {
  std::vector<IncludeEdge> edges;  ///< All quoted includes, in file order.
  /// Module-level adjacency: from-module -> to-module -> every file edge
  /// crossing that module pair (self-edges excluded). Only src/ modules.
  std::map<std::string, std::map<std::string, std::vector<IncludeEdge>>>
      module_edges;
};

/// Module of a root-relative path: "util" for src/util/mutex.h, "" for
/// anything not of the form src/<module>/<...>.
std::string ModuleOfPath(const std::string& rel);

/// Parses the quoted includes of every file into a graph. Include targets
/// are mapped to modules by their leading path component (the repo compiles
/// with -I src/, so "util/status.h" is module "util").
IncludeGraph BuildIncludeGraph(const std::vector<SourceFile>& files);

}  // namespace analysis

#endif  // CROSSMODAL_TOOLS_ANALYSIS_INCLUDE_GRAPH_H_
