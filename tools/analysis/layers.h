// Declarative layering spec (the repo-root LAYERS file) and the checks
// the cmcheck deps family runs against the module include graph.
//
// Spec grammar (plain text, '#' comments):
//
//   [layers]
//   0: util
//   1: features
//   2: synth io graph labeling mining ml
//   ...
//
//   [allow]
//   core -> serving   # justified exception, reason required in a comment
//
// A module may include modules at a strictly lower layer, or modules in its
// own layer provided the same-layer edges stay acyclic. Anything else —
// an upward edge, a same-layer include cycle, or an edge touching a module
// the spec does not declare — is a violation unless listed under [allow].

#ifndef CROSSMODAL_TOOLS_ANALYSIS_LAYERS_H_
#define CROSSMODAL_TOOLS_ANALYSIS_LAYERS_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/findings.h"
#include "analysis/include_graph.h"

namespace analysis {

/// Parsed LAYERS spec.
struct LayerSpec {
  std::map<std::string, int> level;  ///< module -> layer number.
  std::set<std::pair<std::string, std::string>> allowed;  ///< [allow] edges.
};

/// Parses spec text. On failure returns false and sets *error to a
/// line-numbered message.
bool ParseLayerSpec(const std::string& text, LayerSpec* spec,
                    std::string* error);

/// Reads and parses the spec file; false with *error on IO/parse failure.
bool LoadLayerSpec(const std::string& path, LayerSpec* spec,
                   std::string* error);

/// Checks the module graph against the spec. Emits one `layering` finding
/// per upward module edge (reported at the first offending #include, with
/// the module chain in the message), one per same-layer include cycle, and
/// one `layering` finding for any src/ module missing from the spec.
std::vector<Finding> CheckLayering(const IncludeGraph& graph,
                                   const LayerSpec& spec);

}  // namespace analysis

#endif  // CROSSMODAL_TOOLS_ANALYSIS_LAYERS_H_
