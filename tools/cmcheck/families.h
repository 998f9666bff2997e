// Rule families run by the cmcheck driver (tools/cmcheck/cmcheck.cc).
//
// The driver loads the tree once; every family sees the same files and
// applies its own path scope. A family only appends findings: allowlisting,
// sorting and printing happen once, in the driver.
//
//   lint  per-file conventions of library code (src/ only)   lint.cc
//   deps  LAYERS layering, unchecked Status, blocking under a lock
//                                                            deps.cc
//   race  shared captures, CM_GUARDED_BY coverage, atomic orderings,
//         allocation in slice loops                          race.cc
//   life  view escapes, deferred captures, invalidated references,
//         use after move                                     life.cc

#ifndef CROSSMODAL_TOOLS_CMCHECK_FAMILIES_H_
#define CROSSMODAL_TOOLS_CMCHECK_FAMILIES_H_

#include <vector>

#include "analysis/findings.h"
#include "analysis/layers.h"
#include "analysis/source.h"

namespace cmcheck {

/// The loaded tree: every .h/.cc/.cpp under src/, tools/, tests/, bench/
/// and examples/ (sorted by relative path), plus the parsed <root>/LAYERS.
struct Tree {
  std::vector<analysis::SourceFile> files;
  analysis::LayerSpec layers;
};

void CheckLint(const Tree& tree, std::vector<analysis::Finding>* findings);
void CheckDeps(const Tree& tree, std::vector<analysis::Finding>* findings);
void CheckRace(const Tree& tree, std::vector<analysis::Finding>* findings);
void CheckLife(const Tree& tree, std::vector<analysis::Finding>* findings);

}  // namespace cmcheck

#endif  // CROSSMODAL_TOOLS_CMCHECK_FAMILIES_H_
