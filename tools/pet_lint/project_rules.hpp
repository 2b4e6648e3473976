#pragma once
// Pass-2 cross-TU rules over the project model built in pass 1.
//
// Rule IDs (stable; same suppression syntax as the per-file rules):
//   layer-order         the include graph must respect the layer map in
//                       tools/pet_lint/layers.txt: an edge may point
//                       sideways or down the declared order, never up, and
//                       include cycles are always findings; src/ dirs
//                       absent from the map are findings too
//   orphan-header       a src/ header that no scanned file includes is
//                       dead or unwired
//   lock-discipline     fields annotated PET_GUARDED_BY(mu) may only be
//                       touched while a lock_guard/scoped_lock/unique_lock
//                       on `mu` is in scope (PET_REQUIRES(mu) vouches for a
//                       whole function); in thread-spawning TUs, mutable
//                       unannotated fields of classes that own sync
//                       primitives are flagged
//
// The whole pass is opt-in per scanned root: it runs only when
// tools/pet_lint/layers.txt exists there (ProjectModel.layers.loaded()).

#include <map>
#include <string>
#include <vector>

#include "graph.hpp"
#include "index.hpp"
#include "rules.hpp"

namespace pet::lint {

struct ProjectFile {
  std::string path;  // repo-relative
  std::vector<Token> toks;
  FileDecls decls;
  Policy policy;
};

/// Everything pass 1 learned about the scanned tree.
struct ProjectModel {
  LayerMap layers;
  IncludeGraph graph;
  std::map<std::string, ProjectFile> files;

  [[nodiscard]] bool active() const { return layers.loaded(); }
};

struct ProjectReport {
  std::vector<Finding> findings;
  std::size_t suppressed = 0;
};

/// Run all cross-TU rules. Suppressions are honoured per file with the
/// same `pet-lint: allow(...)` syntax as the per-file rules.
[[nodiscard]] ProjectReport run_project_rules(const ProjectModel& model);

}  // namespace pet::lint
