#pragma once
// Pass-1 project model, part 1: the include graph.
//
// Built once per run from every lintable file's token stream (quote-form
// #include directives only; system includes are outside the project model).
// Include targets are resolved lexically against the scanned file set —
// no filesystem probing, so the graph is a pure function of file contents
// and the scanned path list.
//
// The layer map (tools/pet_lint/layers.txt) assigns each src/<dir>/ a rank,
// bottom layer first; names on the same line share a rank. An include edge
// may point sideways or down (rank(target) <= rank(source)); an edge that
// climbs ranks, or any include cycle, is a layer-order finding. Presence of
// layers.txt in the scanned root is also the opt-in switch for the whole
// cross-TU pass (rules run only where an architecture is declared).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"

namespace pet::lint {

/// One `#include "..."` edge, before and after resolution.
struct IncludeEdge {
  std::string target;   // resolved repo-relative path; empty if unresolved
  std::string spelled;  // the literal include string as written
  std::int32_t line = 0;
};

struct GraphNode {
  std::string path;  // repo-relative, forward slashes
  std::string layer;  // from the layer map; empty when unlayered
  std::vector<IncludeEdge> includes;
  std::vector<std::string> included_by;  // sorted, deduped after finalize()
};

/// Parsed tools/pet_lint/layers.txt: one rank per line, bottom first;
/// whitespace-separated names on a line share a rank; `#` starts a comment.
class LayerMap {
 public:
  /// Parse the file content. Returns false (and sets error) on an empty map
  /// or a name declared twice.
  [[nodiscard]] bool parse(std::string_view content);

  [[nodiscard]] bool loaded() const { return !ranks_.empty(); }
  /// Rank of a layer name, or -1 when unknown.
  [[nodiscard]] std::int32_t rank(std::string_view layer) const;
  /// Layer name for a repo-relative path (`src/<layer>/...`), or "" when
  /// the path is outside src/ or its directory is not in the map.
  [[nodiscard]] std::string layer_of(std::string_view relpath) const;
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::map<std::string, std::int32_t, std::less<>> ranks_;
  std::string error_;
};

class IncludeGraph {
 public:
  /// Register a file and the quote-form includes pulled from its tokens.
  void add_file(const std::string& relpath, const std::vector<Token>& toks);

  /// Resolve include spellings against the registered file set, fill
  /// included_by lists, and assign layers. Call once after all add_file().
  void finalize(const LayerMap& layers);

  [[nodiscard]] const GraphNode* node(std::string_view relpath) const;

  /// Include cycles, deterministically ordered. Each cycle is reported once,
  /// rotated so its lexicographically smallest path comes first, as the
  /// path sequence [a, b, ..., a].
  [[nodiscard]] std::vector<std::vector<std::string>> cycles() const;

 private:
  std::map<std::string, GraphNode> nodes_;
};

}  // namespace pet::lint
