#pragma once
// Tree walker + reporting for pet_lint. Two passes:
//   pass 1 reads and tokenizes every lintable file and builds the project
//          model (include graph + declarations + layer map);
//   pass 2 runs the per-file rules on each file and the cross-TU rules
//          (layer-order, orphan-header, lock-discipline) over the model,
//          filters through suppressions, and renders findings.

#include <string>
#include <string_view>
#include <vector>

#include "rules.hpp"

namespace pet::lint {

struct RunOptions {
  std::string root;  // repo root (absolute or relative)
  /// Explicit repo-relative files to lint instead of the default walk.
  /// (The project model is still built from the full walk so cross-TU
  /// rules see the whole tree.)
  std::vector<std::string> files;
};

struct RunResult {
  std::vector<Finding> findings;
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;
  bool io_error = false;
  std::string error;
};

/// Default lint roots relative to the repo root, in walk order.
[[nodiscard]] const std::vector<std::string>& lint_roots();

/// Should `relpath` (forward slashes) be scanned at all? Fixture trees and
/// generated/vendored paths are excluded here.
[[nodiscard]] bool is_lintable(const std::string& relpath);

/// Byte-wise path ordering (unsigned char), so finding order is identical
/// across filesystems and locales — directory iteration order and
/// std::filesystem::path collation are not.
[[nodiscard]] bool byte_less(std::string_view a, std::string_view b);

/// Walk + analyze. Deterministic: files are visited in byte_less path
/// order regardless of directory enumeration order.
[[nodiscard]] RunResult run(const RunOptions& opts);

/// Render findings in file:line:col: [rule] message form.
[[nodiscard]] std::string render(const RunResult& result);

}  // namespace pet::lint
