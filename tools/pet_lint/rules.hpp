#pragma once
// Rule engine for pet_lint: the repo's determinism and audit invariants as
// machine-checked source rules.
//
// Rule IDs (stable; used in suppressions):
//   banned-api        nondeterministic / unaudited-I/O standard APIs, and
//                     non-atomic file writes (ofstream / fopen-for-write)
//                     that can leave torn artifacts — route through
//                     sim::atomic_write_file
//   nondet-iteration  iteration over unordered containers in deterministic
//                     subsystems (severity raised when the TU also feeds
//                     artifacts, digests, or trace export)
//   unaudited-ecn     RED/ECN config writes outside the audited
//                     install_ecn() chain
//   nodiscard-chain   bool-returning load/set_weights/install_*, checkpoint
//                     (save_state/load_state/save_checkpoint/
//                     load_checkpoint), and inference-snapshot
//                     (quantize/install/refresh) APIs must be [[nodiscard]]
//                     and every call site must consume the result
//   header-hygiene    #pragma once first in headers; a TU's own header
//                     must be its first include
//
// Suppressions: `// pet-lint: allow(<id>[, <id>...]): <justification>` on
// the offending line or the line directly above it, or
// `// pet-lint: allow-file(<id>): <justification>` anywhere for the whole
// file. Justifications are mandatory by convention (reviewed, not parsed).
// A suppression naming an id that is not a rule is itself an
// `unknown-rule` finding, which no suppression silences.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lexer.hpp"

namespace pet::lint {

/// Parsed `pet-lint: allow(...)` / `allow-file(...)` annotations for one
/// file. Public so the cross-TU pass (project_rules) can honour the same
/// suppression syntax as the per-file rules.
struct Suppressions {
  std::set<std::string> file_allow;
  std::map<std::int32_t, std::set<std::string>> line_allow;
  /// Named ids that are not rules, with the line of their annotation.
  std::vector<std::pair<std::string, std::int32_t>> unknown;

  [[nodiscard]] bool allows(const std::string& rule, std::int32_t line) const {
    if (file_allow.count(rule) != 0) return true;
    const auto it = line_allow.find(line);
    return it != line_allow.end() && it->second.count(rule) != 0;
  }
};

/// Collect suppression annotations from a token stream. An `allow()` covers
/// the comment's whole span, continued comment-only lines, and the first
/// code line after the run (annotation-above style).
[[nodiscard]] Suppressions collect_suppressions(const std::vector<Token>& toks);

/// Per-directory rule activation. The deterministic subsystems under
/// `src/` are strict; tests keep the determinism rules but may print and
/// read the environment; tools/bench/examples are relaxed to hygiene and
/// result-consumption rules.
struct Policy {
  bool banned_det = false;     // rand/clocks/time — determinism
  bool banned_io = false;      // printf/puts/std::cout — stdout hygiene
  bool banned_getenv = false;  // getenv — hidden config channels
  bool nondet_iteration = false;
  bool unaudited_ecn = false;
  bool nodiscard_chain = false;
  bool header_hygiene = false;
  // Cross-TU rules (pass 2; see project_rules.hpp). The bits mark which
  // files participate; the pass as a whole only runs when the scanned root
  // declares an architecture in tools/pet_lint/layers.txt.
  bool layer_order = false;
  bool orphan_header = false;
  bool lock_discipline = false;
};

/// Policy for a repo-relative path (forward slashes). Mirrors the table in
/// DESIGN.md §Static Analysis.
[[nodiscard]] Policy policy_for(std::string_view relpath);

struct Finding {
  std::string rule;
  std::string path;  // repo-relative, forward slashes
  std::int32_t line = 0;
  std::int32_t col = 0;
  std::string message;
  std::string line_text;  // trimmed source line, echoed under the finding
};

struct FileReport {
  std::vector<Finding> findings;
  std::size_t suppressed = 0;  // findings silenced by allow() annotations
};

/// Analyze one file's contents. `has_sibling_header` tells the
/// header-hygiene rule whether `<stem>.hpp` exists next to a `.cpp` TU;
/// `sibling_header_content` (the header's source, empty if none) lets the
/// nondet-iteration rule see unordered members a TU inherits from its own
/// class declaration.
[[nodiscard]] FileReport analyze_source(const std::string& relpath,
                                        std::string_view content,
                                        const Policy& policy,
                                        bool has_sibling_header,
                                        std::string_view sibling_header_content = {});

/// All rule IDs, for --list-rules and suppression validation.
[[nodiscard]] const std::vector<std::string>& all_rule_ids();

}  // namespace pet::lint
