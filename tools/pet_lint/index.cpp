#include "index.hpp"

#include <set>
#include <string_view>
#include <utility>

namespace pet::lint {

namespace {

const std::set<std::string_view>& builtin_type_names() {
  static const std::set<std::string_view> kNames = {
      "void", "bool",  "char",   "int",      "short", "long", "float",
      "double", "auto", "signed", "unsigned", "wchar_t"};
  return kNames;
}

/// Types that synchronize themselves (or are synchronization primitives):
/// fields of these types are exempt from the "unannotated mutable field"
/// completeness check.
[[nodiscard]] bool is_sync_type_name(std::string_view name) {
  static const std::set<std::string_view> kNames = {
      "atomic",        "atomic_flag",        "mutex",
      "shared_mutex",  "recursive_mutex",    "timed_mutex",
      "recursive_timed_mutex",               "condition_variable",
      "condition_variable_any",              "once_flag",
      "stop_source",   "stop_token",         "counting_semaphore",
      "binary_semaphore",                    "barrier",
      "latch",         "thread_local"};
  return kNames.count(name) != 0;
}

[[nodiscard]] SyncNote note_for_macro(std::string_view name) {
  if (name == "PET_GUARDED_BY") return SyncNote::kGuardedBy;
  if (name == "PET_THREAD_CONFINED") return SyncNote::kThreadConfined;
  if (name == "PET_READ_SHARED") return SyncNote::kReadShared;
  return SyncNote::kNone;
}

class Scanner {
 public:
  Scanner(const std::string& path, const std::vector<Token>& toks)
      : path_(path) {
    for (const Token& t : toks) {
      if (t.kind != TokKind::kComment) t_.push_back(&t);
    }
  }

  FileDecls run() {
    detect_thread_spawn();
    parse_items(/*in_class=*/false);
    return std::move(out_);
  }

 private:
  // --- cursor helpers -------------------------------------------------------
  [[nodiscard]] bool done() const { return i_ >= t_.size(); }
  [[nodiscard]] bool is_id(std::size_t i, std::string_view s) const {
    return i < t_.size() && t_[i]->kind == TokKind::kIdent && t_[i]->text == s;
  }
  [[nodiscard]] bool is_p(std::size_t i, std::string_view s) const {
    return i < t_.size() && t_[i]->kind == TokKind::kPunct && t_[i]->text == s;
  }
  [[nodiscard]] bool is_ident(std::size_t i) const {
    return i < t_.size() && t_[i]->kind == TokKind::kIdent;
  }

  /// With i_ at an opener token, advance past its matching closer.
  void skip_balanced(std::string_view open, std::string_view close) {
    int depth = 0;
    while (!done()) {
      if (is_p(i_, open)) ++depth;
      if (is_p(i_, close) && --depth == 0) {
        ++i_;
        return;
      }
      ++i_;
    }
  }

  /// With i_ at '<' after `template`, skip the parameter list. Bails at
  /// `;`/`{`/`}` so a stray less-than cannot eat the file.
  void skip_template_params() {
    int depth = 0;
    while (!done()) {
      if (is_p(i_, "<")) ++depth;
      if (is_p(i_, ">") && --depth == 0) {
        ++i_;
        return;
      }
      if (is_p(i_, ";") || is_p(i_, "{") || is_p(i_, "}")) return;
      ++i_;
    }
  }

  void skip_to_semicolon() {
    while (!done()) {
      if (is_p(i_, ";")) {
        ++i_;
        return;
      }
      if (is_p(i_, "}")) return;  // scope end wins
      if (is_p(i_, "{")) {
        skip_balanced("{", "}");
        continue;
      }
      ++i_;
    }
  }

  void record(std::string name, DeclKind kind, std::int32_t line, Decl extra) {
    if (name.empty() || builtin_type_names().count(name) != 0) return;
    extra.name = std::move(name);
    extra.kind = kind;
    extra.path = path_;
    extra.line = line;
    extra.owner = owner_chain();
    out_.decls.push_back(std::move(extra));
  }

  [[nodiscard]] std::string owner_chain() const {
    std::string chain;
    for (const std::string& c : owners_) {
      if (!chain.empty()) chain += "::";
      chain += c;
    }
    return chain;
  }

  void detect_thread_spawn() {
    for (std::size_t i = 0; i + 2 < t_.size(); ++i) {
      if (is_id(i, "std") && is_p(i + 1, "::") &&
          (is_id(i + 2, "thread") || is_id(i + 2, "jthread") ||
           is_id(i + 2, "async"))) {
        // hardware_concurrency / this_thread queries don't spawn.
        if (is_p(i + 3, "::")) continue;
        out_.spawns_threads = true;
        return;
      }
    }
  }

  // --- item parsing ---------------------------------------------------------

  /// Parse declarations until a closing '}' (left unconsumed) or EOF.
  void parse_items(bool in_class) {
    while (!done()) {
      const Token& t = *t_[i_];
      if (t.kind == TokKind::kDirective) {
        ++i_;
        continue;
      }
      if (is_p(i_, "}")) return;
      if (is_p(i_, ";")) {
        ++i_;
        continue;
      }
      if (is_id(i_, "namespace")) {
        parse_namespace();
        continue;
      }
      if (is_id(i_, "template")) {
        ++i_;
        if (is_p(i_, "<")) skip_template_params();
        continue;  // the templated declaration parses as the next item
      }
      if (is_id(i_, "using") || is_id(i_, "typedef") || is_id(i_, "friend") ||
          is_id(i_, "static_assert")) {
        skip_to_semicolon();
        continue;
      }
      if (is_id(i_, "extern")) {
        // `extern "C" { ... }` re-opens the enclosing scope.
        if (i_ + 2 < t_.size() && t_[i_ + 1]->kind == TokKind::kString &&
            is_p(i_ + 2, "{")) {
          i_ += 3;
          parse_items(in_class);
          if (is_p(i_, "}")) ++i_;
        } else {
          skip_to_semicolon();
        }
        continue;
      }
      if (in_class && (is_id(i_, "public") || is_id(i_, "private") ||
                       is_id(i_, "protected")) &&
          is_p(i_ + 1, ":")) {
        i_ += 2;
        continue;
      }
      if (is_id(i_, "class") || is_id(i_, "struct") || is_id(i_, "enum") ||
          is_id(i_, "union")) {
        parse_class_like(in_class);
        continue;
      }
      parse_statement();
    }
  }

  void parse_namespace() {
    ++i_;  // 'namespace'
    while (is_ident(i_) || is_p(i_, "::")) ++i_;  // name (possibly nested)
    if (is_p(i_, "=")) {  // namespace alias
      skip_to_semicolon();
      return;
    }
    if (is_p(i_, "{")) {
      ++i_;
      parse_items(/*in_class=*/false);
      if (is_p(i_, "}")) ++i_;
    }
  }

  void parse_class_like(bool in_class) {
    const std::string keyword = t_[i_]->text;
    const std::int32_t kw_line = t_[i_]->line;
    ++i_;
    if (keyword == "enum" && (is_id(i_, "class") || is_id(i_, "struct"))) ++i_;
    while (is_p(i_, "[")) skip_balanced("[", "]");  // attributes
    std::string name;
    std::int32_t name_line = kw_line;
    if (is_ident(i_) && !is_id(i_, "final")) {
      name = t_[i_]->text;
      name_line = t_[i_]->line;
      ++i_;
    }
    // Scan to the body/terminator. An identifier (other than `final`)
    // before any ':' means this was an elaborated-type-specifier in an
    // ordinary declaration (`struct tm t;`) — hand over to the statement
    // parser.
    int angle = 0;
    bool seen_colon = false;
    while (!done()) {
      if (is_p(i_, "<")) ++angle;
      if (is_p(i_, ">") && angle > 0) --angle;
      if (angle == 0) {
        if (is_p(i_, "{")) {
          Decl d;
          if (keyword == "enum") {
            record(name, DeclKind::kClass, name_line, d);
            skip_balanced("{", "}");
            skip_to_semicolon();
            return;
          }
          record(name, DeclKind::kClass, name_line, d);
          owners_.push_back(name.empty() ? std::string("<anon>") : name);
          ++i_;
          parse_items(/*in_class=*/true);
          if (is_p(i_, "}")) ++i_;
          owners_.pop_back();
          // `} trailing_name_;` declares a member of the *enclosing* class.
          if (in_class && is_ident(i_)) {
            Decl field;
            record(t_[i_]->text, DeclKind::kField, t_[i_]->line, field);
          }
          skip_to_semicolon();
          return;
        }
        if (is_p(i_, ";")) {  // forward declaration
          ++i_;
          return;
        }
        if (is_p(i_, ":")) seen_colon = true;
        if (!seen_colon && is_ident(i_) && !is_id(i_, "final")) {
          parse_statement();
          return;
        }
        if (is_p(i_, "}")) return;  // malformed; let caller close the scope
      }
      ++i_;
    }
  }

  /// Generic declaration statement at namespace or class scope: a field /
  /// variable, a function declaration, or a function definition (body
  /// skipped). Extracts the declared name and any PET_* annotation.
  void parse_statement() {
    const std::int32_t first_line = done() ? 0 : t_[i_]->line;
    int depth = 0;  // () and []
    int angle = 0;
    bool seen_eq = false;
    bool is_func = false;
    std::string name;  // last top-level identifier (declarator candidate)
    std::int32_t name_line = first_line;
    Decl extra;
    std::size_t prev_ident = t_.size();  // index of last seen ident token

    while (!done()) {
      const Token& t = *t_[i_];
      if (t.kind == TokKind::kDirective) {
        ++i_;
        continue;
      }
      if (t.kind == TokKind::kIdent) {
        const SyncNote note = note_for_macro(t.text);
        if (note != SyncNote::kNone) {
          extra.note = note;
          ++i_;
          if (is_p(i_, "(")) {
            const std::size_t open = i_;
            skip_balanced("(", ")");
            for (std::size_t j = open + 1; j + 1 < i_; ++j) {
              if (is_ident(j)) extra.note_arg = t_[j]->text;
            }
          }
          continue;
        }
        if (t.text == "PET_REQUIRES") {  // function annotation, no parens yet
          ++i_;
          if (is_p(i_, "(")) skip_balanced("(", ")");
          continue;
        }
        if (t.text == "operator") is_func = true;
        if (depth == 0 && (t.text == "const" || t.text == "constexpr")) {
          extra.immutable = true;
        }
        if (depth == 0 && is_sync_type_name(t.text)) extra.sync_type = true;
        if (depth == 0 && angle == 0 && !seen_eq) {
          name = t.text;
          name_line = t.line;
        }
        prev_ident = i_;
        ++i_;
        continue;
      }
      if (t.kind == TokKind::kPunct) {
        const std::string& p = t.text;
        if (p == "(") {
          if (depth == 0 && angle == 0 && !seen_eq && prev_ident + 1 == i_) {
            is_func = true;
          }
          ++depth;
        } else if (p == "[") {
          ++depth;
        } else if (p == ")" || p == "]") {
          if (depth > 0) --depth;
        } else if (p == "<") {
          // After `=` a '<' is comparison, not a template bracket.
          if (depth == 0 && !seen_eq) ++angle;
        } else if (p == ">") {
          if (depth == 0 && !seen_eq && angle > 0) --angle;
        } else if (p == "=" && depth == 0 && angle == 0) {
          seen_eq = true;
        } else if (p == ";" && depth == 0 && angle == 0) {
          ++i_;
          if (!is_func) record(name, DeclKind::kField, name_line, extra);
          return;
        } else if (p == "{" && depth == 0 && angle == 0) {
          if (seen_eq) {
            skip_balanced("{", "}");  // braced initializer value
            continue;
          }
          if (is_func) {
            skip_balanced("{", "}");  // function body
            return;
          }
          // Brace-init member: `std::atomic<bool> stop_{false};`
          if (prev_ident + 1 == i_) {
            skip_balanced("{", "}");
            continue;  // the trailing ';' terminates normally
          }
          skip_balanced("{", "}");  // unknown block — skip defensively
          continue;
        } else if (p == "}" && depth == 0 && angle == 0) {
          return;  // scope end; caller consumes
        }
        ++i_;
        continue;
      }
      ++i_;  // literals etc.
    }
    if (!is_func) record(name, DeclKind::kField, name_line, extra);
  }

  const std::string& path_;
  std::vector<const Token*> t_;
  std::size_t i_ = 0;
  FileDecls out_;
  std::vector<std::string> owners_;
};

}  // namespace

FileDecls scan_decls(const std::string& relpath,
                     const std::vector<Token>& toks) {
  return Scanner(relpath, toks).run();
}

}  // namespace pet::lint
