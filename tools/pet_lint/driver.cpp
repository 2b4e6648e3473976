#include "driver.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "project_rules.hpp"

namespace fs = std::filesystem;

namespace pet::lint {

namespace {

[[nodiscard]] bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

[[nodiscard]] std::string read_file(const fs::path& p, bool* ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    *ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *ok = true;
  return buf.str();
}

[[nodiscard]] std::string to_rel(const fs::path& p, const fs::path& root) {
  return fs::relative(p, root).generic_string();
}

}  // namespace

const std::vector<std::string>& lint_roots() {
  static const std::vector<std::string> kRoots = {"src", "tests", "bench",
                                                  "examples", "tools"};
  return kRoots;
}

bool is_lintable(const std::string& relpath) {
  if (!ends_with(relpath, ".cpp") && !ends_with(relpath, ".hpp")) return false;
  // Seeded-violation fixtures are linted by the tests, not the gate.
  if (relpath.find("tests/lint_fixtures/") != std::string::npos) return false;
  return true;
}

bool byte_less(std::string_view a, std::string_view b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto ca = static_cast<unsigned char>(a[i]);
    const auto cb = static_cast<unsigned char>(b[i]);
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

RunResult run(const RunOptions& opts) {
  RunResult result;
  const fs::path root(opts.root);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    result.io_error = true;
    result.error = "not a directory: " + opts.root;
    return result;
  }

  // ---- pass 1: discover, read, tokenize; build the project model ----------
  // The model always covers the full walk (cross-TU rules need the whole
  // tree); an explicit file list only restricts which files get *reported*.
  std::vector<std::string> walk;  // repo-relative, byte_less-sorted
  for (const std::string& sub : lint_roots()) {
    const fs::path dir = root / sub;
    if (!fs::is_directory(dir, ec)) continue;
    for (fs::recursive_directory_iterator it(dir, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file(ec)) continue;
      std::string rel = to_rel(it->path(), root);
      if (is_lintable(rel)) walk.push_back(std::move(rel));
    }
  }
  std::sort(walk.begin(), walk.end(), byte_less);
  walk.erase(std::unique(walk.begin(), walk.end()), walk.end());

  std::vector<std::string> report_set =
      opts.files.empty() ? walk : opts.files;
  std::sort(report_set.begin(), report_set.end(), byte_less);
  report_set.erase(std::unique(report_set.begin(), report_set.end()),
                   report_set.end());
  // Explicit files outside the default walk (or excluded fixtures) still
  // need model entries to be analyzable.
  std::vector<std::string> model_files = walk;
  for (const std::string& f : report_set) {
    if (!std::binary_search(walk.begin(), walk.end(), f, byte_less)) {
      model_files.push_back(f);
    }
  }
  std::sort(model_files.begin(), model_files.end(), byte_less);

  ProjectModel model;
  std::map<std::string, std::string> contents;
  for (const std::string& rel : model_files) {
    bool ok = false;
    std::string content = read_file(root / rel, &ok);
    if (!ok) {
      result.io_error = true;
      result.error = "cannot read " + (root / rel).string();
      return result;
    }
    ProjectFile pf;
    pf.path = rel;
    pf.toks = tokenize(content);
    pf.decls = scan_decls(rel, pf.toks);
    pf.policy = policy_for(rel);
    model.graph.add_file(rel, pf.toks);
    contents.emplace(rel, std::move(content));
    model.files.emplace(rel, std::move(pf));
  }

  // The layer map is the opt-in switch for the cross-TU pass.
  const fs::path layers_path = root / "tools" / "pet_lint" / "layers.txt";
  if (fs::is_regular_file(layers_path, ec)) {
    bool ok = false;
    const std::string layers_content = read_file(layers_path, &ok);
    if (!ok || !model.layers.parse(layers_content)) {
      result.io_error = true;
      result.error = "tools/pet_lint/layers.txt: " +
                     (ok ? model.layers.error() : std::string("cannot read"));
      return result;
    }
  }
  model.graph.finalize(model.layers);

  // ---- pass 2: per-file rules, then cross-TU rules -------------------------
  std::vector<Finding>& all = result.findings;
  for (const std::string& rel : report_set) {
    const auto cit = contents.find(rel);
    if (cit == contents.end()) {
      result.io_error = true;
      result.error = "cannot read " + (root / rel).string();
      return result;
    }
    const std::string sibling = ends_with(rel, ".cpp")
                                    ? rel.substr(0, rel.size() - 4) + ".hpp"
                                    : std::string{};
    const auto sib = contents.find(sibling);
    const bool sibling_header =
        !sibling.empty() &&
        (sib != contents.end() || fs::exists(root / sibling, ec));
    std::string header_content;
    if (sib != contents.end()) {
      header_content = sib->second;
    } else if (sibling_header) {
      bool header_ok = false;
      header_content = read_file(root / sibling, &header_ok);
    }
    FileReport report = analyze_source(rel, cit->second, policy_for(rel),
                                       sibling_header, header_content);
    result.suppressed += report.suppressed;
    ++result.files_scanned;
    for (Finding& f : report.findings) all.push_back(std::move(f));
  }

  if (model.active()) {
    ProjectReport project = run_project_rules(model);
    result.suppressed += project.suppressed;
    const bool restricted = !opts.files.empty();
    for (Finding& f : project.findings) {
      if (restricted &&
          !std::binary_search(report_set.begin(), report_set.end(), f.path,
                              byte_less)) {
        continue;
      }
      all.push_back(std::move(f));
    }
  }
  std::sort(all.begin(), all.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return byte_less(a.path, b.path);
    return std::tie(a.line, a.col, a.rule) < std::tie(b.line, b.col, b.rule);
  });
  return result;
}

std::string render(const RunResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    out << f.path << ":" << f.line << ":" << f.col << ": [" << f.rule << "] "
        << f.message << "\n      " << f.line_text << "\n";
  }
  out << "pet_lint: " << result.findings.size() << " finding(s), "
      << result.suppressed << " suppressed across " << result.files_scanned
      << " files\n";
  return out.str();
}

}  // namespace pet::lint
