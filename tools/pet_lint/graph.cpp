#include "graph.hpp"

#include <algorithm>
#include <set>

namespace pet::lint {

namespace {

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Lexical normalization: collapse "." and ".." segments. "../x" escaping
/// the repo root resolves to nothing (returns "").
[[nodiscard]] std::string normalize(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const std::string_view seg = path.substr(start, i - start);
      start = i + 1;
      if (seg.empty() || seg == ".") continue;
      if (seg == "..") {
        if (parts.empty()) return {};
        parts.pop_back();
        continue;
      }
      parts.push_back(seg);
    }
  }
  std::string out;
  for (const auto seg : parts) {
    if (!out.empty()) out.push_back('/');
    out.append(seg);
  }
  return out;
}

[[nodiscard]] std::string dir_of(std::string_view relpath) {
  const std::size_t slash = relpath.rfind('/');
  return slash == std::string_view::npos ? std::string{}
                                         : std::string(relpath.substr(0, slash));
}

/// The include spelling from a `#include "..."` directive token, or ""
/// for system includes / non-include directives.
[[nodiscard]] std::string quoted_include(const Token& t) {
  if (t.kind != TokKind::kDirective) return {};
  std::string_view text = trim(t.text);
  if (text.substr(0, 1) != "#") return {};
  text.remove_prefix(1);
  text = trim(text);
  if (text.substr(0, 7) != "include") return {};
  text.remove_prefix(7);
  text = trim(text);
  if (text.empty() || text.front() != '"') return {};
  const std::size_t close = text.find('"', 1);
  if (close == std::string_view::npos) return {};
  return std::string(text.substr(1, close - 1));
}

}  // namespace

bool LayerMap::parse(std::string_view content) {
  ranks_.clear();
  error_.clear();
  std::int32_t rank = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= content.size(); ++i) {
    if (i != content.size() && content[i] != '\n') continue;
    std::string_view line = content.substr(start, i - start);
    start = i + 1;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    std::vector<std::string> names;
    std::size_t pos = 0;
    while (pos < line.size()) {
      while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t' ||
                                   line[pos] == '\r')) {
        ++pos;
      }
      std::size_t end = pos;
      while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
             line[end] != '\r') {
        ++end;
      }
      if (end > pos) names.emplace_back(line.substr(pos, end - pos));
      pos = end;
    }
    if (names.empty()) continue;
    for (const std::string& name : names) {
      if (!ranks_.emplace(name, rank).second) {
        error_ = "layer '" + name + "' declared twice";
        ranks_.clear();
        return false;
      }
    }
    ++rank;
  }
  if (ranks_.empty()) {
    error_ = "layer map is empty";
    return false;
  }
  return true;
}

std::int32_t LayerMap::rank(std::string_view layer) const {
  const auto it = ranks_.find(layer);
  return it == ranks_.end() ? -1 : it->second;
}

std::string LayerMap::layer_of(std::string_view relpath) const {
  if (relpath.substr(0, 4) != "src/") return {};
  std::string_view rest = relpath.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  const std::string_view dir = rest.substr(0, slash);
  return ranks_.find(dir) == ranks_.end() ? std::string{} : std::string(dir);
}

void IncludeGraph::add_file(const std::string& relpath,
                            const std::vector<Token>& toks) {
  GraphNode& node = nodes_[relpath];
  node.path = relpath;
  for (const Token& t : toks) {
    std::string spelled = quoted_include(t);
    if (spelled.empty()) continue;
    node.includes.push_back(IncludeEdge{{}, std::move(spelled), t.line});
  }
}

void IncludeGraph::finalize(const LayerMap& layers) {
  for (auto& [path, node] : nodes_) {
    node.layer = layers.layer_of(path);
    const std::string dir = dir_of(path);
    for (IncludeEdge& e : node.includes) {
      // Candidate order mirrors how the build resolves quote includes:
      // relative to the including file's directory first, then the src/
      // include root, then the repo root (tools/tests spell repo-relative
      // paths in fixtures).
      const std::string rel = normalize(dir.empty() ? e.spelled
                                                    : dir + "/" + e.spelled);
      const std::string from_src = normalize("src/" + e.spelled);
      const std::string from_root = normalize(e.spelled);
      for (const std::string& cand : {rel, from_src, from_root}) {
        if (!cand.empty() && cand != path && nodes_.count(cand) != 0) {
          e.target = cand;
          break;
        }
      }
    }
  }
  for (auto& [path, node] : nodes_) {
    for (const IncludeEdge& e : node.includes) {
      if (!e.target.empty()) nodes_[e.target].included_by.push_back(path);
    }
  }
  for (auto& [path, node] : nodes_) {
    auto& by = node.included_by;
    std::sort(by.begin(), by.end());
    by.erase(std::unique(by.begin(), by.end()), by.end());
  }
}

const GraphNode* IncludeGraph::node(std::string_view relpath) const {
  const auto it = nodes_.find(std::string(relpath));
  return it == nodes_.end() ? nullptr : &it->second;
}

std::vector<std::vector<std::string>> IncludeGraph::cycles() const {
  // Iterative DFS over the (sorted) node map with an explicit stack; a
  // back-edge to a grey node yields the cycle on the stack. Each distinct
  // cycle is reported once, rotated so its smallest member leads.
  enum class Color : std::uint8_t { kWhite, kGrey, kBlack };
  std::map<std::string, Color> color;
  for (const auto& [path, node] : nodes_) color[path] = Color::kWhite;

  std::vector<std::vector<std::string>> out;
  std::set<std::vector<std::string>> seen;
  std::vector<std::string> stack;

  struct Frame {
    const GraphNode* node;
    std::vector<std::string> targets;  // sorted, deduped
    std::size_t next = 0;
  };
  const auto make_frame = [](const GraphNode& n) {
    Frame f{&n, {}, 0};
    for (const IncludeEdge& e : n.includes) {
      if (!e.target.empty()) f.targets.push_back(e.target);
    }
    std::sort(f.targets.begin(), f.targets.end());
    f.targets.erase(std::unique(f.targets.begin(), f.targets.end()),
                    f.targets.end());
    return f;
  };

  for (const auto& [root, root_node] : nodes_) {
    if (color[root] != Color::kWhite) continue;
    std::vector<Frame> frames;
    frames.push_back(make_frame(root_node));
    color[root] = Color::kGrey;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next >= f.targets.size()) {
        color[f.node->path] = Color::kBlack;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string& tgt = f.targets[f.next++];
      const Color c = color[tgt];
      if (c == Color::kGrey) {
        const auto at = std::find(stack.begin(), stack.end(), tgt);
        std::vector<std::string> cyc(at, stack.end());
        const auto min_it = std::min_element(cyc.begin(), cyc.end());
        std::rotate(cyc.begin(), min_it, cyc.end());
        cyc.push_back(cyc.front());
        if (seen.insert(cyc).second) out.push_back(std::move(cyc));
      } else if (c == Color::kWhite) {
        const GraphNode* n = node(tgt);
        color[tgt] = Color::kGrey;
        stack.push_back(tgt);
        frames.push_back(make_frame(*n));
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace pet::lint
