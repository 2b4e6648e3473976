// pet_lint CLI — the repo's determinism/audit invariants as a source gate.
//
// Usage:
//   pet_lint [--root=DIR] [--list-rules] [FILE...]
//
// With no --root, walks upward from the working directory looking for the
// repo root (a directory containing src/ and tools/pet_lint/). FILE
// arguments are repo-relative and replace the default walk. Exit codes:
// 0 clean, 1 findings, 2 usage or I/O error.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "driver.hpp"

namespace fs = std::filesystem;

namespace {

[[nodiscard]] std::string autodetect_root() {
  std::error_code ec;
  fs::path dir = fs::current_path(ec);
  while (!dir.empty()) {
    if (fs::is_directory(dir / "src", ec) &&
        fs::is_directory(dir / "tools" / "pet_lint", ec)) {
      return dir.string();
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return {};
}

void usage(std::FILE* to) {
  std::fprintf(to, "usage: pet_lint [--root=DIR] [--list-rules] [FILE...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  pet::lint::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      opts.root = arg.substr(7);
    } else if (arg == "--list-rules") {
      for (const std::string& id : pet::lint::all_rule_ids()) {
        std::fprintf(stdout, "%s\n", id.c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "pet_lint: unknown option %s\n", arg.c_str());
      usage(stderr);
      return 2;
    } else {
      opts.files.push_back(arg);
    }
  }
  if (opts.root.empty()) opts.root = autodetect_root();
  if (opts.root.empty()) {
    std::fprintf(stderr,
                 "pet_lint: cannot find repo root (pass --root=DIR)\n");
    return 2;
  }

  const pet::lint::RunResult result = pet::lint::run(opts);
  if (result.io_error) {
    std::fprintf(stderr, "pet_lint: %s\n", result.error.c_str());
    return 2;
  }
  const std::string report = pet::lint::render(result);
  std::fwrite(report.data(), 1, report.size(), stdout);
  return result.findings.empty() ? 0 : 1;
}
