// pet_perfbench: end-to-end + per-layer benchmark of one pinned workload.
//
//   pet_perfbench --workload ls32-secn1 --seed 1 --seconds 25 --trace 0
//
// Simulates the workload's sub-scenarios in this process, repeating the
// timed ones from the same seed (how often follows from --seconds), checks
// that every run of a sub-scenario simulated exactly the same thing, prints
// every metric with its unit, and ends with one JSON line: {"correct",
// "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
// metrics; --trace 1 adds profiled runs and reports the per-layer metrics.
// Exit status: 0 ok, 1 output check failed, 2 usage or input error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "reference.hpp"
#include "report.hpp"
#include "scenario.hpp"
#include "scenario_run.hpp"

namespace {

using namespace pet::perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  int trace = 0;
  std::string model_dir = "pretrain_cache";
  std::string artifact_dir;
  bool tiny = false;
  /// Test hook: corrupt the digest of the last run of sub-scenario 0 so the
  /// output check must reject the run.
  bool perturb_digest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pet_perfbench: %s\n"
               "usage: pet_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "         [--models DIR] [--artifact-dir DIR] [--tiny] "
               "[--perturb-digest]\n"
               "workloads:",
               why.c_str());
  for (const WorkloadSpec& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tiny") {
      opt.tiny = true;
      continue;
    }
    if (arg == "--perturb-digest") {
      opt.perturb_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(opt.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1" ? 1 : 0;
    } else if (arg == "--models") {
      opt.model_dir = v;
    } else if (arg == "--artifact-dir") {
      opt.artifact_dir = v;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

/// Peak resident set of this address space (VmHWM). Unlike ru_maxrss it
/// does not inherit the high-water mark of a parent that forked us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

/// Appends `count` runs of each of the first `scenarios` sub-scenarios,
/// repetition-major so that the runs of one sub-scenario spread over the
/// whole run.
void add_runs(const WorkloadSpec& spec, const Options& opt, int scenarios,
              int count, bool traced, ReferenceKernel& reference, Runs& runs) {
  if (runs.size() < static_cast<std::size_t>(scenarios)) runs.resize(scenarios);
  for (int r = 0; r < count; ++r) {
    for (int k = 0; k < scenarios; ++k) {
      RunOptions ro;
      ro.model_dir = opt.model_dir;
      ro.traced = traced;
      ro.reference = &reference;
      if (traced && r == 0 && !opt.artifact_dir.empty()) {
        std::filesystem::create_directories(opt.artifact_dir);
        ro.artifact_path = opt.artifact_dir + "/" + std::string(spec.name) +
                           "-seed" + std::to_string(opt.seed) + "-" +
                           std::to_string(k) + ".json";
      }
      runs[k].push_back(run_scenario(spec, scenario_seed(opt.seed, k), ro));
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const WorkloadSpec* found = find_workload(opt.workload);
  if (found == nullptr) usage("unknown workload " + opt.workload);
  const WorkloadSpec spec = opt.tiny ? tiny(*found) : *found;

  // --trace 0 simulates every sub-scenario once for the simulated metrics,
  // then repeats the timed ones until each has `reps` untraced runs.
  // --trace 1 runs only the timed sub-scenarios: `reps` untraced runs and
  // reps - 1 profiled ones each. --seconds is the measurement budget: the
  // repetitions fill what the single runs leave of it, with at least three
  // runs of each timed sub-scenario so the fastest one is a real choice.
  const double timed_s = spec.timed_scenarios * spec.scenario_host_s;
  const double left_s = opt.seconds - spec.scenarios * spec.scenario_host_s;
  const int reps =
      opt.tiny ? 2
               : std::clamp(1 + static_cast<int>(std::lround(left_s / timed_s)),
                            3, 16);
  ReferenceKernel reference;
  Runs runs;
  try {
    if (opt.trace == 0) {
      add_runs(spec, opt, spec.scenarios, 1, false, reference, runs);
      add_runs(spec, opt, spec.timed_scenarios, reps - 1, false, reference,
               runs);
    } else {
      add_runs(spec, opt, spec.timed_scenarios, reps, false, reference, runs);
      add_runs(spec, opt, spec.timed_scenarios, std::max(1, reps - 1), true,
               reference, runs);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pet_perfbench: %s\n", e.what());
    return 2;
  }

  if (opt.perturb_digest) runs.front().back().digest ^= 1;
  std::int64_t failed = 0;
  const std::vector<std::string> problems = check_outputs(runs, &failed);
  std::int64_t attempted = 0;
  for (const auto& scenario : runs) attempted += static_cast<std::int64_t>(scenario.size());

  std::printf("pet_perfbench %s seed=%llu: %zu sub-scenarios, %.3f ms window\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(opt.seed), runs.size(),
              spec.window.ms());
  for (std::size_t k = 0; k < runs.size(); ++k) {
    std::printf("  scenario %zu:", k);
    for (const ScenarioRun& run : runs[k]) {
      std::printf(" %.0f+%.0f%s", run.setup_ms, run.window_ms(),
                  run.traced ? "t" : "");
    }
    std::printf(" ms (set-up+window, t = traced)\n");
  }
  if (!problems.empty()) {
    for (const std::string& p : problems) {
      std::fprintf(stderr, "output check: %s\n", p.c_str());
    }
    std::printf("%s\n", result_json(false, attempted, failed, {}).c_str());
    return 1;
  }
  const std::vector<Metric> metrics =
      opt.trace == 1 ? per_layer_metrics(spec, runs)
                     : end_to_end_metrics(spec, runs, peak_rss_mb());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result_json(true, attempted, 0, metrics).c_str());
  return 0;
}
