#pragma once
// Shared main() for the google-benchmark micro benches: runs the registered
// benchmarks through the normal console reporter while capturing every
// result into a RunArtifact, so micro benches emit the same
// BENCH_<name>.json the experiment benches do.
//
// Usage (instead of BENCHMARK_MAIN()):
//   PET_MICRO_BENCH_MAIN("micro_sim")
//
// The binary accepts all --benchmark_* flags plus --artifact=PATH
// (default BENCH_<name>.json).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "exp/run_artifact.hpp"

namespace pet::bench {

/// Console reporter that additionally records per-run times into the
/// artifact as flat metrics: "<benchmark>.real_ns", ".cpu_ns",
/// ".iterations", plus every user counter under its own name (rate
/// counters arrive already divided by elapsed time, so e.g.
/// "<benchmark>.events_per_sec" is the headline number the bench gate
/// compares). With --benchmark_repetitions=N (N > 1) a benchmark's metrics
/// come from its median aggregate row, the median over the N repetitions
/// of each time and counter; ".iterations" stays the per-repetition
/// iteration count, and the other aggregate rows are skipped.
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  explicit ArtifactReporter(exp::RunArtifact* art) : art_(art) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const std::string key = run.run_name.str();
      // An aggregate row's `iterations` is the repetition count, and its
      // accumulated times are scaled so that dividing by it still gives
      // per-iteration time.
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      if (run.run_type == Run::RT_Iteration) {
        art_->add_metric(key + ".iterations", iters);
        if (run.repetitions > 1) continue;
      } else if (run.aggregate_name != "median") {
        continue;
      }
      art_->add_metric(key + ".real_ns",
                       run.real_accumulated_time * 1e9 / iters);
      art_->add_metric(key + ".cpu_ns", run.cpu_accumulated_time * 1e9 / iters);
      for (const auto& [name, counter] : run.counters) {
        art_->add_metric(key + "." + name,
                         static_cast<double>(counter.value));
      }
    }
  }

 private:
  exp::RunArtifact* art_;
};

inline int micro_bench_main(int argc, char** argv, const char* name) {
  // Split off --artifact=PATH before google-benchmark sees (and rejects) it.
  std::string artifact_path;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--artifact=", 0) == 0) {
      artifact_path = arg.substr(11);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  exp::RunArtifact art(name);
  art.set_mode("micro");
  ArtifactReporter reporter(&art);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const std::string path =
      artifact_path.empty() ? art.default_path() : artifact_path;
  if (art.write(path)) std::printf("artifact: %s\n", path.c_str());
  return 0;
}

}  // namespace pet::bench

#define PET_MICRO_BENCH_MAIN(name)                          \
  int main(int argc, char** argv) {                         \
    return ::pet::bench::micro_bench_main(argc, argv, name); \
  }
