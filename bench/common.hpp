#pragma once
// Shared bench configuration. Every experiment binary takes the flags
// parse_options() registers (--help lists them); no arguments reproduces
// the default scaled-down experiment.

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/experiment_builder.hpp"
#include "exp/flags.hpp"
#include "exp/pretrain.hpp"
#include "exp/run_artifact.hpp"
#include "exp/table.hpp"
#include "exp/trace_export.hpp"

namespace pet::bench {

struct BenchOptions {
  bool quick = false;
  bool paper_scale = false;
  std::uint64_t seed = 20250704;
  /// Run-artifact destination; empty = BENCH_<name>.json.
  std::string artifact_path;
  /// Chrome-trace destination; empty = no trace export.
  std::string trace_path;
};

inline BenchOptions parse_options(int argc, char** argv) {
  static constexpr std::array<exp::Choice<bool>, 1> kScale{{{"paper", true}}};
  BenchOptions opt;
  exp::FlagSet flags(argv[0]);
  flags.toggle("--quick", &opt.quick, true,
               "smaller fabric / shorter runs (CI smoke)")
      .choice("--scale", &opt.paper_scale, kScale,
              "the paper's 288-host fabric (slow; hours on one core)")
      .value("--seed=N", &opt.seed, "scenario seed")
      .value("--artifact=PATH", &opt.artifact_path,
             "run artifact (default BENCH_<name>.json)")
      .value("--trace=PATH", &opt.trace_path,
             "also export a chrome://tracing timeline of the last run");
  if (const exp::FlagSet::Outcome r = flags.parse(argc, argv); r.exit_code) {
    std::fputs(r.message.c_str(), *r.exit_code == 0 ? stdout : stderr);
    std::exit(*r.exit_code);
  }
  return opt;
}

/// Baseline scenario for a scheme/workload/load under the given options;
/// returns the builder so callers can chain further overrides before
/// build().
inline exp::ExperimentBuilder make_scenario(const BenchOptions& opt,
                                            exp::Scheme scheme,
                                            workload::WorkloadKind kind,
                                            double load) {
  net::LeafSpineConfig topo;
  exp::ExperimentBuilder builder;
  builder.scheme(scheme).workload(kind).load(load).seed(opt.seed).tuned_dcqcn();
  if (opt.paper_scale) {
    topo = net::LeafSpineConfig::paper_scale();
    builder.flow_size_cap(0.0)  // full distributions
        .phases(sim::milliseconds(100), sim::milliseconds(100))
        .incast(32, 32 * 1024, sim::milliseconds(1));
  } else if (opt.quick) {
    topo.num_leaves = 2;  // 2 spines, 2 leaves x 8 hosts
    builder.flow_size_cap(4e6)
        .phases(sim::milliseconds(15), sim::milliseconds(15))
        .incast(8, 32 * 1024, sim::milliseconds(1));
  } else {  // the default 2 spines, 4 leaves x 8 hosts
    builder.flow_size_cap(8e6)
        .phases(sim::milliseconds(40), sim::milliseconds(40))
        .incast(8, 32 * 1024, sim::milliseconds(1));
  }
  builder.topology(topo);
  return builder;
}

/// Pre-training budget per mode.
inline exp::PretrainOptions make_pretrain(const BenchOptions& opt) {
  exp::PretrainOptions pre;
  if (opt.paper_scale) {
    pre.duration = sim::milliseconds(800);
  } else if (opt.quick) {
    pre.duration = sim::milliseconds(200);
  } else {
    pre.duration = sim::milliseconds(600);
  }
  return pre;
}

inline const char* mode_name(const BenchOptions& opt) {
  return opt.paper_scale ? "paper-scale" : (opt.quick ? "quick" : "scaled");
}

/// Artifact skeleton for one bench invocation: manifest fields that come
/// straight from the command line (mode, seed). `name` must match the
/// binary so BENCH_<name>.json is predictable for tooling.
inline exp::RunArtifact make_artifact(const BenchOptions& opt,
                                      const char* name) {
  exp::RunArtifact art(name);
  art.set_mode(mode_name(opt));
  art.set_seed(opt.seed);
  return art;
}

/// Record one finished experiment into the artifact: its scenario becomes
/// the manifest scenario and its switch summaries / event counts /
/// profiler tables the payload (each call overwrites those sections — the
/// last recorded run is the one the artifact details). Honors --trace=PATH
/// by also exporting the run's chrome://tracing timeline.
inline void record_run(const BenchOptions& opt, exp::RunArtifact& art,
                       exp::Experiment& experiment) {
  art.set_scenario(experiment.config());
  art.add_switch_summaries(experiment.network().switches());
  art.add_tier_summaries(experiment.topology(), experiment.network());
  art.add_event_counts(experiment.event_log());
  art.set_profiler(experiment.profiler());
  if (!opt.trace_path.empty()) {
    if (exp::write_chrome_trace(opt.trace_path, &experiment.event_log(),
                                &experiment.profiler())) {
      std::printf("  trace: %s\n", opt.trace_path.c_str());
    }
  }
}

/// Write the artifact to --artifact=PATH (default BENCH_<name>.json).
inline void write_artifact(const BenchOptions& opt, const exp::RunArtifact& art) {
  const std::string path =
      opt.artifact_path.empty() ? art.default_path() : opt.artifact_path;
  if (art.write(path)) std::printf("\nartifact: %s\n", path.c_str());
}

/// Run one scenario end-to-end: offline pre-train (cached on disk for the
/// learning schemes), install the initial model, warm up online, measure.
/// With an artifact, the run is profiled and recorded under `label.`.
inline exp::Metrics run_scenario(const BenchOptions& opt, exp::Scheme scheme,
                                 workload::WorkloadKind kind, double load,
                                 exp::RunArtifact* art = nullptr,
                                 const std::string& label = "") {
  exp::ExperimentBuilder builder = make_scenario(opt, scheme, kind, load);
  if (art != nullptr) builder.profiling(true);
  std::vector<double> weights;
  if (exp::is_learning_scheme(scheme)) {
    weights = exp::pretrained_weights_cached(builder.config(),
                                             make_pretrain(opt));
    builder.expects_pretrained(!weights.empty())
        .pretrain_lr_boost(1.0)  // online phase uses the paper's rates
        .pretrain(sim::milliseconds(opt.quick ? 5 : 10));  // online warmup
  }
  auto experiment = builder.build();
  if (!weights.empty() && !experiment->install_learned_weights(weights)) {
    std::fprintf(stderr,
                 "warning: pretrained weights rejected (stale cache?); "
                 "running untrained\n");
  }
  const exp::Metrics m = experiment->run();
  if (art != nullptr) {
    art->add_metrics(label, m);
    record_run(opt, *art, *experiment);
  }
  return m;
}

inline void print_header(const BenchOptions& opt, const char* title,
                         const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s | mode: %s | seed: %llu\n\n", paper_ref,
              mode_name(opt), static_cast<unsigned long long>(opt.seed));
}

}  // namespace pet::bench
