#pragma once
// Turns a run's scenario runs into named metrics and runs the output check.
//
// A workload is a set of independent sub-scenarios, each simulated once for
// the simulated metrics: averages pool the sub-scenarios' flows, tails and
// queue state are medians over the sub-scenarios (one whose agents let the
// queues run away moves a median less than a pooled figure). The first few
// sub-scenarios are repeated for the host-time metrics, which take the
// fastest run of each: every run of a sub-scenario simulates the same
// events from the same seed, so the slower ones measure the neighbours on
// the machine, not the program. The end-to-end host metric divides each
// run's window time by the reference units timed alongside it before
// taking the fastest (reference.hpp). Set-up time is the median over all
// runs.

#include <cstdint>
#include <string>
#include <vector>

#include "scenario.hpp"
#include "scenario_run.hpp"

namespace pet::perfbench {

/// runs[k]: every run of sub-scenario k, the first one untraced.
using Runs = std::vector<std::vector<ScenarioRun>>;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool integer = false;  // printed without a fraction
};

/// Output check over every scenario run; returns one message per broken
/// rule. `failed` receives the number of runs that broke at least one rule.
/// Each run is compared with the first run of its sub-scenario.
[[nodiscard]] std::vector<std::string> check_outputs(const Runs& runs,
                                                     std::int64_t* failed);

/// --trace 0: the end-to-end metrics.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const WorkloadSpec& spec,
                                                     const Runs& runs,
                                                     double peak_rss_mb);

/// --trace 1: the per-layer metrics; `timed` holds the runs of the timed
/// sub-scenarios only.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const WorkloadSpec& spec,
                                                    const Runs& timed);

/// The run's final line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::int64_t attempted,
                                      std::int64_t failed,
                                      const std::vector<Metric>& metrics);

}  // namespace pet::perfbench
