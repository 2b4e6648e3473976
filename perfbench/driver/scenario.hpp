#pragma once
// The benchmark's four pinned workloads. Each pins both its traffic and its
// ECN scheme: WebSearch sizes capped at 8 MB, open-loop Poisson arrivals at
// 60% of host bandwidth, an 8:1 incast every 1 ms and tuned DCQCN, on the
// fabric and scheme the workload names. Why each workload exists and how
// it was sized: perfbench/README.md.

#include <cstdint>
#include <string_view>
#include <vector>

#include "exp/experiment_builder.hpp"
#include "exp/scheme.hpp"
#include "net/topology_spec.hpp"
#include "rl/inference.hpp"
#include "sim/time.hpp"

namespace pet::perfbench {

struct WorkloadSpec {
  std::string_view name{};
  net::TopologySpec topo;
  exp::Scheme scheme = exp::Scheme::kSecn1;
  rl::InferMode infer = rl::InferMode::kDirect;
  /// Committed pretrain_cache/ key of the installed model; empty for static
  /// schemes.
  std::string_view model_key{};
  /// Simulated time run before the measurement window (part of set-up).
  sim::Time warmup;
  /// Simulated measurement window, advanced one tuning interval at a time.
  sim::Time window;
  /// Independent sub-scenarios (seeds derived from the workload seed); the
  /// simulated metrics aggregate over them.
  int scenarios = 1;
  /// The first `timed_scenarios` of them are repeated for the host-time
  /// metrics; the rest are simulated once.
  int timed_scenarios = 1;
  /// Expected host seconds of one sub-scenario run (set-up included) on a
  /// 4-core x86 box. Fixes the repetition count for a given time budget as
  /// a constant, so the count never depends on how fast a particular run
  /// happens to be.
  double scenario_host_s = 1.0;
};

/// Simulated time per measured chunk: one PET/ACC tuning interval.
inline constexpr sim::Time kChunk = sim::microseconds(100);

/// All workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// The same workload shrunk to a 1 ms warm-up, a 1 ms window and two
/// sub-scenarios, both timed (tests).
[[nodiscard]] WorkloadSpec tiny(const WorkloadSpec& spec);

/// Builder with every knob of `spec` applied for workload seed `seed`.
[[nodiscard]] exp::ExperimentBuilder make_builder(const WorkloadSpec& spec,
                                                  std::uint64_t seed,
                                                  bool profiling);

}  // namespace pet::perfbench
