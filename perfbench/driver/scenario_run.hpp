#pragma once
// One simulated scenario run: build the experiment, load and install the
// model, warm up, then advance the measurement window chunk by chunk with a
// host-clock span around every Scheduler::run_until call. Everything the run
// simulated is summarised into exact counters, the window's FCTs and a
// digest, so runs of the same seed can be compared bit for bit.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/metrics.hpp"
#include "reference.hpp"
#include "scenario.hpp"

namespace pet::perfbench {

/// Exact counts read through public accessors, as window deltas unless
/// noted. Identical across runs of one seed by construction.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t heap_size = 0;  // at window end
  std::uint64_t pool_size = 0;  // high-water mark at window end
  std::int64_t tx_packets = 0;  // switch egress
  std::int64_t marked_packets = 0;
  std::int64_t pfc_pauses = 0;
  std::int64_t switch_drops = 0;  // whole run, not just the window
  std::int64_t ecn_installs = 0;
  std::int64_t flows_started = 0;   // start time inside the window
  std::int64_t flows_finished = 0;  // of those, completed by window end
  std::int64_t flows_started_total = 0;
  std::int64_t flows_completed_total = 0;
  std::int64_t cnps_sent = 0;
  std::int64_t ppo_updates = 0;
  std::int64_t quarantined = 0;  // agents quarantined at window end
  std::int64_t rollbacks = 0;
  std::uint64_t serve_version = 0;  // at window end
  std::int64_t replay_exchange_bytes = 0;
  /// Window FCTs under ideal_fct_us() at the diameter RTT Experiment
  /// normalizes by (slowdown < 1), and under the physical floor.
  std::int64_t fct_below_ideal = 0;
  std::int64_t fct_below_floor = 0;

  bool operator==(const Counters&) const = default;
  Counters& operator+=(const Counters& o);
};

/// Profiler section delta over the window (traced runs only).
struct SectionDelta {
  std::uint64_t calls = 0;
  double ms = 0.0;
};

struct ScenarioRun {
  // --- host time (steady clock) ---------------------------------------------
  double build_ms = 0.0;
  double model_load_ms = 0.0;
  double model_install_ms = 0.0;
  double warmup_ms = 0.0;
  double collect_ms = 0.0;
  double artifact_ms = 0.0;  // traced runs write a run artifact
  /// Host microseconds per simulated kChunk of the window, in order.
  std::vector<double> chunk_us;
  /// Host milliseconds of the reference units timed after the chunks, one
  /// unit per chunk (0 without a reference kernel).
  double reference_ms = 0.0;

  /// build + model load + install + warm-up: everything before the first
  /// measured event.
  double setup_ms = 0.0;

  [[nodiscard]] double window_ms() const;
  /// The window's host time in reference units: window_ms() over the mean
  /// time of one reference unit during the window.
  [[nodiscard]] double window_ref_units() const;

  // --- simulated outcome ------------------------------------------------------
  exp::Metrics metrics;
  Counters counters;
  /// FCTs of the flows started in the window (all, and mice only).
  std::vector<double> fct_us;
  std::vector<double> mice_fct_us;
  /// FNV-1a over the window's FCT records and the final per-switch ECN
  /// configurations.
  std::uint64_t digest = 0;

  bool traced = false;
  std::map<std::string, SectionDelta> sections;
};

struct RunOptions {
  std::string model_dir = "pretrain_cache";
  bool traced = false;
  /// Write a pet.run-artifact here (traced runs; empty = skip).
  std::string artifact_path;
  /// Timed once after every measured chunk, outside the chunk's span.
  ReferenceKernel* reference = nullptr;
};

/// Seed of sub-scenario `index` of workload seed `seed`.
[[nodiscard]] std::uint64_t scenario_seed(std::uint64_t seed, int index);

/// Simulates one sub-scenario with seed `seed`. Throws std::runtime_error
/// when the model cannot be loaded or installed: models are read-only
/// inputs, never retrained.
[[nodiscard]] ScenarioRun run_scenario(const WorkloadSpec& spec,
                                       std::uint64_t seed,
                                       const RunOptions& opt);

}  // namespace pet::perfbench
