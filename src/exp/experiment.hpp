#pragma once
// Experiment: assembles fabric + transport + workload + scheme into one
// runnable scenario and computes paper-style metrics. Standard lifecycle is
// pretrain (hybrid-training warmup for the learning schemes) followed by a
// measurement window; specialty benches (convergence, robustness) drive the
// timeline manually through run_until()/add_event().

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "acc/acc_agent.hpp"
#include "acc/dynamic_tuners.hpp"
#include "core/controller.hpp"
#include "core/reward.hpp"
#include "exp/metrics.hpp"
#include "exp/queue_probe.hpp"
#include "exp/scheme.hpp"
#include "exp/telemetry.hpp"
#include "net/fabric.hpp"
#include "net/fault_plan.hpp"
#include "net/network.hpp"
#include "net/topology_spec.hpp"
#include "rl/inference.hpp"
#include "sim/profiler.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "transport/dcqcn.hpp"
#include "transport/fct_recorder.hpp"
#include "workload/cdf.hpp"
#include "workload/distributions.hpp"
#include "workload/traffic_gen.hpp"

namespace pet::exp {

struct ScenarioConfig {
  /// Any TopologySpec kind (leaf-spine, fat-tree, inter-DC); defaults to
  /// the scaled-down leaf-spine the benches always used.
  net::TopologySpec topo{};
  workload::WorkloadKind workload = workload::WorkloadKind::kWebSearch;
  double load = 0.6;
  /// Truncate the flow-size CDF so tail flows stay finishable on the scaled
  /// fabric (0 disables truncation; paper-scale runs disable it).
  double flow_size_cap_bytes = 20e6;

  bool incast_enabled = true;
  std::int32_t incast_fan_in = 8;
  std::int64_t incast_request_bytes = 32 * 1024;
  sim::Time incast_period = sim::milliseconds(1);

  transport::DcqcnConfig dcqcn{};
  Scheme scheme = Scheme::kPet;

  /// Hybrid-training phase before measurement (learning schemes train
  /// throughout; statistics collected only after this point).
  sim::Time pretrain = sim::milliseconds(30);
  sim::Time measure = sim::milliseconds(50);

  /// Reward weights follow the workload (paper Section 5.2).
  [[nodiscard]] core::RewardConfig reward_config() const {
    return workload == workload::WorkloadKind::kWebSearch
               ? core::RewardConfig::web_search()
               : core::RewardConfig::data_mining();
  }

  sim::Time tuning_interval = sim::microseconds(100);
  std::uint64_t seed = 1;

  /// Learning-rate multiplier during the offline pre-training phase; the
  /// paper's rates (4e-4 / 1e-3) apply once measurement (online
  /// incremental training) begins.
  double pretrain_lr_boost = 5.0;

  /// Offline pre-training mode: PET agents share one policy (pooled
  /// experience), as when producing the initial model for deployment.
  bool pet_shared_policy = false;

  /// Set when an offline-pretrained model will be installed: learning
  /// schemes then start online training gently (low epsilon, paper
  /// learning rates) instead of from-scratch schedules.
  bool expects_pretrained = false;

  /// PET initial exploration rate (offline sandboxes explore harder).
  double pet_explore_start = 0.1;

  /// Deployment-decision serving mode (rl::PolicyServer). Non-kDirect modes
  /// imply pet_shared_policy — the server snapshots one shared policy — so
  /// a kFp64 run matches kDirect bitwise only when kDirect shares a policy
  /// too; kFp32/kInt8 trade bounded divergence for throughput.
  rl::InferMode pet_infer = rl::InferMode::kDirect;

  /// Attach the experiment's Profiler to its Scheduler so event kinds are
  /// counted and wall-timed (benches turn this on; the event sequence is
  /// unaffected either way).
  bool profiling = false;

  /// Scale the DCQCN increase steps for the configured host rate.
  void tune_dcqcn_for_rate();

  /// Throws std::invalid_argument naming the offending field. Experiment's
  /// constructor calls it, so every way of running a scenario is checked.
  void validate() const;
};

class Experiment {
 public:
  /// Throws std::invalid_argument when `cfg` does not validate.
  explicit Experiment(const ScenarioConfig& cfg);

  /// Standard lifecycle: pretrain, mark measurement, run, collect.
  [[nodiscard]] Metrics run();

  /// run() with a cooperative cancellation point every `chunk` of simulated
  /// time: `keep_going` is polled between chunks (e.g. against a signal
  /// flag) and a false return stops the run early. The event sequence is
  /// identical to run() — chunked run_until calls execute the same events
  /// in the same order — so an uninterrupted run_chunked() produces
  /// byte-identical artifacts to run(). `completed` (optional) reports
  /// whether the full timeline was simulated; metrics cover the measurement
  /// window that actually ran.
  [[nodiscard]] Metrics run_chunked(sim::Time chunk,
                                    const std::function<bool()>& keep_going,
                                    bool* completed = nullptr);

  // --- manual timeline control (convergence/robustness benches) -----------
  void run_until(sim::Time t) { sched_.run_until(t); }
  void add_event(sim::Time t, std::function<void()> fn) {
    sched_.schedule_at(t, std::move(fn));
  }
  void mark_measurement_start();
  [[nodiscard]] Metrics collect(sim::Time from, sim::Time to) const;

  // --- component access ------------------------------------------------------
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] net::Network& network() { return net_; }
  [[nodiscard]] const net::Fabric& topology() const { return topo_; }
  [[nodiscard]] transport::RdmaTransport& transport() { return *transport_; }
  [[nodiscard]] transport::FctRecorder& recorder() { return recorder_; }
  [[nodiscard]] workload::PoissonTrafficGenerator& background() { return *bg_; }
  [[nodiscard]] workload::IncastGenerator* incast() { return incast_.get(); }
  [[nodiscard]] core::PetController* pet() { return pet_.get(); }
  [[nodiscard]] acc::AccController* acc() { return acc_.get(); }
  [[nodiscard]] baselines::AmtTuner* amt() { return amt_.get(); }
  [[nodiscard]] baselines::QaecnTuner* qaecn() { return qaecn_.get(); }
  [[nodiscard]] QueueProbe& queue_probe() { return queue_probe_; }
  [[nodiscard]] const ScenarioConfig& config() const { return cfg_; }

  /// Run profiler: per-event-kind sections when cfg.profiling is set, plus
  /// the pretrain/measure phase spans recorded by run(). Always present so
  /// artifact/trace export never needs a null check.
  [[nodiscard]] sim::Profiler& profiler() { return profiler_; }
  [[nodiscard]] const sim::Profiler& profiler() const { return profiler_; }

  /// Scheduled fault injection for this scenario (lazily created; fired
  /// faults are mirrored into event_log()).
  [[nodiscard]] net::FaultPlan& fault_plan();

  /// Discrete event record: fault injections and (for PET) agent
  /// health-state transitions.
  [[nodiscard]] EventLog& event_log() { return event_log_; }
  [[nodiscard]] const EventLog& event_log() const { return event_log_; }

  /// Switch the background workload (Fig. 6 pattern switching).
  void switch_workload(workload::WorkloadKind kind);

  /// Install an offline-pretrained model into every agent of the active
  /// learning scheme (no-op for static schemes). Returns false when the
  /// weights do not fit the scheme's model (agents keep their random
  /// initialization, which is safe — just untrained).
  [[nodiscard]] bool install_learned_weights(std::span<const double> weights);

  /// Current model of the active learning scheme's first agent (empty for
  /// static schemes) — what offline pre-training exports.
  [[nodiscard]] std::vector<double> learned_weights() const;

 private:
  [[nodiscard]] workload::EmpiricalCdf sized_cdf(
      workload::WorkloadKind kind) const;
  void install_scheme();
  void set_lr_boost(double factor);

  ScenarioConfig cfg_;
  sim::Profiler profiler_;
  sim::Scheduler sched_;
  net::Network net_;
  net::Fabric topo_;
  transport::FctRecorder recorder_;
  std::unique_ptr<transport::RdmaTransport> transport_;
  std::unique_ptr<workload::PoissonTrafficGenerator> bg_;
  std::unique_ptr<workload::IncastGenerator> incast_;
  std::unique_ptr<core::PetController> pet_;
  std::unique_ptr<acc::AccController> acc_;
  std::unique_ptr<baselines::AmtTuner> amt_;
  std::unique_ptr<baselines::QaecnTuner> qaecn_;
  QueueProbe queue_probe_;
  EventLog event_log_;
  std::unique_ptr<net::FaultPlan> fault_plan_;
  sim::Time measure_start_;
};

}  // namespace pet::exp
