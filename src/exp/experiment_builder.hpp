#pragma once
// ExperimentBuilder: the fluent front door for assembling scenarios.
//
//   auto ex = exp::ExperimentBuilder{}
//                 .topology(net::LeafSpineConfig::paper_scale())
//                 .workload(workload::WorkloadKind::kWebSearch)
//                 .scheme(exp::Scheme::kPet)
//                 .seed(7)
//                 .build();
//
// Every knob of ScenarioConfig has a chainable setter. The scenario itself
// is validated where every path meets, in Experiment's constructor
// (ScenarioConfig::validate() throws std::invalid_argument with a
// field-naming message); the builder adds only its own replicas/threads
// checks. replicas(N) switches the product from a single Experiment to a
// ReplicaRunner that trains N independent replicas in parallel (see
// replica_runner.hpp).

#include <cstdint>
#include <memory>

#include "exp/experiment.hpp"
#include "exp/scheme.hpp"
#include "net/topology_spec.hpp"
#include "rl/inference.hpp"
#include "sim/time.hpp"
#include "transport/dcqcn.hpp"
#include "workload/distributions.hpp"

namespace pet::exp {

class ReplicaRunner;
struct ReplicaRunnerConfig;

class ExperimentBuilder {
 public:
  ExperimentBuilder() = default;

  // --- fabric ---------------------------------------------------------------
  /// Any fabric family: leaf-spine, k-ary fat-tree, or inter-DC
  /// (net/topology_spec.hpp).
  ExperimentBuilder& topology(const net::TopologySpec& t) {
    return set(cfg_.topo, t);
  }
  ExperimentBuilder& dcqcn(const transport::DcqcnConfig& c) {
    return set(cfg_.dcqcn, c);
  }
  /// Re-derive DCQCN's increase machinery from the (already set) host link
  /// rate; applied at build() time so it sees the final topology.
  ExperimentBuilder& tuned_dcqcn(bool on = true) {
    return set(tuned_dcqcn_, on);
  }

  // --- workload -------------------------------------------------------------
  ExperimentBuilder& workload(workload::WorkloadKind kind) {
    return set(cfg_.workload, kind);
  }
  ExperimentBuilder& load(double target) { return set(cfg_.load, target); }
  /// 0 disables flow-size truncation.
  ExperimentBuilder& flow_size_cap(double bytes) {
    return set(cfg_.flow_size_cap_bytes, bytes);
  }
  ExperimentBuilder& incast(bool on) { return set(cfg_.incast_enabled, on); }
  ExperimentBuilder& incast(std::int32_t fan_in, std::int64_t request_bytes,
                            sim::Time period) {
    cfg_.incast_fan_in = fan_in;
    cfg_.incast_request_bytes = request_bytes;
    cfg_.incast_period = period;
    return incast(true);
  }

  // --- scheme & schedule ----------------------------------------------------
  ExperimentBuilder& scheme(Scheme s) { return set(cfg_.scheme, s); }
  ExperimentBuilder& phases(sim::Time pretrain_for, sim::Time measure_for) {
    return pretrain(pretrain_for).measure(measure_for);
  }
  ExperimentBuilder& pretrain(sim::Time t) { return set(cfg_.pretrain, t); }
  ExperimentBuilder& measure(sim::Time t) { return set(cfg_.measure, t); }
  ExperimentBuilder& tuning_interval(sim::Time t) {
    return set(cfg_.tuning_interval, t);
  }

  // --- learning knobs -------------------------------------------------------
  ExperimentBuilder& seed(std::uint64_t s) { return set(cfg_.seed, s); }
  ExperimentBuilder& pretrain_lr_boost(double factor) {
    return set(cfg_.pretrain_lr_boost, factor);
  }
  ExperimentBuilder& shared_policy(bool on) {
    return set(cfg_.pet_shared_policy, on);
  }
  ExperimentBuilder& expects_pretrained(bool on) {
    return set(cfg_.expects_pretrained, on);
  }
  ExperimentBuilder& explore_start(double rate) {
    return set(cfg_.pet_explore_start, rate);
  }
  /// Deployment-decision serving precision (rl::PolicyServer). Non-kDirect
  /// modes imply shared_policy(true).
  ExperimentBuilder& infer(rl::InferMode mode) {
    return set(cfg_.pet_infer, mode);
  }

  // --- observability --------------------------------------------------------
  /// Attach the experiment's Profiler to its Scheduler (per-event-kind
  /// sections; the event order is unaffected).
  ExperimentBuilder& profiling(bool on = true) {
    return set(cfg_.profiling, on);
  }

  // --- parallel replicas ----------------------------------------------------
  /// Train N fully independent replicas per episode and merge their
  /// rollouts into one IPPO update (build_runner()).
  ExperimentBuilder& replicas(std::int32_t n) { return set(replicas_, n); }
  /// Worker threads for the replica pool (0 = hardware concurrency). The
  /// merged result is identical for any thread count.
  ExperimentBuilder& threads(std::int32_t n) { return set(threads_, n); }

  /// The assembled (not yet validated) configuration exactly as build()
  /// will consume it — deferred adjustments like tuned_dcqcn() applied.
  /// Useful as a pretrain-cache key.
  [[nodiscard]] ScenarioConfig config() const { return finalized(); }
  [[nodiscard]] std::int32_t num_replicas() const { return replicas_; }

  /// Construct. Throws std::invalid_argument on a bad config.
  [[nodiscard]] std::unique_ptr<Experiment> build() const;
  /// Construct the parallel-replica trainer (replicas() >= 1; requires a
  /// PET scheme).
  [[nodiscard]] ReplicaRunner build_runner() const;

 private:
  template <class T>
  ExperimentBuilder& set(T& field, const T& value) {
    field = value;
    return *this;
  }
  /// The replicas/threads checks; throws std::invalid_argument.
  void validate() const;
  [[nodiscard]] ScenarioConfig finalized() const;

  ScenarioConfig cfg_{};
  std::int32_t replicas_ = 1;
  std::int32_t threads_ = 0;
  bool tuned_dcqcn_ = false;
};

}  // namespace pet::exp
