#include "exp/experiment.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/guardrails.hpp"
#include "core/pet_agent.hpp"
#include "sim/rng.hpp"

namespace pet::exp {

void ScenarioConfig::tune_dcqcn_for_rate() {
  // Scale DCQCN's increase machinery with the host line rate so recovery
  // behaves comparably at 10G (scaled benches) and 25G (paper scale).
  const double line = static_cast<double>(topo.host_link_rate().bps());
  dcqcn.rate_ai_bps = line / 200.0;
  dcqcn.rate_hai_bps = line / 20.0;
  dcqcn.byte_counter = static_cast<std::int64_t>(line / 8.0 * 300e-6);
  dcqcn.increase_timer = sim::microseconds(300);
}

void ScenarioConfig::validate() const {
  topo.validate();
  struct Check {
    bool ok;
    const char* field;
    const char* why;
  };
  const Check checks[] = {
      {topo.num_hosts() >= 2, "topo", "needs at least 2 hosts"},
      {load > 0.0 && load <= 1.0, "load", "must be in (0, 1]"},
      {flow_size_cap_bytes >= 0.0, "flow_size_cap_bytes",
       "must be >= 0 (0 disables truncation)"},
      {!incast_enabled || incast_fan_in >= 1, "incast_fan_in", "must be >= 1"},
      {!incast_enabled || incast_request_bytes >= 1, "incast_request_bytes",
       "must be >= 1"},
      {!incast_enabled || incast_period > sim::Time::zero(), "incast_period",
       "must be positive"},
      {pretrain >= sim::Time::zero(), "pretrain", "must be >= 0"},
      {measure > sim::Time::zero(), "measure", "must be positive"},
      {tuning_interval > sim::Time::zero(), "tuning_interval",
       "must be positive"},
      {pretrain_lr_boost > 0.0, "pretrain_lr_boost", "must be positive"},
      {pet_explore_start >= 0.0 && pet_explore_start <= 1.0,
       "pet_explore_start", "must be in [0, 1]"},
  };
  for (const Check& c : checks) {
    if (!c.ok) {
      throw std::invalid_argument(
          std::string("scenario.").append(c.field).append(" ").append(c.why));
    }
  }
}

namespace {
const ScenarioConfig& validated(const ScenarioConfig& cfg) {
  cfg.validate();
  return cfg;
}

std::vector<net::HostId> all_hosts(const net::Fabric& topo) {
  std::vector<net::HostId> hosts(static_cast<std::size_t>(topo.num_hosts()));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    hosts[i] = static_cast<net::HostId>(i);
  }
  return hosts;
}
}  // namespace

Experiment::Experiment(const ScenarioConfig& cfg)
    : cfg_(validated(cfg)),
      net_(sched_, cfg.seed),
      topo_(net::build_fabric(net_, cfg.topo)),
      recorder_(cfg.seed),
      queue_probe_(sched_, net_.switches()),
      event_log_(sched_) {
  transport_ = std::make_unique<transport::RdmaTransport>(net_, cfg_.dcqcn,
                                                          &recorder_);

  workload::PoissonTrafficConfig bg_cfg;
  bg_cfg.load = cfg_.load;
  bg_cfg.host_rate = cfg_.topo.host_link_rate();
  bg_cfg.hosts = all_hosts(topo_);
  bg_cfg.sizes = sized_cdf(cfg_.workload);
  bg_cfg.seed = sim::derive_seed(cfg_.seed, "bg");
  bg_ = std::make_unique<workload::PoissonTrafficGenerator>(sched_, *transport_,
                                                            bg_cfg);

  if (cfg_.incast_enabled) {
    workload::IncastConfig inc;
    inc.fan_in = cfg_.incast_fan_in;
    inc.request_bytes = cfg_.incast_request_bytes;
    inc.period = cfg_.incast_period;
    inc.hosts = all_hosts(topo_);
    inc.seed = sim::derive_seed(cfg_.seed, "incast");
    incast_ = std::make_unique<workload::IncastGenerator>(sched_, *transport_,
                                                          inc);
  }

  // Phase spans always carry simulated time (trace export relies on it);
  // per-event sections only when profiling is requested.
  profiler_.set_time_source([this] { return sched_.now().us(); });
  if (cfg_.profiling) sched_.set_profiler(&profiler_);

  install_scheme();
  set_lr_boost(cfg_.pretrain_lr_boost);
  bg_->start();
  if (incast_ != nullptr) incast_->start();
  queue_probe_.start();
}

void Experiment::set_lr_boost(double factor) {
  if (pet_ != nullptr) {
    for (std::size_t i = 0; i < pet_->num_agents(); ++i) {
      auto& policy = pet_->agent(i).policy();
      const auto& ppo = policy.config();
      policy.set_learning_rates(ppo.actor_lr * factor, ppo.critic_lr * factor);
    }
  }
  if (acc_ != nullptr) {
    for (std::size_t i = 0; i < acc_->num_agents(); ++i) {
      auto& learner = acc_->agent(i).learner();
      learner.set_lr(1e-3 * factor);
    }
  }
}

workload::EmpiricalCdf Experiment::sized_cdf(
    workload::WorkloadKind kind) const {
  workload::EmpiricalCdf cdf = workload::workload_cdf(kind);
  if (cfg_.flow_size_cap_bytes > 0.0) {
    cdf = cdf.truncated(cfg_.flow_size_cap_bytes);
  }
  return cdf;
}

void Experiment::install_scheme() {
  // Every scheme starts from the SECN1 static config; the learning schemes
  // then re-tune it each interval.
  net_.install_ecn(cfg_.scheme == Scheme::kSecn2 ? secn2_config()
                                                 : secn1_config());
  switch (cfg_.scheme) {
    case Scheme::kSecn1:
    case Scheme::kSecn2:
      break;
    case Scheme::kPet:
    case Scheme::kPetAblation: {
      core::PetControllerConfig pc;
      pc.agent = core::PetAgentConfig::paper_defaults();
      pc.agent.tuning_interval = cfg_.tuning_interval;
      pc.agent.reward = cfg_.reward_config();
      // Short scenario budgets: update from smaller rollouts so several
      // PPO iterations fit into the pre-training window.
      pc.agent.rollout_length = 32;
      pc.agent.ppo.minibatch_size = 32;
      pc.agent.explore_start =
          cfg_.expects_pretrained ? 0.02 : cfg_.pet_explore_start;
      pc.agent.state.qlen_norm_bytes =
          static_cast<double>(cfg_.topo.switch_config().pfc_xoff_bytes);
      // The policy server snapshots one shared policy, so any serving mode
      // implies parameter sharing (the paper's deployed single pre-trained
      // model).
      pc.infer = cfg_.pet_infer;
      pc.shared_policy = cfg_.pet_shared_policy ||
                         cfg_.pet_infer != rl::InferMode::kDirect;
      if (cfg_.scheme == Scheme::kPetAblation) {
        pc.agent.state.include_incast = false;
        pc.agent.state.include_flow_ratio = false;
      }
      pet_ = std::make_unique<core::PetController>(
          sched_, net_.switches(), pc, sim::derive_seed(cfg_.seed, "pet"));
      pet_->set_health_listener([this](const core::HealthTransition& tr) {
        event_log_.record("agent-health",
                          "switch " + std::to_string(tr.switch_id) + " " +
                              core::health_name(tr.from) + "->" +
                              core::health_name(tr.to) + ": " + tr.reason);
      });
      pet_->start();
      break;
    }
    case Scheme::kAmt: {
      baselines::AmtConfig amt_cfg;
      amt_cfg.period = cfg_.tuning_interval;
      amt_ = std::make_unique<baselines::AmtTuner>(sched_, net_.switches(),
                                                   amt_cfg);
      amt_->start();
      break;
    }
    case Scheme::kQaecn: {
      baselines::QaecnConfig q_cfg;
      q_cfg.period = cfg_.tuning_interval;
      qaecn_ = std::make_unique<baselines::QaecnTuner>(sched_, net_.switches(),
                                                       q_cfg);
      qaecn_->start();
      break;
    }
    case Scheme::kAcc: {
      acc::AccControllerConfig ac;
      ac.agent.tuning_interval = cfg_.tuning_interval;
      ac.agent.reward = cfg_.reward_config();
      ac.agent.state.qlen_norm_bytes =
          static_cast<double>(cfg_.topo.switch_config().pfc_xoff_bytes);
      // Anneal epsilon over the pre-training phase so measurement runs
      // mostly greedy (ACC's deployed behaviour). With a pretrained model
      // installed, start gently instead of from-scratch exploration.
      ac.agent.ddqn.epsilon_start = cfg_.expects_pretrained ? 0.1 : 1.0;
      ac.agent.ddqn.epsilon_end = 0.05;
      ac.agent.ddqn.epsilon_decay_steps = static_cast<std::int32_t>(
          std::max<std::int64_t>(1, cfg_.pretrain / cfg_.tuning_interval));
      acc_ = std::make_unique<acc::AccController>(
          sched_, net_.switches(), ac, sim::derive_seed(cfg_.seed, "acc"));
      acc_->start();
      break;
    }
  }
}

bool Experiment::install_learned_weights(std::span<const double> weights) {
  bool ok = true;
  if (pet_ != nullptr) ok = pet_->install_weights(weights) && ok;
  if (acc_ != nullptr) ok = acc_->install_weights(weights) && ok;
  return ok;
}

std::vector<double> Experiment::learned_weights() const {
  if (pet_ != nullptr && pet_->num_agents() > 0) {
    return pet_->agent(0).policy().weights();
  }
  if (acc_ != nullptr && acc_->num_agents() > 0) {
    return acc_->agent(0).learner().weights();
  }
  return {};
}

net::FaultPlan& Experiment::fault_plan() {
  if (fault_plan_ == nullptr) {
    fault_plan_ = std::make_unique<net::FaultPlan>(
        net_, sim::derive_seed(cfg_.seed, "fault-plan"));
    fault_plan_->set_event_sink(
        [this](sim::Time, net::FaultKind kind, const std::string& detail) {
          event_log_.record(net::fault_kind_name(kind), detail);
        });
  }
  return *fault_plan_;
}

void Experiment::mark_measurement_start() {
  measure_start_ = sched_.now();
  queue_probe_.reset();
  recorder_.reset_latency();
  // Offline pre-training ends here; online incremental training continues
  // at the paper's learning rates with a low, stable exploration rate
  // (Section 4.4's exploration/exploitation handoff).
  set_lr_boost(1.0);
  if (pet_ != nullptr) {
    for (std::size_t i = 0; i < pet_->num_agents(); ++i) {
      pet_->agent(i).freeze_exploration(0.02);
      pet_->agent(i).set_deployment_mode(true);
    }
  }
}

void Experiment::switch_workload(workload::WorkloadKind kind) {
  cfg_.workload = kind;
  bg_->set_sizes(sized_cdf(kind));
}

Metrics Experiment::run() {
  {
    PET_PROFILE_SCOPE(&profiler_, "pretrain");
    sched_.run_until(cfg_.pretrain);
  }
  mark_measurement_start();
  {
    PET_PROFILE_SCOPE(&profiler_, "measure");
    sched_.run_until(cfg_.pretrain + cfg_.measure);
  }
  return collect(measure_start_, sched_.now());
}

Metrics Experiment::run_chunked(sim::Time chunk,
                                const std::function<bool()>& keep_going,
                                bool* completed) {
  // Mirrors run() exactly: run_until(t) in steps is the same event sequence
  // as one run_until(t), so the only behavioural difference is the
  // cancellation polls between chunks.
  if (chunk <= sim::Time::zero()) chunk = cfg_.pretrain + cfg_.measure;
  bool cancelled = false;
  const auto advance_to = [&](sim::Time target) {
    while (sched_.now() < target) {
      if (!keep_going()) {
        cancelled = true;
        return;
      }
      const sim::Time next = sched_.now() + chunk;
      sched_.run_until(next < target ? next : target);
    }
  };
  {
    PET_PROFILE_SCOPE(&profiler_, "pretrain");
    advance_to(cfg_.pretrain);
  }
  if (!cancelled) {
    mark_measurement_start();
    PET_PROFILE_SCOPE(&profiler_, "measure");
    advance_to(cfg_.pretrain + cfg_.measure);
  }
  if (completed != nullptr) *completed = !cancelled;
  return collect(measure_start_, sched_.now());
}

Metrics Experiment::collect(sim::Time from, sim::Time to) const {
  Metrics m;
  const auto& records = recorder_.records();
  const sim::Rate host_rate = cfg_.topo.host_link_rate();
  const sim::Time rtt = topo_.diameter_rtt(cfg_.dcqcn.mtu_bytes);
  m.overall = fct_bucket_overall(records, from, to, host_rate, rtt);
  m.mice = fct_bucket_mice(records, from, to, host_rate, rtt);
  m.elephants = fct_bucket_elephants(records, from, to, host_rate, rtt);
  m.latency_avg_us = recorder_.latency_stats().mean();
  m.latency_p99_us = recorder_.latency_percentile(99.0);
  m.queue_avg_kb = queue_probe_.stats().mean() / 1024.0;
  m.queue_std_kb = queue_probe_.stats().stddev() / 1024.0;
  m.flows_measured = static_cast<std::int64_t>(m.overall.count);
  m.flows_incomplete =
      transport_->flows_started() - transport_->flows_completed();
  m.switch_drops = net_.total_switch_drops();
  std::int64_t pauses = 0;
  for (const auto* sw : net_.switches()) pauses += sw->pfc_pauses_sent();
  m.pfc_pauses = pauses;
  return m;
}

}  // namespace pet::exp
