#include "core/pet_agent.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "sim/log.hpp"

namespace pet::core {

namespace {
bool all_finite(std::span<const double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}
}  // namespace

PetAgentConfig PetAgentConfig::paper_defaults() {
  PetAgentConfig cfg;
  cfg.ppo.actor_lr = 4e-4;
  cfg.ppo.critic_lr = 1e-3;
  cfg.ppo.gamma = 0.99;
  cfg.ppo.gae_lambda = 0.01;  // "coefficient of GAE" (Section 5.2)
  cfg.ppo.clip_eps = 0.2;
  cfg.decay_rate = 0.99;
  cfg.decay_T = 50;
  return cfg;
}

PetAgent::PetAgent(sim::Scheduler& sched, net::SwitchDevice& sw,
                   const PetAgentConfig& cfg, std::uint64_t seed,
                   std::shared_ptr<rl::PpoAgent> shared_policy)
    : sched_(sched),
      sw_(sw),
      cfg_(cfg),
      ncm_(sched, sw, cfg.ncm),
      state_builder_(cfg.state, cfg.action_space),
      rng_(sim::derive_seed(seed, "pet-agent") +
           static_cast<std::uint64_t>(sw.id())) {
  if (shared_policy != nullptr) {
    policy_ = std::move(shared_policy);
    assert(policy_->config().input_size == state_builder_.state_size());
  } else {
    rl::PpoConfig ppo = cfg_.ppo;
    ppo.input_size = state_builder_.state_size();
    ppo.head_sizes = cfg_.action_space.head_sizes();
    ppo.seed = sim::derive_seed(seed, "pet-policy") +
               static_cast<std::uint64_t>(sw.id());
    policy_ = std::make_shared<rl::PpoAgent>(ppo);
  }
  // The switch starts from whatever static config it carries; remember it
  // as "current" so the first state's ECN^(c) component is truthful.
  current_config_ = sw_.port(0).ecn_config(0);
  // A rollback target must exist from the first tick; the initial weights
  // are the first last-known-good snapshot.
  if (cfg_.guardrails.enabled) last_good_ = policy_->weights();
}

void PetAgent::restore(std::span<const double> weights) {
  // Rollback snapshots come from this same policy, so a size mismatch is a
  // programming error, not a runtime condition.
  const bool ok = policy_->set_weights(weights);
  assert(ok && "rollback snapshot must match the policy architecture");
  static_cast<void>(ok);
  policy_->reset_optimizers();
}

void PetAgent::transition(AgentHealth to, std::string reason) {
  if (to == health_) return;
  PET_LOG_WARN(sched_, "%s agent: %s -> %s (%s)", sw_.name().c_str(),
               health_name(health_), health_name(to), reason.c_str());
  HealthTransition tr{sched_.now(), sw_.id(), health_, to, std::move(reason)};
  health_ = to;
  transitions_.push_back(tr);
  if (health_listener_) health_listener_(transitions_.back());
}

void PetAgent::quarantine(const std::string& reason) {
  transition(AgentHealth::kQuarantined, reason);
  quarantine_remaining_ = std::max(1, cfg_.guardrails.quarantine_ticks);
  probation_clean_ = 0;
  // The experience gathered under the bad policy is poisoned; drop it.
  rollout_.clear();
  pending_.reset();
  state_builder_.reset();
  // Roll back to the last-known-good weights (with fresh optimizer moments
  // — the old ones may carry the NaN that broke the policy).
  if (!last_good_.empty()) {
    restore(last_good_);
    ++rollbacks_;
  }
  // The switch must keep forwarding sanely without its tuner: fall back to
  // the static DCQCN-style thresholds until the agent is back in service.
  current_config_ = cfg_.guardrails.fallback_ecn.clamped();
  sw_.install_ecn(current_config_);
}

void PetAgent::check_telemetry(const NcmSnapshot& snap) {
  if (snap.packets_seen == 0) {
    ++stale_slots_;
    fresh_slots_ = 0;
  } else {
    ++fresh_slots_;
    stale_slots_ = 0;
  }
  const auto& gr = cfg_.guardrails;
  if (health_ == AgentHealth::kHealthy && gr.stale_telemetry_slots > 0 &&
      stale_slots_ >= gr.stale_telemetry_slots) {
    transition(AgentHealth::kDegraded, "stale telemetry");
  } else if (health_ == AgentHealth::kDegraded &&
             fresh_slots_ >= gr.degraded_recovery_slots) {
    transition(AgentHealth::kHealthy, "telemetry recovered");
  }
}

std::optional<std::string> PetAgent::update_fault(
    const rl::PpoAgent::UpdateStats& stats) const {
  const auto& gr = cfg_.guardrails;
  if (!std::isfinite(stats.policy_loss) || !std::isfinite(stats.value_loss) ||
      !std::isfinite(stats.entropy) || !std::isfinite(stats.approx_kl)) {
    return "non-finite update stats";
  }
  if (std::abs(stats.policy_loss) > gr.max_abs_policy_loss) {
    return "exploding policy loss";
  }
  if (stats.value_loss > gr.max_value_loss) return "exploding value loss";
  if (updates_ > gr.entropy_grace_updates && stats.entropy < gr.min_entropy) {
    return "entropy collapse";
  }
  return std::nullopt;
}

void PetAgent::maybe_checkpoint() {
  const auto& gr = cfg_.guardrails;
  if (gr.checkpoint_interval_updates <= 0) return;
  if (updates_ % gr.checkpoint_interval_updates != 0) return;
  std::vector<double> w = policy_->weights();
  if (!all_finite(w)) return;  // never save a poisoned checkpoint
  last_good_ = std::move(w);
  ++checkpoints_;
}

double PetAgent::exploration_for_step(std::int64_t t) const {
  if (frozen_exploration_ >= 0.0) return frozen_exploration_;
  // Eq. (13): epsilon_t = decay_rate^(t/T) * epsilon for t > T.
  if (t <= cfg_.decay_T) return cfg_.explore_start;
  const double e =
      std::pow(cfg_.decay_rate,
               static_cast<double>(t) / static_cast<double>(cfg_.decay_T)) *
      cfg_.explore_start;
  return std::max(cfg_.explore_min, e);
}

void local_exploration_step_inplace(std::span<std::int32_t> actions,
                                    const std::vector<std::int32_t>& head_sizes,
                                    sim::Rng& rng) {
  const std::size_t h = rng.uniform_int(head_sizes.size());
  const std::int32_t step = rng.bernoulli(0.5) ? 1 : -1;
  actions[h] = std::clamp(actions[h] + step, 0, head_sizes[h] - 1);
}

void PetAgent::finalize_pending(const NcmSnapshot& snap,
                                const std::vector<double>& /*next_state*/) {
  if (!pending_.has_value()) return;
  pending_->reward = compute_reward(cfg_.reward, snap);
  reward_stats_.add(pending_->reward);
  rollout_.push(std::move(*pending_));
  pending_.reset();
}

void PetAgent::tick() {
  const std::optional<TickPrep> prep = tick_observe();
  if (!prep.has_value()) return;
  tick_complete(*prep);
}

std::optional<PetAgent::TickPrep> PetAgent::tick_observe() {
  // 1. Close the monitoring slot; its statistics are the outcome of the
  //    previous action.
  const NcmSnapshot snap = ncm_.sample();
  const bool guarded = cfg_.guardrails.enabled;
  if (guarded) check_telemetry(snap);

  // A quarantined agent holds the static fallback and does not act or
  // train; it re-enters service on probation once the timer expires.
  if (health_ == AgentHealth::kQuarantined) {
    if (--quarantine_remaining_ <= 0) {
      transition(AgentHealth::kProbation, "quarantine elapsed");
      probation_clean_ = 0;
    }
    return std::nullopt;
  }

  state_builder_.push_slot(snap, current_config_);
  TickPrep prep;
  prep.state = state_builder_.state();
  if (guarded && !all_finite(prep.state)) {
    // Corrupted telemetry must never reach the policy network.
    quarantine("non-finite state vector");
    return std::nullopt;
  }

  finalize_pending(snap, prep.state);

  // 2. Learn once enough on-policy experience accumulated. With local
  //    updates deferred, the buffer keeps growing until a replica runner
  //    harvests it for a merged cross-replica update.
  if (cfg_.training && local_updates_ &&
      rollout_.size() >= static_cast<std::size_t>(cfg_.rollout_length)) {
    const double bootstrap = policy_->value(prep.state);
    last_update_ = policy_->update(rollout_, bootstrap);
    rollout_.clear();
    ++updates_;
    if (guarded) {
      if (auto fault = update_fault(last_update_)) {
        quarantine(*fault);
        return std::nullopt;
      }
      maybe_checkpoint();
    }
  }

  prep.batched_act = cfg_.training && !deployment_mode_;
  prep.serve_act = cfg_.training && deployment_mode_;
  return prep;
}

void PetAgent::apply_serve_exploration(std::span<std::int32_t> actions,
                                       double explore) {
  // One bernoulli gate, then (rarely) one conservative single-head
  // perturbation: deployed switches probe one head one level up or down,
  // never jump to an arbitrary threshold mid-production.
  if (explore <= 0.0 || !rng_.bernoulli(explore)) return;
  local_exploration_step_inplace(actions, cfg_.action_space.head_sizes(), rng_);
}

double PetAgent::tick_begin_act() {
  ++steps_;
  const double explore = health_ == AgentHealth::kProbation
                             ? cfg_.guardrails.probation_exploration
                             : exploration_for_step(steps_);
  policy_->set_exploration_rate(explore);
  const double frac = cfg_.explore_start > 0.0
                          ? exploration_for_step(steps_) / cfg_.explore_start
                          : 0.0;
  policy_->set_entropy_coef(
      std::max(cfg_.entropy_min, cfg_.entropy_start * std::min(1.0, frac)));
  return explore;
}

void PetAgent::tick_finish_act(const TickPrep& prep,
                               rl::PpoAgent::ActResult act) {
  if (cfg_.guardrails.enabled &&
      (!std::isfinite(act.log_prob) || !std::isfinite(act.value))) {
    // NaN/Inf in the policy outputs: never actuate from a broken network.
    quarantine("non-finite policy output");
    return;
  }
  current_config_ = cfg_.action_space.to_config(act.actions);
  pending_ = rl::Transition{.state = prep.state,
                            .actions = std::move(act.actions),
                            .log_prob = act.log_prob,
                            .value = act.value,
                            .reward = 0.0};
  sw_.install_ecn(current_config_);

  if (health_ == AgentHealth::kProbation &&
      ++probation_clean_ >= cfg_.guardrails.probation_ticks) {
    transition(AgentHealth::kHealthy, "probation served");
  }
}

void PetAgent::tick_complete(const TickPrep& prep) {
  const bool guarded = cfg_.guardrails.enabled;
  // 3. Select and apply the next ECN configuration.
  if (cfg_.training) {
    (void)tick_begin_act();
    rl::PpoAgent::ActResult act;
    if (deployment_mode_) {
      // Exploit the mode; keep the transition PPO-consistent by scoring the
      // chosen action under the current policy's logits.
      const double explore = policy_->exploration_rate();
      act = policy_->act_greedy_scored(
          prep.state, [&](std::span<std::int32_t> actions) {
            apply_serve_exploration(actions, explore);
          });
    } else {
      act = policy_->act(prep.state, rng_);
    }
    tick_finish_act(prep, std::move(act));
  } else {
    ++steps_;
    if (guarded && !std::isfinite(policy_->value(prep.state))) {
      quarantine("non-finite policy output");
      return;
    }
    const std::vector<std::int32_t> actions = policy_->act_greedy(prep.state);
    current_config_ = cfg_.action_space.to_config(actions);
    sw_.install_ecn(current_config_);

    if (health_ == AgentHealth::kProbation &&
        ++probation_clean_ >= cfg_.guardrails.probation_ticks) {
      transition(AgentHealth::kHealthy, "probation served");
    }
  }
}

PetAgent::Harvest PetAgent::harvest_rollout() {
  Harvest h;
  h.rollout = std::move(rollout_);
  rollout_.clear();
  h.bootstrap = pending_.has_value() ? pending_->value : 0.0;
  return h;
}

void PetAgent::reset_episode() {
  rollout_.clear();
  pending_.reset();
  state_builder_.reset();
}

namespace {

void save_transition(sim::ByteSink& out, const rl::Transition& t) {
  out.f64_vec(t.state);
  out.i32_vec(t.actions);
  out.f64(t.log_prob);
  out.f64(t.value);
  out.f64(t.reward);
}

[[nodiscard]] rl::Transition load_transition(sim::ByteSource& in) {
  rl::Transition t;
  t.state = in.f64_vec();
  t.actions = in.i32_vec();
  t.log_prob = in.f64();
  t.value = in.f64();
  t.reward = in.f64();
  return t;
}

}  // namespace

void PetAgent::save_state(sim::ByteSink& out, bool with_policy) const {
  if (with_policy) policy_->save_state(out);
  sim::save_rng(out, rng_);
  out.i64(steps_);
  out.i64(updates_);
  out.f64(frozen_exploration_);
  out.u8(deployment_mode_ ? 1 : 0);
  out.u8(local_updates_ ? 1 : 0);
  reward_stats_.save_state(out);
  out.f64(last_update_.policy_loss);
  out.f64(last_update_.value_loss);
  out.f64(last_update_.entropy);
  out.f64(last_update_.approx_kl);
  out.i32(last_update_.minibatches);
  out.u8(static_cast<std::uint8_t>(health_));
  out.u64(transitions_.size());
  for (const HealthTransition& t : transitions_) {
    out.i64(t.at.ps());
    out.i32(t.switch_id);
    out.u8(static_cast<std::uint8_t>(t.from));
    out.u8(static_cast<std::uint8_t>(t.to));
    out.str(t.reason);
  }
  out.f64_vec(last_good_);
  out.i64(rollbacks_);
  out.i64(checkpoints_);
  out.i32(quarantine_remaining_);
  out.i32(probation_clean_);
  out.i32(stale_slots_);
  out.i32(fresh_slots_);
  out.i64(current_config_.kmin_bytes);
  out.i64(current_config_.kmax_bytes);
  out.f64(current_config_.pmax);
  out.u8(pending_.has_value() ? 1 : 0);
  if (pending_.has_value()) save_transition(out, *pending_);
  out.u64(rollout_.size());
  for (const rl::Transition& t : rollout_.items()) save_transition(out, t);
  state_builder_.save_state(out);
  ncm_.save_state(out);
}

bool PetAgent::load_state(sim::ByteSource& in, bool with_policy) {
  if (with_policy && !policy_->load_state(in)) return false;
  if (!sim::load_rng(in, rng_)) return false;
  steps_ = in.i64();
  updates_ = in.i64();
  frozen_exploration_ = in.f64();
  deployment_mode_ = in.u8() != 0;
  local_updates_ = in.u8() != 0;
  if (!reward_stats_.load_state(in)) return false;
  last_update_.policy_loss = in.f64();
  last_update_.value_loss = in.f64();
  last_update_.entropy = in.f64();
  last_update_.approx_kl = in.f64();
  last_update_.minibatches = in.i32();
  health_ = static_cast<AgentHealth>(in.u8());
  const std::uint64_t transition_count = in.u64();
  if (!in.ok()) return false;
  transitions_.clear();
  for (std::uint64_t i = 0; i < transition_count; ++i) {
    HealthTransition t;
    t.at = sim::Time(in.i64());
    t.switch_id = in.i32();
    t.from = static_cast<AgentHealth>(in.u8());
    t.to = static_cast<AgentHealth>(in.u8());
    t.reason = in.str();
    transitions_.push_back(std::move(t));
  }
  last_good_ = in.f64_vec();
  rollbacks_ = in.i64();
  checkpoints_ = in.i64();
  quarantine_remaining_ = in.i32();
  probation_clean_ = in.i32();
  stale_slots_ = in.i32();
  fresh_slots_ = in.i32();
  current_config_.kmin_bytes = in.i64();
  current_config_.kmax_bytes = in.i64();
  current_config_.pmax = in.f64();
  const bool has_pending = in.u8() != 0;
  pending_.reset();
  if (has_pending) pending_ = load_transition(in);
  const std::uint64_t rollout_count = in.u64();
  if (!in.ok()) return false;
  rollout_.clear();
  for (std::uint64_t i = 0; i < rollout_count; ++i) {
    rollout_.push(load_transition(in));
  }
  if (!state_builder_.load_state(in)) return false;
  if (!ncm_.load_state(in)) return false;
  return in.ok();
}

}  // namespace pet::core
