#pragma once
// PetAgent: one IPPO learner per switch (the DTDE paradigm). Every tuning
// interval (delta-t, Section 4.2.2) it closes the monitoring slot, rewards
// the previous action, builds the stacked six-factor state, samples the
// next ECN configuration and applies it to the switch's queues.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/action.hpp"
#include "core/guardrails.hpp"
#include "core/ncm.hpp"
#include "core/reward.hpp"
#include "core/state.hpp"
#include "net/red_ecn.hpp"
#include "net/switch.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "sim/checkpoint.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace pet::core {

struct PetAgentConfig {
  StateConfig state{};
  ActionSpace action_space{};
  RewardConfig reward{};
  NcmConfig ncm{};
  rl::PpoConfig ppo{};  // input_size/head_sizes derived automatically
  sim::Time tuning_interval = sim::microseconds(100);  // delta-t
  std::int32_t rollout_length = 64;  // transitions per PPO update
  // Exploration decay (Eq. (13)); the same schedule also anneals the
  // entropy bonus so early training stays diverse without freezing the
  // late policy.
  double explore_start = 0.3;
  double explore_min = 0.01;
  double entropy_start = 0.10;
  double entropy_min = 0.01;
  double decay_rate = 0.99;
  std::int32_t decay_T = 50;
  bool training = true;
  /// Health state machine + rollback/fallback policy (see guardrails.hpp).
  GuardrailConfig guardrails{};

  /// Paper defaults: gamma 0.99, GAE coefficient 0.01, lr 4e-4 / 1e-3,
  /// clip 0.2 (Section 5.2).
  [[nodiscard]] static PetAgentConfig paper_defaults();
};

/// Deployment-mode exploration, in place: perturb one randomly chosen head
/// by one level up or down, clamped to the head's range — a conservative
/// local probe instead of an arbitrary jump.
void local_exploration_step_inplace(std::span<std::int32_t> actions,
                                    const std::vector<std::int32_t>& head_sizes,
                                    sim::Rng& rng);

class PetAgent {
 public:
  /// If `shared_policy` is non-null the agent trains/acts through it
  /// (offline pre-training with parameter sharing); otherwise it owns an
  /// independent policy, as deployed DTDE agents do.
  PetAgent(sim::Scheduler& sched, net::SwitchDevice& sw,
           const PetAgentConfig& cfg, std::uint64_t seed,
           std::shared_ptr<rl::PpoAgent> shared_policy = nullptr);

  /// One tuning step; the controller calls this every tuning_interval.
  void tick();

  // --- split tick: batched policy inference across agents -------------------
  /// Result of the observation phase of one tuning step: the stacked state
  /// the policy will act on, plus whether this agent's action can be
  /// evaluated in a shared batched forward pass (training, non-deployment).
  struct TickPrep {
    std::vector<double> state;
    bool batched_act = false;
    /// Greedy deployment decision servable by a batched policy server
    /// (training, deployment mode): argmax per head plus the residual local
    /// exploration probe.
    bool serve_act = false;
  };

  /// Phase 1 of tick(): close the monitoring slot, run guardrails, build
  /// the state, reward the previous action and (if due) run the PPO update.
  /// Returns nullopt when the tick already completed (quarantine paths).
  [[nodiscard]] std::optional<TickPrep> tick_observe();

  /// Phase 2a (batched path): advance the step counter and set the
  /// policy's exploration/entropy schedule; returns the exploration rate to
  /// use for this agent's sample in the batched act.
  [[nodiscard]] double tick_begin_act();

  /// Phase 2b (batched path): install a policy decision computed by a
  /// batched act. Equivalent to the in-tick act with the same sample.
  void tick_finish_act(const TickPrep& prep, rl::PpoAgent::ActResult act);

  /// Apply the deployment-mode residual exploration to a greedy decision,
  /// in place. Both the policy-server path and the sequential deployment
  /// branch of tick_complete() call it, so a fp64-served run draws the same
  /// RNG sequence and is bitwise identical to the direct path over the same
  /// shared policy.
  void apply_serve_exploration(std::span<std::int32_t> actions, double explore);

  /// Phase 2 (sequential path): everything after tick_observe().
  void tick_complete(const TickPrep& prep);

  // --- replica-parallel rollout collection ----------------------------------
  /// When disabled, the agent keeps collecting transitions but never runs
  /// its own PPO update — a replica runner harvests the rollout and merges
  /// it with sibling replicas into one central update instead.
  void set_local_updates(bool enabled) { local_updates_ = enabled; }
  [[nodiscard]] bool local_updates() const { return local_updates_; }

  /// A harvested on-policy trajectory plus the critic bootstrap for the
  /// state following its last transition (the still-pending transition's
  /// value, or 0 when the episode produced none).
  struct Harvest {
    rl::RolloutBuffer rollout;
    double bootstrap = 0.0;
  };

  /// Move the collected rollout out of the agent (the buffer is left
  /// empty). The pending transition stays in place so a continuing episode
  /// remains consistent.
  [[nodiscard]] Harvest harvest_rollout();

  void set_training(bool training) { cfg_.training = training; }
  [[nodiscard]] bool training() const { return cfg_.training; }

  /// Pin the exploration rate (overriding the Eq. (13) schedule). The
  /// deployed online phase keeps a low, stable exploration rate
  /// (Section 4.4); pass a negative value to restore the schedule.
  void freeze_exploration(double rate) { frozen_exploration_ = rate; }

  /// Deployment mode: exploit the policy mode (argmax per head, with the
  /// residual exploration rate injecting rare random actions) while online
  /// incremental training continues in the background.
  void set_deployment_mode(bool deployed) { deployment_mode_ = deployed; }
  [[nodiscard]] bool deployment_mode() const { return deployment_mode_; }

  [[nodiscard]] rl::PpoAgent& policy() { return *policy_; }
  /// The agent's private action-sampling stream (batched acts draw from it
  /// in the agent's place so sequential and batched ticks match bitwise).
  [[nodiscard]] sim::Rng& action_rng() { return rng_; }
  [[nodiscard]] const rl::PpoAgent& policy() const { return *policy_; }
  [[nodiscard]] Ncm& ncm() { return ncm_; }
  [[nodiscard]] net::SwitchDevice& switch_device() { return sw_; }

  [[nodiscard]] std::int64_t steps() const { return steps_; }
  [[nodiscard]] const sim::RunningStats& reward_stats() const {
    return reward_stats_;
  }
  [[nodiscard]] const rl::PpoAgent::UpdateStats& last_update() const {
    return last_update_;
  }
  [[nodiscard]] std::int64_t updates() const { return updates_; }
  [[nodiscard]] const net::RedEcnConfig& current_config() const {
    return current_config_;
  }

  /// Reset per-episode learning state without touching the weights (used
  /// between offline pre-training episodes).
  void reset_episode();

  // --- guardrails / health state machine -----------------------------------
  using HealthListener = std::function<void(const HealthTransition&)>;

  [[nodiscard]] AgentHealth health() const { return health_; }
  [[nodiscard]] const std::vector<HealthTransition>& health_transitions()
      const {
    return transitions_;
  }
  /// Observer invoked on every health transition (telemetry hook).
  void set_health_listener(HealthListener listener) {
    health_listener_ = std::move(listener);
  }

  /// Weight snapshot in the pretrain-cache format (flat vector, storable
  /// via exp::WeightCache) and its inverse. restore() also resets the
  /// optimizer moments — they belong to the discarded trajectory.
  [[nodiscard]] std::vector<double> snapshot() const {
    return policy_->weights();
  }
  void restore(std::span<const double> weights);

  [[nodiscard]] const std::vector<double>& last_known_good() const {
    return last_good_;
  }
  [[nodiscard]] std::int64_t rollbacks() const { return rollbacks_; }
  [[nodiscard]] std::int64_t checkpoints() const { return checkpoints_; }

  /// Operator override: pull the agent out of service immediately (the same
  /// path a guardrail trip takes — fallback config, rollback, halt).
  void force_quarantine(const std::string& reason) { quarantine(reason); }

  // --- checkpointing (pet.ckpt/1 section payloads) --------------------------
  /// Full learning + guardrail + monitoring state. With `with_policy` false
  /// the policy network is skipped — used under parameter sharing, where
  /// the controller saves the shared policy exactly once.
  void save_state(sim::ByteSink& out, bool with_policy) const;
  /// Restores a save_state payload (same `with_policy` the save used);
  /// false on a corrupted payload or architecture mismatch.
  [[nodiscard]] bool load_state(sim::ByteSource& in, bool with_policy);

 private:
  void finalize_pending(const NcmSnapshot& snap,
                        const std::vector<double>& next_state);
  [[nodiscard]] double exploration_for_step(std::int64_t t) const;

  void transition(AgentHealth to, std::string reason);
  void quarantine(const std::string& reason);
  void check_telemetry(const NcmSnapshot& snap);
  /// Reason string if the update statistics trip a hard-fault guardrail.
  [[nodiscard]] std::optional<std::string> update_fault(
      const rl::PpoAgent::UpdateStats& stats) const;
  void maybe_checkpoint();

  sim::Scheduler& sched_;
  net::SwitchDevice& sw_;
  PetAgentConfig cfg_;
  Ncm ncm_;
  StateBuilder state_builder_;
  std::shared_ptr<rl::PpoAgent> policy_;
  sim::Rng rng_;

  rl::RolloutBuffer rollout_;
  std::optional<rl::Transition> pending_;
  net::RedEcnConfig current_config_;
  std::int64_t steps_ = 0;
  std::int64_t updates_ = 0;
  double frozen_exploration_ = -1.0;
  bool deployment_mode_ = false;
  bool local_updates_ = true;
  sim::RunningStats reward_stats_;
  rl::PpoAgent::UpdateStats last_update_{};

  // Guardrail state.
  AgentHealth health_ = AgentHealth::kHealthy;
  std::vector<HealthTransition> transitions_;
  HealthListener health_listener_;
  std::vector<double> last_good_;
  std::int64_t rollbacks_ = 0;
  std::int64_t checkpoints_ = 0;
  std::int32_t quarantine_remaining_ = 0;
  std::int32_t probation_clean_ = 0;
  std::int32_t stale_slots_ = 0;
  std::int32_t fresh_slots_ = 0;
};

}  // namespace pet::core
