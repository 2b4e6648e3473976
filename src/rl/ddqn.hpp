#pragma once
// Double DQN (van Hasselt et al. 2016) with action branching: one Q-value
// head per action dimension, the factored-discrete analogue of PET's
// categorical heads. This is the learning algorithm ACC runs; unlike IPPO
// it trains from (optionally global/shared) experience replay.

#include <cstdint>
#include <memory>
#include <vector>

#include "rl/adam.hpp"
#include "rl/mlp.hpp"
#include "rl/replay.hpp"
#include "sim/checkpoint.hpp"
#include "sim/rng.hpp"

namespace pet::rl {

struct DdqnConfig {
  std::int32_t input_size = 0;
  std::vector<std::int32_t> head_sizes;
  std::vector<std::int32_t> hidden = {64, 64};
  double lr = 1e-3;
  double gamma = 0.99;
  double epsilon_start = 1.0;
  double epsilon_end = 0.05;
  std::int32_t epsilon_decay_steps = 2000;
  std::int32_t batch_size = 32;
  std::int32_t target_sync_interval = 200;  // gradient steps
  double max_grad_norm = 1.0;
  std::uint64_t seed = 0;
};

class DdqnAgent {
 public:
  /// `replay` may be shared between agents (ACC's global experience
  /// replay) or exclusive.
  DdqnAgent(const DdqnConfig& cfg, std::shared_ptr<ReplayBuffer> replay,
            std::int32_t agent_id);

  /// Epsilon-greedy action (one index per head).
  [[nodiscard]] std::vector<std::int32_t> act(std::span<const double> state,
                                              sim::Rng& rng);
  [[nodiscard]] std::vector<std::int32_t> act_greedy(
      std::span<const double> state) const;

  /// Store a transition and advance the epsilon schedule.
  void observe(DqnTransition t);

  /// One gradient step from a replay minibatch (no-op until the buffer has
  /// at least one batch). The minibatch runs through each head as one
  /// forward_batch/backward_batch pass; the result is bitwise identical to
  /// taking the samples one at a time in draw order.
  void train_step();

  [[nodiscard]] double epsilon() const;
  [[nodiscard]] std::int64_t train_steps() const { return train_steps_; }
  [[nodiscard]] ReplayBuffer& replay() { return *replay_; }
  [[nodiscard]] std::int32_t agent_id() const { return agent_id_; }

  [[nodiscard]] std::vector<double> weights() const;
  /// Installs a full online-net snapshot (and syncs the target net).
  /// Returns false and keeps the current model on a size mismatch.
  [[nodiscard]] bool set_weights(std::span<const double> values);
  [[nodiscard]] std::size_t num_params() const;

  void set_lr(double lr);
  [[nodiscard]] double lr() const;

  // --- checkpointing (pet.ckpt/1 section payloads) --------------------------
  /// Online + target parameters, optimizer trajectory, epsilon-schedule
  /// counters, and the replay-sampling RNG position. The replay buffer is
  /// shared between agents and checkpointed separately by its owner.
  void save_state(sim::ByteSink& out) const;
  /// Restores a save_state payload; false (agent untouched) on an
  /// architecture mismatch or corrupted payload.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

 private:
  void sync_target();
  void q_values(std::span<const double> state,
                std::vector<std::vector<double>>& q) const;

  DdqnConfig cfg_;
  sim::Rng init_rng_;
  std::vector<Mlp> online_;  // one net per head
  std::vector<Mlp> target_;
  ParamRefs online_refs_;
  ParamRefs target_refs_;
  std::unique_ptr<Adam> opt_;
  std::shared_ptr<ReplayBuffer> replay_;
  std::int32_t agent_id_;
  std::int64_t observe_steps_ = 0;
  std::int64_t train_steps_ = 0;
  sim::Rng sample_rng_;
};

}  // namespace pet::rl
