#include "rl/ddqn.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include "rl/categorical.hpp"

namespace pet::rl {

DdqnAgent::DdqnAgent(const DdqnConfig& cfg,
                     std::shared_ptr<ReplayBuffer> replay,
                     std::int32_t agent_id)
    : cfg_(cfg),
      init_rng_(sim::derive_seed(cfg.seed, "ddqn-init") +
                static_cast<std::uint64_t>(agent_id)),
      replay_(std::move(replay)),
      agent_id_(agent_id),
      sample_rng_(sim::derive_seed(cfg.seed, "ddqn-sample") +
                  static_cast<std::uint64_t>(agent_id)) {
  assert(cfg.input_size > 0 && !cfg.head_sizes.empty());
  assert(replay_ != nullptr);
  for (const std::int32_t n : cfg.head_sizes) {
    std::vector<std::int32_t> sizes{cfg.input_size};
    sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
    sizes.push_back(n);
    online_.emplace_back(sizes, Activation::kRelu, init_rng_);
    target_.emplace_back(sizes, Activation::kRelu, init_rng_);
  }
  for (auto& net : online_) net.collect(online_refs_);
  for (auto& net : target_) net.collect(target_refs_);
  opt_ = std::make_unique<Adam>(
      online_refs_,
      AdamConfig{.lr = cfg.lr, .max_grad_norm = cfg.max_grad_norm});
  sync_target();
}

double DdqnAgent::epsilon() const {
  const double frac =
      std::min(1.0, static_cast<double>(observe_steps_) /
                        std::max(1, cfg_.epsilon_decay_steps));
  return cfg_.epsilon_start + frac * (cfg_.epsilon_end - cfg_.epsilon_start);
}

void DdqnAgent::q_values(std::span<const double> state,
                         std::vector<std::vector<double>>& q) const {
  q.resize(online_.size());
  for (std::size_t h = 0; h < online_.size(); ++h) {
    q[h] = online_[h].forward(state);
  }
}

std::vector<std::int32_t> DdqnAgent::act(std::span<const double> state,
                                         sim::Rng& rng) {
  std::vector<std::vector<double>> q;
  q_values(state, q);
  std::vector<std::int32_t> actions(q.size());
  const double eps = epsilon();
  for (std::size_t h = 0; h < q.size(); ++h) {
    actions[h] = rng.bernoulli(eps)
                     ? static_cast<std::int32_t>(rng.uniform_int(q[h].size()))
                     : argmax(q[h]);
  }
  return actions;
}

std::vector<std::int32_t> DdqnAgent::act_greedy(
    std::span<const double> state) const {
  std::vector<std::vector<double>> q;
  q_values(state, q);
  std::vector<std::int32_t> actions(q.size());
  for (std::size_t h = 0; h < q.size(); ++h) actions[h] = argmax(q[h]);
  return actions;
}

void DdqnAgent::observe(DqnTransition t) {
  ++observe_steps_;
  replay_->push(std::move(t), agent_id_);
}

void DdqnAgent::train_step() {
  if (replay_->size() < static_cast<std::size_t>(cfg_.batch_size)) return;
  const auto idx = replay_->sample_indices(
      static_cast<std::size_t>(cfg_.batch_size), sample_rng_);
  const auto batch = static_cast<std::int32_t>(idx.size());
  const double inv_b = 1.0 / static_cast<double>(idx.size());

  // Gather the minibatch into row-major (batch x input) planes.
  const auto in = static_cast<std::size_t>(cfg_.input_size);
  std::vector<double> states(idx.size() * in);
  std::vector<double> next_states(idx.size() * in);
  for (std::size_t s = 0; s < idx.size(); ++s) {
    const DqnTransition& tr = replay_->at(idx[s]);
    assert(tr.state.size() == in && tr.next_state.size() == in);
    std::copy(tr.state.begin(), tr.state.end(), states.begin() + s * in);
    std::copy(tr.next_state.begin(), tr.next_state.end(),
              next_states.begin() + s * in);
  }

  for (auto& net : online_) net.zero_grad();

  Mlp::BatchCache cache;
  for (std::size_t h = 0; h < online_.size(); ++h) {
    // Double-DQN target: online net picks the argmax, target net scores it.
    const std::vector<double> q_next_online =
        online_[h].forward_batch(next_states, batch);
    const std::vector<double> q_next_target =
        target_[h].forward_batch(next_states, batch);
    const std::vector<double> q_cur =
        online_[h].forward_batch(states, batch, &cache);

    // Each row's only nonzero gradient is at the action taken.
    const auto out = static_cast<std::size_t>(online_[h].output_size());
    std::vector<double> dq(q_cur.size(), 0.0);
    for (std::size_t s = 0; s < idx.size(); ++s) {
      const DqnTransition& tr = replay_->at(idx[s]);
      const std::size_t row = s * out;
      const std::int32_t best_next = argmax(
          std::span<const double>(q_next_online).subspan(row, out));
      const double target =
          tr.reward + cfg_.gamma * q_next_target[row + best_next];
      const std::size_t taken = row + tr.actions[h];
      const double err = q_cur[taken] - target;
      dq[taken] = 2.0 * err * inv_b;
    }
    online_[h].backward_batch(states, cache, dq, batch);
  }
  opt_->step();
  ++train_steps_;
  if (train_steps_ % cfg_.target_sync_interval == 0) sync_target();
}

void DdqnAgent::sync_target() {
  restore_params(target_refs_, snapshot_params(online_refs_));
}

void DdqnAgent::set_lr(double lr) { opt_->set_lr(lr); }
double DdqnAgent::lr() const { return opt_->lr(); }

std::vector<double> DdqnAgent::weights() const {
  return snapshot_params(online_refs_);
}

std::size_t DdqnAgent::num_params() const { return online_refs_.size(); }

bool DdqnAgent::set_weights(std::span<const double> values) {
  if (values.size() != online_refs_.size()) {
    std::fprintf(stderr,
                 "  [ddqn] ERROR: weight vector has %zu values but the "
                 "network has %zu parameters; keeping current model\n",
                 values.size(), online_refs_.size());
    return false;
  }
  restore_params(online_refs_, values);
  sync_target();
  return true;
}

void DdqnAgent::save_state(sim::ByteSink& out) const {
  out.i32(cfg_.input_size);
  out.i32_vec(cfg_.head_sizes);
  out.i32_vec(cfg_.hidden);
  out.u64(online_refs_.size());
  out.f64_vec(snapshot_params(online_refs_));
  out.f64_vec(snapshot_params(target_refs_));
  opt_->save_state(out);
  out.i64(observe_steps_);
  out.i64(train_steps_);
  sim::save_rng(out, sample_rng_);
}

bool DdqnAgent::load_state(sim::ByteSource& in) {
  const std::int32_t input_size = in.i32();
  const std::vector<std::int32_t> head_sizes = in.i32_vec();
  const std::vector<std::int32_t> hidden = in.i32_vec();
  const std::uint64_t num = in.u64();
  if (!in.ok() || input_size != cfg_.input_size ||
      head_sizes != cfg_.head_sizes || hidden != cfg_.hidden ||
      num != online_refs_.size()) {
    return false;
  }
  const std::vector<double> online = in.f64_vec();
  const std::vector<double> target = in.f64_vec();
  if (!in.ok() || online.size() != online_refs_.size() ||
      target.size() != target_refs_.size()) {
    return false;
  }
  if (!opt_->load_state(in)) return false;
  const std::int64_t observe_steps = in.i64();
  const std::int64_t train_steps = in.i64();
  if (!in.ok()) return false;
  if (!load_rng(in, sample_rng_)) return false;
  restore_params(online_refs_, online);
  restore_params(target_refs_, target);
  observe_steps_ = observe_steps;
  train_steps_ = train_steps;
  return true;
}

}  // namespace pet::rl
