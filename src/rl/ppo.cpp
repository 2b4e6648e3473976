#include "rl/ppo.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "rl/categorical.hpp"
#include "rl/gae.hpp"

namespace pet::rl {

PpoAgent::PpoAgent(const PpoConfig& cfg)
    : cfg_(cfg),
      init_rng_(sim::derive_seed(cfg.seed, "ppo-init")),
      critic_([&] {
        std::vector<std::int32_t> sizes{cfg.input_size};
        sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
        sizes.push_back(1);
        return Mlp(sizes, Activation::kTanh, init_rng_);
      }()),
      shuffle_rng_(sim::derive_seed(cfg.seed, "ppo-shuffle")) {
  assert(cfg.input_size > 0 && !cfg.head_sizes.empty());
  actor_heads_.reserve(cfg.head_sizes.size());
  for (const std::int32_t n : cfg.head_sizes) {
    std::vector<std::int32_t> sizes{cfg.input_size};
    sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
    sizes.push_back(n);
    actor_heads_.emplace_back(sizes, Activation::kTanh, init_rng_);
  }
  for (auto& head : actor_heads_) head.collect(actor_refs_);
  critic_.collect(critic_refs_);
  refs_ = actor_refs_;
  refs_.spans.insert(refs_.spans.end(), critic_refs_.spans.begin(),
                     critic_refs_.spans.end());
  actor_opt_ = std::make_unique<Adam>(
      actor_refs_,
      AdamConfig{.lr = cfg.actor_lr, .max_grad_norm = cfg.max_grad_norm});
  critic_opt_ = std::make_unique<Adam>(
      critic_refs_,
      AdamConfig{.lr = cfg.critic_lr, .max_grad_norm = cfg.max_grad_norm});
}

void PpoAgent::head_logits(std::span<const double> state,
                           std::vector<std::vector<double>>& logits) const {
  logits.resize(actor_heads_.size());
  for (std::size_t h = 0; h < actor_heads_.size(); ++h) {
    logits[h] = actor_heads_[h].forward(state);
  }
}

void PpoAgent::head_logits_batch(std::span<const double> states,
                                 std::int32_t batch,
                                 std::vector<std::vector<double>>& logits,
                                 std::vector<Mlp::BatchCache>* caches) const {
  logits.resize(actor_heads_.size());
  if (caches != nullptr) caches->resize(actor_heads_.size());
  for (std::size_t h = 0; h < actor_heads_.size(); ++h) {
    logits[h] = actor_heads_[h].forward_batch(
        states, batch, caches != nullptr ? &(*caches)[h] : nullptr);
  }
}

PpoAgent::ActResult PpoAgent::act(std::span<const double> state,
                                  sim::Rng& rng) {
  std::vector<std::vector<double>> logits;
  head_logits(state, logits);
  ActResult out;
  out.actions.resize(logits.size());
  for (std::size_t h = 0; h < logits.size(); ++h) {
    const std::vector<double> probs = softmax(logits[h]);
    std::int32_t a;
    if (exploration_rate_ > 0.0 && rng.bernoulli(exploration_rate_)) {
      a = static_cast<std::int32_t>(rng.uniform_int(probs.size()));
    } else {
      a = sample(probs, rng);
    }
    out.actions[h] = a;
    out.log_prob += log_prob(logits[h], a);
  }
  out.value = value(state);
  return out;
}

std::vector<PpoAgent::ActResult> PpoAgent::act_batch(
    std::span<const double> states, std::int32_t batch,
    std::span<sim::Rng* const> rngs, std::span<const double> exploration) {
  assert(static_cast<std::int32_t>(rngs.size()) == batch);
  assert(static_cast<std::int32_t>(exploration.size()) == batch);
  std::vector<std::vector<double>> logits;
  head_logits_batch(states, batch, logits);
  const std::vector<double> values = value_batch(states, batch);

  std::vector<ActResult> out(static_cast<std::size_t>(batch));
  std::vector<double> probs;
  for (std::int32_t s = 0; s < batch; ++s) {
    ActResult& r = out[static_cast<std::size_t>(s)];
    r.actions.resize(logits.size());
    // Per sample, heads are visited in the same order as act(), drawing
    // from that sample's own RNG — bitwise identical decisions.
    for (std::size_t h = 0; h < logits.size(); ++h) {
      const auto nh = static_cast<std::size_t>(actor_heads_[h].output_size());
      const std::span<const double> row(
          &logits[h][static_cast<std::size_t>(s) * nh], nh);
      probs.resize(nh);
      softmax(row, probs);
      std::int32_t a;
      if (exploration[s] > 0.0 && rngs[s]->bernoulli(exploration[s])) {
        a = static_cast<std::int32_t>(rngs[s]->uniform_int(probs.size()));
      } else {
        a = sample(probs, *rngs[s]);
      }
      r.actions[h] = a;
      r.log_prob += log_prob(row, a);
    }
    r.value = values[static_cast<std::size_t>(s)];
  }
  return out;
}

std::vector<std::int32_t> PpoAgent::act_greedy(
    std::span<const double> state) const {
  std::vector<std::vector<double>> logits;
  head_logits(state, logits);
  std::vector<std::int32_t> actions(logits.size());
  for (std::size_t h = 0; h < logits.size(); ++h) {
    actions[h] = argmax(logits[h]);
  }
  return actions;
}

double PpoAgent::value(std::span<const double> state) const {
  return critic_.forward(state)[0];
}

std::vector<double> PpoAgent::value_batch(std::span<const double> states,
                                          std::int32_t batch) const {
  // Critic output size is 1, so the (batch x 1) result is already the flat
  // vector of values.
  return critic_.forward_batch(states, batch);
}

std::vector<PpoAgent::Evaluation> PpoAgent::evaluate_batch(
    std::span<const double> states, std::span<const std::int32_t> actions,
    std::int32_t batch) const {
  const std::size_t num_heads = actor_heads_.size();
  assert(actions.size() == static_cast<std::size_t>(batch) * num_heads);
  std::vector<std::vector<double>> logits;
  head_logits_batch(states, batch, logits);
  const std::vector<double> values = value_batch(states, batch);

  std::vector<Evaluation> out(static_cast<std::size_t>(batch));
  for (std::int32_t s = 0; s < batch; ++s) {
    Evaluation& ev = out[static_cast<std::size_t>(s)];
    for (std::size_t h = 0; h < num_heads; ++h) {
      const auto nh = static_cast<std::size_t>(actor_heads_[h].output_size());
      const std::span<const double> row(
          &logits[h][static_cast<std::size_t>(s) * nh], nh);
      ev.log_prob +=
          log_prob(row, actions[static_cast<std::size_t>(s) * num_heads + h]);
    }
    ev.value = values[static_cast<std::size_t>(s)];
  }
  return out;
}

PpoAgent::Evaluation PpoAgent::evaluate(
    std::span<const double> state, std::span<const std::int32_t> actions) const {
  std::vector<std::vector<double>> logits;
  head_logits(state, logits);
  Evaluation out;
  for (std::size_t h = 0; h < logits.size(); ++h) {
    out.log_prob += log_prob(logits[h], actions[h]);
  }
  out.value = value(state);
  return out;
}

PpoAgent::UpdateStats PpoAgent::update(const RolloutBuffer& buffer,
                                       double bootstrap_value) {
  const RolloutSlice slice{&buffer, bootstrap_value};
  return update_merged({&slice, 1});
}

PpoAgent::UpdateStats PpoAgent::update_merged(
    std::span<const RolloutSlice> slices) {
  UpdateStats stats;

  // Per-slice GAE (trajectories from different replicas must not bleed
  // into each other), concatenated in slice order so the merged batch is
  // deterministic for a given slice ordering.
  std::vector<const Transition*> items;
  std::vector<double> advantages;
  std::vector<double> returns;
  for (const RolloutSlice& slice : slices) {
    if (slice.buffer == nullptr || slice.buffer->empty()) continue;
    const auto& its = slice.buffer->items();
    const std::size_t len = its.size();
    std::vector<double> rewards(len);
    std::vector<double> values(len);
    for (std::size_t i = 0; i < len; ++i) {
      rewards[i] = its[i].reward;
      values[i] = its[i].value;
    }
    const GaeResult gae = compute_gae(rewards, values, slice.bootstrap_value,
                                      cfg_.gamma, cfg_.gae_lambda);
    for (std::size_t i = 0; i < len; ++i) {
      items.push_back(&its[i]);
      advantages.push_back(gae.advantages[i]);
      returns.push_back(gae.returns[i]);
    }
  }
  const std::size_t n = items.size();
  if (n == 0) return stats;
  normalize(advantages);

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  const auto batch =
      static_cast<std::size_t>(std::max<std::int32_t>(1, cfg_.minibatch_size));
  const auto input = static_cast<std::size_t>(cfg_.input_size);
  const std::size_t num_heads = actor_heads_.size();
  double total_policy = 0.0;
  double total_value = 0.0;
  double total_entropy = 0.0;
  double total_kl = 0.0;
  std::size_t total_samples = 0;

  // Minibatch scratch, reused across iterations.
  std::vector<double> states;
  std::vector<std::vector<double>> logits;
  std::vector<Mlp::BatchCache> caches;
  std::vector<std::vector<double>> probs(num_heads);
  std::vector<std::vector<double>> dlogits(num_heads);
  std::vector<double> new_logp;
  std::vector<double> ent;
  std::vector<double> dlogp;
  std::vector<double> dv;

  for (std::int32_t epoch = 0; epoch < cfg_.update_epochs; ++epoch) {
    // Fisher-Yates shuffle for decorrelated minibatches.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[shuffle_rng_.uniform_int(i)]);
    }
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t end = std::min(n, start + batch);
      const std::size_t bs = end - start;
      const auto bsz = static_cast<std::int32_t>(bs);
      const double inv_b = 1.0 / static_cast<double>(bs);

      for (auto& head : actor_heads_) head.zero_grad();
      critic_.zero_grad();

      // Gather the minibatch into one row-major (bs x input) matrix and
      // evaluate every head and the critic once per minibatch (the blocked
      // batch kernels), instead of once per sample.
      states.resize(bs * input);
      for (std::size_t k = 0; k < bs; ++k) {
        const Transition& tr = *items[order[start + k]];
        std::copy(tr.state.begin(), tr.state.end(),
                  states.begin() + static_cast<std::ptrdiff_t>(k * input));
      }
      head_logits_batch(states, bsz, logits, &caches);
      Mlp::BatchCache vcache;
      const std::vector<double> v = critic_.forward_batch(states, bsz, &vcache);

      // Per-sample distributions and joint log-probs. Heads accumulate into
      // new_logp in ascending order, matching the unbatched path exactly.
      new_logp.assign(bs, 0.0);
      ent.assign(bs, 0.0);
      for (std::size_t h = 0; h < num_heads; ++h) {
        const auto nh = static_cast<std::size_t>(actor_heads_[h].output_size());
        probs[h].resize(bs * nh);
        for (std::size_t k = 0; k < bs; ++k) {
          const Transition& tr = *items[order[start + k]];
          const std::span<const double> lrow(&logits[h][k * nh], nh);
          const std::span<double> prow(&probs[h][k * nh], nh);
          softmax(lrow, prow);
          new_logp[k] += log_prob(lrow, tr.actions[h]);
          ent[k] += entropy(prow);
        }
      }

      // Surrogate losses and the scalar upstream gradients.
      dlogp.resize(bs);
      dv.resize(bs);
      for (std::size_t k = 0; k < bs; ++k) {
        const Transition& tr = *items[order[start + k]];
        const double adv = advantages[order[start + k]];
        const double ret = returns[order[start + k]];

        const double ratio = std::exp(new_logp[k] - tr.log_prob);
        const double clipped =
            std::clamp(ratio, 1.0 - cfg_.clip_eps, 1.0 + cfg_.clip_eps);
        const double surr1 = ratio * adv;
        const double surr2 = clipped * adv;

        // Gradient of -min(surr1, surr2) w.r.t. new_logp: flows only when
        // the unclipped branch is active (min picks it / clip not binding).
        dlogp[k] = (surr1 <= surr2) ? (-adv * ratio) * inv_b : 0.0;

        const double verr = v[k] - ret;
        dv[k] = 2.0 * verr * inv_b;

        total_policy += -std::min(surr1, surr2);
        total_value += verr * verr;
        total_entropy += ent[k];
        total_kl += tr.log_prob - new_logp[k];
        ++total_samples;
      }

      // One batched backward per head + critic.
      for (std::size_t h = 0; h < num_heads; ++h) {
        const auto nh = static_cast<std::size_t>(actor_heads_[h].output_size());
        dlogits[h].assign(bs * nh, 0.0);
        for (std::size_t k = 0; k < bs; ++k) {
          const Transition& tr = *items[order[start + k]];
          const std::span<const double> prow(&probs[h][k * nh], nh);
          const std::span<double> drow(&dlogits[h][k * nh], nh);
          log_prob_grad(prow, tr.actions[h], dlogp[k], drow);
          entropy_grad(prow, -cfg_.entropy_coef * inv_b, drow);
        }
        actor_heads_[h].backward_batch(states, caches[h], dlogits[h], bsz);
      }
      critic_.backward_batch(states, vcache, dv, bsz);

      actor_opt_->step();
      critic_opt_->step();
      ++stats.minibatches;
    }
  }

  if (total_samples > 0) {
    const double inv = 1.0 / static_cast<double>(total_samples);
    stats.policy_loss = total_policy * inv;
    stats.value_loss = total_value * inv;
    stats.entropy = total_entropy * inv;
    stats.approx_kl = total_kl * inv;
  }
  if (stats.minibatches > 0) ++weights_version_;
  return stats;
}

void PpoAgent::set_learning_rates(double actor_lr, double critic_lr) {
  actor_opt_->set_lr(actor_lr);
  critic_opt_->set_lr(critic_lr);
}

void PpoAgent::reset_optimizers() {
  const double a_lr = actor_opt_->lr();
  const double c_lr = critic_opt_->lr();
  actor_opt_ = std::make_unique<Adam>(
      actor_refs_, AdamConfig{.lr = a_lr, .max_grad_norm = cfg_.max_grad_norm});
  critic_opt_ = std::make_unique<Adam>(
      critic_refs_, AdamConfig{.lr = c_lr, .max_grad_norm = cfg_.max_grad_norm});
}

double PpoAgent::actor_lr() const { return actor_opt_->lr(); }
double PpoAgent::critic_lr() const { return critic_opt_->lr(); }

std::vector<double> PpoAgent::weights() const { return snapshot_params(refs_); }

bool PpoAgent::set_weights(std::span<const double> values) {
  if (values.size() != refs_.size()) {
    std::fprintf(stderr,
                 "  [ppo] ERROR: weight vector has %zu values but the policy "
                 "has %zu parameters; keeping current model\n",
                 values.size(), refs_.size());
    return false;
  }
  restore_params(refs_, values);
  ++weights_version_;
  return true;
}

void PpoAgent::save_state(sim::ByteSink& out) const {
  // Architecture fingerprint first, so a load against a differently shaped
  // agent fails before any state is touched.
  out.i32(cfg_.input_size);
  out.i32_vec(cfg_.head_sizes);
  out.i32_vec(cfg_.hidden);
  out.u64(refs_.size());
  out.f64_vec(weights());
  actor_opt_->save_state(out);
  critic_opt_->save_state(out);
  out.f64(exploration_rate_);
  out.f64(cfg_.clip_eps);
  out.f64(cfg_.entropy_coef);
  sim::save_rng(out, shuffle_rng_);
}

bool PpoAgent::load_state(sim::ByteSource& in) {
  const std::int32_t input_size = in.i32();
  const std::vector<std::int32_t> head_sizes = in.i32_vec();
  const std::vector<std::int32_t> hidden = in.i32_vec();
  const std::uint64_t num = in.u64();
  if (!in.ok() || input_size != cfg_.input_size ||
      head_sizes != cfg_.head_sizes || hidden != cfg_.hidden ||
      num != refs_.size()) {
    return false;
  }
  const std::vector<double> params = in.f64_vec();
  if (!in.ok() || params.size() != refs_.size()) return false;
  if (!actor_opt_->load_state(in)) return false;
  if (!critic_opt_->load_state(in)) return false;
  const double exploration = in.f64();
  const double clip_eps = in.f64();
  const double entropy_coef = in.f64();
  if (!in.ok()) return false;
  if (!load_rng(in, shuffle_rng_)) return false;
  restore_params(refs_, params);
  ++weights_version_;
  exploration_rate_ = exploration;
  cfg_.clip_eps = clip_eps;
  cfg_.entropy_coef = entropy_coef;
  return true;
}

}  // namespace pet::rl
