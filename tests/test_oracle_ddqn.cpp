// Differential oracle: DdqnAgent::train_step against a reference step that
// walks the replay minibatch one sample at a time through the single-row
// Mlp::forward/Mlp::backward path. The two must agree bit for bit: online
// and target parameters, Adam moments and step count, and the replay
// sampling RNG position, after enough steps to cross a target-net sync.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "rl/adam.hpp"
#include "rl/categorical.hpp"
#include "rl/ddqn.hpp"
#include "rl/mlp.hpp"
#include "rl/replay.hpp"
#include "sim/checkpoint.hpp"
#include "sim/rng.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

/// Per-sample DDQN learner: seeded, built and stepped exactly as
/// DdqnAgent, with each minibatch sample taken through its own
/// forward/backward calls.
class RefDdqn {
 public:
  RefDdqn(const rl::DdqnConfig& cfg, std::shared_ptr<rl::ReplayBuffer> replay,
          std::int32_t agent_id)
      : cfg_(cfg),
        init_rng_(sim::derive_seed(cfg.seed, "ddqn-init") +
                  static_cast<std::uint64_t>(agent_id)),
        replay_(std::move(replay)),
        sample_rng_(sim::derive_seed(cfg.seed, "ddqn-sample") +
                    static_cast<std::uint64_t>(agent_id)) {
    for (const std::int32_t n : cfg.head_sizes) {
      std::vector<std::int32_t> sizes{cfg.input_size};
      sizes.insert(sizes.end(), cfg.hidden.begin(), cfg.hidden.end());
      sizes.push_back(n);
      online_.emplace_back(sizes, rl::Activation::kRelu, init_rng_);
      target_.emplace_back(sizes, rl::Activation::kRelu, init_rng_);
    }
    for (auto& net : online_) net.collect(online_refs_);
    for (auto& net : target_) net.collect(target_refs_);
    opt_ = std::make_unique<rl::Adam>(
        online_refs_,
        rl::AdamConfig{.lr = cfg.lr, .max_grad_norm = cfg.max_grad_norm});
    sync_target();
  }

  void train_step() {
    if (replay_->size() < static_cast<std::size_t>(cfg_.batch_size)) return;
    const auto idx = replay_->sample_indices(
        static_cast<std::size_t>(cfg_.batch_size), sample_rng_);
    const double inv_b = 1.0 / static_cast<double>(idx.size());

    for (auto& net : online_) net.zero_grad();

    for (const std::size_t i : idx) {
      const rl::DqnTransition& tr = replay_->at(i);
      std::vector<std::vector<double>> q_next_online;
      std::vector<std::vector<double>> q_next_target;
      q_values(online_, tr.next_state, q_next_online);
      q_values(target_, tr.next_state, q_next_target);

      std::vector<rl::Mlp::Cache> caches;
      std::vector<std::vector<double>> q_cur;
      q_values(online_, tr.state, q_cur, &caches);

      for (std::size_t h = 0; h < online_.size(); ++h) {
        const std::int32_t best_next = rl::argmax(q_next_online[h]);
        const double target =
            tr.reward + cfg_.gamma * q_next_target[h][best_next];
        const double pred = q_cur[h][tr.actions[h]];
        const double err = pred - target;
        std::vector<double> dq(q_cur[h].size(), 0.0);
        dq[tr.actions[h]] = 2.0 * err * inv_b;
        online_[h].backward(tr.state, caches[h], dq);
      }
    }
    opt_->step();
    ++train_steps_;
    if (train_steps_ % cfg_.target_sync_interval == 0) sync_target();
  }

  /// The DdqnAgent::save_state payload this learner's state corresponds
  /// to (nothing is observed through the agent, so observe_steps is 0).
  [[nodiscard]] std::vector<std::uint8_t> state_bytes() const {
    sim::ByteSink out;
    out.i32(cfg_.input_size);
    out.i32_vec(cfg_.head_sizes);
    out.i32_vec(cfg_.hidden);
    out.u64(online_refs_.size());
    out.f64_vec(rl::snapshot_params(online_refs_));
    out.f64_vec(rl::snapshot_params(target_refs_));
    opt_->save_state(out);
    out.i64(0);
    out.i64(train_steps_);
    sim::save_rng(out, sample_rng_);
    return out.take();
  }

  [[nodiscard]] std::vector<double> weights() const {
    return rl::snapshot_params(online_refs_);
  }

 private:
  static void q_values(const std::vector<rl::Mlp>& nets,
                       std::span<const double> state,
                       std::vector<std::vector<double>>& q,
                       std::vector<rl::Mlp::Cache>* caches = nullptr) {
    q.resize(nets.size());
    if (caches != nullptr) caches->resize(nets.size());
    for (std::size_t h = 0; h < nets.size(); ++h) {
      q[h] =
          nets[h].forward(state, caches != nullptr ? &(*caches)[h] : nullptr);
    }
  }

  void sync_target() {
    rl::restore_params(target_refs_, rl::snapshot_params(online_refs_));
  }

  rl::DdqnConfig cfg_;
  sim::Rng init_rng_;
  std::vector<rl::Mlp> online_;
  std::vector<rl::Mlp> target_;
  rl::ParamRefs online_refs_;
  rl::ParamRefs target_refs_;
  std::unique_ptr<rl::Adam> opt_;
  std::shared_ptr<rl::ReplayBuffer> replay_;
  std::int64_t train_steps_ = 0;
  sim::Rng sample_rng_;
};

rl::DqnTransition random_transition(const rl::DdqnConfig& cfg,
                                    sim::Rng& rng) {
  // About a quarter of the features are exact zeros, so some ReLU units sit
  // at the kink and some upstream gradients are zero.
  const auto feature = [&rng] {
    return rng.bernoulli(0.25) ? 0.0 : rng.uniform(-2.0, 2.0);
  };
  rl::DqnTransition t;
  for (std::int32_t i = 0; i < cfg.input_size; ++i) {
    t.state.push_back(feature());
    t.next_state.push_back(feature());
  }
  for (const std::int32_t n : cfg.head_sizes) {
    t.actions.push_back(
        static_cast<std::int32_t>(rng.uniform_int(static_cast<std::uint64_t>(n))));
  }
  t.reward = rng.uniform(-3.0, 3.0);
  return t;
}

constexpr int kSteps = 280;

/// Trains a DdqnAgent and a RefDdqn side by side on one shared replay and
/// checks that their full learner state is bitwise equal.
void check_batch(rl::DdqnConfig cfg, std::int32_t batch,
                 std::int32_t agent_id) {
  cfg.batch_size = batch;
  sim::Rng data_rng(sim::derive_seed(cfg.seed, "oracle-replay") +
                    static_cast<std::uint64_t>(batch));
  const std::size_t capacity = 64 + data_rng.uniform_int(200);
  auto replay = std::make_shared<rl::ReplayBuffer>(capacity);
  const std::size_t prefill = data_rng.uniform_int(capacity + 1);
  for (std::size_t i = 0; i < prefill; ++i) {
    replay->push(random_transition(cfg, data_rng));
  }

  rl::DdqnAgent agent(cfg, replay, agent_id);
  RefDdqn ref(cfg, replay, agent_id);
  // One fresh transition per step: the replay grows, then wraps its ring,
  // while both learners sample from the same contents.
  for (int step = 0; step < kSteps; ++step) {
    replay->push(random_transition(cfg, data_rng));
    agent.train_step();
    ref.train_step();
  }
  PROP_ASSERT(agent.train_steps() > cfg.target_sync_interval);

  const std::vector<double> got = agent.weights();
  const std::vector<double> want = ref.weights();
  PROP_ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    PROP_ASSERT_EQ(std::bit_cast<std::uint64_t>(got[p]),
                   std::bit_cast<std::uint64_t>(want[p]));
  }
  sim::ByteSink payload;
  agent.save_state(payload);
  PROP_ASSERT(payload.bytes() == ref.state_bytes());
}

// (seed, agent_id, input_size, architecture, clip); every case runs each
// batch size in {1, 7, 32}. target_sync_interval keeps its default (200),
// which kSteps crosses.
PROPERTY_CASES(DdqnOracle, BatchedTrainStepMatchesPerSampleLoopBitwise, 4,
               tuple_of(integers(1, 1 << 30), integers(0, 3), integers(1, 18),
                        integers(0, 2), booleans())) {
  const auto& [seed, agent_id, input, arch, clip] = arg;
  const std::vector<std::vector<std::int32_t>> head_choices{
      {3}, {2, 5}, {10, 10, 20}};
  const std::vector<std::vector<std::int32_t>> hidden_choices{
      {8}, {16, 16}, {64, 64}};

  rl::DdqnConfig cfg;
  cfg.input_size = static_cast<std::int32_t>(input);
  cfg.head_sizes = head_choices[static_cast<std::size_t>(arch)];
  cfg.hidden = hidden_choices[static_cast<std::size_t>(arch)];
  cfg.lr = 5e-3;
  cfg.max_grad_norm = clip ? 1.0 : 0.0;
  cfg.seed = static_cast<std::uint64_t>(seed);
  for (const std::int32_t batch : {1, 7, 32}) {
    check_batch(cfg, batch, static_cast<std::int32_t>(agent_id));
  }
}

}  // namespace
}  // namespace pet::testkit
