// Deployment-mode behaviour: the hybrid-training handoff where agents
// exploit the learned mode while continuing online incremental training.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "core/pet_agent.hpp"
#include "net/network.hpp"

namespace pet::core {
namespace {

struct DeploymentFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 91};
  net::SwitchDevice* sw = nullptr;

  void build() { sw = &build_switch(net); }

  static net::SwitchDevice& build_switch(net::Network& network) {
    auto& s = network.add_switch({});
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int i = 0; i < 3; ++i) {
      auto& h = network.add_host(nic);
      network.connect(h.id(), s.id(), nic.rate, nic.propagation_delay);
    }
    network.recompute_routes();
    return s;
  }

  PetAgentConfig agent_config() {
    PetAgentConfig cfg = PetAgentConfig::paper_defaults();
    cfg.tuning_interval = sim::microseconds(100);
    cfg.rollout_length = 8;
    cfg.ppo.minibatch_size = 8;
    cfg.ppo.update_epochs = 1;
    cfg.ppo.hidden = {8};
    return cfg;
  }

  void run_ticks(PetAgent& agent, int n) {
    for (int i = 0; i < n; ++i) {
      agent.tick();
      sched.run_until(sched.now() + sim::microseconds(100));
    }
  }
};

TEST_F(DeploymentFixture, GreedyWithoutExplorationIsDeterministicConfig) {
  build();
  PetAgent agent(sched, *sw, agent_config(), 1);
  agent.set_deployment_mode(true);
  agent.freeze_exploration(0.0);
  run_ticks(agent, 5);
  const net::RedEcnConfig first = agent.current_config();
  // On an idle fabric the state is stable, so the mode stays put.
  run_ticks(agent, 5);
  EXPECT_EQ(agent.current_config(), first);
}

TEST_F(DeploymentFixture, ExplorationStepsStayLocal) {
  // The deployment probe changes exactly one head by exactly one level.
  const std::vector<std::int32_t> heads{10, 10, 20};
  sim::Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::int32_t> base{
        static_cast<std::int32_t>(rng.uniform_int(10)),
        static_cast<std::int32_t>(rng.uniform_int(10)),
        static_cast<std::int32_t>(rng.uniform_int(20))};
    std::vector<std::int32_t> stepped = base;
    local_exploration_step_inplace(stepped, heads, rng);
    int changed = 0;
    for (std::size_t h = 0; h < heads.size(); ++h) {
      EXPECT_GE(stepped[h], 0);
      EXPECT_LT(stepped[h], heads[h]);
      const int delta = std::abs(stepped[h] - base[h]);
      EXPECT_LE(delta, 1);
      changed += (delta != 0);
    }
    EXPECT_LE(changed, 1) << "at most one head moves";
  }
}

TEST_F(DeploymentFixture, ExplorationStepClampsAtBoundaries) {
  const std::vector<std::int32_t> heads{2};
  sim::Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::int32_t> low{0};
    local_exploration_step_inplace(low, heads, rng);
    EXPECT_GE(low[0], 0);
    EXPECT_LE(low[0], 1);
    std::vector<std::int32_t> high{1};
    local_exploration_step_inplace(high, heads, rng);
    EXPECT_GE(high[0], 0);
    EXPECT_LE(high[0], 1);
  }
}

TEST_F(DeploymentFixture, OnlineTrainingContinuesInDeployment) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.rollout_length = 4;
  PetAgent agent(sched, *sw, cfg, 3);
  agent.set_deployment_mode(true);
  agent.freeze_exploration(0.05);
  run_ticks(agent, 12);
  EXPECT_GE(agent.updates(), 1) << "deployment keeps learning online";
  EXPECT_GT(agent.reward_stats().count(), 8u);
}

TEST_F(DeploymentFixture, FreezeExplorationOverridesSchedule) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.explore_start = 0.5;
  PetAgent agent(sched, *sw, cfg, 4);
  agent.freeze_exploration(0.01);
  run_ticks(agent, 3);
  EXPECT_DOUBLE_EQ(agent.policy().exploration_rate(), 0.01);
  // Negative value restores Eq. (13).
  agent.freeze_exploration(-1.0);
  run_ticks(agent, 1);
  EXPECT_DOUBLE_EQ(agent.policy().exploration_rate(), 0.5);
}

TEST_F(DeploymentFixture, EvaluateMatchesPolicySemantics) {
  build();
  PetAgent agent(sched, *sw, agent_config(), 5);
  auto& policy = agent.policy();
  const std::vector<double> state(
      static_cast<std::size_t>(policy.config().input_size), 0.3);
  const auto greedy = policy.act_greedy(state);
  const auto ev = policy.evaluate(state, greedy);
  EXPECT_DOUBLE_EQ(ev.value, policy.value(state));
  EXPECT_LE(ev.log_prob, 0.0);
  // The argmax action is at least as probable as any single-head tweak.
  for (std::size_t h = 0; h < greedy.size(); ++h) {
    auto other = greedy;
    other[h] = (other[h] + 1) % policy.config().head_sizes[h];
    EXPECT_GE(ev.log_prob, policy.evaluate(state, other).log_prob);
  }
}

TEST_F(DeploymentFixture, OnePassDeployedActMatchesGreedyThenEvaluate) {
  // The deployment branch scores its action from the same actor pass that
  // chose it. Pin it bit for bit against the two-pass path it replaced
  // (act_greedy, the local probe, then evaluate), with the probe off,
  // always on, and drawn at random, over states that vary with traffic.
  for (const double explore : {0.0, 1.0, 0.5}) {
    sim::Scheduler s;
    net::Network n{s, 91};
    net::SwitchDevice& dev = build_switch(n);
    PetAgent agent(s, dev, agent_config(), 5);
    agent.set_deployment_mode(true);
    agent.set_local_updates(false);  // keep the weights fixed while scoring
    agent.freeze_exploration(explore);
    struct Expected {
      std::vector<std::int32_t> actions;
      double log_prob = 0.0;
      double value = 0.0;
    };
    std::vector<Expected> expected;
    sim::Rng traffic(explore > 0.0 ? 3 : 4);
    for (int tick = 0; tick < 24; ++tick) {
      for (int i = static_cast<int>(traffic.uniform_int(40)); i > 0; --i) {
        net::Packet pkt;
        pkt.type = net::PacketType::kData;
        pkt.flow_id = 1 + traffic.uniform_int(6);
        pkt.src = static_cast<net::HostId>(1 + traffic.uniform_int(2));
        pkt.dst = 0;
        pkt.size_bytes = pkt.payload_bytes = 1000;
        dev.receive(pkt, pkt.src);
      }
      const auto prep = agent.tick_observe();
      ASSERT_TRUE(prep.has_value());
      sim::Rng rng = agent.action_rng();
      std::vector<std::int32_t> actions =
          agent.policy().act_greedy(prep->state);
      if (explore > 0.0 && rng.bernoulli(explore)) {
        local_exploration_step_inplace(
            actions, agent_config().action_space.head_sizes(), rng);
      }
      const auto ev = agent.policy().evaluate(prep->state, actions);
      expected.push_back({actions, ev.log_prob, ev.value});
      agent.tick_complete(*prep);
      EXPECT_EQ(agent.action_rng()(), rng()) << "same probe draws";
      s.run_until(s.now() + sim::microseconds(100));
    }
    (void)agent.tick_observe();  // moves the last pending transition in
    const auto harvest = agent.harvest_rollout();
    const auto& got = harvest.rollout.items();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t].actions, expected[t].actions) << "tick " << t;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t].log_prob),
                std::bit_cast<std::uint64_t>(expected[t].log_prob));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t].value),
                std::bit_cast<std::uint64_t>(expected[t].value));
    }
  }
}

TEST_F(DeploymentFixture, EntropyCoefAnnealsWithExploration) {
  build();
  PetAgentConfig cfg = agent_config();
  cfg.explore_start = 0.2;
  cfg.entropy_start = 0.08;
  cfg.entropy_min = 0.01;
  cfg.decay_T = 2;
  cfg.decay_rate = 0.5;
  PetAgent agent(sched, *sw, cfg, 6);
  run_ticks(agent, 1);
  EXPECT_NEAR(agent.policy().entropy_coef(), 0.08, 1e-12);
  run_ticks(agent, 30);
  EXPECT_LT(agent.policy().entropy_coef(), 0.08);
  EXPECT_GE(agent.policy().entropy_coef(), 0.01);
}

}  // namespace
}  // namespace pet::core
