// ReplicaRunner's core promise: the merged experience and the post-merge
// central weights are a pure function of (seed, replicas) — the worker
// thread count is invisible, bitwise. These tests run the same tiny
// scenario on 1 and 4 threads and demand identical digests and weights,
// plus coverage of the scenario validation every entry point goes through.

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <vector>

#include "exp/experiment_builder.hpp"
#include "exp/replica_runner.hpp"
#include "exp/sweep.hpp"

namespace pet::exp {
namespace {

ExperimentBuilder tiny_scenario() {
  net::LeafSpineConfig topo;
  topo.num_spines = 1;
  topo.num_leaves = 2;
  topo.hosts_per_leaf = 2;
  return ExperimentBuilder{}
      .topology(topo)
      .workload(workload::WorkloadKind::kWebSearch)
      .load(0.5)
      .scheme(Scheme::kPet)
      .phases(sim::milliseconds(3), sim::milliseconds(1))
      .seed(42);
}

TEST(ReplicaRunner, ThreadCountDoesNotChangeMergedResult) {
  ReplicaRunner one = tiny_scenario().replicas(3).threads(1).build_runner();
  ReplicaRunner four = tiny_scenario().replicas(3).threads(4).build_runner();

  ReplicaRunner::EpisodeStats s1{};
  ReplicaRunner::EpisodeStats s4{};
  for (int e = 0; e < 2; ++e) {
    s1 = one.run_episode();
    s4 = four.run_episode();
  }

  // The merged experience digest covers every action, log-prob, value and
  // reward of every replica in replica order: bitwise identity.
  EXPECT_EQ(one.last_digest(), four.last_digest());
  EXPECT_EQ(s1.transitions, s4.transitions);
  EXPECT_GT(s1.transitions, 0u);
  EXPECT_EQ(s1.mean_reward, s4.mean_reward);
  EXPECT_EQ(s1.policy_loss, s4.policy_loss);
  EXPECT_EQ(s1.value_loss, s4.value_loss);

  // And so are the post-merge central weights of every agent.
  const std::vector<double> w1 = one.all_weights();
  const std::vector<double> w4 = four.all_weights();
  ASSERT_EQ(w1.size(), w4.size());
  ASSERT_FALSE(w1.empty());
  for (std::size_t i = 0; i < w1.size(); ++i) {
    EXPECT_EQ(w1[i], w4[i]) << "weight " << i;
  }
}

TEST(ReplicaRunner, UnevenReplicaToThreadRatioStaysDeterministic) {
  // 5 replicas on 4 threads: one thread takes a second replica, so chunk
  // boundaries and completion order differ from the even case. 5-on-3 tiles
  // differently again, and 5-on-1 is the serial reference. All three must
  // produce the same digest and the same merged weights — work-stealing or
  // completion-order effects must never leak into the merge.
  ReplicaRunner serial = tiny_scenario().replicas(5).threads(1).build_runner();
  ReplicaRunner three = tiny_scenario().replicas(5).threads(3).build_runner();
  ReplicaRunner four = tiny_scenario().replicas(5).threads(4).build_runner();

  ReplicaRunner::EpisodeStats ss{}, s3{}, s4{};
  for (int e = 0; e < 2; ++e) {
    ss = serial.run_episode();
    s3 = three.run_episode();
    s4 = four.run_episode();
  }

  EXPECT_EQ(serial.last_digest(), three.last_digest());
  EXPECT_EQ(serial.last_digest(), four.last_digest());
  EXPECT_EQ(ss.transitions, s3.transitions);
  EXPECT_EQ(ss.transitions, s4.transitions);
  EXPECT_GT(ss.transitions, 0u);
  EXPECT_EQ(ss.policy_loss, s3.policy_loss);
  EXPECT_EQ(ss.policy_loss, s4.policy_loss);

  const std::vector<double> ws = serial.all_weights();
  const std::vector<double> w3 = three.all_weights();
  const std::vector<double> w4 = four.all_weights();
  ASSERT_EQ(ws.size(), w3.size());
  ASSERT_EQ(ws.size(), w4.size());
  ASSERT_FALSE(ws.empty());
  for (std::size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(ws[i], w3[i]) << "weight " << i << " (3 threads)";
    EXPECT_EQ(ws[i], w4[i]) << "weight " << i << " (4 threads)";
  }
}

TEST(ReplicaRunner, ReplicaCountChangesExperience) {
  ReplicaRunner two = tiny_scenario().replicas(2).threads(1).build_runner();
  ReplicaRunner three = tiny_scenario().replicas(3).threads(1).build_runner();
  (void)two.run_episode();
  (void)three.run_episode();
  EXPECT_NE(two.last_digest(), three.last_digest());
}

TEST(ReplicaRunner, TrainingAccumulatesAcrossEpisodes) {
  ReplicaRunner runner = tiny_scenario().replicas(2).threads(2).build_runner();
  const std::vector<double> before = runner.all_weights();
  ReplicaRunnerConfig cfg = runner.config();
  EXPECT_EQ(cfg.replicas, 2);
  const ReplicaRunner::EpisodeStats st = runner.run_episode();
  EXPECT_GT(st.transitions, 0u);
  const std::vector<double> after = runner.all_weights();
  ASSERT_EQ(before.size(), after.size());
  // A merged PPO update must actually move the central weights.
  bool moved = false;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) {
      moved = true;
      break;
    }
  }
  EXPECT_TRUE(moved);
}

TEST(ReplicaRunner, RunReportsThroughput) {
  ReplicaRunner runner = tiny_scenario().replicas(2).threads(1).build_runner();
  ReplicaRunnerConfig cfg = runner.config();
  EXPECT_EQ(cfg.episodes, 1);
  const ReplicaRunner::RunStats stats = runner.run();
  ASSERT_EQ(stats.episodes.size(), 1u);
  EXPECT_GT(stats.replicas_per_sec, 0.0);
  EXPECT_EQ(stats.rollout_digest, runner.last_digest());
}

TEST(ReplicaRunner, RequiresPetScheme) {
  EXPECT_THROW((void)ReplicaRunner(tiny_scenario().scheme(Scheme::kSecn1)
                                       .config(),
                                   ReplicaRunnerConfig{}),
               std::invalid_argument);
}

TEST(ExperimentBuilder, ValidatesAtBuildTime) {
  EXPECT_THROW((void)tiny_scenario().load(0.0).build(), std::invalid_argument);
  EXPECT_THROW((void)tiny_scenario().load(1.5).build(), std::invalid_argument);
  EXPECT_THROW((void)tiny_scenario().measure(sim::Time::zero()).build(),
               std::invalid_argument);
  EXPECT_THROW((void)tiny_scenario().tuning_interval(sim::Time::zero()).build(),
               std::invalid_argument);
  EXPECT_THROW((void)tiny_scenario().replicas(0).build_runner(),
               std::invalid_argument);
  EXPECT_THROW(
      (void)tiny_scenario().scheme(Scheme::kAmt).replicas(4).build_runner(),
      std::invalid_argument);
  net::LeafSpineConfig topo;
  topo.num_leaves = 0;
  EXPECT_THROW((void)tiny_scenario().topology(topo).build(),
               std::invalid_argument);

  // The scenario check lives in Experiment's constructor, so the doors
  // that skip build() reject the same scenario.
  ScenarioConfig bad = tiny_scenario().config();
  bad.load = 1.5;
  EXPECT_THROW((void)Experiment(bad), std::invalid_argument);
  EXPECT_THROW((void)ReplicaRunner(bad, ReplicaRunnerConfig{}),
               std::invalid_argument);

  // A sweep checks every expanded point before it writes anything.
  SweepGrid grid;
  grid.base = tiny_scenario().config();
  grid.loads = {0.5, 1.5};
  SweepRunnerConfig sweep_cfg;
  sweep_cfg.out_dir =
      (std::filesystem::temp_directory_path() / "pet_invalid_grid").string();
  std::filesystem::remove_all(sweep_cfg.out_dir);
  SweepRunner sweep(grid, sweep_cfg);
  EXPECT_THROW((void)sweep.run(), std::invalid_argument);
  EXPECT_FALSE(std::filesystem::exists(sweep_cfg.out_dir));
}

TEST(ExperimentBuilder, BuildsARunnableExperiment) {
  auto ex = tiny_scenario().build();
  ASSERT_NE(ex, nullptr);
  EXPECT_EQ(ex->config().seed, 42u);
  EXPECT_EQ(ex->config().scheme, Scheme::kPet);
  ASSERT_NE(ex->pet(), nullptr);
  EXPECT_EQ(ex->pet()->num_agents(), 3u);  // 2 leaves + 1 spine
}

}  // namespace
}  // namespace pet::exp
