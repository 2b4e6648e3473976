#include "workload/traffic_gen.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "net/fabric.hpp"
#include "workload/distributions.hpp"

namespace pet::workload {
namespace {

struct TrafficFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 21};
  transport::FctRecorder recorder;
  std::unique_ptr<transport::RdmaTransport> transport;

  void build() {
    net::LeafSpineConfig cfg;
    cfg.num_spines = 1;
    cfg.num_leaves = 2;
    cfg.hosts_per_leaf = 4;
    (void)net::build_fabric(net, cfg);
    transport = std::make_unique<transport::RdmaTransport>(
        net, transport::DcqcnConfig{}, &recorder);
  }

  [[nodiscard]] std::vector<net::HostId> hosts() const {
    std::vector<net::HostId> out;
    for (net::HostId h = 0; h < 8; ++h) out.push_back(h);
    return out;
  }
};

TEST_F(TrafficFixture, ArrivalRateMatchesLoadFormula) {
  build();
  PoissonTrafficConfig cfg;
  cfg.load = 0.5;
  cfg.host_rate = sim::gbps(10);
  cfg.hosts = hosts();
  cfg.sizes = web_search_cdf().truncated(1e6);
  PoissonTrafficGenerator gen(sched, *transport, cfg);
  // lambda = load * H * rate / (8 * mean_size).
  const double expected =
      0.5 * 8.0 * 10e9 / (8.0 * cfg.sizes.mean());
  EXPECT_NEAR(gen.arrival_rate_per_sec(), expected, expected * 1e-9);
}

TEST_F(TrafficFixture, GeneratesFlowsAtConfiguredRate) {
  build();
  PoissonTrafficConfig cfg;
  cfg.load = 0.4;
  cfg.host_rate = sim::gbps(10);
  cfg.hosts = hosts();
  cfg.sizes = web_search_cdf().truncated(1e6);
  cfg.seed = 5;
  PoissonTrafficGenerator gen(sched, *transport, cfg);
  gen.start();
  sched.run_until(sim::milliseconds(20));
  const double expected = gen.arrival_rate_per_sec() * 20e-3;
  EXPECT_NEAR(static_cast<double>(gen.flows_generated()), expected,
              4.0 * std::sqrt(expected));  // ~4 sigma Poisson tolerance
}

TEST_F(TrafficFixture, SrcAndDstAlwaysDiffer) {
  build();
  PoissonTrafficConfig cfg;
  cfg.load = 1.0;
  cfg.host_rate = sim::gbps(10);
  cfg.hosts = hosts();
  cfg.sizes = web_search_cdf().truncated(1e5);
  PoissonTrafficGenerator gen(sched, *transport, cfg);
  gen.start();
  sched.run_until(sim::milliseconds(30));
  ASSERT_GT(recorder.records().size(), 20u);
  for (const auto& r : recorder.records()) {
    EXPECT_NE(r.spec.src, r.spec.dst);
  }
}

TEST_F(TrafficFixture, StopHaltsArrivals) {
  build();
  PoissonTrafficConfig cfg;
  cfg.load = 0.5;
  cfg.host_rate = sim::gbps(10);
  cfg.hosts = hosts();
  cfg.sizes = web_search_cdf().truncated(1e6);
  PoissonTrafficGenerator gen(sched, *transport, cfg);
  gen.start();
  sched.run_until(sim::milliseconds(5));
  gen.stop();
  const auto generated = gen.flows_generated();
  sched.run_until(sim::milliseconds(20));
  EXPECT_EQ(gen.flows_generated(), generated);
}

TEST_F(TrafficFixture, StopTimeRespected) {
  build();
  PoissonTrafficConfig cfg;
  cfg.load = 0.5;
  cfg.host_rate = sim::gbps(10);
  cfg.hosts = hosts();
  cfg.sizes = web_search_cdf().truncated(1e6);
  cfg.stop = sim::milliseconds(3);
  PoissonTrafficGenerator gen(sched, *transport, cfg);
  gen.start();
  sched.run_until(sim::milliseconds(3));
  const auto at_stop = gen.flows_generated();
  EXPECT_GT(at_stop, 0);
  sched.run_until(sim::milliseconds(30));
  EXPECT_EQ(gen.flows_generated(), at_stop);
}

TEST_F(TrafficFixture, SetSizesSwitchesDistributionMidRun) {
  build();
  PoissonTrafficConfig cfg;
  cfg.load = 0.8;
  cfg.host_rate = sim::gbps(10);
  cfg.hosts = hosts();
  cfg.sizes = web_search_cdf().truncated(2e5);
  cfg.seed = 17;
  PoissonTrafficGenerator gen(sched, *transport, cfg);
  gen.start();
  sched.run_until(sim::milliseconds(10));
  // Switch to a point mass (all flows exactly 777 bytes).
  EmpiricalCdf point;
  point.add_point(777.0, 1.0);
  gen.set_sizes(point);
  const auto before = transport->flows_started();
  sched.run_until(sim::milliseconds(14));
  EXPECT_GT(transport->flows_started(), before);
  // All post-switch flows must have the new size.
  std::size_t post_switch = 0;
  for (const auto& r : recorder.records()) {
    if (r.spec.start_time > sim::milliseconds(10) + sim::microseconds(1)) {
      EXPECT_EQ(r.spec.size_bytes, 777);
      ++post_switch;
    }
  }
  EXPECT_GT(post_switch, 0u);
}

TEST_F(TrafficFixture, IncastEpochCreatesFanInFlows) {
  build();
  IncastConfig inc;
  inc.fan_in = 5;
  inc.request_bytes = 10'000;
  inc.period = sim::milliseconds(1);
  inc.hosts = hosts();
  IncastGenerator gen(sched, *transport, inc);
  gen.start();
  sched.run_until(sim::milliseconds(5));
  EXPECT_GE(gen.epochs(), 3);
  EXPECT_EQ(transport->flows_started(), gen.epochs() * 5);
}

TEST_F(TrafficFixture, IncastSendersDistinctAndTargetOneAggregator) {
  build();
  IncastConfig inc;
  inc.fan_in = 5;
  inc.request_bytes = 5'000;
  inc.period = sim::milliseconds(2);
  inc.hosts = hosts();
  IncastGenerator gen(sched, *transport, inc);
  gen.start();
  sched.run_until(sim::milliseconds(10));
  ASSERT_GE(recorder.records().size(), 5u);
  // Group completions by epoch via destination and start time.
  std::map<std::int64_t, std::map<net::HostId, std::set<net::HostId>>> epochs;
  for (const auto& r : recorder.records()) {
    epochs[r.spec.start_time.ps()][r.spec.dst].insert(r.spec.src);
  }
  for (const auto& [t, dsts] : epochs) {
    ASSERT_EQ(dsts.size(), 1u) << "one aggregator per epoch";
    const auto& [dst, srcs] = *dsts.begin();
    EXPECT_EQ(srcs.size(), 5u) << "fan_in distinct senders";
    EXPECT_FALSE(srcs.count(dst)) << "aggregator must not send to itself";
  }
}

TEST_F(TrafficFixture, IncastFanInClampedToHosts) {
  build();
  IncastConfig inc;
  inc.fan_in = 100;  // more than the 8 hosts
  inc.request_bytes = 1'000;
  inc.period = sim::milliseconds(1);
  inc.hosts = hosts();
  IncastGenerator gen(sched, *transport, inc);
  gen.start();
  sched.run_until(sim::milliseconds(2));
  EXPECT_EQ(transport->flows_started(), gen.epochs() * 7);
}

}  // namespace
}  // namespace pet::workload
