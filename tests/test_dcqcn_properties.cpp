// Property sweeps over DCQCN parameterizations: for any sane configuration
// the congested fabric must stay lossless, keep sender rates inside
// [floor, line rate], keep alpha in [0, 1], and complete all flows.

#include <gtest/gtest.h>

#include <tuple>

#include "net/network.hpp"
#include "transport/dcqcn.hpp"

namespace pet::transport {
namespace {

struct SweepCase {
  double gain;
  std::int64_t cnp_interval_us;
  std::int64_t increase_timer_us;
  double pmax;
};

class DcqcnSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DcqcnSweepTest, CongestedFabricStaysSaneAndCompletes) {
  const SweepCase param = GetParam();

  sim::Scheduler sched;
  net::Network net(sched, 13);
  net::PortConfig nic;
  nic.rate = sim::gbps(10);
  nic.propagation_delay = sim::nanoseconds(500);
  // 4 senders, 1 receiver behind one switch: 4:1 congestion.
  std::vector<net::HostId> hosts;
  auto& sw = net.add_switch({});
  for (int i = 0; i < 5; ++i) {
    auto& h = net.add_host(nic);
    net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
    hosts.push_back(h.host_id());
  }
  net.recompute_routes();
  sw.set_ecn_config_all_ports(
      {.kmin_bytes = 20 * 1024, .kmax_bytes = 80 * 1024, .pmax = param.pmax});

  DcqcnConfig cfg;
  cfg.gain = param.gain;
  cfg.cnp_interval = sim::microseconds(param.cnp_interval_us);
  cfg.increase_timer = sim::microseconds(param.increase_timer_us);
  cfg.rate_ai_bps = 50e6;
  cfg.rate_hai_bps = 500e6;
  cfg.byte_counter = 300'000;

  FctRecorder recorder;
  RdmaTransport transport(net, cfg, &recorder);
  std::vector<net::FlowId> ids;
  for (int s = 0; s < 4; ++s) {
    FlowSpec spec;
    spec.src = hosts[s];
    spec.dst = hosts[4];
    spec.size_bytes = 1'500'000;
    ids.push_back(transport.start_flow(spec));
  }

  // Invariants checked while the flows are in flight.
  for (int step = 0; step < 40; ++step) {
    sched.run_until(sched.now() + sim::microseconds(250));
    for (const auto id : ids) {
      if (DcqcnSender* snd = transport.find_sender(id)) {
        EXPECT_GE(snd->alpha(), 0.0);
        EXPECT_LE(snd->alpha(), 1.0 + 1e-12);
        EXPECT_GE(snd->current_rate_bps(), 10e9 * cfg.min_rate_fraction - 1.0);
        EXPECT_LE(snd->current_rate_bps(), 10e9 + 1.0);
      }
    }
  }
  sched.run_until(sim::milliseconds(60));
  EXPECT_EQ(transport.flows_completed(), 4)
      << "all flows finish under congestion";
  EXPECT_EQ(net.total_switch_drops(), 0) << "PFC keeps the fabric lossless";
  EXPECT_GT(transport.cnps_sent(), 0) << "4:1 congestion must trigger ECN";
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, DcqcnSweepTest,
    ::testing::Values(SweepCase{1.0 / 16, 50, 300, 0.2},   // defaults
                      SweepCase{1.0 / 256, 50, 300, 0.2},  // slow alpha
                      SweepCase{1.0 / 16, 10, 300, 0.2},   // chatty NP
                      SweepCase{1.0 / 16, 200, 300, 0.2},  // lazy NP
                      SweepCase{1.0 / 16, 50, 55, 0.2},    // fast recovery
                      SweepCase{1.0 / 16, 50, 1500, 0.2},  // slow recovery
                      SweepCase{1.0 / 16, 50, 300, 1.0},   // hard marking
                      SweepCase{1.0 / 16, 50, 300, 0.01}   // gentle marking
                      ));

/// Aggressive marking must yield shorter queues than gentle marking across
/// the whole parameter plane (the monotonicity PET's action space exploits).
TEST(DcqcnProperty, MarkingAggressivenessOrdersQueues) {
  const auto run_with_pmax = [&](double pmax) {
    sim::Scheduler sched;
    net::Network net(sched, 17);
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(500);
    auto& sw = net.add_switch({});
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 4; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
      hosts.push_back(h.host_id());
    }
    net.recompute_routes();
    sw.set_ecn_config_all_ports(
        {.kmin_bytes = 10 * 1024, .kmax_bytes = 100 * 1024, .pmax = pmax});
    FctRecorder recorder;
    RdmaTransport transport(net, {}, &recorder);
    for (int s = 0; s < 3; ++s) {
      FlowSpec spec;
      spec.src = hosts[s];
      spec.dst = hosts[3];
      spec.size_bytes = 3'000'000;
      transport.start_flow(spec);
    }
    // Time-average the bottleneck queue.
    double sum = 0;
    int n = 0;
    while (sched.now() < sim::milliseconds(8)) {
      sched.run_until(sched.now() + sim::microseconds(50));
      sum += static_cast<double>(sw.port(3).total_queue_bytes());
      ++n;
    }
    return sum / n;
  };
  const double aggressive = run_with_pmax(1.0);
  const double gentle = run_with_pmax(0.02);
  EXPECT_LT(aggressive, gentle);
}

}  // namespace
}  // namespace pet::transport
