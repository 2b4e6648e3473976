#include "transport/dcqcn.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace pet::transport {
namespace {

struct DcqcnFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 11};
  FctRecorder recorder;
  std::unique_ptr<RdmaTransport> transport;
  net::SwitchDevice* sw = nullptr;

  void build(DcqcnConfig cfg = {}, net::SwitchConfig sw_cfg = {}) {
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(500);
    auto& h0 = net.add_host(nic);
    auto& h1 = net.add_host(nic);
    auto& h2 = net.add_host(nic);
    sw = &net.add_switch(sw_cfg);
    for (auto* h : {&h0, &h1, &h2}) {
      net.connect(h->id(), sw->id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
    transport = std::make_unique<RdmaTransport>(net, cfg, &recorder);
  }
};

TEST_F(DcqcnFixture, SingleFlowCompletesAtNearLineRate) {
  build();
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 1'000'000;
  transport->start_flow(spec);
  sched.run_until(sim::milliseconds(10));
  ASSERT_EQ(recorder.records().size(), 1u);
  const double fct_us = recorder.records()[0].fct().us();
  // Ideal: 1MB at 10G with 4.8% header overhead ~ 840us; allow 25% slack.
  EXPECT_LT(fct_us, 1100.0);
  EXPECT_GT(fct_us, 800.0);
}

TEST_F(DcqcnFixture, FlowIdAutoAssignedAndReturned) {
  build();
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 1000;
  const net::FlowId id1 = transport->start_flow(spec);
  const net::FlowId id2 = transport->start_flow(spec);
  EXPECT_NE(id1, 0u);
  EXPECT_NE(id1, id2);
}

TEST_F(DcqcnFixture, SenderStartsAtLineRate) {
  build();
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 1'000'000;
  const auto id = transport->start_flow(spec);
  DcqcnSender* snd = transport->find_sender(id);
  ASSERT_NE(snd, nullptr);
  EXPECT_DOUBLE_EQ(snd->current_rate_bps(), 10e9);
  EXPECT_DOUBLE_EQ(snd->alpha(), 1.0);
}

TEST_F(DcqcnFixture, CnpCutsRateAndRaisesAlpha) {
  DcqcnConfig cfg;
  build(cfg);
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 10'000'000;
  const auto id = transport->start_flow(spec);
  DcqcnSender* snd = transport->find_sender(id);
  ASSERT_NE(snd, nullptr);
  const double r0 = snd->current_rate_bps();
  snd->on_cnp(sched.now());
  // alpha was 1.0: cut by alpha/2 = 50%.
  EXPECT_DOUBLE_EQ(snd->current_rate_bps(), r0 * 0.5);
  EXPECT_DOUBLE_EQ(snd->target_rate_bps(), r0);
  // alpha updated after the cut: (1-g)*1 + g = 1.
  EXPECT_DOUBLE_EQ(snd->alpha(), 1.0);
  snd->on_cnp(sched.now());
  EXPECT_DOUBLE_EQ(snd->current_rate_bps(), r0 * 0.25);
}

TEST_F(DcqcnFixture, AlphaDecaysWithoutCnps) {
  build();
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 50'000'000;
  const auto id = transport->start_flow(spec);
  DcqcnSender* snd = transport->find_sender(id);
  snd->on_cnp(sched.now());  // arm alpha dynamics
  const double a0 = snd->alpha();
  sched.run_until(sched.now() + sim::microseconds(500));
  EXPECT_LT(snd->alpha(), a0);
}

TEST_F(DcqcnFixture, RateRecoversAfterCut) {
  build();
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 50'000'000;
  const auto id = transport->start_flow(spec);
  DcqcnSender* snd = transport->find_sender(id);
  snd->on_cnp(sched.now());
  const double cut_rate = snd->current_rate_bps();
  sched.run_until(sched.now() + sim::milliseconds(3));
  ASSERT_NE(transport->find_sender(id), nullptr) << "flow finished too fast";
  EXPECT_GT(snd->current_rate_bps(), cut_rate);
}

TEST_F(DcqcnFixture, RateNeverBelowFloorOrAboveLine) {
  build();
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 50'000'000;
  const auto id = transport->start_flow(spec);
  DcqcnSender* snd = transport->find_sender(id);
  for (int i = 0; i < 200; ++i) snd->on_cnp(sched.now());
  EXPECT_GE(snd->current_rate_bps(), 10e9 * 1e-3 - 1.0);
  sched.run_until(sim::milliseconds(200));
  if (auto* s = transport->find_sender(id)) {
    EXPECT_LE(s->current_rate_bps(), 10e9);
  }
}

TEST_F(DcqcnFixture, ReceiverSendsCnpOnMarkedPackets) {
  // Force marking from the first queued byte.
  build();
  sw->set_ecn_config_all_ports({.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  // Two senders to one receiver congest the egress -> queue -> marks.
  FlowSpec a;
  a.src = 0;
  a.dst = 2;
  a.size_bytes = 2'000'000;
  FlowSpec b;
  b.src = 1;
  b.dst = 2;
  b.size_bytes = 2'000'000;
  transport->start_flow(a);
  transport->start_flow(b);
  sched.run_until(sim::milliseconds(5));
  EXPECT_GT(transport->cnps_sent(), 0);
}

TEST_F(DcqcnFixture, CnpIntervalRateLimitsFeedback) {
  DcqcnConfig cfg;
  cfg.cnp_interval = sim::microseconds(50);
  build(cfg);
  sw->set_ecn_config_all_ports({.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  FlowSpec a;
  a.src = 0;
  a.dst = 2;
  a.size_bytes = 1'000'000;
  FlowSpec b;
  b.src = 1;
  b.dst = 2;
  b.size_bytes = 1'000'000;
  transport->start_flow(a);
  transport->start_flow(b);
  sched.run_until(sim::milliseconds(4));
  // Both flows ran ~2x800us paced out; with one CNP per flow per 50us the
  // count must be far below the marked-packet count.
  EXPECT_LT(transport->cnps_sent(), 200);
  EXPECT_GT(transport->cnps_sent(), 2);
}

TEST_F(DcqcnFixture, CongestedFlowsSplitBandwidthFairly) {
  build();
  sw->set_ecn_config_all_ports({.kmin_bytes = 5'000, .kmax_bytes = 50'000, .pmax = 0.2});
  FlowSpec a;
  a.src = 0;
  a.dst = 2;
  a.size_bytes = 3'000'000;
  FlowSpec b = a;
  b.src = 1;
  transport->start_flow(a);
  transport->start_flow(b);
  sched.run_until(sim::milliseconds(30));
  ASSERT_EQ(recorder.records().size(), 2u);
  const double f0 = recorder.records()[0].fct().us();
  const double f1 = recorder.records()[1].fct().us();
  // Both share a 10G egress: each takes roughly 2x the solo time; finish
  // within 35% of each other.
  EXPECT_LT(std::abs(f0 - f1) / std::max(f0, f1), 0.35);
}

TEST_F(DcqcnFixture, CompletionAccounting) {
  build();
  for (int i = 0; i < 10; ++i) {
    FlowSpec spec;
    spec.src = i % 2;
    spec.dst = 2;
    spec.size_bytes = 20'000;
    transport->start_flow(spec);
  }
  sched.run_until(sim::milliseconds(20));
  EXPECT_EQ(transport->flows_started(), 10);
  EXPECT_EQ(transport->flows_completed(), 10);
  EXPECT_EQ(transport->active_flows(), 0u);
  EXPECT_EQ(recorder.records().size(), 10u);
}

TEST_F(DcqcnFixture, LatencySamplesRecorded) {
  build();
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 100'000;
  transport->start_flow(spec);
  sched.run_until(sim::milliseconds(5));
  EXPECT_GT(recorder.latency_stats().count(), 50u);
  // One-way latency at least propagation (2 hops x 500ns) + serialization.
  EXPECT_GT(recorder.latency_stats().min(), 1.0 /*us*/);
}

TEST_F(DcqcnFixture, FctRecordCarriesSpec) {
  build();
  FlowSpec spec;
  spec.src = 0;
  spec.dst = 1;
  spec.size_bytes = 5'000;
  spec.start_time = sim::Time::zero();
  transport->start_flow(spec);
  sched.run_until(sim::milliseconds(5));
  ASSERT_EQ(recorder.records().size(), 1u);
  const auto& rec = recorder.records()[0];
  EXPECT_EQ(rec.spec.src, 0);
  EXPECT_EQ(rec.spec.dst, 1);
  EXPECT_EQ(rec.spec.size_bytes, 5'000);
  EXPECT_GT(rec.fct().us(), 0.0);
}

TEST(FlowSpec, ElephantClassification) {
  FlowSpec mice;
  mice.size_bytes = 100'000;
  EXPECT_FALSE(mice.is_elephant());
  FlowSpec elephant;
  elephant.size_bytes = 2'000'000;
  EXPECT_TRUE(elephant.is_elephant());
}

}  // namespace
}  // namespace pet::transport
