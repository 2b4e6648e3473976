#include "net/port.hpp"

#include <gtest/gtest.h>

#include "net/device.hpp"

namespace pet::net {
namespace {

/// Sink device recording arrivals and departures.
class TestDevice : public Device {
 public:
  TestDevice(sim::Scheduler& sched, DeviceId id) : Device(sched, id, "test") {}

  void receive(const Packet& pkt, std::int32_t in_port) override {
    received.push_back({pkt, in_port});
  }
  void on_packet_departed(std::int32_t /*port*/,
                          const QueueEntry& entry) override {
    departed.push_back(entry);
  }

  struct Arrival {
    Packet pkt;
    std::int32_t in_port;
  };
  std::vector<Arrival> received;
  std::vector<QueueEntry> departed;
};

Packet data_packet(std::int32_t bytes, FlowId flow = 1) {
  Packet pkt;
  pkt.flow_id = flow;
  pkt.type = PacketType::kData;
  pkt.size_bytes = bytes;
  pkt.payload_bytes = bytes;
  return pkt;
}

struct PortFixture : ::testing::Test {
  sim::Scheduler sched;
  TestDevice sender{sched, 0};
  TestDevice peer{sched, 1};
  std::int32_t port_idx = 0;

  EgressPort& make_port(PortConfig cfg = {}) {
    port_idx = sender.add_port(cfg);
    auto& port = sender.port(port_idx);
    // The peer "port" index is arbitrary for a sink.
    const std::int32_t peer_port = peer.add_port(cfg);
    port.connect(&peer, peer_port);
    peer.port(peer_port).connect(&sender, port_idx);
    return port;
  }
};

TEST_F(PortFixture, InvalidEcnConfigClampedOnInstall) {
  auto& port = make_port();
  // Inverted thresholds + out-of-range probability: the port installs the
  // nearest valid config instead of the garbage one.
  port.set_ecn_config(0, {.kmin_bytes = 2000, .kmax_bytes = 100, .pmax = 3.0});
  const RedEcnConfig& installed = port.ecn_config(0);
  EXPECT_TRUE(installed.valid());
  EXPECT_EQ(installed.kmin_bytes, 2000);
  EXPECT_EQ(installed.kmax_bytes, 2000);
  EXPECT_DOUBLE_EQ(installed.pmax, 1.0);
  // Valid configs install verbatim.
  const RedEcnConfig ok{.kmin_bytes = 10, .kmax_bytes = 20, .pmax = 0.5};
  port.set_ecn_config(0, ok);
  EXPECT_EQ(port.ecn_config(0), ok);
}

TEST_F(PortFixture, FaultDropAndCorruptCountSeparately) {
  PortConfig cfg;
  cfg.propagation_delay = sim::Time::zero();
  auto& port = make_port(cfg);
  port.set_fault_drop_prob(1.0);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  sched.run_all();
  EXPECT_TRUE(peer.received.empty());
  EXPECT_EQ(port.fault_dropped_packets(), 1);
  // The owner still sees the departure: buffer accounting must not leak.
  EXPECT_EQ(sender.departed.size(), 1u);

  port.set_fault_drop_prob(0.0);
  port.set_fault_corrupt_prob(1.0);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  sched.run_all();
  EXPECT_TRUE(peer.received.empty());
  EXPECT_EQ(port.fault_corrupted_packets(), 1);

  port.set_fault_corrupt_prob(0.0);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  sched.run_all();
  EXPECT_EQ(peer.received.size(), 1u);
}

TEST_F(PortFixture, RateFactorStretchesSerialization) {
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::Time::zero();
  auto& port = make_port(cfg);
  port.set_rate_factor(0.5);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  // 800ns nominal serialization doubles at half rate.
  sched.run_until(sim::nanoseconds(1599));
  EXPECT_TRUE(peer.received.empty());
  sched.run_until(sim::nanoseconds(1600));
  EXPECT_EQ(peer.received.size(), 1u);
  // Factor is clamped to a sane floor and ceiling.
  port.set_rate_factor(500.0);
  EXPECT_DOUBLE_EQ(port.rate_factor(), 1.0);
  port.set_rate_factor(0.0);
  EXPECT_DOUBLE_EQ(port.rate_factor(), 0.001);
}

TEST_F(PortFixture, DrainQueuesReturnsAllQueuedEntries) {
  auto& port = make_port();
  // One packet in flight keeps the port busy so later arrivals (data and
  // control alike) stay queued.
  port.enqueue(QueueEntry{data_packet(1000, 1), -1}, 0);
  port.enqueue(QueueEntry{data_packet(1000, 2), -1}, 0);
  port.enqueue(QueueEntry{data_packet(1000, 3), -1}, 0);
  Packet cnp = data_packet(64, 4);
  cnp.type = PacketType::kCnp;
  port.enqueue_control(QueueEntry{cnp, -1});
  const auto drained = port.drain_queues();
  EXPECT_EQ(drained.size(), 3u);  // everything except the in-flight packet
  EXPECT_EQ(port.total_queue_bytes(), 0);
  sched.run_all();
  // The packet that was mid-serialization still completes.
  ASSERT_EQ(peer.received.size(), 1u);
  EXPECT_EQ(peer.received[0].pkt.flow_id, 1u);
}

TEST_F(PortFixture, DeliversAfterSerializationPlusPropagation) {
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::nanoseconds(1000);
  auto& port = make_port(cfg);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  // 1000B at 10G = 800ns serialization + 1000ns propagation = 1800ns.
  sched.run_until(sim::nanoseconds(1799));
  EXPECT_TRUE(peer.received.empty());
  sched.run_until(sim::nanoseconds(1800));
  ASSERT_EQ(peer.received.size(), 1u);
}

TEST_F(PortFixture, SerializesBackToBack) {
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::Time::zero();
  auto& port = make_port(cfg);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  sched.run_until(sim::nanoseconds(800));
  EXPECT_EQ(peer.received.size(), 1u);
  sched.run_until(sim::nanoseconds(1600));
  EXPECT_EQ(peer.received.size(), 2u);
}

TEST_F(PortFixture, ControlQueueHasStrictPriority) {
  auto& port = make_port();
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);  // starts transmitting
  port.enqueue(QueueEntry{data_packet(1000, 2), -1}, 0);
  Packet cnp;
  cnp.type = PacketType::kCnp;
  cnp.size_bytes = 64;
  port.enqueue_control(QueueEntry{cnp, -1});
  sched.run_all();
  ASSERT_EQ(peer.received.size(), 3u);
  // CNP jumps ahead of the second data packet.
  EXPECT_EQ(peer.received[1].pkt.type, PacketType::kCnp);
}

TEST_F(PortFixture, PauseStopsDataButNotControl) {
  auto& port = make_port();
  port.set_paused(true);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  Packet cnp;
  cnp.type = PacketType::kCnp;
  cnp.size_bytes = 64;
  port.enqueue_control(QueueEntry{cnp, -1});
  sched.run_until(sim::milliseconds(1));
  ASSERT_EQ(peer.received.size(), 1u);
  EXPECT_EQ(peer.received[0].pkt.type, PacketType::kCnp);
  port.set_paused(false);
  sched.run_all();
  EXPECT_EQ(peer.received.size(), 2u);
}

TEST_F(PortFixture, PauseDoesNotAbortInFlightPacket) {
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::Time::zero();
  auto& port = make_port(cfg);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  sched.run_until(sim::nanoseconds(100));
  port.set_paused(true);  // mid-serialization
  sched.run_until(sim::milliseconds(1));
  EXPECT_EQ(peer.received.size(), 1u);  // completes anyway
}

TEST_F(PortFixture, LinkDownDropsAtSerializationEnd) {
  auto& port = make_port();
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  port.set_link_up(false);
  sched.run_all();
  EXPECT_TRUE(peer.received.empty());
  EXPECT_EQ(port.dropped_packets(), 1);
  EXPECT_EQ(port.tx_packets(), 1);  // it was serialized, then lost
}

TEST_F(PortFixture, LinkDownBlocksNewTransmissions) {
  auto& port = make_port();
  port.set_link_up(false);
  port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  sched.run_until(sim::milliseconds(1));
  EXPECT_EQ(port.tx_packets(), 0);
  port.set_link_up(true);
  sched.run_all();
  EXPECT_EQ(peer.received.size(), 1u);
}

TEST_F(PortFixture, EcnMarksAboveKmax) {
  auto& port = make_port();
  port.set_ecn_config(0, {.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  // The first two packets see an empty queue (each is popped straight into
  // the transmitter); every later packet sees backlog and is marked.
  for (int i = 0; i < 5; ++i) {
    port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  }
  sched.run_all();
  ASSERT_EQ(peer.received.size(), 5u);
  int marked = 0;
  for (const auto& a : peer.received) marked += a.pkt.ce_marked;
  EXPECT_EQ(marked, 3);
}

TEST_F(PortFixture, NonEctPacketsNeverMarked) {
  auto& port = make_port();
  port.set_ecn_config(0, {.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  for (int i = 0; i < 5; ++i) {
    Packet pkt = data_packet(1000);
    pkt.ecn_capable = false;
    port.enqueue(QueueEntry{pkt, -1}, 0);
  }
  sched.run_all();
  for (const auto& a : peer.received) EXPECT_FALSE(a.pkt.ce_marked);
}

TEST_F(PortFixture, TxCountersTrackMarkedBytes) {
  auto& port = make_port();
  port.set_ecn_config(0, {.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  for (int i = 0; i < 3; ++i) {
    port.enqueue(QueueEntry{data_packet(1000), -1}, 0);
  }
  sched.run_all();
  EXPECT_EQ(port.tx_packets(), 3);
  EXPECT_EQ(port.tx_bytes(), 3000);
  // Packet 1 is popped immediately (sees queue 0) and packet 2 is enqueued
  // into an again-empty queue; only packet 3 sees backlog.
  EXPECT_EQ(port.tx_marked_packets(), 1);
  EXPECT_EQ(port.tx_marked_bytes(), 1000);
}

TEST_F(PortFixture, MultiQueueRoundRobin) {
  PortConfig cfg;
  cfg.num_data_queues = 2;
  cfg.propagation_delay = sim::Time::zero();
  auto& port = make_port(cfg);
  // Stall the transmitter while queuing to ensure both queues are loaded.
  port.set_paused(true);
  for (int i = 0; i < 3; ++i) port.enqueue(QueueEntry{data_packet(100, 10 + i)}, 0);
  for (int i = 0; i < 3; ++i) port.enqueue(QueueEntry{data_packet(100, 20 + i)}, 1);
  port.set_paused(false);
  sched.run_all();
  ASSERT_EQ(peer.received.size(), 6u);
  // Alternating queues: 10,20,11,21,12,22.
  EXPECT_EQ(peer.received[0].pkt.flow_id, 10u);
  EXPECT_EQ(peer.received[1].pkt.flow_id, 20u);
  EXPECT_EQ(peer.received[2].pkt.flow_id, 11u);
  EXPECT_EQ(peer.received[3].pkt.flow_id, 21u);
}

TEST_F(PortFixture, OwnerNotifiedOnDeparture) {
  auto& port = make_port();
  port.enqueue(QueueEntry{data_packet(500), 7}, 0);
  sched.run_all();
  ASSERT_EQ(sender.departed.size(), 1u);
  EXPECT_EQ(sender.departed[0].ingress_port, 7);
}

TEST_F(PortFixture, QueueBytesReflectBacklog) {
  auto& port = make_port();
  port.set_paused(true);
  port.enqueue(QueueEntry{data_packet(300), -1}, 0);
  port.enqueue(QueueEntry{data_packet(200), -1}, 0);
  EXPECT_EQ(port.queue_bytes(0), 500);
  EXPECT_EQ(port.total_queue_bytes(), 500);
}

}  // namespace
}  // namespace pet::net
