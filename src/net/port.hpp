#pragma once
// Egress port: per-port transmitter with one control queue (strict priority,
// PFC-exempt) and N data queues (round-robin, RED/ECN-marked, PFC-pausable).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/gilbert_elliott.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/red_ecn.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace pet::net {

class Device;

/// Callbacks a port makes into the device that owns it.
class PortOwner {
 public:
  virtual ~PortOwner() = default;
  /// A packet finished serialization and left the device (buffer space and
  /// PFC ingress accounting can be released).
  virtual void on_packet_departed(std::int32_t port, const QueueEntry& entry) = 0;
};

struct PortConfig {
  sim::Rate rate = sim::gbps(10);
  sim::Time propagation_delay = sim::nanoseconds(1000);
  std::int32_t num_data_queues = 1;
  std::uint64_t seed = 1;  // for the RED markers
};

class EgressPort {
 public:
  EgressPort(sim::Scheduler& sched, PortOwner& owner, std::int32_t index,
             const PortConfig& cfg);

  EgressPort(const EgressPort&) = delete;
  EgressPort& operator=(const EgressPort&) = delete;

  void connect(Device* peer, std::int32_t peer_port) {
    peer_ = peer;
    peer_port_ = peer_port;
  }
  [[nodiscard]] Device* peer() const { return peer_; }
  [[nodiscard]] std::int32_t peer_port() const { return peer_port_; }
  [[nodiscard]] std::int32_t index() const { return index_; }
  [[nodiscard]] sim::Rate rate() const { return cfg_.rate; }
  [[nodiscard]] sim::Time propagation_delay() const {
    return cfg_.propagation_delay;
  }
  [[nodiscard]] std::int32_t num_data_queues() const {
    return static_cast<std::int32_t>(data_queues_.size());
  }

  /// Enqueue a data packet into queue `queue_idx`; the packet is CE-marked
  /// here if the queue's RED/ECN rule fires on the instantaneous length.
  void enqueue(const QueueEntry& entry, std::int32_t queue_idx);

  /// Enqueue a control packet (CNP/PFC); strict priority, never paused.
  void enqueue_control(const QueueEntry& entry);

  /// PFC pause state (data queues only).
  void set_paused(bool paused);
  [[nodiscard]] bool paused() const { return paused_; }

  /// Is a packet currently being serialized?
  [[nodiscard]] bool busy() const { return busy_; }

  /// Administrative/failure link state. Packets serialized onto a downed
  /// link are dropped at the far end of serialization.
  void set_link_up(bool up);
  [[nodiscard]] bool link_up() const { return link_up_; }

  // --- fault injection (driven by net::FaultPlan) --------------------------
  /// Degrade the effective transmit rate to `factor` of nominal (1.0 =
  /// healthy). Serialization slows accordingly; clamped to [0.001, 1].
  void set_rate_factor(double factor);
  [[nodiscard]] double rate_factor() const { return rate_factor_; }

  /// Probabilistic per-packet faults applied at the end of serialization:
  /// dropped packets vanish on the wire, corrupted ones are discarded by the
  /// receiver's CRC check — both are losses, counted separately.
  void set_fault_drop_prob(double p) { fault_drop_prob_ = p; }
  [[nodiscard]] double fault_drop_prob() const { return fault_drop_prob_; }
  void set_fault_corrupt_prob(double p) { fault_corrupt_prob_ = p; }
  [[nodiscard]] double fault_corrupt_prob() const { return fault_corrupt_prob_; }
  [[nodiscard]] std::int64_t fault_dropped_packets() const {
    return fault_dropped_packets_;
  }
  [[nodiscard]] std::int64_t fault_corrupted_packets() const {
    return fault_corrupted_packets_;
  }

  /// Correlated (bursty) loss via a Gilbert–Elliott chain, evaluated per
  /// packet at the end of serialization. Each window starts a fresh chain
  /// in the Good state; losses are counted separately from the Bernoulli
  /// fault drops.
  void set_burst_loss(const GilbertElliottConfig& cfg) {
    burst_loss_.emplace(cfg);
  }
  void clear_burst_loss() { burst_loss_.reset(); }
  [[nodiscard]] bool burst_loss_active() const {
    return burst_loss_.has_value();
  }
  [[nodiscard]] std::int64_t burst_dropped_packets() const {
    return burst_dropped_packets_;
  }

  /// Flush every queued packet (control + data) without transmitting, e.g.
  /// on a switch reboot. Returns the flushed entries so the owner can
  /// release buffer/PFC accounting. A packet mid-serialization still
  /// completes (it has already left the queues).
  [[nodiscard]] std::vector<QueueEntry> drain_queues();

  /// Runtime-adjustable ECN marking configuration (the agents' actuator).
  /// Invalid configurations are clamped to the nearest valid one and logged
  /// at WARN rather than installed verbatim.
  void set_ecn_config(std::int32_t queue_idx, const RedEcnConfig& cfg);
  [[nodiscard]] const RedEcnConfig& ecn_config(std::int32_t queue_idx) const;

  // --- observability -------------------------------------------------------
  [[nodiscard]] std::int64_t queue_bytes(std::int32_t queue_idx) const {
    return data_queues_[queue_idx].bytes();
  }
  [[nodiscard]] std::int64_t total_queue_bytes() const;
  [[nodiscard]] std::int64_t tx_bytes() const { return tx_bytes_; }
  [[nodiscard]] std::int64_t tx_packets() const { return tx_packets_; }
  [[nodiscard]] std::int64_t tx_marked_bytes() const { return tx_marked_bytes_; }
  [[nodiscard]] std::int64_t tx_marked_packets() const { return tx_marked_packets_; }
  [[nodiscard]] std::int64_t dropped_packets() const { return dropped_packets_; }

  // Per-queue egress counters (multi-queue adaptation, paper Section 4.5.2).
  [[nodiscard]] std::int64_t tx_bytes_queue(std::int32_t q) const {
    return tx_bytes_q_[q];
  }
  [[nodiscard]] std::int64_t tx_marked_bytes_queue(std::int32_t q) const {
    return tx_marked_bytes_q_[q];
  }

  /// Occupancy tracking of one data queue (queue 0 in the single-queue
  /// experiments).
  void track_occupancy(bool enabled, std::int32_t queue_idx = 0);
  [[nodiscard]] const sim::TimeWeightedStats& occupancy(std::int32_t queue_idx = 0);
  void reset_occupancy(std::int32_t queue_idx = 0);

 private:
  /// Start serializing the next packet unless the transmitter is busy,
  /// the link is down or nothing is queued. Inline: most calls (every
  /// enqueue behind a packet in flight, every departure that empties the
  /// port) end at this check.
  void try_transmit() {
    if (busy_ || !link_up_ || queued_ == 0) return;
    start_transmit();
  }
  void start_transmit();
  void finish_transmit(const QueueEntry& entry);
  [[nodiscard]] bool pick_next(QueueEntry& out);
  /// Serialization time at the nominal rate, cached for the last size
  /// (the rate is fixed per port, so the cache is exact).
  [[nodiscard]] sim::Time serialization_time(std::int32_t bytes) {
    if (bytes != ser_bytes_) {
      ser_bytes_ = bytes;
      ser_time_ = cfg_.rate.serialization_time(bytes);
    }
    return ser_time_;
  }

  sim::Scheduler& sched_;
  PortOwner& owner_;
  std::int32_t index_;
  PortConfig cfg_;
  Device* peer_ = nullptr;
  std::int32_t peer_port_ = -1;

  FifoQueue control_queue_;
  std::vector<FifoQueue> data_queues_;
  std::vector<RedEcnMarker> markers_;
  std::int32_t rr_next_ = 0;
  std::int64_t queued_ = 0;  // packets in the control and data queues
  std::int32_t ser_bytes_ = -1;  // no size cached yet
  sim::Time ser_time_;

  bool busy_ = false;
  bool paused_ = false;
  bool link_up_ = true;
  double rate_factor_ = 1.0;
  double fault_drop_prob_ = 0.0;
  double fault_corrupt_prob_ = 0.0;
  sim::Rng fault_rng_;
  std::int64_t fault_dropped_packets_ = 0;
  std::int64_t fault_corrupted_packets_ = 0;
  std::optional<GilbertElliott> burst_loss_;
  std::int64_t burst_dropped_packets_ = 0;

  std::int64_t tx_bytes_ = 0;
  std::int64_t tx_packets_ = 0;
  std::int64_t tx_marked_bytes_ = 0;
  std::int64_t tx_marked_packets_ = 0;
  std::int64_t dropped_packets_ = 0;
  std::vector<std::int64_t> tx_bytes_q_;
  std::vector<std::int64_t> tx_marked_bytes_q_;
};

}  // namespace pet::net
