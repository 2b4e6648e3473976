#include "net/port.hpp"

#include <algorithm>
#include <cassert>

#include "net/device.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace pet::net {

EgressPort::EgressPort(sim::Scheduler& sched, PortOwner& owner,
                       std::int32_t index, const PortConfig& cfg)
    : sched_(sched),
      owner_(owner),
      index_(index),
      cfg_(cfg),
      fault_rng_(sim::derive_seed(cfg.seed, "port-fault")) {
  assert(cfg.num_data_queues >= 1);
  data_queues_.resize(static_cast<std::size_t>(cfg.num_data_queues));
  tx_bytes_q_.assign(static_cast<std::size_t>(cfg.num_data_queues), 0);
  tx_marked_bytes_q_.assign(static_cast<std::size_t>(cfg.num_data_queues), 0);
  markers_.reserve(static_cast<std::size_t>(cfg.num_data_queues));
  for (std::int32_t q = 0; q < cfg.num_data_queues; ++q) {
    markers_.emplace_back(sim::derive_seed(cfg.seed, "red") + static_cast<std::uint64_t>(q));
  }
}

void EgressPort::enqueue(const QueueEntry& entry, std::int32_t queue_idx) {
  assert(queue_idx >= 0 && queue_idx < num_data_queues());
  auto& queue = data_queues_[queue_idx];
  // The marker sees the queue length before this packet joins it.
  const bool mark = entry.pkt.ecn_capable && !entry.pkt.ce_marked &&
                    markers_[queue_idx].should_mark(queue.bytes());
  QueueEntry& queued = queue.push(entry, sched_.now());
  if (mark) queued.pkt.ce_marked = true;
  queued.queue_idx = queue_idx;
  ++queued_;
  try_transmit();
}

void EgressPort::enqueue_control(const QueueEntry& entry) {
  control_queue_.push(entry, sched_.now()).queue_idx = -1;
  ++queued_;
  try_transmit();
}

void EgressPort::set_paused(bool paused) {
  if (paused_ == paused) return;
  paused_ = paused;
  if (!paused_) try_transmit();
}

void EgressPort::set_link_up(bool up) {
  if (link_up_ == up) return;
  link_up_ = up;
  if (link_up_) try_transmit();
}

void EgressPort::set_rate_factor(double factor) {
  rate_factor_ = std::clamp(factor, 0.001, 1.0);
}

std::vector<QueueEntry> EgressPort::drain_queues() {
  std::vector<QueueEntry> flushed;
  QueueEntry e;
  while (control_queue_.pop_into(e, sched_.now())) flushed.push_back(e);
  for (auto& q : data_queues_) {
    while (q.pop_into(e, sched_.now())) flushed.push_back(e);
  }
  queued_ = 0;
  return flushed;
}

void EgressPort::set_ecn_config(std::int32_t queue_idx, const RedEcnConfig& cfg) {
  if (!cfg.valid()) {
    // An agent action (or a buggy tuner) produced inconsistent thresholds:
    // install the nearest valid configuration instead of the garbage one.
    const RedEcnConfig fixed = cfg.clamped();
    PET_LOG_WARN(sched_,
                 "port %d queue %d: invalid ECN config kmin=%lld kmax=%lld "
                 "pmax=%g clamped to kmin=%lld kmax=%lld pmax=%g",
                 index_, queue_idx, static_cast<long long>(cfg.kmin_bytes),
                 static_cast<long long>(cfg.kmax_bytes), cfg.pmax,
                 static_cast<long long>(fixed.kmin_bytes),
                 static_cast<long long>(fixed.kmax_bytes), fixed.pmax);
    markers_[queue_idx].set_config(fixed);
    return;
  }
  markers_[queue_idx].set_config(cfg);
}

const RedEcnConfig& EgressPort::ecn_config(std::int32_t queue_idx) const {
  return markers_[queue_idx].config();
}

std::int64_t EgressPort::total_queue_bytes() const {
  std::int64_t total = control_queue_.bytes();
  for (const auto& q : data_queues_) total += q.bytes();
  return total;
}

void EgressPort::track_occupancy(bool enabled, std::int32_t queue_idx) {
  data_queues_[queue_idx].track_occupancy(enabled, sched_.now());
}

const sim::TimeWeightedStats& EgressPort::occupancy(std::int32_t queue_idx) {
  return data_queues_[queue_idx].occupancy(sched_.now());
}

void EgressPort::reset_occupancy(std::int32_t queue_idx) {
  data_queues_[queue_idx].reset_occupancy(sched_.now());
}

bool EgressPort::pick_next(QueueEntry& out) {
  const sim::Time now = sched_.now();
  // Control traffic is strict-priority and PFC-exempt.
  if (control_queue_.pop_into(out, now)) return true;
  if (paused_) return false;
  const auto n = num_data_queues();
  if (n == 1) return data_queues_[0].pop_into(out, now);
  // Round-robin over data queues.
  std::int32_t q = rr_next_;
  for (std::int32_t i = 0; i < n; ++i) {
    if (data_queues_[q].pop_into(out, now)) {
      rr_next_ = q + 1 == n ? 0 : q + 1;
      return true;
    }
    q = q + 1 == n ? 0 : q + 1;
  }
  return false;
}

void EgressPort::start_transmit() {
  QueueEntry entry;
  if (!pick_next(entry)) return;  // only data queued, and paused
  --queued_;
  busy_ = true;
  sim::Time ser = serialization_time(entry.pkt.size_bytes);
  if (rate_factor_ < 1.0) {
    // Degraded link: serialization stretches by the inverse of the factor.
    ser = sim::Time(static_cast<std::int64_t>(
        static_cast<double>(ser.ps()) / rate_factor_));
  }
  const sim::Time done = sched_.now() + ser;
  // The entry rides in the event's inline capture; finish_transmit reads
  // it there by reference (the slot does not move while the event runs).
  sched_.schedule_at(
      done, [this, entry] { finish_transmit(entry); }, "net.tx");
}

void EgressPort::finish_transmit(const QueueEntry& entry) {
  busy_ = false;
  tx_bytes_ += entry.pkt.size_bytes;
  ++tx_packets_;
  if (entry.queue_idx >= 0) tx_bytes_q_[entry.queue_idx] += entry.pkt.size_bytes;
  if (entry.pkt.ce_marked) {
    tx_marked_bytes_ += entry.pkt.size_bytes;
    ++tx_marked_packets_;
    if (entry.queue_idx >= 0) {
      tx_marked_bytes_q_[entry.queue_idx] += entry.pkt.size_bytes;
    }
  }
  owner_.on_packet_departed(index_, entry);
  bool deliver = link_up_ && peer_ != nullptr;
  if (deliver && fault_drop_prob_ > 0.0 &&
      fault_rng_.bernoulli(fault_drop_prob_)) {
    ++fault_dropped_packets_;
    deliver = false;
  } else if (deliver && fault_corrupt_prob_ > 0.0 &&
             fault_rng_.bernoulli(fault_corrupt_prob_)) {
    // Corrupted on the wire: the receiver's CRC check discards it.
    ++fault_corrupted_packets_;
    deliver = false;
  } else if (deliver && burst_loss_.has_value() &&
             burst_loss_->step(fault_rng_)) {
    // Correlated burst loss (Gilbert–Elliott window).
    ++burst_dropped_packets_;
    deliver = false;
  }
  if (deliver) {
    sched_.schedule_in(
        cfg_.propagation_delay,
        [peer = peer_, pkt = entry.pkt, pp = peer_port_] {
          peer->receive(pkt, pp);
        },
        "net.prop");
  } else {
    ++dropped_packets_;
  }
  try_transmit();
}

}  // namespace pet::net
