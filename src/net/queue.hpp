#pragma once
// FIFO byte-accounted packet queue with optional time-weighted occupancy
// statistics (used by Table I and the reward's average queue length).
//
// Entries live in a flat power-of-two ring buffer rather than a std::deque:
// the deque paid a node allocation every few entries on the per-packet hot
// path, while the ring reaches its high-water capacity once and then serves
// push/pop allocation-free (pinned by tests/test_alloc_steady.cpp).

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace pet::net {

/// A packet queued at a switch remembers the ingress port it arrived on so
/// PFC ingress accounting can be released when it leaves, and the data
/// queue it was placed in so per-queue egress counters stay exact.
struct QueueEntry {
  Packet pkt;
  std::int32_t ingress_port = -1;  // -1: locally generated
  std::int32_t queue_idx = -1;     // -1: control queue
};

class FifoQueue {
 public:
  /// Append a copy of `entry`; returns the stored entry so the caller can
  /// stamp it in place.
  QueueEntry& push(const QueueEntry& entry, sim::Time now) {
    note_change(now);
    bytes_ += entry.pkt.size_bytes;
    ++packets_;
    if (count_ == ring_.size()) grow();
    QueueEntry& slot = ring_[(head_ + count_) & (ring_.size() - 1)];
    slot = entry;
    ++count_;
    return slot;
  }

  /// Copy the head entry into `out` and drop it; false (and `out`
  /// untouched) if empty.
  bool pop_into(QueueEntry& out, sim::Time now) {
    if (count_ == 0) return false;
    note_change(now);
    out = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    bytes_ -= out.pkt.size_bytes;
    --packets_;
    return true;
  }

  [[nodiscard]] std::optional<QueueEntry> pop(sim::Time now) {
    QueueEntry e;
    if (!pop_into(e, now)) return std::nullopt;
    return e;
  }

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t packets() const { return packets_; }

  /// Ring capacity (high-water mark observability for the bench gate).
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Enable/disable occupancy tracking (adds O(1) work per push/pop).
  void track_occupancy(bool enabled, sim::Time now) {
    tracking_ = enabled;
    last_change_ = now;
    occupancy_.reset();
  }

  /// Close the current occupancy interval and return the stats so far.
  [[nodiscard]] const sim::TimeWeightedStats& occupancy(sim::Time now) {
    note_change(now);
    return occupancy_;
  }

  void reset_occupancy(sim::Time now) {
    occupancy_.reset();
    last_change_ = now;
  }

 private:
  void note_change(sim::Time now) {
    if (!tracking_) return;
    occupancy_.add(static_cast<double>(bytes_), (now - last_change_).us());
    last_change_ = now;
  }

  void grow() {
    // Double (min 8) and unroll the ring so the oldest entry lands at 0.
    std::vector<QueueEntry> bigger(ring_.empty() ? 8 : ring_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<QueueEntry> ring_;  // size always a power of two (or empty)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::int64_t bytes_ = 0;
  std::int64_t packets_ = 0;
  bool tracking_ = false;
  sim::Time last_change_;
  sim::TimeWeightedStats occupancy_;
};

}  // namespace pet::net
