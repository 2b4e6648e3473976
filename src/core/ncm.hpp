#pragma once
// Network Condition Monitor (paper Section 4.5.1): the per-switch module
// that (1) monitors queue/port statistics, (2) computes the derived factors
// (incast degree, mice/elephant ratio), and (3) evicts expired state via
// scheduled and threshold-triggered cleanup so switch memory stays bounded.
//
// on_forward() runs for every data packet an agent switch forwards, so the
// monitoring state is flat and allocation-free once warm: one bit row of
// senders per destination touched in the slot, and an open-addressing flow
// table whose capacity never shrinks (see DESIGN.md §2j).

#include <cstdint>
#include <limits>
#include <vector>

#include "net/packet.hpp"
#include "net/switch.hpp"
#include "sim/checkpoint.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pet::core {

struct NcmConfig {
  /// Flows idle for this many monitoring slots are expired (Eq. (3)'s k).
  std::int32_t flow_expiry_slots = 3;
  /// Threshold cleanup: trim the flow table when it exceeds this.
  std::size_t max_tracked_flows = 8192;
  /// Threshold cleanup: trim per-destination sender sets beyond this.
  std::size_t max_tracked_dsts = 2048;
  /// Cumulative bytes above which a flow is an elephant.
  std::int64_t elephant_threshold_bytes = 1'000'000;
  /// Scope monitoring to one data queue per port (-1: whole port). Used by
  /// the multi-queue adaptation (paper Section 4.5.2), where each queue has
  /// its own NCM view and ECN configuration.
  std::int32_t queue_index = -1;
};

/// One monitoring slot's worth of switch statistics, aggregated over the
/// switch's ports with the bottleneck (max) port defining congestion
/// signals.
struct NcmSnapshot {
  sim::Time window;                // slot duration
  double qlen_bytes = 0.0;         // instantaneous max over ports at sample
  double avg_qlen_bytes = 0.0;     // time-weighted mean of the busiest port
  double utilization = 0.0;        // busiest port tx_bytes / capacity in [0,1]
  double marked_ratio = 0.0;       // marked tx bytes / capacity in [0,1]
  double incast_degree = 0.0;      // max distinct senders to one receiver
  double mice_ratio = 1.0;         // mice / (mice + elephants) seen in slot
  std::int64_t flows_seen = 0;
  std::int64_t packets_seen = 0;
};

class Ncm {
 public:
  Ncm(sim::Scheduler& sched, net::SwitchDevice& sw, const NcmConfig& cfg);

  ~Ncm();
  Ncm(const Ncm&) = delete;
  Ncm& operator=(const Ncm&) = delete;

  /// Close the current monitoring slot: return its statistics and reset the
  /// window counters (scheduled cleanup runs here).
  [[nodiscard]] NcmSnapshot sample();

  [[nodiscard]] net::SwitchDevice& switch_device() { return sw_; }

  /// Resident tracking-state size (for the overhead experiments).
  [[nodiscard]] std::size_t tracked_flows() const { return flows_.size(); }
  [[nodiscard]] std::size_t tracked_dsts() const { return dsts_.size(); }
  /// Flow-table scans made by threshold cleanup so far (tests pin that a
  /// slot stops scanning once the stale entries are gone).
  [[nodiscard]] std::int64_t flow_cleanup_scans() const {
    return flow_cleanup_scans_;
  }

  /// Checkpoint the monitoring state: slot clock, per-slot accumulators,
  /// flow table, and port counter baselines. Destinations, senders and
  /// flows are emitted in ascending-id order so the payload is
  /// layout-independent.
  void save_state(sim::ByteSink& out) const;
  /// Restores a save_state payload; false (monitor untouched) on a
  /// corrupted payload or port-count mismatch.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

 private:
  struct FlowInfo {
    net::FlowId id = 0;
    std::int64_t bytes = 0;
    std::int64_t last_seen_slot = 0;
  };

  /// Open-addressing flow table (linear probing, backward-shift erase, no
  /// tombstones). Capacity is a power of two kept at most 3/4 full and never
  /// shrinks, so a warm table inserts and erases without allocating.
  class FlowTable {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] FlowInfo& find_or_insert(net::FlowId id);
    [[nodiscard]] const FlowInfo* find(net::FlowId id) const;
    void erase(net::FlowId id);
    /// Erases every entry matching `pred`, visiting each entry exactly once.
    template <class Pred>
    void erase_if(Pred pred);
    /// Calls `fn` on every entry, in slot order (callers must not depend
    /// on it).
    template <class Fn>
    void for_each(Fn fn) const {
      for (const FlowInfo& e : slots_) {
        if (e.last_seen_slot != kFree) fn(e);
      }
    }
    void clear();

    /// Marks an unused slot; no real entry carries it (load_state rejects
    /// payloads that would).
    static constexpr std::int64_t kFree =
        std::numeric_limits<std::int64_t>::min();

   private:
    [[nodiscard]] std::size_t home(net::FlowId id) const;
    void erase_at(std::size_t hole);
    void grow();

    std::vector<FlowInfo> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;  // 64 - log2(capacity) for Fibonacci hashing
  };

  /// A destination touched in the current slot; row `k` of sender_bits_
  /// belongs to dsts_[k].
  struct DstRow {
    net::HostId dst = 0;
    std::int32_t fan_in = 0;  // distinct senders = popcount of the row
  };

  void on_forward(const net::Packet& pkt, std::int32_t out_port,
                  std::int32_t queue_idx);
  void add_sender(net::HostId dst, net::HostId src);
  void widen_rows(std::size_t words);
  void clear_dsts();
  /// Indices into dsts_, ordered by destination id.
  void dst_order(std::vector<std::int32_t>& order) const;
  void scheduled_cleanup();
  void threshold_cleanup();
  [[nodiscard]] std::int64_t scoped_tx_bytes(std::int32_t port) const;
  [[nodiscard]] std::int64_t scoped_tx_marked(std::int32_t port) const;

  sim::Scheduler& sched_;
  net::SwitchDevice& sw_;
  NcmConfig cfg_;
  std::int64_t observer_handle_ = 0;

  sim::Time last_sample_;
  std::int64_t slot_index_ = 0;

  // Per-slot accumulators. Sender sets are bit rows of row_words_ words
  // (bit s set: host s sent to this destination this slot); rows past
  // dsts_.size() are not kept, so memory is touched dsts x hosts / 8 bytes.
  // The flows seen this slot are exactly the flow-table entries whose
  // last_seen_slot is slot_index_, so they need no set of their own.
  std::vector<DstRow> dsts_;
  std::vector<std::uint64_t> sender_bits_;
  std::size_t row_words_ = 1;
  std::vector<std::int32_t> dst_row_;  // HostId -> index in dsts_, -1 if none
  std::int64_t slot_packets_ = 0;

  // Cross-slot flow-size tracking for mice/elephant classification.
  FlowTable flows_;

  // A flow cleanup that evicted every stale entry (last seen before
  // slot_index_ - 1) leaves none to find until the slot index moves, so
  // the rest of the slot skips the scan. Cleared by scheduled_cleanup and
  // load_state.
  bool stale_flows_exhausted_ = false;
  std::int64_t flow_cleanup_scans_ = 0;

  // Threshold-cleanup scratch, kept so a warm monitor never allocates.
  std::vector<std::int32_t> order_scratch_;
  std::vector<net::FlowId> evict_scratch_;

  // Port counter baselines for window deltas.
  std::vector<std::int64_t> last_tx_bytes_;
  std::vector<std::int64_t> last_tx_marked_;
};

}  // namespace pet::core
