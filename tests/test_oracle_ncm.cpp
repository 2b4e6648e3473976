// Differential oracle: core::Ncm (bit-row sender sets, open-addressing flow
// table, slot flows derived from the table) against RefNcm, a copy of the
// hash-container monitor it replaced. Both watch identical switches fed
// the same generated packet streams; every NcmSnapshot field must match
// bit for bit, and the save_state payloads byte for byte, mid-slot and
// after each slot. The streams cover host ids across the 64/128-bit word
// boundaries, queue scoping on and off, both threshold cleanups, flow
// expiry and empty slots, and a resume from a payload the reference wrote.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/ncm.hpp"
#include "net/network.hpp"
#include "sim/checkpoint.hpp"
#include "sim/rng.hpp"
#include "sim/sorted_keys.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

using core::NcmConfig;
using core::NcmSnapshot;

/// The hash-container NCM: per-destination std::unordered_set of senders,
/// an explicit set of the flows seen this slot, and a std::unordered_map
/// flow table, with sorted-key visits wherever order is observable.
class RefNcm {
 public:
  RefNcm(sim::Scheduler& sched, net::SwitchDevice& sw, const NcmConfig& cfg)
      : sched_(sched), sw_(sw), cfg_(cfg), last_sample_(sched.now()) {
    observer_handle_ = sw_.add_forward_observer(
        [this](const net::Packet& pkt, std::int32_t /*port*/,
               std::int32_t queue_idx) { on_forward(pkt, queue_idx); });
    const std::int32_t n = sw_.num_ports();
    last_tx_bytes_.assign(static_cast<std::size_t>(n), 0);
    last_tx_marked_.assign(static_cast<std::size_t>(n), 0);
    const std::int32_t q = std::max(0, cfg_.queue_index);
    for (std::int32_t p = 0; p < n; ++p) {
      last_tx_bytes_[p] = scoped_tx_bytes(p);
      last_tx_marked_[p] = scoped_tx_marked(p);
      if (q < sw_.port(p).num_data_queues()) {
        sw_.port(p).track_occupancy(true, q);
      }
    }
  }
  ~RefNcm() { sw_.remove_forward_observer(observer_handle_); }
  RefNcm(const RefNcm&) = delete;
  RefNcm& operator=(const RefNcm&) = delete;

  NcmSnapshot sample() {
    const sim::Time now = sched_.now();
    NcmSnapshot snap;
    snap.window = now - last_sample_;
    const double window_sec = std::max(1e-12, snap.window.sec());
    double max_qlen = 0.0;
    double max_avg_qlen = 0.0;
    double max_util = 0.0;
    double max_marked = 0.0;
    const std::int32_t scoped_q = std::max(0, cfg_.queue_index);
    for (std::int32_t p = 0; p < sw_.num_ports(); ++p) {
      auto& port = sw_.port(p);
      if (scoped_q >= port.num_data_queues()) continue;
      max_qlen = std::max(
          max_qlen,
          static_cast<double>(cfg_.queue_index < 0
                                  ? port.total_queue_bytes()
                                  : port.queue_bytes(cfg_.queue_index)));
      const auto& occ = port.occupancy(scoped_q);
      max_avg_qlen = std::max(max_avg_qlen, occ.mean());
      port.reset_occupancy(scoped_q);
      const double cap_bytes =
          static_cast<double>(port.rate().bps()) / 8.0 * window_sec;
      const double tx =
          static_cast<double>(scoped_tx_bytes(p) - last_tx_bytes_[p]);
      const double marked =
          static_cast<double>(scoped_tx_marked(p) - last_tx_marked_[p]);
      last_tx_bytes_[p] = scoped_tx_bytes(p);
      last_tx_marked_[p] = scoped_tx_marked(p);
      if (cap_bytes > 0.0) {
        max_util = std::max(max_util, tx / cap_bytes);
        max_marked = std::max(max_marked, marked / cap_bytes);
      }
    }
    snap.qlen_bytes = max_qlen;
    snap.avg_qlen_bytes = max_avg_qlen;
    snap.utilization = std::min(1.0, max_util);
    snap.marked_ratio = std::min(1.0, max_marked);

    std::size_t max_fan_in = 0;
    // pet-lint: allow(nondet-iteration): order-insensitive max reduction
    for (const auto& [dst, srcs] : dst_srcs_) {
      max_fan_in = std::max(max_fan_in, srcs.size());
    }
    snap.incast_degree = static_cast<double>(max_fan_in);
    std::int64_t mice = 0;
    std::int64_t elephants = 0;
    // pet-lint: allow(nondet-iteration): order-insensitive counting reduction
    for (const net::FlowId id : slot_flows_) {
      const auto it = flows_.find(id);
      if (it == flows_.end()) continue;
      if (it->second.bytes > cfg_.elephant_threshold_bytes) {
        ++elephants;
      } else {
        ++mice;
      }
    }
    snap.flows_seen = mice + elephants;
    snap.mice_ratio = snap.flows_seen > 0
                          ? static_cast<double>(mice) /
                                static_cast<double>(snap.flows_seen)
                          : 1.0;
    snap.packets_seen = slot_packets_;

    dst_srcs_.clear();
    slot_flows_.clear();
    slot_packets_ = 0;
    const std::int64_t expiry = slot_index_ - cfg_.flow_expiry_slots;
    // pet-lint: allow(nondet-iteration): full predicate erase
    for (auto it = flows_.begin(); it != flows_.end();) {
      if (it->second.last_seen_slot < expiry) {
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    last_sample_ = now;
    ++slot_index_;
    return snap;
  }

  [[nodiscard]] std::size_t tracked_flows() const { return flows_.size(); }
  [[nodiscard]] std::size_t tracked_dsts() const { return dst_srcs_.size(); }

  void save_state(sim::ByteSink& out) const {
    out.i64(last_sample_.ps());
    out.i64(slot_index_);
    out.u64(dst_srcs_.size());
    for (const net::HostId dst : sim::sorted_keys(dst_srcs_)) {
      out.i32(dst);
      const auto& srcs = dst_srcs_.at(dst);
      out.u64(srcs.size());
      for (const net::HostId src : sim::sorted_keys(srcs)) out.i32(src);
    }
    out.u64(slot_flows_.size());
    for (const net::FlowId flow : sim::sorted_keys(slot_flows_)) out.u64(flow);
    out.i64(slot_packets_);
    out.u64(flows_.size());
    for (const net::FlowId flow : sim::sorted_keys(flows_)) {
      const FlowInfo& info = flows_.at(flow);
      out.u64(flow);
      out.i64(info.bytes);
      out.i64(info.last_seen_slot);
    }
    out.u64(last_tx_bytes_.size());
    for (std::int64_t v : last_tx_bytes_) out.i64(v);
    out.u64(last_tx_marked_.size());
    for (std::int64_t v : last_tx_marked_) out.i64(v);
  }

 private:
  struct FlowInfo {
    std::int64_t bytes = 0;
    std::int64_t last_seen_slot = 0;
  };

  void on_forward(const net::Packet& pkt, std::int32_t queue_idx) {
    if (cfg_.queue_index >= 0 && queue_idx != cfg_.queue_index) return;
    ++slot_packets_;
    dst_srcs_[pkt.dst].insert(pkt.src);
    slot_flows_.insert(pkt.flow_id);
    FlowInfo& info = flows_[pkt.flow_id];
    info.bytes += pkt.payload_bytes;
    info.last_seen_slot = slot_index_;
    if (flows_.size() > cfg_.max_tracked_flows ||
        dst_srcs_.size() > cfg_.max_tracked_dsts) {
      threshold_cleanup();
    }
  }

  void threshold_cleanup() {
    if (flows_.size() > cfg_.max_tracked_flows) {
      const std::int64_t cutoff = slot_index_ - 1;
      for (const net::FlowId id : sim::sorted_keys(flows_)) {
        if (flows_.size() <= cfg_.max_tracked_flows / 2) break;
        const auto it = flows_.find(id);
        if (it != flows_.end() && it->second.last_seen_slot < cutoff) {
          flows_.erase(it);
        }
      }
    }
    if (dst_srcs_.size() > cfg_.max_tracked_dsts) {
      std::size_t max_size = 0;
      // pet-lint: allow(nondet-iteration): order-insensitive max reduction
      for (const auto& [dst, srcs] : dst_srcs_) {
        max_size = std::max(max_size, srcs.size());
      }
      for (const net::HostId dst : sim::sorted_keys(dst_srcs_)) {
        if (dst_srcs_.size() <= cfg_.max_tracked_dsts / 2) break;
        const auto it = dst_srcs_.find(dst);
        if (it != dst_srcs_.end() && it->second.size() < max_size) {
          dst_srcs_.erase(it);
        }
      }
    }
  }

  [[nodiscard]] std::int64_t scoped_tx_bytes(std::int32_t port) const {
    return cfg_.queue_index < 0
               ? sw_.port(port).tx_bytes()
               : sw_.port(port).tx_bytes_queue(cfg_.queue_index);
  }
  [[nodiscard]] std::int64_t scoped_tx_marked(std::int32_t port) const {
    return cfg_.queue_index < 0
               ? sw_.port(port).tx_marked_bytes()
               : sw_.port(port).tx_marked_bytes_queue(cfg_.queue_index);
  }

  sim::Scheduler& sched_;
  net::SwitchDevice& sw_;
  NcmConfig cfg_;
  std::int64_t observer_handle_ = 0;
  sim::Time last_sample_;
  std::int64_t slot_index_ = 0;
  std::unordered_map<net::HostId, std::unordered_set<net::HostId>> dst_srcs_;
  std::unordered_set<net::FlowId> slot_flows_;
  std::int64_t slot_packets_ = 0;
  std::unordered_map<net::FlowId, FlowInfo> flows_;
  std::vector<std::int64_t> last_tx_bytes_;
  std::vector<std::int64_t> last_tx_marked_;
};

constexpr std::int32_t kPorts = 4;

/// One switch with kPorts hosts and two data queues (the classifier splits
/// by flow id parity); every id in [0, max_host] is routed, to port
/// id % kPorts, so destinations as well as senders can sit past the
/// 64- and 128-bit row boundaries.
struct Rig {
  sim::Scheduler sched;
  net::Network net{sched, 33};
  net::SwitchDevice* sw = nullptr;

  explicit Rig(net::HostId max_host) {
    net::SwitchConfig cfg;
    cfg.num_data_queues = 2;
    sw = &net.add_switch(cfg);
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (std::int32_t i = 0; i < kPorts; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw->id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
    for (net::HostId d = 0; d <= max_host; ++d) {
      sw->set_routes(d, {d % kPorts});
    }
    sw->set_classifier([](const net::Packet& pkt) {
      return static_cast<std::int32_t>(pkt.flow_id % 2);
    });
  }
};

/// Host ids that straddle the bit-row word boundaries, plus a uniform draw.
net::HostId draw_host(sim::Rng& rng, net::HostId max_host) {
  static constexpr net::HostId kEdges[] = {0,   1,   63,  64,  65,
                                           127, 128, 129, 191, 192};
  if (rng.bernoulli(0.5)) {
    const net::HostId h =
        kEdges[rng.uniform_int(sizeof kEdges / sizeof kEdges[0])];
    if (h <= max_host) return h;
  }
  return static_cast<net::HostId>(
      rng.uniform_int(static_cast<std::uint64_t>(max_host) + 1));
}

std::vector<std::uint8_t> payload_of(const auto& monitor) {
  sim::ByteSink out;
  monitor.save_state(out);
  return out.take();
}

void assert_same(const NcmSnapshot& got, const NcmSnapshot& want) {
  PROP_ASSERT_EQ(got.window.ps(), want.window.ps());
  PROP_ASSERT_EQ(std::bit_cast<std::uint64_t>(got.qlen_bytes),
                 std::bit_cast<std::uint64_t>(want.qlen_bytes));
  PROP_ASSERT_EQ(std::bit_cast<std::uint64_t>(got.avg_qlen_bytes),
                 std::bit_cast<std::uint64_t>(want.avg_qlen_bytes));
  PROP_ASSERT_EQ(std::bit_cast<std::uint64_t>(got.utilization),
                 std::bit_cast<std::uint64_t>(want.utilization));
  PROP_ASSERT_EQ(std::bit_cast<std::uint64_t>(got.marked_ratio),
                 std::bit_cast<std::uint64_t>(want.marked_ratio));
  PROP_ASSERT_EQ(std::bit_cast<std::uint64_t>(got.incast_degree),
                 std::bit_cast<std::uint64_t>(want.incast_degree));
  PROP_ASSERT_EQ(std::bit_cast<std::uint64_t>(got.mice_ratio),
                 std::bit_cast<std::uint64_t>(want.mice_ratio));
  PROP_ASSERT_EQ(got.flows_seen, want.flows_seen);
  PROP_ASSERT_EQ(got.packets_seen, want.packets_seen);
}

// (seed, max host id, queue scope -1/0/1, flow limit, dst limit, expiry).
// The small limits make both threshold cleanups fire; 8192/2048 are the
// defaults, under which only scheduled cleanup runs.
PROPERTY_CASES(NcmOracle, FlatMonitorMatchesHashContainerMonitorBitwise, 60,
               tuple_of(integers(1, 1 << 30),
                        element_of<std::int64_t>({5, 63, 64, 127, 128, 200}),
                        integers(-1, 1),
                        element_of<std::int64_t>({2, 4, 8, 24, 8192}),
                        element_of<std::int64_t>({1, 4, 9, 2048}),
                        integers(0, 4))) {
  const auto& [seed, max_host_arg, scope, max_flows, max_dsts, expiry] = arg;
  const auto max_host = static_cast<net::HostId>(max_host_arg);
  NcmConfig cfg;
  cfg.queue_index = static_cast<std::int32_t>(scope);
  cfg.max_tracked_flows = static_cast<std::size_t>(max_flows);
  cfg.max_tracked_dsts = static_cast<std::size_t>(max_dsts);
  cfg.flow_expiry_slots = static_cast<std::int32_t>(expiry);
  cfg.elephant_threshold_bytes = 4000;

  Rig ref_rig(max_host);
  Rig rig(max_host);
  RefNcm ref(ref_rig.sched, *ref_rig.sw, cfg);
  core::Ncm ncm(rig.sched, *rig.sw, cfg);
  PROP_ASSERT(payload_of(ncm) == payload_of(ref));

  sim::Rng rng(static_cast<std::uint64_t>(seed));
  // A flow pool a few times the flow limit: flows recur (and grow into
  // elephants) while new ones keep pushing the table past its bound.
  const std::uint64_t pool = 3 * std::min<std::uint64_t>(max_flows, 40) + 5;
  const int slots = 14;
  const int resume_slot = static_cast<int>(rng.uniform_int(slots));
  std::vector<std::uint8_t> older_payload = payload_of(ref);
  for (int slot = 0; slot < slots; ++slot) {
    const auto packets =
        rng.bernoulli(0.15) ? 0 : static_cast<int>(rng.uniform_int(90));
    for (int i = 0; i < packets; ++i) {
      net::Packet pkt;
      pkt.type = net::PacketType::kData;
      pkt.flow_id = 1 + rng.uniform_int(pool) + (rng.bernoulli(0.1) ? 1000 : 0);
      pkt.src = draw_host(rng, max_host);
      pkt.dst = draw_host(rng, max_host);
      pkt.payload_bytes = static_cast<std::int32_t>(64 + rng.uniform_int(1400));
      pkt.size_bytes = pkt.payload_bytes + 48;
      const auto in_port = static_cast<std::int32_t>(rng.uniform_int(kPorts));
      ref_rig.sw->receive(pkt, in_port);
      rig.sw->receive(pkt, in_port);
      if (i == packets / 2) {
        PROP_ASSERT_EQ(ncm.tracked_flows(), ref.tracked_flows());
        PROP_ASSERT_EQ(ncm.tracked_dsts(), ref.tracked_dsts());
        const std::vector<std::uint8_t> mid = payload_of(ref);
        PROP_ASSERT(payload_of(ncm) == mid);
        if (slot == resume_slot) {
          // Resume from the reference's own payload, after first loading an
          // older one so the flat state really is replaced, not kept.
          sim::ByteSource old_in(older_payload);
          PROP_ASSERT(ncm.load_state(old_in));
          PROP_ASSERT(payload_of(ncm) == older_payload);
          sim::ByteSource mid_in(mid);
          PROP_ASSERT(ncm.load_state(mid_in));
          PROP_ASSERT(payload_of(ncm) == mid);
        }
      }
    }
    const sim::Time next = sim::microseconds(100) * (slot + 1);
    ref_rig.sched.run_until(next);
    rig.sched.run_until(next);
    PROP_ASSERT_EQ(ncm.tracked_flows(), ref.tracked_flows());
    PROP_ASSERT_EQ(ncm.tracked_dsts(), ref.tracked_dsts());
    assert_same(ncm.sample(), ref.sample());
    PROP_ASSERT_EQ(ncm.tracked_flows(), ref.tracked_flows());
    PROP_ASSERT_EQ(ncm.tracked_dsts(), ref.tracked_dsts());
    older_payload = payload_of(ref);
    PROP_ASSERT(payload_of(ncm) == older_payload);
  }
}

TEST(NcmOracle, InconsistentSlotFlowListIsRejected) {
  // The slot-flow list in a payload is derived state (the flows last seen
  // in the saved slot). A payload whose list disagrees with its own flow
  // table cannot come from either layout and must leave the monitor as is.
  Rig rig(8);
  NcmConfig cfg;
  core::Ncm ncm(rig.sched, *rig.sw, cfg);
  net::Packet pkt;
  pkt.type = net::PacketType::kData;
  pkt.flow_id = 5;
  pkt.src = 1;
  pkt.dst = 2;
  pkt.payload_bytes = 1000;
  pkt.size_bytes = 1048;
  rig.sw->receive(pkt, 1);
  const std::vector<std::uint8_t> good = payload_of(ncm);

  sim::ByteSink bad;
  bad.i64(0);  // last sample
  bad.i64(0);  // slot index
  bad.u64(0);  // no destinations
  bad.u64(1);  // one slot flow ...
  bad.u64(6);  // ... that is not in the flow table
  bad.i64(1);  // slot packets
  bad.u64(1);
  bad.u64(5);
  bad.i64(1000);
  bad.i64(0);
  bad.u64(kPorts);
  for (std::int32_t p = 0; p < kPorts; ++p) bad.i64(0);
  bad.u64(kPorts);
  for (std::int32_t p = 0; p < kPorts; ++p) bad.i64(0);
  const std::vector<std::uint8_t> bytes = bad.take();
  sim::ByteSource in(bytes);
  EXPECT_FALSE(ncm.load_state(in));
  EXPECT_EQ(payload_of(ncm), good);
}

}  // namespace
}  // namespace pet::testkit
