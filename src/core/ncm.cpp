#include "core/ncm.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

namespace pet::core {

// --- flow table -------------------------------------------------------------

std::size_t Ncm::FlowTable::home(net::FlowId id) const {
  // Fibonacci hashing: flow ids are mostly sequential, and the multiply
  // spreads them over the table's high bits.
  return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
}

Ncm::FlowInfo& Ncm::FlowTable::find_or_insert(net::FlowId id) {
  if ((size_ + 1) * 4 > slots_.size() * 3) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(id);
  for (; slots_[i].last_seen_slot != kFree; i = (i + 1) & mask) {
    if (slots_[i].id == id) return slots_[i];
  }
  ++size_;
  slots_[i] = FlowInfo{.id = id, .bytes = 0, .last_seen_slot = 0};
  return slots_[i];
}

const Ncm::FlowInfo* Ncm::FlowTable::find(net::FlowId id) const {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(id); slots_[i].last_seen_slot != kFree;
       i = (i + 1) & mask) {
    if (slots_[i].id == id) return &slots_[i];
  }
  return nullptr;
}

void Ncm::FlowTable::erase(net::FlowId id) {
  if (const FlowInfo* e = find(id)) {
    erase_at(static_cast<std::size_t>(e - slots_.data()));
  }
}

void Ncm::FlowTable::erase_at(std::size_t hole) {
  // Backward-shift deletion: walk the rest of the probe run and pull each
  // entry whose probe path covers the hole into it, so every remaining
  // entry stays reachable from its home slot without tombstones.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots_[j].last_seen_slot != kFree;
       j = (j + 1) & mask) {
    const std::size_t from_home = (j - home(slots_[j].id)) & mask;
    if (from_home >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].last_seen_slot = kFree;
  --size_;
}

template <class Pred>
void Ncm::FlowTable::erase_if(Pred pred) {
  if (size_ == 0) return;
  // Start at a free slot: no probe run wraps past it, so a backward shift
  // only ever moves not-yet-visited entries, and only into the slot being
  // visited or one still ahead. Re-checking the visited slot after each
  // erase therefore sees every entry exactly once.
  const std::size_t mask = slots_.size() - 1;
  std::size_t start = 0;
  while (slots_[start].last_seen_slot != kFree) ++start;
  for (std::size_t n = 1; n <= mask; ++n) {
    const std::size_t i = (start + n) & mask;
    while (slots_[i].last_seen_slot != kFree && pred(slots_[i])) erase_at(i);
  }
}

void Ncm::FlowTable::grow() {
  std::vector<FlowInfo> old = std::move(slots_);
  const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
  slots_.assign(capacity,
                FlowInfo{.id = 0, .bytes = 0, .last_seen_slot = kFree});
  shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (const FlowInfo& e : old) {
    if (e.last_seen_slot == kFree) continue;
    std::size_t i = home(e.id);
    while (slots_[i].last_seen_slot != kFree) i = (i + 1) & mask;
    slots_[i] = e;
  }
}

// --- monitor ----------------------------------------------------------------

Ncm::Ncm(sim::Scheduler& sched, net::SwitchDevice& sw, const NcmConfig& cfg)
    : sched_(sched), sw_(sw), cfg_(cfg), last_sample_(sched.now()) {
  observer_handle_ = sw_.add_forward_observer(
      [this](const net::Packet& pkt, std::int32_t port,
             std::int32_t queue_idx) { on_forward(pkt, port, queue_idx); });
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

Ncm::~Ncm() { sw_.remove_forward_observer(observer_handle_); }

std::int64_t Ncm::scoped_tx_bytes(std::int32_t port) const {
  return cfg_.queue_index < 0
             ? sw_.port(port).tx_bytes()
             : sw_.port(port).tx_bytes_queue(cfg_.queue_index);
}

std::int64_t Ncm::scoped_tx_marked(std::int32_t port) const {
  return cfg_.queue_index < 0
             ? sw_.port(port).tx_marked_bytes()
             : sw_.port(port).tx_marked_bytes_queue(cfg_.queue_index);
}

void Ncm::on_forward(const net::Packet& pkt, std::int32_t /*out_port*/,
                     std::int32_t queue_idx) {
  if (cfg_.queue_index >= 0 && queue_idx != cfg_.queue_index) return;
  ++slot_packets_;
  add_sender(pkt.dst, pkt.src);
  FlowInfo& info = flows_.find_or_insert(pkt.flow_id);
  info.bytes += pkt.payload_bytes;
  info.last_seen_slot = slot_index_;
  if (flows_.size() > cfg_.max_tracked_flows ||
      dsts_.size() > cfg_.max_tracked_dsts) {
    threshold_cleanup();
  }
}

void Ncm::add_sender(net::HostId dst, net::HostId src) {
  // A forwarded packet's dst is routable, hence a dense HostId >= 0.
  const auto d = static_cast<std::size_t>(dst);
  if (d >= dst_row_.size()) dst_row_.resize(d + 1, -1);
  std::int32_t row = dst_row_[d];
  if (row < 0) {
    row = static_cast<std::int32_t>(dsts_.size());
    dst_row_[d] = row;
    dsts_.push_back(DstRow{.dst = dst, .fan_in = 0});
    sender_bits_.resize(dsts_.size() * row_words_);  // zero-filled row
  }
  if (src < 0) return;  // no sending host (HostIds are dense 0..H-1)
  const auto s = static_cast<std::size_t>(src);
  if (s / 64 >= row_words_) widen_rows(s / 64 + 1);
  std::uint64_t& word =
      sender_bits_[static_cast<std::size_t>(row) * row_words_ + s / 64];
  const std::uint64_t bit = std::uint64_t{1} << (s % 64);
  if ((word & bit) == 0) {
    word |= bit;
    ++dsts_[static_cast<std::size_t>(row)].fan_in;
  }
}

void Ncm::widen_rows(std::size_t words) {
  // In place, back to front: row r's new start r*words is at or past its
  // old start r*row_words_, so no word is overwritten before it is read.
  const std::size_t old = row_words_;
  sender_bits_.resize(dsts_.size() * words);
  for (std::size_t r = dsts_.size(); r-- > 0;) {
    for (std::size_t w = words; w-- > 0;) {
      sender_bits_[r * words + w] = w < old ? sender_bits_[r * old + w] : 0;
    }
  }
  row_words_ = words;
}

void Ncm::clear_dsts() {
  for (const DstRow& r : dsts_) dst_row_[static_cast<std::size_t>(r.dst)] = -1;
  dsts_.clear();
  sender_bits_.clear();  // capacity kept; resize() zero-fills reused rows
}

void Ncm::dst_order(std::vector<std::int32_t>& order) const {
  order.resize(dsts_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](std::int32_t a, std::int32_t b) {
    return dsts_[static_cast<std::size_t>(a)].dst <
           dsts_[static_cast<std::size_t>(b)].dst;
  });
}

NcmSnapshot Ncm::sample() {
  const sim::Time now = sched_.now();
  NcmSnapshot snap;
  snap.window = now - last_sample_;
  const double window_sec = std::max(1e-12, snap.window.sec());

  // --- port statistics: the bottleneck (max) port defines the signals -----
  double max_qlen = 0.0;
  double max_avg_qlen = 0.0;
  double max_util = 0.0;
  double max_marked = 0.0;
  const std::int32_t scoped_q = std::max(0, cfg_.queue_index);
  for (std::int32_t p = 0; p < sw_.num_ports(); ++p) {
    auto& port = sw_.port(p);
    if (scoped_q >= port.num_data_queues()) continue;
    max_qlen = std::max(
        max_qlen, static_cast<double>(cfg_.queue_index < 0
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

  // --- derived factors ------------------------------------------------------
  std::int32_t max_fan_in = 0;
  for (const DstRow& r : dsts_) max_fan_in = std::max(max_fan_in, r.fan_in);
  snap.incast_degree = static_cast<double>(max_fan_in);

  // Flows seen this slot: threshold cleanup never evicts an entry seen in
  // the current or previous slot, so these are all still in the table.
  std::int64_t mice = 0;
  std::int64_t elephants = 0;
  flows_.for_each([&](const FlowInfo& e) {
    if (e.last_seen_slot != slot_index_) return;
    if (e.bytes > cfg_.elephant_threshold_bytes) {
      ++elephants;
    } else {
      ++mice;
    }
  });
  snap.flows_seen = mice + elephants;
  snap.mice_ratio = snap.flows_seen > 0
                        ? static_cast<double>(mice) /
                              static_cast<double>(snap.flows_seen)
                        : 1.0;
  snap.packets_seen = slot_packets_;

  // --- scheduled cleanup: drop the slot accumulators and expired flows ----
  scheduled_cleanup();
  last_sample_ = now;
  ++slot_index_;
  return snap;
}

void Ncm::scheduled_cleanup() {
  clear_dsts();
  slot_packets_ = 0;
  stale_flows_exhausted_ = false;
  const std::int64_t expiry = slot_index_ - cfg_.flow_expiry_slots;
  flows_.erase_if(
      [expiry](const FlowInfo& e) { return e.last_seen_slot < expiry; });
}

void Ncm::threshold_cleanup() {
  // Memory pressure inside a slot (e.g. an incast burst): evict the stalest
  // half of the flow table and the largest sender sets' excess.
  // Both evictions below stop at a size threshold, so visit order decides
  // who survives — visit ascending ids, never table-slot order (the
  // surviving state feeds NcmSnapshot and from there agent actions).
  if (!stale_flows_exhausted_ && flows_.size() > cfg_.max_tracked_flows) {
    // Only stale entries can go, and skipping the others changes no size,
    // so visiting the sorted stale ids stops exactly where a walk over all
    // sorted ids would.
    ++flow_cleanup_scans_;
    const std::int64_t cutoff = slot_index_ - 1;
    evict_scratch_.clear();
    flows_.for_each([&](const FlowInfo& e) {
      if (e.last_seen_slot < cutoff) evict_scratch_.push_back(e.id);
    });
    std::sort(evict_scratch_.begin(), evict_scratch_.end());
    std::size_t erased = 0;
    for (const net::FlowId id : evict_scratch_) {
      if (flows_.size() <= cfg_.max_tracked_flows / 2) break;
      flows_.erase(id);
      ++erased;
    }
    // Entries only ever get newer within a slot, so with the stale ones all
    // gone a later scan this slot would find nothing to evict.
    stale_flows_exhausted_ = erased == evict_scratch_.size();
  }
  if (dsts_.size() > cfg_.max_tracked_dsts) {
    // Sender sets are slot-scoped; dropping the smallest keeps the
    // incast-degree maximum intact with bounded memory.
    std::int32_t max_fan_in = 0;
    for (const DstRow& r : dsts_) max_fan_in = std::max(max_fan_in, r.fan_in);
    dst_order(order_scratch_);
    std::size_t remaining = dsts_.size();
    for (const std::int32_t k : order_scratch_) {
      if (remaining <= cfg_.max_tracked_dsts / 2) break;
      const DstRow& r = dsts_[static_cast<std::size_t>(k)];
      if (r.fan_in < max_fan_in) {
        dst_row_[static_cast<std::size_t>(r.dst)] = -1;
        --remaining;
      }
    }
    // Compact the survivors (those still mapped to their row) in place.
    std::size_t kept = 0;
    for (std::size_t k = 0; k < dsts_.size(); ++k) {
      const DstRow r = dsts_[k];
      if (dst_row_[static_cast<std::size_t>(r.dst)] !=
          static_cast<std::int32_t>(k)) {
        continue;
      }
      if (kept != k) {
        dsts_[kept] = r;
        dst_row_[static_cast<std::size_t>(r.dst)] =
            static_cast<std::int32_t>(kept);
        std::copy_n(sender_bits_.begin() +
                        static_cast<std::ptrdiff_t>(k * row_words_),
                    row_words_,
                    sender_bits_.begin() +
                        static_cast<std::ptrdiff_t>(kept * row_words_));
      }
      ++kept;
    }
    dsts_.resize(kept);
    sender_bits_.resize(kept * row_words_);
  }
}

void Ncm::save_state(sim::ByteSink& out) const {
  out.i64(last_sample_.ps());
  out.i64(slot_index_);
  out.u64(dsts_.size());
  std::vector<std::int32_t> order;
  dst_order(order);
  for (const std::int32_t k : order) {
    const DstRow& r = dsts_[static_cast<std::size_t>(k)];
    out.i32(r.dst);
    out.u64(static_cast<std::uint64_t>(r.fan_in));
    const std::size_t base = static_cast<std::size_t>(k) * row_words_;
    for (std::size_t w = 0; w < row_words_; ++w) {
      for (std::uint64_t bits = sender_bits_[base + w]; bits != 0;
           bits &= bits - 1) {
        out.i32(static_cast<net::HostId>(w * 64) + std::countr_zero(bits));
      }
    }
  }
  std::vector<FlowInfo> table;
  table.reserve(flows_.size());
  flows_.for_each([&](const FlowInfo& e) { table.push_back(e); });
  std::sort(table.begin(), table.end(),
            [](const FlowInfo& a, const FlowInfo& b) { return a.id < b.id; });
  const auto seen_this_slot = [this](const FlowInfo& e) {
    return e.last_seen_slot == slot_index_;
  };
  out.u64(static_cast<std::uint64_t>(
      std::count_if(table.begin(), table.end(), seen_this_slot)));
  for (const FlowInfo& e : table) {
    if (seen_this_slot(e)) out.u64(e.id);
  }
  out.i64(slot_packets_);
  out.u64(table.size());
  for (const FlowInfo& e : table) {
    out.u64(e.id);
    out.i64(e.bytes);
    out.i64(e.last_seen_slot);
  }
  out.u64(last_tx_bytes_.size());
  for (std::int64_t v : last_tx_bytes_) out.i64(v);
  out.u64(last_tx_marked_.size());
  for (std::int64_t v : last_tx_marked_) out.i64(v);
}

bool Ncm::load_state(sim::ByteSource& in) {
  const std::int64_t last_sample_ps = in.i64();
  const std::int64_t slot_index = in.i64();
  std::vector<std::pair<net::HostId, net::HostId>> senders;  // (dst, src)
  std::vector<net::HostId> dsts;
  const std::uint64_t dst_count = in.u64();
  if (!in.ok()) return false;
  for (std::uint64_t i = 0; i < dst_count; ++i) {
    const net::HostId dst = in.i32();
    const std::uint64_t src_count = in.u64();
    if (!in.ok() || dst < 0) return false;
    dsts.push_back(dst);
    for (std::uint64_t s = 0; s < src_count; ++s) {
      const net::HostId src = in.i32();
      if (!in.ok() || src < 0) return false;
      senders.emplace_back(dst, src);
    }
  }
  // The slot-flow list is derived state: it must be exactly the ascending
  // ids of the flow entries seen in slot `slot_index`.
  std::vector<net::FlowId> slot_flows;
  const std::uint64_t slot_flow_count = in.u64();
  if (!in.ok()) return false;
  for (std::uint64_t i = 0; i < slot_flow_count; ++i) {
    slot_flows.push_back(in.u64());
    if (!in.ok()) return false;
  }
  const std::int64_t slot_packets = in.i64();
  FlowTable flows;
  const std::uint64_t flow_count = in.u64();
  if (!in.ok()) return false;
  for (std::uint64_t i = 0; i < flow_count; ++i) {
    const net::FlowId id = in.u64();
    const std::int64_t bytes = in.i64();
    const std::int64_t last_seen_slot = in.i64();
    if (!in.ok() || last_seen_slot == FlowTable::kFree ||
        flows.find(id) != nullptr) {
      return false;
    }
    FlowInfo& info = flows.find_or_insert(id);
    info.bytes = bytes;
    info.last_seen_slot = last_seen_slot;
  }
  std::size_t seen_this_slot = 0;
  flows.for_each([&](const FlowInfo& e) {
    seen_this_slot += e.last_seen_slot == slot_index ? 1 : 0;
  });
  if (slot_flows.size() != seen_this_slot) return false;
  for (std::size_t i = 0; i < slot_flows.size(); ++i) {
    const FlowInfo* e = flows.find(slot_flows[i]);
    if ((i > 0 && slot_flows[i] <= slot_flows[i - 1]) || e == nullptr ||
        e->last_seen_slot != slot_index) {
      return false;
    }
  }
  std::vector<std::int64_t> last_tx_bytes;
  const std::uint64_t tx_count = in.u64();
  if (!in.ok() || tx_count != last_tx_bytes_.size()) return false;
  for (std::uint64_t i = 0; i < tx_count; ++i) {
    last_tx_bytes.push_back(in.i64());
  }
  std::vector<std::int64_t> last_tx_marked;
  const std::uint64_t marked_count = in.u64();
  if (!in.ok() || marked_count != last_tx_marked_.size()) return false;
  for (std::uint64_t i = 0; i < marked_count; ++i) {
    last_tx_marked.push_back(in.i64());
  }
  if (!in.ok()) return false;
  last_sample_ = sim::Time(last_sample_ps);
  slot_index_ = slot_index;
  stale_flows_exhausted_ = false;
  clear_dsts();
  for (const net::HostId dst : dsts) add_sender(dst, -1);
  for (const auto& [dst, src] : senders) add_sender(dst, src);
  slot_packets_ = slot_packets;
  flows_ = std::move(flows);
  last_tx_bytes_ = std::move(last_tx_bytes);
  last_tx_marked_ = std::move(last_tx_marked);
  return true;
}

}  // namespace pet::core
