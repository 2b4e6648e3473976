#include "net/classifier.hpp"

#include "sim/rng.hpp"
#include "sim/sorted_keys.hpp"

namespace pet::net {

std::function<std::int32_t(const Packet&)> make_hash_classifier(
    std::int32_t num_queues, std::uint64_t salt) {
  return [num_queues, salt](const Packet& pkt) {
    std::uint64_t h = pkt.flow_id ^ salt;
    h = sim::splitmix64(h);
    return static_cast<std::int32_t>(h % static_cast<std::uint64_t>(num_queues));
  };
}

std::int32_t SizeClassClassifier::operator()(const Packet& pkt) {
  std::int64_t& bytes = bytes_[pkt.flow_id];
  bytes += pkt.payload_bytes;
  const std::int32_t queue = bytes > threshold_ ? 1 : 0;
  if (bytes_.size() > max_flows_) prune();
  return queue;
}

std::vector<FlowId> SizeClassClassifier::tracked_ids() const {
  return sim::sorted_keys(bytes_);
}

void SizeClassClassifier::prune() {
  // Eviction stops at a size threshold, so the visit order decides which
  // flows keep their classification — that must not be hash-bucket order.
  // Ascending FlowId keeps the surviving table a pure function of the
  // traffic, independent of hash layout or library version.
  const std::vector<FlowId> keys = sim::sorted_keys(bytes_);
  // Evict completed mice (small accumulations) first; elephants must keep
  // their classification. Halving the table bounds the worst case.
  for (const FlowId id : keys) {
    if (bytes_.size() <= max_flows_ / 2) break;
    const auto it = bytes_.find(id);
    if (it != bytes_.end() && it->second <= threshold_) bytes_.erase(it);
  }
  // Pathological case: everything is an elephant; drop the oldest flow ids.
  for (const FlowId id : keys) {
    if (bytes_.size() <= max_flows_) break;
    bytes_.erase(id);
  }
}

}  // namespace pet::net
