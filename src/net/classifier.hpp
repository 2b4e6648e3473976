#pragma once
// Data-queue classifiers for multi-queue switches. The paper's multi-queue
// discussion (and the DC-ECN/DEMT related work it cites) separates mice
// from elephants into different queues; SizeClassClassifier implements the
// standard cumulative-bytes heuristic with bounded state.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"

namespace pet::net {

/// Stateless hash spreading flows evenly over `num_queues`.
[[nodiscard]] std::function<std::int32_t(const Packet&)> make_hash_classifier(
    std::int32_t num_queues, std::uint64_t salt = 0x9E37);

/// Classifies a flow into queue 1 (elephants) once its cumulative bytes
/// exceed the threshold, queue 0 (mice) before that — the first packets of
/// every flow ride the latency queue, exactly like production mice/elephant
/// separation. Tracked state is bounded by periodic pruning.
class SizeClassClassifier {
 public:
  explicit SizeClassClassifier(std::int64_t elephant_threshold_bytes = 1'000'000,
                               std::size_t max_tracked_flows = 16'384)
      : threshold_(elephant_threshold_bytes), max_flows_(max_tracked_flows) {}

  [[nodiscard]] std::int32_t operator()(const Packet& pkt);

  [[nodiscard]] std::size_t tracked_flows() const { return bytes_.size(); }

  /// Ascending ids of currently tracked flows — lets tests assert that
  /// pruning survivors are a pure function of the traffic (independent of
  /// hash layout / insertion order) without mutating the table.
  [[nodiscard]] std::vector<FlowId> tracked_ids() const;

  /// Adapter usable as a SwitchDevice::Classifier (shared state).
  [[nodiscard]] static std::function<std::int32_t(const Packet&)> as_classifier(
      std::shared_ptr<SizeClassClassifier> self) {
    return [self](const Packet& pkt) { return (*self)(pkt); };
  }

 private:
  void prune();

  std::int64_t threshold_;
  std::size_t max_flows_;
  std::unordered_map<FlowId, std::int64_t> bytes_;
};

}  // namespace pet::net
