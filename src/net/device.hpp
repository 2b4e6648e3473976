#pragma once
// Device: common base for hosts and switches. A device owns its egress
// ports; port i is the full-duplex attachment to one neighbor (egress
// transmitter here, ingress arrivals delivered via receive(pkt, i)).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"

namespace pet::net {

using DeviceId = std::int32_t;

class Device : public PortOwner {
 public:
  Device(sim::Scheduler& sched, DeviceId id, std::string name)
      : sched_(sched), id_(id), name_(std::move(name)) {}
  ~Device() override = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] DeviceId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Deliver a packet arriving on port `in_port` (-1 for injected traffic).
  virtual void receive(const Packet& pkt, std::int32_t in_port) = 0;

  /// Create a new port; returns its index.
  std::int32_t add_port(const PortConfig& cfg) {
    const auto idx = static_cast<std::int32_t>(ports_.size());
    ports_.push_back(std::make_unique<EgressPort>(sched_, *this, idx, cfg));
    return idx;
  }

  [[nodiscard]] EgressPort& port(std::int32_t i) { return *ports_[i]; }
  [[nodiscard]] const EgressPort& port(std::int32_t i) const { return *ports_[i]; }
  [[nodiscard]] std::int32_t num_ports() const {
    return static_cast<std::int32_t>(ports_.size());
  }

  // Default: nothing to release.
  void on_packet_departed(std::int32_t /*port*/, const QueueEntry& /*entry*/) override {}

 protected:
  sim::Scheduler& sched_;

 private:
  DeviceId id_;
  std::string name_;
  std::vector<std::unique_ptr<EgressPort>> ports_;
};

}  // namespace pet::net
