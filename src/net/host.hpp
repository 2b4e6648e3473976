#pragma once
// Host: an end-station with a single NIC port. The NIC scheduler pulls
// packets from registered FlowSources (round-robin among pacing-ready
// flows), so the aggregate never exceeds line rate and per-flow rates are
// honored — the behaviour ECN-based rate control relies on.

#include <cstdint>
#include <string>
#include <vector>

#include "net/device.hpp"
#include "net/flow_source.hpp"
#include "net/packet.hpp"
#include "net/port.hpp"
#include "net/queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pet::net {

/// Transport-layer hook: receives every end-to-end packet addressed to the
/// host (data, CNP, ACK).
class HostApp {
 public:
  virtual ~HostApp() = default;
  virtual void on_receive(const Packet& pkt) = 0;
};

class HostDevice : public Device {
 public:
  HostDevice(sim::Scheduler& sched, DeviceId id, HostId host_id,
             std::string name, const PortConfig& nic_cfg);

  [[nodiscard]] HostId host_id() const { return host_id_; }
  [[nodiscard]] sim::Rate nic_rate() const { return port(0).rate(); }

  void set_app(HostApp* app) { app_ = app; }

  /// Register/deregister a sender flow with the NIC scheduler.
  void register_source(FlowSource* src);
  void deregister_source(FlowSource* src);

  /// A source's pacing clock or data availability changed; re-evaluate.
  void notify_source_ready();

  /// Send a control packet (CNP/ACK) immediately via the priority queue.
  void send_control(Packet pkt);

  void receive(const Packet& pkt, std::int32_t in_port) override;
  void on_packet_departed(std::int32_t port, const QueueEntry& entry) override;

  [[nodiscard]] std::int64_t emitted_packets() const { return emitted_packets_; }

 private:
  void kick();

  HostId host_id_;
  HostApp* app_ = nullptr;
  std::vector<FlowSource*> sources_;
  std::size_t rr_next_ = 0;
  sim::EventId pending_kick_;
  std::int64_t emitted_packets_ = 0;
};

}  // namespace pet::net
