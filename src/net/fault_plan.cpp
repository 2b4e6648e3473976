#include "net/fault_plan.hpp"

#include <cstdio>
#include <memory>

#include "net/device.hpp"
#include "net/port.hpp"
#include "net/switch.hpp"
#include "sim/log.hpp"

namespace pet::net {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kLinkRestoreRate: return "link-restore-rate";
    case FaultKind::kPacketLossStart: return "packet-loss-start";
    case FaultKind::kPacketLossEnd: return "packet-loss-end";
    case FaultKind::kPacketCorruptStart: return "packet-corrupt-start";
    case FaultKind::kPacketCorruptEnd: return "packet-corrupt-end";
    case FaultKind::kBurstLossStart: return "burst-loss-start";
    case FaultKind::kBurstLossEnd: return "burst-loss-end";
    case FaultKind::kSwitchReboot: return "switch-reboot";
  }
  return "?";
}

FaultPlan::FaultPlan(Network& net, std::uint64_t seed)
    : net_(net), rng_(sim::derive_seed(seed, "fault-plan")) {}

void FaultPlan::fire(FaultKind kind, std::string detail) {
  const sim::Time now = net_.scheduler().now();
  PET_LOG_INFO(net_.scheduler(), "fault: %s %s", fault_kind_name(kind),
               detail.c_str());
  if (sink_) sink_(now, kind, detail);
  fired_.push_back(FaultEvent{now, kind, std::move(detail)});
}

void FaultPlan::schedule(sim::Time at, std::function<void()> fn) {
  ++pending_;
  net_.scheduler().schedule_at(
      at,
      [this, fn = std::move(fn)] {
        --pending_;
        fn();
      },
      "fault.inject");
}

void FaultPlan::link_flap(DeviceId a, DeviceId b, sim::Time down_at,
                          sim::Time up_at) {
  schedule(down_at, [this, a, b] {
    if (net_.set_link_state(a, b, false)) {
      fire(FaultKind::kLinkDown, "link " + std::to_string(a) + "-" +
                                     std::to_string(b));
    }
  });
  schedule(up_at, [this, a, b] {
    if (net_.set_link_state(a, b, true)) {
      fire(FaultKind::kLinkUp,
           "link " + std::to_string(a) + "-" + std::to_string(b));
    }
  });
}

void FaultPlan::random_link_flap(double fraction, sim::Time down_at,
                                 sim::Time up_at) {
  // The victim set is drawn when the down event fires, so it reflects the
  // live topology (earlier flaps in the plan are excluded automatically).
  auto failed = std::make_shared<std::vector<std::pair<DeviceId, DeviceId>>>();
  schedule(down_at, [this, fraction, failed] {
    *failed = net_.fail_random_switch_links(fraction, rng_);
    for (const auto& [a, b] : *failed) {
      fire(FaultKind::kLinkDown,
           "link " + std::to_string(a) + "-" + std::to_string(b));
    }
  });
  schedule(up_at, [this, failed] {
    for (const auto& [a, b] : *failed) {
      if (net_.set_link_state(a, b, true)) {
        fire(FaultKind::kLinkUp,
             "link " + std::to_string(a) + "-" + std::to_string(b));
      }
    }
  });
}

void FaultPlan::link_degrade(DeviceId a, DeviceId b, double factor,
                             sim::Time from, sim::Time to) {
  const auto apply = [this, a, b](double f) {
    EgressPort* pa = net_.link_port(a, b);
    EgressPort* pb = net_.link_port(b, a);
    if (pa == nullptr || pb == nullptr) return false;
    pa->set_rate_factor(f);
    pb->set_rate_factor(f);
    return true;
  };
  schedule(from, [this, apply, factor, a, b] {
    if (apply(factor)) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "link %d-%d at %.0f%% rate", a, b,
                    factor * 100.0);
      fire(FaultKind::kLinkDegrade, buf);
    }
  });
  schedule(to, [this, apply, a, b] {
    if (apply(1.0)) {
      fire(FaultKind::kLinkRestoreRate,
           "link " + std::to_string(a) + "-" + std::to_string(b));
    }
  });
}

void FaultPlan::packet_loss(DeviceId dev, double drop_prob, sim::Time from,
                            sim::Time to) {
  schedule(from, [this, dev, drop_prob] {
    Device& d = net_.device(dev);
    for (std::int32_t p = 0; p < d.num_ports(); ++p) {
      d.port(p).set_fault_drop_prob(drop_prob);
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s p=%.3f", d.name().c_str(), drop_prob);
    fire(FaultKind::kPacketLossStart, buf);
  });
  schedule(to, [this, dev] {
    Device& d = net_.device(dev);
    for (std::int32_t p = 0; p < d.num_ports(); ++p) {
      d.port(p).set_fault_drop_prob(0.0);
    }
    fire(FaultKind::kPacketLossEnd, d.name());
  });
}

void FaultPlan::burst_loss(DeviceId dev, const GilbertElliottConfig& cfg,
                           sim::Time from, sim::Time to) {
  schedule(from, [this, dev, cfg] {
    Device& d = net_.device(dev);
    for (std::int32_t p = 0; p < d.num_ports(); ++p) {
      d.port(p).set_burst_loss(cfg);
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s gb=%.3f bg=%.3f lg=%.3f lb=%.3f",
                  d.name().c_str(), cfg.p_good_to_bad, cfg.p_bad_to_good,
                  cfg.loss_good, cfg.loss_bad);
    fire(FaultKind::kBurstLossStart, buf);
  });
  schedule(to, [this, dev] {
    Device& d = net_.device(dev);
    for (std::int32_t p = 0; p < d.num_ports(); ++p) {
      d.port(p).clear_burst_loss();
    }
    fire(FaultKind::kBurstLossEnd, d.name());
  });
}

void FaultPlan::packet_corruption(DeviceId dev, double prob, sim::Time from,
                                  sim::Time to) {
  schedule(from, [this, dev, prob] {
    Device& d = net_.device(dev);
    for (std::int32_t p = 0; p < d.num_ports(); ++p) {
      d.port(p).set_fault_corrupt_prob(prob);
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s p=%.3f", d.name().c_str(), prob);
    fire(FaultKind::kPacketCorruptStart, buf);
  });
  schedule(to, [this, dev] {
    Device& d = net_.device(dev);
    for (std::int32_t p = 0; p < d.num_ports(); ++p) {
      d.port(p).set_fault_corrupt_prob(0.0);
    }
    fire(FaultKind::kPacketCorruptEnd, d.name());
  });
}

void FaultPlan::switch_reboot(DeviceId sw, sim::Time at,
                              RedEcnConfig ecn_after) {
  schedule(at, [this, sw, ecn_after] {
    auto* dev = dynamic_cast<SwitchDevice*>(&net_.device(sw));
    if (dev == nullptr) return;
    dev->reboot(ecn_after);
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s dropped=%lld", dev->name().c_str(),
                  static_cast<long long>(dev->dropped_on_reboot()));
    fire(FaultKind::kSwitchReboot, buf);
  });
}

}  // namespace pet::net
