#include "net/fabric.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "net/port.hpp"
#include "net/topology.hpp"

namespace pet::net {

namespace {

/// Propagation plus one-MTU serialization for one link class.
sim::Time hop_cost(sim::Rate rate, sim::Time delay, std::int32_t mtu_bytes) {
  return delay + rate.serialization_time(mtu_bytes);
}

}  // namespace

DeviceId Fabric::tor_of(HostId h) const {
  return tor_devices_[static_cast<std::size_t>(loc_of(h, "tor_of").tor)];
}

bool Fabric::has_tier(std::string_view label) const {
  for (const FabricTier& t : tiers_) {
    if (t.label == label) return true;
  }
  return false;
}

const std::vector<DeviceId>& Fabric::tier(std::string_view label) const {
  for (const FabricTier& t : tiers_) {
    if (t.label == label) return t.devices;
  }
  throw std::out_of_range("Fabric::tier: no tier labeled \"" +
                          std::string(label) + '"');
}

std::string_view Fabric::tier_of(DeviceId device) const {
  for (const FabricTier& t : tiers_) {
    for (const DeviceId d : t.devices) {
      if (d == device) return t.label;
    }
  }
  return {};
}

const Fabric::HostLoc& Fabric::loc_of(HostId h, const char* who) const {
  if (h < 0 || static_cast<std::size_t>(h) >= host_loc_.size()) {
    throw std::out_of_range(std::string("Fabric::") + who + ": host " +
                            std::to_string(h) + " outside 0.." +
                            std::to_string(host_loc_.size()) + "-1");
  }
  return host_loc_[static_cast<std::size_t>(h)];
}

sim::Time Fabric::one_way(const HostLoc& src, const HostLoc& dst,
                          std::int32_t mtu_bytes) const {
  const DcShape& sa = dc_shapes_[static_cast<std::size_t>(src.dc)];
  if (src.dc == dst.dc) {
    // Lowest common tier: ToR (1 hop class), pod (2), or the DC top (all).
    std::size_t depth = sa.up_hops.size();
    if (src.tor == dst.tor) {
      depth = 1;
    } else if (sa.up_hops.size() > 2 && src.pod == dst.pod) {
      depth = 2;
    }
    sim::Time t = sim::Time::zero();
    for (std::size_t i = 0; i < depth; ++i) {
      t += 2 * hop_cost(sa.up_hops[i].rate, sa.up_hops[i].delay, mtu_bytes);
    }
    return t;
  }
  // Cross-DC: up through every tier, top->border (wired at the DC's
  // top-tier rate), the WAN hop, then the mirror image down.
  const DcShape& sb = dc_shapes_[static_cast<std::size_t>(dst.dc)];
  sim::Time t = hop_cost(wan_hop_.rate, wan_hop_.delay, mtu_bytes);
  for (const DcShape* shape : {&sa, &sb}) {
    for (const Hop& hop : shape->up_hops) {
      t += hop_cost(hop.rate, hop.delay, mtu_bytes);
    }
    const Hop& border = shape->up_hops.back();
    t += hop_cost(border.rate, border.delay, mtu_bytes);
  }
  return t;
}

sim::Time Fabric::base_rtt(HostId src, HostId dst,
                           std::int32_t mtu_bytes) const {
  const HostLoc& a = loc_of(src, "base_rtt");
  const HostLoc& b = loc_of(dst, "base_rtt");
  if (src == dst) return sim::Time::zero();
  return 2 * one_way(a, b, mtu_bytes);
}

sim::Time Fabric::diameter_rtt(std::int32_t mtu_bytes) const {
  // Analytic worst case from the spec shape (not an actual host pair), so
  // a single-leaf fabric still reports the historical cross-leaf figure.
  if (spec_.is_inter_dc()) {
    HostLoc a;
    a.dc = 0;
    HostLoc b;
    b.dc = 1;
    return 2 * one_way(a, b, mtu_bytes);
  }
  const DcShape& shape = dc_shapes_.front();
  sim::Time t = sim::Time::zero();
  for (const Hop& hop : shape.up_hops) {
    t += 2 * hop_cost(hop.rate, hop.delay, mtu_bytes);
  }
  return 2 * t;
}

Fabric build_fabric(Network& net, const TopologySpec& spec) {
  spec.validate();
  Fabric fab;
  fab.spec_ = spec;

  // One datacenter's worth of hosts + switches + intra-DC links. Hosts go
  // in first so HostIds stay dense; the leaf-spine branch reproduces the
  // historical leaf-spine creation order exactly (bitwise-identical
  // networks for pre-redesign scenarios).
  const auto build_dc = [&](const DcSpec& dc, std::int32_t dc_index,
                            const std::string& prefix) {
    const std::int32_t tor_base =
        static_cast<std::int32_t>(fab.tor_devices_.size());
    Fabric::DcShape shape;
    shape.first_host = static_cast<std::int32_t>(fab.host_devices_.size());

    if (const auto* ls = std::get_if<LeafSpineConfig>(&dc)) {
      PortConfig nic;
      nic.rate = ls->host_link_rate;
      nic.propagation_delay = ls->host_link_delay;
      const std::int32_t num_hosts = ls->num_leaves * ls->hosts_per_leaf;
      for (std::int32_t h = 0; h < num_hosts; ++h) {
        fab.host_devices_.push_back(net.add_host(nic).id());
        Fabric::HostLoc loc;
        loc.dc = dc_index;
        loc.pod = h / ls->hosts_per_leaf;
        loc.tor = tor_base + loc.pod;
        fab.host_loc_.push_back(loc);
      }
      FabricTier leaves{prefix + "leaf", {}};
      for (std::int32_t l = 0; l < ls->num_leaves; ++l) {
        leaves.devices.push_back(net.add_switch(ls->switch_cfg).id());
      }
      FabricTier spines{prefix + "spine", {}};
      for (std::int32_t s = 0; s < ls->num_spines; ++s) {
        spines.devices.push_back(net.add_switch(ls->switch_cfg).id());
      }
      for (std::int32_t l = 0; l < ls->num_leaves; ++l) {
        const DeviceId leaf = leaves.devices[static_cast<std::size_t>(l)];
        for (std::int32_t h = 0; h < ls->hosts_per_leaf; ++h) {
          const DeviceId host = fab.host_devices_[static_cast<std::size_t>(
              shape.first_host + l * ls->hosts_per_leaf + h)];
          net.connect(host, leaf, ls->host_link_rate, ls->host_link_delay);
        }
        for (std::int32_t s = 0; s < ls->num_spines; ++s) {
          net.connect(leaf, spines.devices[static_cast<std::size_t>(s)],
                      ls->spine_link_rate, ls->spine_link_delay);
        }
      }
      fab.tor_devices_.insert(fab.tor_devices_.end(), leaves.devices.begin(),
                              leaves.devices.end());
      fab.tiers_.push_back(std::move(leaves));
      fab.tiers_.push_back(std::move(spines));
      shape.up_hops = {{ls->host_link_rate, ls->host_link_delay},
                       {ls->spine_link_rate, ls->spine_link_delay}};
    } else {
      const FatTreeSpec& ft = std::get<FatTreeSpec>(dc);
      const std::int32_t epp = ft.edges_per_pod();
      const std::int32_t app = ft.aggs_per_pod();
      const std::int32_t hpe = ft.hosts_per_edge_effective();
      PortConfig nic;
      nic.rate = ft.host_link_rate;
      nic.propagation_delay = ft.host_link_delay;
      for (std::int32_t p = 0; p < ft.k; ++p) {
        for (std::int32_t e = 0; e < epp; ++e) {
          for (std::int32_t h = 0; h < hpe; ++h) {
            fab.host_devices_.push_back(net.add_host(nic).id());
            Fabric::HostLoc loc;
            loc.dc = dc_index;
            loc.pod = p;
            loc.tor = tor_base + p * epp + e;
            fab.host_loc_.push_back(loc);
          }
        }
      }
      FabricTier edges{prefix + "edge", {}};
      for (std::int32_t i = 0; i < ft.num_edges(); ++i) {
        edges.devices.push_back(net.add_switch(ft.switch_cfg).id());
      }
      FabricTier aggs{prefix + "agg", {}};
      for (std::int32_t i = 0; i < ft.num_aggs(); ++i) {
        aggs.devices.push_back(net.add_switch(ft.switch_cfg).id());
      }
      FabricTier cores{prefix + "core", {}};
      for (std::int32_t i = 0; i < ft.num_cores(); ++i) {
        cores.devices.push_back(net.add_switch(ft.switch_cfg).id());
      }
      for (std::int32_t p = 0; p < ft.k; ++p) {
        for (std::int32_t e = 0; e < epp; ++e) {
          const DeviceId edge =
              edges.devices[static_cast<std::size_t>(p * epp + e)];
          for (std::int32_t h = 0; h < hpe; ++h) {
            const DeviceId host = fab.host_devices_[static_cast<std::size_t>(
                shape.first_host + (p * epp + e) * hpe + h)];
            net.connect(host, edge, ft.host_link_rate, ft.host_link_delay);
          }
          for (std::int32_t a = 0; a < app; ++a) {
            net.connect(edge, aggs.devices[static_cast<std::size_t>(p * app + a)],
                        ft.edge_agg_rate, ft.edge_agg_delay);
          }
        }
      }
      // Core group a joins agg a of every pod (canonical k-ary wiring), so
      // an inter-pod flow sees (k/2)^2 equal-cost paths.
      for (std::int32_t p = 0; p < ft.k; ++p) {
        for (std::int32_t a = 0; a < app; ++a) {
          const DeviceId agg =
              aggs.devices[static_cast<std::size_t>(p * app + a)];
          for (std::int32_t c = 0; c < ft.k / 2; ++c) {
            net.connect(agg,
                        cores.devices[static_cast<std::size_t>(a * (ft.k / 2) + c)],
                        ft.agg_core_rate, ft.agg_core_delay);
          }
        }
      }
      fab.tor_devices_.insert(fab.tor_devices_.end(), edges.devices.begin(),
                              edges.devices.end());
      fab.tiers_.push_back(std::move(edges));
      fab.tiers_.push_back(std::move(aggs));
      fab.tiers_.push_back(std::move(cores));
      shape.up_hops = {{ft.host_link_rate, ft.host_link_delay},
                       {ft.edge_agg_rate, ft.edge_agg_delay},
                       {ft.agg_core_rate, ft.agg_core_delay}};
    }

    shape.num_hosts = static_cast<std::int32_t>(fab.host_devices_.size()) -
                      shape.first_host;
    fab.dc_shapes_.push_back(std::move(shape));
  };

  switch (spec.kind()) {
    case TopologySpec::Kind::kLeafSpine:
      build_dc(spec.leaf_spine(), 0, "");
      break;
    case TopologySpec::Kind::kFatTree:
      build_dc(spec.fat_tree(), 0, "");
      break;
    case TopologySpec::Kind::kInterDc: {
      const InterDcSpec& idc = spec.inter_dc();
      build_dc(idc.dc_a, 0, "a.");
      const std::size_t a_top = fab.tiers_.size() - 1;
      build_dc(idc.dc_b, 1, "b.");
      const std::size_t b_top = fab.tiers_.size() - 1;
      // Border routers: each DC's top tier fans into its border at the
      // DC's top-tier rate; the borders peer over `border_links` parallel
      // WAN links (ECMP sprays across them).
      FabricTier border{"border", {}};
      border.devices.push_back(net.add_switch(idc.border_switch_cfg).id());
      border.devices.push_back(net.add_switch(idc.border_switch_cfg).id());
      const Fabric::Hop hop_a = fab.dc_shapes_[0].up_hops.back();
      for (const DeviceId top : fab.tiers_[a_top].devices) {
        net.connect(top, border.devices[0], hop_a.rate, hop_a.delay);
      }
      const Fabric::Hop hop_b = fab.dc_shapes_[1].up_hops.back();
      for (const DeviceId top : fab.tiers_[b_top].devices) {
        net.connect(top, border.devices[1], hop_b.rate, hop_b.delay);
      }
      for (std::int32_t i = 0; i < idc.border_links; ++i) {
        net.connect(border.devices[0], border.devices[1], idc.wan_rate,
                    idc.wan_delay);
      }
      fab.tiers_.push_back(std::move(border));
      fab.wan_hop_ = {idc.wan_rate, idc.wan_delay};
      break;
    }
  }

  net.recompute_routes();
  return fab;
}

}  // namespace pet::net
