// Microbenchmarks: network datapath throughput (google-benchmark) — how
// many simulated packets per wall-second the substrate sustains.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "micro_common.hpp"

#include "core/ncm.hpp"
#include "net/fabric.hpp"
#include "transport/dcqcn.hpp"
#include "workload/distributions.hpp"
#include "workload/traffic_gen.hpp"

namespace {

using namespace pet;

/// Saturated single-switch forwarding: events/packet cost of the datapath.
void BM_SwitchDatapath(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Scheduler sched;
    net::Network net(sched, 1);
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(500);
    auto& h0 = net.add_host(nic);
    auto& h1 = net.add_host(nic);
    auto& sw = net.add_switch({});
    net.connect(h0.id(), sw.id(), nic.rate, nic.propagation_delay);
    net.connect(h1.id(), sw.id(), nic.rate, nic.propagation_delay);
    net.recompute_routes();
    transport::FctRecorder rec;
    transport::RdmaTransport transport(net, {}, &rec);
    transport::FlowSpec spec;
    spec.src = 0;
    spec.dst = 1;
    spec.size_bytes = 1'000'000;  // 1000 packets end to end
    transport.start_flow(spec);
    sched.run_until(sim::milliseconds(2));
    events += sched.executed();
    benchmark::DoNotOptimize(sched.executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.SetLabel("items = simulated data packets");
  state.counters["packets_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 1000),
      benchmark::Counter::kIsRate);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SwitchDatapath)->Unit(benchmark::kMillisecond);

/// Whole-fabric simulation throughput at 50% load on the scaled topology.
void BM_FabricSimulation(benchmark::State& state) {
  std::uint64_t events = 0;
  std::int64_t packets = 0;
  for (auto _ : state) {
    sim::Scheduler sched;
    net::Network net(sched, 2);
    net::LeafSpineConfig topo_cfg;
    topo_cfg.num_spines = 2;
    topo_cfg.num_leaves = 2;
    topo_cfg.hosts_per_leaf = 8;
    const net::Fabric topo = net::build_fabric(net, net::TopologySpec(topo_cfg));
    transport::FctRecorder rec;
    transport::RdmaTransport transport(net, {}, &rec);
    workload::PoissonTrafficConfig bg;
    bg.load = 0.5;
    bg.host_rate = topo_cfg.host_link_rate;
    for (net::HostId h = 0; h < topo.num_hosts(); ++h) bg.hosts.push_back(h);
    bg.sizes = workload::web_search_cdf().truncated(2e6);
    workload::PoissonTrafficGenerator gen(sched, transport, bg);
    gen.start();
    sched.run_until(sim::milliseconds(5));
    events += sched.executed();
    for (const auto& sw : net.switches()) {
      for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
        packets += sw->port(p).tx_packets();
      }
    }
    benchmark::DoNotOptimize(sched.executed());
  }
  state.SetLabel("5 simulated ms, 16 hosts @ 50% load");
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["packets_per_sec"] = benchmark::Counter(
      static_cast<double>(packets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FabricSimulation)->Unit(benchmark::kMillisecond);

/// One agent switch's monitoring cost per forwarded packet: a 32-host
/// switch forwards the same 100 µs slot of 512 data packets (random
/// senders, receivers and flows) and, with arg 1, an NCM observes every
/// packet and closes the slot. Arg 0 is the same datapath without the
/// NCM, so the difference of the two `ns_per_packet` values is the NCM's.
void BM_NcmOnForward(benchmark::State& state) {
  const bool with_ncm = state.range(0) != 0;
  constexpr std::int32_t kHosts = 32;
  constexpr int kPackets = 512;
  sim::Scheduler sched;
  net::Network net(sched, 4);
  auto& sw = net.add_switch({});
  net::PortConfig nic;
  nic.rate = sim::gbps(100);
  nic.propagation_delay = sim::nanoseconds(500);
  for (std::int32_t i = 0; i < kHosts; ++i) {
    auto& h = net.add_host(nic);
    net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
  }
  net.recompute_routes();
  std::unique_ptr<core::Ncm> ncm;
  if (with_ncm) ncm = std::make_unique<core::Ncm>(sched, sw, core::NcmConfig{});
  std::vector<net::Packet> slot;
  sim::Rng rng(11);
  for (int i = 0; i < kPackets; ++i) {
    net::Packet pkt;
    pkt.type = net::PacketType::kData;
    pkt.flow_id = 1 + rng.uniform_int(256);
    pkt.src = static_cast<net::HostId>(rng.uniform_int(kHosts));
    pkt.dst = static_cast<net::HostId>(rng.uniform_int(kHosts));
    pkt.size_bytes = pkt.payload_bytes = 1000;
    slot.push_back(pkt);
  }
  double ns = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const net::Packet& pkt : slot) sw.receive(pkt, pkt.src);
    sched.run_until(sched.now() + sim::microseconds(100));
    if (ncm) benchmark::DoNotOptimize(ncm->sample());
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
  state.SetLabel(with_ncm ? "switch + NCM" : "switch only");
  state.counters["ns_per_packet"] =
      ns / static_cast<double>(state.iterations() * kPackets);
}
BENCHMARK(BM_NcmOnForward)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

/// Per-hop cost of the switch datapath alone: a 16-host switch (100G ports,
/// one data queue, no classifier, no observer) receives a burst of 1024
/// data packets with random senders and receivers and forwards every one
/// to its receiving host. Each packet costs one receive (route, ECMP,
/// buffer and PFC accounting, RED marking, enqueue), one serialization
/// event and one propagation event; `ns_per_packet` is wall time per
/// forwarded packet, scheduler included.
void BM_SwitchHop(benchmark::State& state) {
  constexpr std::int32_t kHosts = 16;
  constexpr int kPackets = 1024;
  sim::Scheduler sched;
  net::Network net(sched, 5);
  auto& sw = net.add_switch({});
  net::PortConfig nic;
  nic.rate = sim::gbps(100);
  nic.propagation_delay = sim::nanoseconds(500);
  for (std::int32_t i = 0; i < kHosts; ++i) {
    auto& h = net.add_host(nic);
    net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
  }
  net.recompute_routes();
  std::vector<net::Packet> burst;
  sim::Rng rng(13);
  for (int i = 0; i < kPackets; ++i) {
    net::Packet pkt;
    pkt.type = net::PacketType::kData;
    pkt.flow_id = 1 + rng.uniform_int(512);
    pkt.src = static_cast<net::HostId>(rng.uniform_int(kHosts));
    pkt.dst = static_cast<net::HostId>(rng.uniform_int(kHosts));
    pkt.size_bytes = pkt.payload_bytes = 1000;
    burst.push_back(pkt);
  }
  double ns = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const net::Packet& pkt : burst) sw.receive(pkt, pkt.src);
    benchmark::DoNotOptimize(sched.run_all());
    ns += std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
  }
  std::int64_t forwarded = 0;
  for (std::int32_t p = 0; p < sw.num_ports(); ++p) {
    forwarded += sw.port(p).tx_packets();
  }
  if (forwarded != static_cast<std::int64_t>(state.iterations()) * kPackets) {
    state.SkipWithError("switch did not forward every packet");
    return;
  }
  state.SetItemsProcessed(forwarded);
  state.SetLabel("items = forwarded packets");
  state.counters["ns_per_packet"] = ns / static_cast<double>(forwarded);
}
BENCHMARK(BM_SwitchHop)->Unit(benchmark::kMicrosecond);

/// Routing recomputation cost (what a failure event triggers).
void BM_RouteRecompute(benchmark::State& state) {
  sim::Scheduler sched;
  net::Network net(sched, 3);
  net::LeafSpineConfig topo_cfg;
  topo_cfg.num_spines = 4;
  topo_cfg.num_leaves = 8;
  topo_cfg.hosts_per_leaf = 16;  // 128 hosts
  (void)net::build_fabric(net, net::TopologySpec(topo_cfg));
  for (auto _ : state) {
    net.recompute_routes();
  }
  state.SetLabel("128-host leaf-spine");
}
BENCHMARK(BM_RouteRecompute)->Unit(benchmark::kMicrosecond);

}  // namespace

PET_MICRO_BENCH_MAIN("micro_net")
