// Quickstart: build a small leaf-spine RDMA fabric, run Web Search traffic
// with incast bursts, let PET tune the ECN thresholds online, and print the
// resulting flow/queue statistics.
//
//   ./quickstart [load] [measure_ms]

#include <cstdint>
#include <cstdio>

#include "exp/experiment_builder.hpp"
#include "exp/flags.hpp"
#include "exp/table.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  double load = 0.5;
  std::int64_t measure_ms = 20;
  exp::FlagSet flags(argv[0]);
  flags.value("load", &load, "fraction of host bandwidth")
      .value("measure_ms", &measure_ms, "measurement window in ms");
  if (const exp::FlagSet::Outcome r = flags.parse(argc, argv); r.exit_code) {
    std::fputs(r.message.c_str(), *r.exit_code == 0 ? stdout : stderr);
    return *r.exit_code;
  }

  net::LeafSpineConfig topo;
  topo.num_spines = 2;
  topo.num_leaves = 2;
  topo.hosts_per_leaf = 4;

  auto experiment =
      exp::ExperimentBuilder{}
          .scheme(exp::Scheme::kPet)
          .workload(workload::WorkloadKind::kWebSearch)
          .load(load)
          .phases(sim::milliseconds(10), sim::milliseconds(measure_ms))
          .topology(net::TopologySpec(topo))
          .tuned_dcqcn()
          .build();
  const exp::ScenarioConfig& cfg = experiment->config();

  std::printf("PET quickstart: %d hosts, load %.0f%%, %s workload\n",
              cfg.topo.num_hosts(), cfg.load * 100,
              workload::workload_name(cfg.workload));

  const exp::Metrics m = experiment->run();

  exp::Table table({"metric", "value"});
  table.add_row({"flows measured", exp::fmt("%lld", static_cast<long long>(m.flows_measured))});
  table.add_row({"overall avg FCT", exp::fmt("%.1f us", m.overall.avg_us)});
  table.add_row({"mice avg FCT", exp::fmt("%.1f us", m.mice.avg_us)});
  table.add_row({"mice p99 FCT", exp::fmt("%.1f us", m.mice.p99_us)});
  table.add_row({"elephant avg FCT", exp::fmt("%.1f us", m.elephants.avg_us)});
  table.add_row({"avg slowdown", exp::fmt("%.2fx", m.overall.avg_slowdown)});
  table.add_row({"pkt latency avg", exp::fmt("%.2f us", m.latency_avg_us)});
  table.add_row({"queue avg", exp::fmt("%.1f KB", m.queue_avg_kb)});
  table.add_row({"queue stddev", exp::fmt("%.1f KB", m.queue_std_kb)});
  table.add_row({"switch drops", exp::fmt("%lld", static_cast<long long>(m.switch_drops))});
  table.add_row({"PFC pauses", exp::fmt("%lld", static_cast<long long>(m.pfc_pauses))});
  table.print();

  if (auto* pet_ctl = experiment->pet()) {
    std::printf("PET agents: %zu, mean reward %.3f, steps %lld\n",
                pet_ctl->num_agents(), pet_ctl->mean_reward(),
                static_cast<long long>(pet_ctl->total_steps()));
    const auto& cfg0 = pet_ctl->agent(0).current_config();
    std::printf("agent0 final config: Kmin=%lldKB Kmax=%lldKB Pmax=%.2f\n",
                static_cast<long long>(cfg0.kmin_bytes) / 1024,
                static_cast<long long>(cfg0.kmax_bytes) / 1024, cfg0.pmax);
  }
  return 0;
}
