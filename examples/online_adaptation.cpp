// Online adaptation: watch a deployed PET agent react to a changing
// network. The run starts under Web Search traffic, abruptly switches to
// Data Mining, and prints each phase's chosen ECN configurations, observed
// reward and queue statistics — the "zero-touch" loop of the paper.
//
//   ./online_adaptation [load]

#include <cstdio>

#include "exp/experiment_builder.hpp"
#include "exp/flags.hpp"
#include "exp/pretrain.hpp"
#include "exp/table.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  double load = 0.5;
  exp::FlagSet flags(argv[0]);
  flags.value("load", &load, "fraction of host bandwidth");
  if (const exp::FlagSet::Outcome r = flags.parse(argc, argv); r.exit_code) {
    std::fputs(r.message.c_str(), *r.exit_code == 0 ? stdout : stderr);
    return *r.exit_code;
  }

  exp::ExperimentBuilder builder;
  builder.scheme(exp::Scheme::kPet)
      .workload(workload::WorkloadKind::kWebSearch)
      .load(load)
      .topology(net::LeafSpineConfig{})  // 2 spines, 4 leaves x 8 hosts
      .flow_size_cap(8e6)
      .pretrain(sim::milliseconds(20))
      .tuned_dcqcn();

  // Hybrid training (paper Section 4.4): offline pre-training produces the
  // initial model, each switch then keeps learning online.
  const std::vector<double> weights =
      exp::pretrained_weights_cached(builder.config(), exp::PretrainOptions{});
  auto experiment_ptr = builder.expects_pretrained(!weights.empty())
                            .pretrain_lr_boost(1.0)
                            .build();
  exp::Experiment& experiment = *experiment_ptr;
  const exp::ScenarioConfig& cfg = experiment.config();
  if (!weights.empty() && !experiment.install_learned_weights(weights)) {
    std::fprintf(stderr,
                 "warning: pretrained weights rejected (stale cache?); "
                 "running untrained\n");
  }
  experiment.add_event(cfg.pretrain, [&experiment] {
    experiment.mark_measurement_start();  // switch agents to deployment mode
  });
  std::printf(
      "Online adaptation: %d hosts at %.0f%% load; PET deploys a pretrained "
      "model, then the workload switches WebSearch -> DataMining at t=50ms.\n\n",
      32, load * 100);

  experiment.add_event(sim::milliseconds(50), [&experiment] {
    experiment.switch_workload(workload::WorkloadKind::kDataMining);
  });

  exp::Table table({"t (ms)", "workload", "mean reward", "agent0 Kmin",
                    "agent0 Kmax", "agent0 Pmax", "queue avg"});
  for (std::int64_t t_ms = 10; t_ms <= 100; t_ms += 10) {
    experiment.queue_probe().reset();
    experiment.run_until(sim::milliseconds(t_ms));
    auto* pet = experiment.pet();
    const auto& ecn = pet->agent(0).current_config();
    table.add_row(
        {exp::fmt("%lld", static_cast<long long>(t_ms)),
         t_ms <= 50 ? "WebSearch" : "DataMining",
         exp::fmt("%.3f", pet->mean_reward()),
         exp::fmt("%lldKB", static_cast<long long>(ecn.kmin_bytes / 1024)),
         exp::fmt("%lldKB", static_cast<long long>(ecn.kmax_bytes / 1024)),
         exp::fmt("%.2f", ecn.pmax),
         exp::fmt("%.1fKB", experiment.queue_probe().stats().mean() / 1024.0)});
  }
  table.print();

  const exp::Metrics m =
      experiment.collect(sim::milliseconds(20), sim::milliseconds(100));
  std::printf("\nflows completed in [20,100)ms: %zu (mice avg %.1fus, "
              "elephant avg %.1fus)\n",
              m.overall.count, m.mice.avg_us, m.elephants.avg_us);
  return 0;
}
