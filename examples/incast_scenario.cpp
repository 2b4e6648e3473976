// Incast scenario: the partition-aggregate pattern the paper's intro
// motivates. A fan-in of senders periodically bursts responses at one
// aggregator; we compare a static ECN configuration against PET tuning on
// queue build-up and request completion times.
//
//   ./incast_scenario [fan_in] [request_kb]

#include <cstdint>
#include <cstdio>

#include "exp/experiment_builder.hpp"
#include "exp/flags.hpp"
#include "exp/pretrain.hpp"
#include "exp/table.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  std::int32_t fan_in = 12;
  std::int64_t request_kb = 64;
  exp::FlagSet flags(argv[0]);
  flags.value("fan_in", &fan_in, "senders per incast burst")
      .value("request_kb", &request_kb, "KB each sender answers");
  if (const exp::FlagSet::Outcome r = flags.parse(argc, argv); r.exit_code) {
    std::fputs(r.message.c_str(), *r.exit_code == 0 ? stdout : stderr);
    return *r.exit_code;
  }

  std::printf("Incast scenario: fan-in %d, %lld KB per response\n\n", fan_in,
              static_cast<long long>(request_kb));

  exp::Table table({"scheme", "incast flow avg FCT", "incast flow p99 FCT",
                    "queue avg", "queue stddev", "PFC pauses"});

  for (const exp::Scheme scheme :
       {exp::Scheme::kSecn2, exp::Scheme::kSecn1, exp::Scheme::kPet}) {
    exp::ExperimentBuilder builder;
    builder.scheme(scheme)
        .workload(workload::WorkloadKind::kWebSearch)
        .load(0.2)  // light background; incast dominates
        .topology(net::LeafSpineConfig{})  // 2 spines, 4 leaves x 8 hosts
        .incast(fan_in, request_kb * 1024, sim::microseconds(800))
        .flow_size_cap(2e6)
        .phases(sim::milliseconds(30), sim::milliseconds(30))
        .tuned_dcqcn();
    std::vector<double> weights;
    if (exp::is_learning_scheme(scheme)) {
      // Hybrid training: deploy the offline-pretrained model, adapt online.
      weights = exp::pretrained_weights_cached(builder.config(),
                                               exp::PretrainOptions{});
      builder.expects_pretrained(!weights.empty())
          .pretrain_lr_boost(1.0)
          .pretrain(sim::milliseconds(10));
    }
    auto experiment_ptr = builder.build();
    exp::Experiment& experiment = *experiment_ptr;
    const exp::ScenarioConfig& cfg = experiment.config();
    if (!weights.empty() && !experiment.install_learned_weights(weights)) {
      std::fprintf(stderr,
                   "warning: pretrained weights rejected (stale cache?); "
                   "running untrained\n");
    }
    const exp::Metrics m = experiment.run();

    // Incast responses are exactly request_kb*1024 bytes.
    std::vector<double> fcts;
    for (const auto& r : experiment.recorder().records()) {
      if (r.spec.size_bytes == request_kb * 1024 &&
          r.spec.start_time >= cfg.pretrain) {
        fcts.push_back(r.fct().us());
      }
    }
    table.add_row({exp::scheme_name(scheme),
                   exp::fmt("%.1f us", sim::mean_of(fcts)),
                   exp::fmt("%.1f us", sim::percentile(fcts, 99.0)),
                   exp::fmt("%.1f KB", m.queue_avg_kb),
                   exp::fmt("%.1f KB", m.queue_std_kb),
                   exp::fmt("%lld", static_cast<long long>(m.pfc_pauses))});
    std::printf("  ran %s (%zu incast responses measured)\n",
                exp::scheme_name(scheme), fcts.size());
  }
  table.print();
  std::printf(
      "\nLow thresholds absorb the synchronized bursts with short queues; "
      "PET should land near the best static point without manual tuning.\n");
  return 0;
}
