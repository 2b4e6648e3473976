// Multi-queue adaptation (paper Section 4.5.2): switches separate mice and
// elephants into different data queues (cumulative-size classifier) and a
// multi-queue PET agent tunes each queue's ECN thresholds independently.
// Compare against the single-queue deployment on mice latency.
//
//   ./multiqueue_separation [load]

#include <cstdio>
#include <memory>

#include "core/multiqueue.hpp"
#include "exp/experiment_builder.hpp"
#include "exp/flags.hpp"
#include "exp/table.hpp"
#include "net/classifier.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  double load = 0.6;
  exp::FlagSet flags(argv[0]);
  flags.value("load", &load, "fraction of host bandwidth");
  if (const exp::FlagSet::Outcome r = flags.parse(argc, argv); r.exit_code) {
    std::fputs(r.message.c_str(), *r.exit_code == 0 ? stdout : stderr);
    return *r.exit_code;
  }

  exp::Table table({"deployment", "mice avg FCT", "mice p99 FCT",
                    "elephant avg FCT", "queue avg"});

  for (const bool multiqueue : {false, true}) {
    net::LeafSpineConfig topo;  // 2 spines, 4 leaves x 8 hosts
    topo.switch_cfg.num_data_queues = multiqueue ? 2 : 1;
    auto experiment_ptr =
        exp::ExperimentBuilder{}
            .scheme(exp::Scheme::kSecn1)  // static placeholder; agents below
            .workload(workload::WorkloadKind::kWebSearch)
            .load(load)
            .topology(topo)
            .flow_size_cap(8e6)
            .phases(sim::milliseconds(40), sim::milliseconds(40))
            .tuned_dcqcn()
            .build();
    exp::Experiment& experiment = *experiment_ptr;
    const exp::ScenarioConfig& cfg = experiment.config();

    core::MultiQueuePetConfig mq;
    mq.num_queues = multiqueue ? 2 : 1;
    mq.agent = core::PetAgentConfig::paper_defaults();
    mq.agent.rollout_length = 32;
    mq.agent.ppo.minibatch_size = 32;
    mq.agent.explore_start = 0.1;
    mq.agent.state.qlen_norm_bytes =
        static_cast<double>(cfg.topo.switch_config().pfc_xoff_bytes);
    if (multiqueue) {
      // Mice ride queue 0, elephants queue 1 (per-switch classifier state).
      for (auto* sw : experiment.network().switches()) {
        sw->set_classifier(net::SizeClassClassifier::as_classifier(
            std::make_shared<net::SizeClassClassifier>()));
      }
    }
    core::MultiQueuePetController controller(
        experiment.scheduler(), experiment.network().switches(), mq,
        sim::derive_seed(cfg.seed, "mq-demo"));
    controller.start();

    const exp::Metrics m = experiment.run();
    table.add_row({multiqueue ? "multi-queue PET (mice|elephant split)"
                              : "single-queue PET",
                   exp::fmt("%.1f us", m.mice.avg_us),
                   exp::fmt("%.1f us", m.mice.p99_us),
                   exp::fmt("%.1f us", m.elephants.avg_us),
                   exp::fmt("%.1f KB", m.queue_avg_kb)});
    std::printf("  ran %s (mean reward %.3f)\n",
                multiqueue ? "multi-queue" : "single-queue",
                controller.mean_reward());
  }
  table.print();
  std::printf(
      "\nSeparating mice from elephants shields short flows from elephant "
      "queue build-up; each queue's thresholds adapt independently.\n");
  return 0;
}
