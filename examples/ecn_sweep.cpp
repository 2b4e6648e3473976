// ECN threshold sweep: run the same workload under a grid of static
// (Kmin, Kmax, Pmax) configurations and print the latency/throughput
// tradeoff each point achieves — the landscape PET's agents learn to
// navigate. Also reports the reward each point would earn, making the
// reward/FCT correlation visible.
//
//   ./ecn_sweep [load] [measure_ms]

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "core/ncm.hpp"
#include "core/reward.hpp"
#include "exp/experiment_builder.hpp"
#include "exp/flags.hpp"
#include "exp/table.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  double load = 0.6;
  std::int64_t measure_ms = 30;
  exp::FlagSet flags(argv[0]);
  flags.value("load", &load, "fraction of host bandwidth")
      .value("measure_ms", &measure_ms, "measurement window in ms");
  if (const exp::FlagSet::Outcome r = flags.parse(argc, argv); r.exit_code) {
    std::fputs(r.message.c_str(), *r.exit_code == 0 ? stdout : stderr);
    return *r.exit_code;
  }

  struct Point {
    std::int64_t kmin_kb;
    std::int64_t kmax_kb;
    double pmax;
  };
  const std::vector<Point> grid{
      {20, 20, 0.5},   {20, 40, 0.5},  {20, 80, 0.2},   {40, 80, 0.5},
      {40, 160, 0.2},  {80, 160, 0.5}, {80, 320, 0.2},  {160, 320, 0.5},
      {160, 640, 0.2}, {320, 1280, 0.2}, {640, 2560, 0.2}, {5, 200, 0.2},
  };

  std::printf("ECN sweep: Web Search, load %.0f%%, %lld ms measured\n\n",
              load * 100, static_cast<long long>(measure_ms));
  exp::Table table({"Kmin", "Kmax", "Pmax", "overall avg", "mice avg",
                    "mice p99", "eleph avg", "queue avg", "latency avg",
                    "ncm util", "ncm reward"});

  for (const Point& p : grid) {
    auto experiment_ptr =
        exp::ExperimentBuilder{}
            .scheme(exp::Scheme::kSecn1)  // static; thresholds overridden below
            .workload(workload::WorkloadKind::kWebSearch)
            .load(load)
            .topology(net::LeafSpineConfig{})  // 2 spines, 4 leaves x 8 hosts
            .flow_size_cap(8e6)
            .phases(sim::milliseconds(5), sim::milliseconds(measure_ms))
            .tuned_dcqcn()
            .build();
    exp::Experiment& experiment = *experiment_ptr;
    const net::RedEcnConfig ecn{.kmin_bytes = p.kmin_kb * 1024,
                                .kmax_bytes = p.kmax_kb * 1024,
                                .pmax = p.pmax};
    // One audited call retunes the whole fabric.
    experiment.network().install_ecn(ecn);
    std::vector<std::unique_ptr<core::Ncm>> monitors;
    for (auto* sw : experiment.network().switches()) {
      monitors.push_back(std::make_unique<core::Ncm>(experiment.scheduler(),
                                                     *sw, core::NcmConfig{}));
    }
    // Sample every switch's NCM each tuning interval and average the reward
    // a PET agent would observe — the signal the learner actually sees.
    const core::RewardConfig rw = core::RewardConfig::web_search();
    double reward_sum = 0.0;
    double util_sum = 0.0;
    std::int64_t reward_n = 0;
    std::function<void()> sample = [&] {
      for (auto& ncm : monitors) {
        const core::NcmSnapshot snap = ncm->sample();
        reward_sum += core::compute_reward(rw, snap);
        util_sum += snap.utilization;
        ++reward_n;
      }
      experiment.scheduler().schedule_in(sim::microseconds(100), sample);
    };
    experiment.scheduler().schedule_in(sim::microseconds(100), sample);
    const exp::Metrics m = experiment.run();
    const double reward = reward_sum / static_cast<double>(reward_n);
    const double mean_util = util_sum / static_cast<double>(reward_n);

    table.add_row({exp::fmt("%lldKB", static_cast<long long>(p.kmin_kb)),
                   exp::fmt("%lldKB", static_cast<long long>(p.kmax_kb)),
                   exp::fmt("%.2f", p.pmax),
                   exp::fmt("%.1f", m.overall.avg_us),
                   exp::fmt("%.1f", m.mice.avg_us),
                   exp::fmt("%.1f", m.mice.p99_us),
                   exp::fmt("%.1f", m.elephants.avg_us),
                   exp::fmt("%.1fKB", m.queue_avg_kb),
                   exp::fmt("%.2fus", m.latency_avg_us),
                   exp::fmt("%.3f", mean_util),
                   exp::fmt("%.3f", reward)});
    std::printf("  done Kmax=%lldKB Pmax=%.2f\n", static_cast<long long>(p.kmax_kb), p.pmax);
  }
  table.print();
  return 0;
}
