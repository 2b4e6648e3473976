// pet_sweep: fault-tolerant grid sweeps over scheme × load × seed.
//
//   ./pet_sweep --scheme=pet,secn1 --load=0.4,0.8 --seed=1,2
//               --out=sweep_out --threads=2 --train-episodes=3
//               --checkpoint-every=1 [--resume]
//
// Every point writes a durable artifact (the completion marker) and
// training points checkpoint every N episodes, so a crashed or killed
// sweep re-run with --resume skips finished points and continues partial
// ones bitwise-identically. A per-point watchdog retries hung points with
// capped backoff and quarantines repeat offenders while the rest of the
// grid completes. Exit code: 0 all points done, 1 any quarantined, 130
// stopped by signal.
//
// --crash-after-writes and --hang-point/--hang-seconds inject the faults
// the crash-safety tests need.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/flags.hpp"
#include "exp/sweep.hpp"

namespace {

using namespace pet;

exp::SweepRunner* g_runner = nullptr;

void handle_stop_signal(int /*signum*/) {
  if (g_runner != nullptr) g_runner->request_stop();
}

struct CliOptions {
  exp::SweepGrid grid;
  exp::SweepRunnerConfig run;
  /// Topology axis. One entry replaces the base topology (historical
  /// un-prefixed point ids); several become a grid axis with
  /// "<topo>_"-prefixed ids.
  std::vector<net::TopologySpec::Kind> topos;
  exp::ScenarioFlags shared;
  std::int32_t hang_point = -1;
  double hang_seconds = 5.0;
};

exp::FlagSet make_flags(const char* argv0, CliOptions& opt) {
  opt.run.out_dir = "sweep_out";
  opt.shared.leaves = 2;
  opt.shared.hosts_per_leaf = 4;
  opt.shared.pretrain_ms = 10;
  opt.shared.measure_ms = 10;
  exp::SweepRunnerConfig& run = opt.run;
  exp::FlagSet flags(argv0);
  flags.choice("--scheme", &opt.grid.schemes, exp::kSchemeNames, "schemes")
      .value("--load=LIST", &opt.grid.loads, "comma list of load fractions")
      .value("--seed=LIST", &opt.grid.seeds, "comma list of seeds")
      .value("--out=DIR", &run.out_dir, "output directory")
      .value("--name=NAME", &opt.grid.name, "sweep name")
      .value("--threads=N", &run.threads, "concurrent points (0 = auto)")
      .choice("--topo", &opt.topos, exp::kTopologyNames, "fabrics");
  opt.shared.add_to(flags);
  flags.value("--watchdog-seconds=F", &run.watchdog_seconds,
              "wall-clock deadline per attempt (0 = off)")
      .value("--grace-seconds=F", &run.grace_seconds,
             "grace after a watchdog cancel")
      .value("--max-retries=N", &run.max_retries, "retries before quarantine")
      .value("--backoff-base=F", &run.backoff_base_seconds,
             "retry backoff base (s)")
      .value("--backoff-cap=F", &run.backoff_cap_seconds,
             "retry backoff cap (s)")
      .value("--crash-after-writes=N", &run.crash_after_writes,
             "fault injection: exit 137 after N durable writes")
      .value("--hang-point=IDX", &opt.hang_point,
             "fault injection: hang this point's first attempt")
      .value("--hang-seconds=F", &opt.hang_seconds, "length of that hang");
  return flags;
}

/// Point-id prefix of a topology axis value ("ft8_", "interdc_", ...).
std::string axis_name(net::TopologySpec::Kind kind, std::int32_t k) {
  if (kind == net::TopologySpec::Kind::kFatTree) {
    return "ft" + std::to_string(k);
  }
  return kind == net::TopologySpec::Kind::kLeafSpine ? "leafspine" : "interdc";
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  const exp::FlagSet flags = make_flags(argv[0], opt);
  if (const exp::FlagSet::Outcome r = flags.parse(argc, argv); r.exit_code) {
    std::fputs(r.message.c_str(), *r.exit_code == 0 ? stdout : stderr);
    return *r.exit_code;
  }
  if (const std::string error = opt.shared.check(); !error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  const exp::ScenarioFlags& sh = opt.shared;

  exp::SweepGrid& grid = opt.grid;
  // One topology replaces the base so the point ids keep their historical
  // un-prefixed form. Several become an axis; DCQCN is then tuned for the
  // first one's host rate, and mixing host speeds in one sweep is the
  // operator's explicit choice.
  if (opt.topos.size() > 1) {
    for (const net::TopologySpec::Kind kind : opt.topos) {
      grid.topologies.push_back(
          {axis_name(kind, sh.fat_tree_k), sh.make_topology(kind)});
    }
  }
  grid.base = sh.builder(opt.topos.empty() ? net::TopologySpec::Kind::kLeafSpine
                                           : opt.topos.front())
                  .config();
  if (!grid.seeds.empty()) grid.base.seed = grid.seeds.front();

  exp::SweepRunnerConfig& cfg = opt.run;
  cfg.resume = sh.resume;
  cfg.train_episodes = sh.train_episodes;
  cfg.replicas = sh.replicas;
  cfg.checkpoint_every = sh.checkpoint_every;
  if (opt.hang_point >= 0) {
    const std::int32_t hang_point = opt.hang_point;
    const double hang_seconds = opt.hang_seconds;
    cfg.attempt_hook = [hang_point, hang_seconds](const exp::SweepPoint& p,
                                                  std::int32_t attempt) {
      if (p.index == hang_point && attempt == 0) {
        std::fprintf(stderr, "sweep: injected hang on %s\n", p.id.c_str());
        std::this_thread::sleep_for(
            std::chrono::duration<double>(hang_seconds));
      }
    };
  }

  exp::SweepRunner runner(grid, cfg);
  g_runner = &runner;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  const std::size_t total = grid.expand(cfg.train_episodes).size();
  std::printf("pet_sweep: %zu points -> %s (threads=%d%s)\n", total,
              cfg.out_dir.c_str(), cfg.threads,
              cfg.resume ? ", resume" : "");

  exp::SweepRunner::Result result;
  try {
    result = runner.run();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  bool stopped = false;
  for (const exp::SweepRunner::PointStatus& st : result.points) {
    std::printf("  %-32s %-12s attempts=%d%s\n", st.id.c_str(),
                st.status.c_str(), st.attempts,
                st.resumed_from_episode > 0 ? " (resumed)" : "");
    if (st.status == "stopped") stopped = true;
  }
  std::printf("pet_sweep: %d/%zu completed, %d quarantined -> %s\n",
              result.completed, result.points.size(), result.quarantined,
              result.artifact_path.c_str());
  if (stopped) return 130;
  return result.all_completed() ? 0 : 1;
}
