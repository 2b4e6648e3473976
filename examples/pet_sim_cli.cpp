// pet_sim_cli: run any scenario from the command line and optionally dump
// per-switch telemetry as CSV — the Swiss-army knife for exploring the
// library without writing code.
//
//   ./pet_sim_cli --scheme=pet --workload=websearch --load=0.6
//                 --hosts-per-leaf=8 --leaves=4 --spines=2
//                 --pretrain-ms=40 --measure-ms=40 --seed=1
//                 --telemetry=trace.csv --artifact=run.json
//                 --trace=trace.json [--no-incast] [--no-pretrain-cache]
//
// Crash safety: SIGINT/SIGTERM interrupt the run cooperatively — the final
// checkpoint (training mode) and the run artifact are still flushed before
// exit (code 130). Training mode (--train-episodes with a PET scheme) runs
// ReplicaRunner episodes with --checkpoint/--checkpoint-every/--resume.

#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "exp/flags.hpp"
#include "exp/pretrain.hpp"
#include "exp/replica_runner.hpp"
#include "exp/run_artifact.hpp"
#include "exp/table.hpp"
#include "exp/telemetry.hpp"
#include "exp/trace_export.hpp"

namespace {

using namespace pet;

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int /*signum*/) { g_stop = 1; }

struct CliOptions {
  exp::Scheme scheme = exp::Scheme::kPet;
  workload::WorkloadKind workload = workload::WorkloadKind::kWebSearch;
  double load = 0.6;
  net::TopologySpec::Kind topo = net::TopologySpec::Kind::kLeafSpine;
  std::uint64_t seed = 1;
  exp::ScenarioFlags shared;
  bool use_pretrain_cache = true;
  std::string telemetry_path;
  std::string artifact_path;
  std::string trace_path;
  std::int32_t train_threads = 0;
  std::string checkpoint_path;
};

exp::FlagSet make_flags(const char* argv0, CliOptions& opt) {
  exp::FlagSet flags(argv0);
  flags.choice("--scheme", &opt.scheme, exp::kSchemeNames, "ECN scheme")
      .choice("--workload", &opt.workload, exp::kWorkloadNames,
              "background flow-size distribution")
      .value("--load=F", &opt.load, "fraction of host bandwidth")
      .choice("--topo", &opt.topo, exp::kTopologyNames, "fabric family")
      .value("--seed=N", &opt.seed, "scenario seed");
  opt.shared.add_to(flags);
  flags.value("--telemetry=PATH", &opt.telemetry_path,
              "write per-switch time series CSV")
      .value("--artifact=PATH", &opt.artifact_path,
             "write a machine-readable run artifact (JSON)")
      .value("--trace=PATH", &opt.trace_path,
             "write a chrome://tracing timeline (JSON)")
      .toggle("--no-pretrain-cache", &opt.use_pretrain_cache, false,
              "train learning schemes inline (slow)")
      .value("--train-threads=N", &opt.train_threads,
             "replica worker threads (0 = auto)")
      .value("--checkpoint=PATH", &opt.checkpoint_path,
             "durable training checkpoint file");
  return flags;
}

/// Training mode: ReplicaRunner episodes with durable checkpoints. SIGINT/
/// SIGTERM stop between episodes; the final checkpoint and the artifact
/// are flushed either way.
int run_training(const CliOptions& opt, const exp::ScenarioConfig& cfg) {
  if (cfg.scheme != exp::Scheme::kPet &&
      cfg.scheme != exp::Scheme::kPetAblation) {
    std::fprintf(stderr, "--train-episodes requires a PET scheme\n");
    return 2;
  }
  exp::ReplicaRunnerConfig rr;
  rr.replicas = opt.shared.replicas;
  rr.threads = opt.train_threads;
  rr.episodes = opt.shared.train_episodes;
  exp::ReplicaRunner runner(cfg, rr);

  if (opt.shared.resume && !opt.checkpoint_path.empty()) {
    std::string error;
    if (runner.load_checkpoint(opt.checkpoint_path, &error)) {
      std::printf("resumed from %s at episode %d\n",
                  opt.checkpoint_path.c_str(), runner.next_episode());
    } else {
      std::fprintf(stderr, "starting fresh (no usable checkpoint: %s)\n",
                   error.c_str());
    }
  }

  const auto save = [&runner, &opt] {
    if (opt.checkpoint_path.empty()) return;
    if (runner.save_checkpoint(opt.checkpoint_path)) {
      std::printf("checkpoint: %s (episode %d)\n",
                  opt.checkpoint_path.c_str(), runner.next_episode());
    } else {
      std::fprintf(stderr, "failed to write checkpoint %s\n",
                   opt.checkpoint_path.c_str());
    }
  };

  bool interrupted = false;
  const exp::ScenarioFlags& sh = opt.shared;
  while (runner.next_episode() < sh.train_episodes) {
    if (g_stop != 0) {
      interrupted = true;
      break;
    }
    const exp::ReplicaRunner::EpisodeStats st = runner.run_episode();
    std::printf("episode %d: reward %.3f over %zu transitions\n", st.episode,
                st.mean_reward, st.transitions);
    const std::int32_t done = runner.next_episode();
    if (sh.checkpoint_every > 0 && (done % sh.checkpoint_every == 0 ||
                                    done == sh.train_episodes)) {
      save();
    }
  }
  if (interrupted) {
    std::fprintf(stderr, "interrupted at episode %d; flushing state\n",
                 runner.next_episode());
    save();
  }

  if (!opt.artifact_path.empty()) {
    exp::RunArtifact art("pet_sim_cli_train");
    art.set_mode("cli-train");
    art.set_seed(opt.seed);
    art.set_scenario(cfg);
    art.set_manifest_extra("interrupted", exp::JsonValue(interrupted));
    art.add_metric("episodes",
                   static_cast<double>(runner.history().size()));
    art.add_metric("final_mean_reward",
                   runner.history().empty()
                       ? 0.0
                       : runner.history().back().mean_reward);
    char digest[32];
    std::snprintf(digest, sizeof digest, "0x%016llx",
                  static_cast<unsigned long long>(runner.last_digest()));
    art.add_metric("rollout_digest", std::string(digest));
    if (!art.write(opt.artifact_path)) return 1;
    std::printf("artifact: %s\n", opt.artifact_path.c_str());
  }
  return interrupted ? 130 : 0;
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
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  exp::ExperimentBuilder builder = opt.shared.builder(opt.topo);
  builder.scheme(opt.scheme)
      .workload(opt.workload)
      .load(opt.load)
      .seed(opt.seed)
      .profiling(!opt.artifact_path.empty() || !opt.trace_path.empty());
  const exp::ScenarioConfig scenario = builder.config();
  try {
    scenario.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (opt.shared.train_episodes > 0) return run_training(opt, scenario);

  std::vector<double> weights;
  if (opt.use_pretrain_cache && exp::is_learning_scheme(opt.scheme)) {
    weights = exp::pretrained_weights_cached(scenario, exp::PretrainOptions{});
    builder.expects_pretrained(!weights.empty()).pretrain_lr_boost(1.0);
  }

  std::printf("pet_sim: %s on %s, %s fabric, %d hosts, load %.0f%%, seed %llu\n",
              exp::scheme_name(opt.scheme),
              workload::workload_name(opt.workload),
              scenario.topo.kind_name(), scenario.topo.num_hosts(),
              opt.load * 100, static_cast<unsigned long long>(opt.seed));

  auto experiment_ptr = builder.build();
  exp::Experiment& experiment = *experiment_ptr;
  if (!weights.empty() && !experiment.install_learned_weights(weights)) {
    std::fprintf(stderr,
                 "warning: pretrained weights rejected (stale cache?); "
                 "running untrained\n");
  }

  std::unique_ptr<exp::TelemetryRecorder> telemetry;
  if (!opt.telemetry_path.empty()) {
    telemetry = std::make_unique<exp::TelemetryRecorder>(
        experiment.scheduler(), experiment.network().switches());
    telemetry->start();
  }

  // Chunked run with a cooperative cancellation point: SIGINT/SIGTERM stop
  // the simulation at the next chunk boundary, and every requested output
  // (artifact, telemetry, trace) is still flushed below before exit.
  bool completed = false;
  const exp::Metrics m = experiment.run_chunked(
      sim::milliseconds(1), [] { return g_stop == 0; }, &completed);
  const bool interrupted = !completed;
  if (interrupted) {
    std::fprintf(stderr,
                 "interrupted at t=%.1fms; flushing partial outputs\n",
                 experiment.scheduler().now().ms());
  }

  exp::Table table({"metric", "value"});
  table.add_row({"flows measured", exp::fmt("%lld", static_cast<long long>(m.flows_measured))});
  table.add_row({"overall avg FCT", exp::fmt("%.1f us", m.overall.avg_us)});
  table.add_row({"overall p99 FCT", exp::fmt("%.1f us", m.overall.p99_us)});
  table.add_row({"mice avg / p99", exp::fmt("%.1f / %.1f us", m.mice.avg_us,
                                            m.mice.p99_us)});
  table.add_row({"elephant avg", exp::fmt("%.1f us", m.elephants.avg_us)});
  table.add_row({"avg slowdown", exp::fmt("%.2fx", m.overall.avg_slowdown)});
  table.add_row({"latency avg / p99", exp::fmt("%.2f / %.2f us",
                                               m.latency_avg_us,
                                               m.latency_p99_us)});
  table.add_row({"queue avg / std", exp::fmt("%.1f / %.1f KB", m.queue_avg_kb,
                                             m.queue_std_kb)});
  table.add_row({"switch drops", exp::fmt("%lld", static_cast<long long>(m.switch_drops))});
  table.add_row({"PFC pauses", exp::fmt("%lld", static_cast<long long>(m.pfc_pauses))});
  table.print();

  if (telemetry != nullptr) {
    telemetry->stop();
    if (telemetry->write_csv(opt.telemetry_path)) {
      std::printf("telemetry: %zu samples -> %s\n",
                  telemetry->samples().size(), opt.telemetry_path.c_str());
    } else {
      std::fprintf(stderr, "telemetry: failed to write %s\n",
                   opt.telemetry_path.c_str());
      return 1;
    }
  }

  if (!opt.artifact_path.empty()) {
    exp::RunArtifact art("pet_sim_cli");
    art.set_mode("cli");
    art.set_seed(opt.seed);
    art.set_scenario(experiment.config());
    art.set_manifest_extra("interrupted", exp::JsonValue(interrupted));
    art.add_metrics("", m);
    art.add_switch_summaries(experiment.network().switches());
    art.add_tier_summaries(experiment.topology(), experiment.network());
    art.add_event_counts(experiment.event_log());
    art.set_profiler(experiment.profiler());
    if (!art.write(opt.artifact_path)) return 1;
    std::printf("artifact: %s\n", opt.artifact_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    if (!exp::write_chrome_trace(opt.trace_path, &experiment.event_log(),
                                 &experiment.profiler(), telemetry.get())) {
      return 1;
    }
    std::printf("trace: %s (open in chrome://tracing)\n",
                opt.trace_path.c_str());
  }
  return interrupted ? 130 : 0;
}
