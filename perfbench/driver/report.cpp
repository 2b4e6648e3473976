#include "report.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <limits>

#include "sim/stats.hpp"

namespace pet::perfbench {

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Median over sub-scenarios of a simulated outcome of their first run.
double median_outcome(const Runs& runs,
                      const std::function<double(const ScenarioRun&)>& f) {
  std::vector<double> v;
  for (const auto& scenario : runs) v.push_back(f(scenario.front()));
  return median(v);
}

/// Median of a host-time field over every run with the given tracing.
double median_of(const Runs& runs, double ScenarioRun::*field, bool traced) {
  std::vector<double> v;
  for (const auto& scenario : runs) {
    for (const ScenarioRun& run : scenario) {
      if (run.traced == traced) v.push_back(run.*field);
    }
  }
  return median(v);
}

/// The fastest of one sub-scenario's runs with the given tracing (nullptr
/// if there is none).
const ScenarioRun* fastest(const std::vector<ScenarioRun>& scenario,
                           bool traced) {
  const ScenarioRun* best = nullptr;
  for (const ScenarioRun& run : scenario) {
    if (run.traced == traced &&
        (best == nullptr || run.window_ms() < best->window_ms())) {
      best = &run;
    }
  }
  return best;
}

/// Sum over the timed sub-scenarios of their fastest window.
double fastest_window_ms(const WorkloadSpec& spec, const Runs& runs,
                         bool traced) {
  double sum = 0.0;
  for (int k = 0; k < spec.timed_scenarios; ++k) {
    if (const ScenarioRun* run = fastest(runs[k], traced)) sum += run->window_ms();
  }
  return sum;
}

/// Sum over the timed sub-scenarios of their least window time in
/// reference units (untraced runs). Each run's ratio pairs the window with
/// the reference units timed alongside it, so a run slowed by its
/// neighbours is slowed on both sides of the ratio.
double fastest_window_ref_units(const WorkloadSpec& spec, const Runs& runs) {
  double sum = 0.0;
  for (int k = 0; k < spec.timed_scenarios; ++k) {
    double best = std::numeric_limits<double>::infinity();
    for (const ScenarioRun& run : runs[k]) {
      if (!run.traced) best = std::min(best, run.window_ref_units());
    }
    if (best < std::numeric_limits<double>::infinity()) sum += best;
  }
  return sum;
}

/// Median over the untraced runs of one reference unit's mean host time.
double reference_unit_us(const Runs& runs) {
  std::vector<double> v;
  for (const auto& scenario : runs) {
    for (const ScenarioRun& run : scenario) {
      if (!run.traced && !run.chunk_us.empty()) {
        v.push_back(run.reference_ms * 1e3 /
                    static_cast<double>(run.chunk_us.size()));
      }
    }
  }
  return median(v);
}

/// Simulated per-run outcomes, compared bit for bit between runs.
std::vector<double> sim_outcomes(const ScenarioRun& r) {
  const exp::Metrics& m = r.metrics;
  return {m.overall.avg_us, m.overall.p99_us, m.mice.p99_us,
          m.latency_p99_us, m.queue_avg_kb,
          static_cast<double>(m.flows_measured)};
}

}  // namespace

std::vector<std::string> check_outputs(const Runs& runs, std::int64_t* failed) {
  std::vector<std::string> problems;
  std::int64_t bad_runs = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const ScenarioRun& ref = runs[k].front();
    for (std::size_t i = 0; i < runs[k].size(); ++i) {
      const ScenarioRun& run = runs[k][i];
      const Counters& c = run.counters;
      std::vector<std::string> mine;
      const auto fail = [&](const char* fmt, auto... args) {
        char buf[256];
        std::snprintf(buf, sizeof buf, fmt, args...);
        mine.push_back("scenario " + std::to_string(k) + " run " +
                       std::to_string(i) + ": " + buf);
      };
      if (c.flows_completed_total > c.flows_started_total) {
        fail("%" PRId64 " flows completed but only %" PRId64 " started",
             c.flows_completed_total, c.flows_started_total);
      }
      if (c.flows_finished > c.flows_started) {
        fail("%" PRId64 " window flows finished but only %" PRId64 " started",
             c.flows_finished, c.flows_started);
      }
      if (c.fct_below_floor != 0) {
        fail("%" PRId64 " FCTs below the physical floor", c.fct_below_floor);
      }
      if (c.switch_drops != 0) {
        fail("%" PRId64 " switch drops on a PFC-lossless fabric",
             c.switch_drops);
      }
      if (c.quarantined != 0) {
        fail("%" PRId64 " agents quarantined", c.quarantined);
      }
      if (i > 0) {
        if (run.digest != ref.digest) {
          fail("outcome digest %016" PRIx64 " differs from %016" PRIx64,
               run.digest, ref.digest);
        }
        if (c.events != ref.counters.events) {
          fail("%" PRIu64 " events instead of %" PRIu64, c.events,
               ref.counters.events);
        }
        if (!(c == ref.counters)) fail("layer counters differ");
        const auto a = sim_outcomes(run);
        const auto b = sim_outcomes(ref);
        for (std::size_t j = 0; j < a.size(); ++j) {
          if (std::bit_cast<std::uint64_t>(a[j]) !=
              std::bit_cast<std::uint64_t>(b[j])) {
            fail("simulated outcome %zu reads %.17g instead of %.17g", j,
                 a[j], b[j]);
          }
        }
      }
      if (!mine.empty()) ++bad_runs;
      problems.insert(problems.end(), mine.begin(), mine.end());
    }
  }
  if (failed != nullptr) *failed = bad_runs;
  return problems;
}

std::vector<Metric> end_to_end_metrics(const WorkloadSpec& spec,
                                       const Runs& runs, double peak_rss_mb) {
  // Averages and fractions pool every window flow of every sub-scenario;
  // tails are medians over the sub-scenarios.
  double fct_sum = 0.0;
  std::size_t fct_count = 0;
  Counters c;
  for (const auto& scenario : runs) {
    const ScenarioRun& run = scenario.front();
    for (const double fct : run.fct_us) fct_sum += fct;
    fct_count += run.fct_us.size();
    c += run.counters;
  }
  const double timed_sim_ms = spec.timed_scenarios * spec.window.ms();
  return {
      {"setup_s", "s", median_of(runs, &ScenarioRun::setup_ms, false) / 1e3},
      {"host_ref_per_sim_ms", "ref/ms",
       fastest_window_ref_units(spec, runs) / timed_sim_ms},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"fct_avg_us", "us", ratio(fct_sum, static_cast<double>(fct_count))},
      {"fct_p99_us", "us",
       median_outcome(runs, [](const auto& r) { return r.metrics.overall.p99_us; })},
      {"mice_fct_p99_us", "us",
       median_outcome(runs, [](const auto& r) { return r.metrics.mice.p99_us; })},
      {"flows_unfinished_frac", "ratio",
       ratio(static_cast<double>(c.flows_started - c.flows_finished),
             static_cast<double>(c.flows_started))},
  };
}

std::vector<Metric> per_layer_metrics(const WorkloadSpec& spec,
                                      const Runs& timed) {
  Counters c;
  for (const auto& scenario : timed) c += scenario.front().counters;
  const double untraced_ms = fastest_window_ms(spec, timed, false);
  const double traced_ms = fastest_window_ms(spec, timed, true);

  // Per-chunk lower envelope over the untraced runs: chunk i of one
  // sub-scenario carries the same simulated work in every run.
  std::vector<double> chunk_min;
  for (const auto& scenario : timed) {
    std::vector<double> env(scenario.front().chunk_us.size(),
                            std::numeric_limits<double>::infinity());
    for (const ScenarioRun& run : scenario) {
      if (run.traced) continue;
      for (std::size_t i = 0; i < env.size(); ++i) {
        env[i] = std::min(env[i], run.chunk_us[i]);
      }
    }
    chunk_min.insert(chunk_min.end(), env.begin(), env.end());
  }

  // Traced event kinds: the fastest traced run of each timed sub-scenario.
  const auto section = [&](const char* kind) {
    SectionDelta sum;
    for (const auto& scenario : timed) {
      const ScenarioRun* run = fastest(scenario, true);
      if (run == nullptr) continue;
      if (const auto it = run->sections.find(kind); it != run->sections.end()) {
        sum.calls += it->second.calls;
        sum.ms += it->second.ms;
      }
    }
    return sum;
  };

  std::vector<Metric> out;
  const auto counter = [&](const std::string& name, auto v) {
    out.push_back({name, "count", static_cast<double>(v), true});
  };
  // (calls, mean self time per call) of a traced event kind; `per_ms`
  // converts milliseconds into `unit`.
  const auto traced_pair = [&](const std::string& prefix, const char* kind,
                               const char* unit, double per_ms) {
    const SectionDelta d = section(kind);
    counter(prefix + ".calls", d.calls);
    out.push_back({prefix + "." + unit, unit,
                   ratio(d.ms * per_ms, static_cast<double>(d.calls))});
  };
  const auto share = [&](const std::string& name, const char* kind) {
    out.push_back({name, "ratio", ratio(section(kind).ms, traced_ms)});
  };
  const auto host_median = [&](const std::string& name,
                               double ScenarioRun::*field, bool traced) {
    out.push_back({name, "ms", median_of(timed, field, traced)});
  };

  // sim
  counter("sim.events", c.events);
  out.push_back({"sim.ns_per_event", "ns",
                 ratio(untraced_ms * 1e6, static_cast<double>(c.events))});
  out.push_back({"sim.chunk_us_p50", "us", sim::percentile(chunk_min, 50.0)});
  out.push_back({"sim.chunk_us_p99", "us", sim::percentile(chunk_min, 99.0)});
  counter("sim.heap_size", c.heap_size);
  counter("sim.pool_size", c.pool_size);
  // net
  traced_pair("net.tx", "net.tx", "ns", 1e6);
  traced_pair("net.prop", "net.prop", "ns", 1e6);
  traced_pair("net.host_kick", "net.host-kick", "ns", 1e6);
  counter("net.tx_packets", c.tx_packets);
  out.push_back({"net.marked_frac", "ratio",
                 ratio(static_cast<double>(c.marked_packets),
                       static_cast<double>(c.tx_packets))});
  counter("net.pfc_pauses", c.pfc_pauses);
  counter("net.switch_drops", c.switch_drops);
  counter("net.ecn_installs", c.ecn_installs);
  // transport
  traced_pair("transport.alpha", "transport.alpha", "ns", 1e6);
  traced_pair("transport.increase", "transport.increase", "ns", 1e6);
  counter("transport.flows_started", c.flows_started);
  counter("transport.flows_completed", c.flows_finished);
  counter("transport.cnps_sent", c.cnps_sent);
  // workload
  traced_pair("workload.arrival", "workload.arrival", "ns", 1e6);
  traced_pair("workload.incast", "workload.incast", "ns", 1e6);
  // core
  traced_pair("core.pet_tick", "rl.pet-tick", "us", 1e3);
  share("core.pet_tick.share", "rl.pet-tick");
  counter("core.ppo_updates", c.ppo_updates);
  counter("core.quarantined", c.quarantined);
  counter("core.rollbacks", c.rollbacks);
  // rl
  counter("rl.serve_version", c.serve_version);
  // acc
  traced_pair("acc.tick", "rl.acc-tick", "us", 1e3);
  share("acc.tick.share", "rl.acc-tick");
  out.push_back({"acc.replay_exchange_bytes", "bytes",
                 static_cast<double>(c.replay_exchange_bytes), true});
  // exp
  host_median("exp.build_ms", &ScenarioRun::build_ms, false);
  host_median("exp.model_load_ms", &ScenarioRun::model_load_ms, false);
  host_median("exp.model_install_ms", &ScenarioRun::model_install_ms, false);
  host_median("exp.warmup_ms", &ScenarioRun::warmup_ms, false);
  host_median("exp.collect_ms", &ScenarioRun::collect_ms, false);
  traced_pair("exp.probe", "telemetry.probe", "ns", 1e6);
  host_median("exp.artifact_ms", &ScenarioRun::artifact_ms, true);
  // Fabric state as medians over sub-scenarios: one whose agents let the
  // queues run away dominates any pooled figure.
  out.push_back({"exp.pkt_latency_p99_us", "us",
                 median_outcome(timed, [](const auto& r) {
                   return r.metrics.latency_p99_us;
                 })});
  out.push_back({"exp.queue_avg_kb", "KB",
                 median_outcome(timed, [](const auto& r) {
                   return r.metrics.queue_avg_kb;
                 })});
  counter("exp.fct_below_ideal", c.fct_below_ideal);
  // trace
  out.push_back({"trace.overhead_ratio", "ratio", ratio(traced_ms, untraced_ms)});
  // host: the raw window time behind host_ref_per_sim_ms, and the machine
  // speed it was divided by
  const double timed_sim_ms = spec.timed_scenarios * spec.window.ms();
  out.push_back({"host.ms_per_sim_ms", "ms/ms", untraced_ms / timed_sim_ms});
  out.push_back({"host.ref_unit_us", "us", reference_unit_us(timed)});
  return out;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, m.integer ? "%.0f" : "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace pet::perfbench
