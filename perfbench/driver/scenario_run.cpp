#include "scenario_run.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/guardrails.hpp"
#include "exp/pretrain.hpp"
#include "exp/run_artifact.hpp"
#include "sim/rng.hpp"

namespace pet::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Cumulative counters sampled at one instant; window deltas subtract two.
struct Sample {
  std::uint64_t events = 0;
  std::int64_t tx_packets = 0;
  std::int64_t marked_packets = 0;
  std::int64_t pfc_pauses = 0;
  std::int64_t ecn_installs = 0;
  std::int64_t flows_started = 0;
  std::int64_t cnps_sent = 0;
  std::int64_t ppo_updates = 0;
  std::int64_t rollbacks = 0;
  std::int64_t replay_exchange_bytes = 0;
};

Sample sample(exp::Experiment& ex) {
  Sample s;
  s.events = ex.scheduler().executed();
  for (const net::SwitchDevice* sw : ex.network().switches()) {
    for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
      s.tx_packets += sw->port(p).tx_packets();
      s.marked_packets += sw->port(p).tx_marked_packets();
    }
    s.pfc_pauses += sw->pfc_pauses_sent();
    s.ecn_installs += sw->ecn_installs();
  }
  s.flows_started = ex.transport().flows_started();
  s.cnps_sent = ex.transport().cnps_sent();
  if (core::PetController* pet = ex.pet()) {
    for (std::size_t i = 0; i < pet->num_agents(); ++i) {
      s.ppo_updates += pet->agent(i).updates();
    }
    s.rollbacks = pet->total_rollbacks();
  }
  if (acc::AccController* acc = ex.acc()) {
    s.replay_exchange_bytes =
        static_cast<std::int64_t>(acc->replay_exchange_bytes());
  }
  return s;
}

std::map<std::string, SectionDelta> section_snapshot(const sim::Profiler& p) {
  std::map<std::string, SectionDelta> out;
  for (const sim::Profiler::Section& s : p.sections()) {
    out[s.name] = SectionDelta{s.calls, s.wall_ms};
  }
  return out;
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  events += o.events;
  heap_size = std::max(heap_size, o.heap_size);
  pool_size = std::max(pool_size, o.pool_size);
  tx_packets += o.tx_packets;
  marked_packets += o.marked_packets;
  pfc_pauses += o.pfc_pauses;
  switch_drops += o.switch_drops;
  ecn_installs += o.ecn_installs;
  flows_started += o.flows_started;
  flows_finished += o.flows_finished;
  flows_started_total += o.flows_started_total;
  flows_completed_total += o.flows_completed_total;
  cnps_sent += o.cnps_sent;
  ppo_updates += o.ppo_updates;
  quarantined += o.quarantined;
  rollbacks += o.rollbacks;
  serve_version += o.serve_version;
  replay_exchange_bytes += o.replay_exchange_bytes;
  fct_below_ideal += o.fct_below_ideal;
  fct_below_floor += o.fct_below_floor;
  return *this;
}

double ScenarioRun::window_ms() const {
  return std::accumulate(chunk_us.begin(), chunk_us.end(), 0.0) / 1e3;
}

double ScenarioRun::window_ref_units() const {
  return reference_ms > 0.0
             ? window_ms() * static_cast<double>(chunk_us.size()) / reference_ms
             : 0.0;
}

std::uint64_t scenario_seed(std::uint64_t seed, int index) {
  // Mix the workload seed first: derive_seed(p, i) alone XORs p into the
  // index, so small seeds would share sub-scenarios ((1, 0) == (2, 1)).
  return sim::derive_seed(sim::derive_seed(seed, "perfbench"),
                          static_cast<std::uint64_t>(index));
}

ScenarioRun run_scenario(const WorkloadSpec& spec, std::uint64_t seed,
                         const RunOptions& opt) {
  ScenarioRun run;
  run.traced = opt.traced;
  const exp::ExperimentBuilder builder = make_builder(spec, seed, opt.traced);

  auto t0 = Clock::now();
  std::unique_ptr<exp::Experiment> ex = builder.build();
  run.build_ms = ms_since(t0);

  if (!spec.model_key.empty()) {
    const std::uint64_t expected = ex->learned_weights().size();
    t0 = Clock::now();
    const auto weights = exp::WeightCache(opt.model_dir)
                             .load(std::string(spec.model_key), expected);
    run.model_load_ms = ms_since(t0);
    if (!weights) {
      throw std::runtime_error("model " + std::string(spec.model_key) +
                               " missing or invalid in " + opt.model_dir);
    }
    t0 = Clock::now();
    const bool installed = ex->install_learned_weights(*weights);
    run.model_install_ms = ms_since(t0);
    if (!installed) {
      throw std::runtime_error("model " + std::string(spec.model_key) +
                               " does not fit the " + std::string(spec.name) +
                               " agents");
    }
  }

  // Counter snapshots sit one picosecond before each window edge, so "flows
  // started in the window" is exactly the set fct_bucket() reads: start
  // times in [from, to).
  const sim::Time one_ps(1);
  const sim::Time from = spec.warmup;
  const sim::Time to = spec.warmup + spec.window;
  sim::Scheduler& sched = ex->scheduler();
  t0 = Clock::now();
  sched.run_until(from - one_ps);
  const Sample s0 = sample(*ex);
  sched.run_until(from);
  ex->mark_measurement_start();
  run.warmup_ms = ms_since(t0);
  run.setup_ms =
      run.build_ms + run.model_load_ms + run.model_install_ms + run.warmup_ms;

  const auto sections0 = section_snapshot(ex->profiler());
  Sample s1;
  run.chunk_us.reserve(static_cast<std::size_t>(spec.window / kChunk) + 1);
  for (sim::Time at = from; at < to;) {
    const sim::Time next = std::min(at + kChunk, to);
    const auto c0 = Clock::now();
    if (next == to) {
      sched.run_until(to - one_ps);
      s1 = sample(*ex);
    }
    sched.run_until(next);
    run.chunk_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - c0).count());
    if (opt.reference != nullptr) {
      run.reference_ms += opt.reference->unit_us() / 1e3;
    }
    at = next;
  }

  if (opt.traced) {
    for (const auto& [name, end] : section_snapshot(ex->profiler())) {
      SectionDelta d = end;
      if (const auto it = sections0.find(name); it != sections0.end()) {
        d.calls -= it->second.calls;
        d.ms -= it->second.ms;
      }
      run.sections[name] = d;
    }
  }

  t0 = Clock::now();
  run.metrics = ex->collect(from, sched.now());
  run.collect_ms = ms_since(t0);

  Counters& c = run.counters;
  c.events = s1.events - s0.events;
  c.heap_size = sched.heap_size();
  c.pool_size = sched.pool_size();
  c.tx_packets = s1.tx_packets - s0.tx_packets;
  c.marked_packets = s1.marked_packets - s0.marked_packets;
  c.pfc_pauses = s1.pfc_pauses - s0.pfc_pauses;
  c.switch_drops = ex->network().total_switch_drops();
  c.ecn_installs = s1.ecn_installs - s0.ecn_installs;
  c.flows_started = s1.flows_started - s0.flows_started;
  c.flows_started_total = ex->transport().flows_started();
  c.flows_completed_total = ex->transport().flows_completed();
  c.cnps_sent = s1.cnps_sent - s0.cnps_sent;
  c.ppo_updates = s1.ppo_updates - s0.ppo_updates;
  c.rollbacks = s1.rollbacks - s0.rollbacks;
  c.replay_exchange_bytes = s1.replay_exchange_bytes - s0.replay_exchange_bytes;
  if (core::PetController* pet = ex->pet()) {
    c.quarantined = static_cast<std::int64_t>(
        pet->num_in_state(core::AgentHealth::kQuarantined));
    c.serve_version = pet->policy_server().installed_version();
  }

  // Digest, FCT samples and FCT floors over the window's completion records.
  const net::Fabric& fabric = ex->topology();
  const sim::Rate host_rate = ex->config().topo.host_link_rate();
  const sim::Time norm_rtt = fabric.diameter_rtt(ex->config().dcqcn.mtu_bytes);
  Fnv1a h;
  for (const transport::FctRecord& r : ex->recorder().records()) {
    if (r.spec.start_time < from || r.spec.start_time >= to) continue;
    ++c.flows_finished;
    h.add(static_cast<std::uint64_t>(r.spec.id));
    h.add(static_cast<std::int64_t>(r.spec.src));
    h.add(static_cast<std::int64_t>(r.spec.dst));
    h.add(r.spec.size_bytes);
    h.add(r.spec.start_time.ps());
    h.add(r.finish_time.ps());
    const double fct_us = r.fct().us();
    run.fct_us.push_back(fct_us);
    if (r.spec.size_bytes <= exp::kMiceMaxBytes) run.mice_fct_us.push_back(fct_us);
    // ideal_fct_us() as the metrics use it (diameter RTT with one MTU
    // serialization per hop) is a normalizer, not a floor: a pipelined
    // multi-packet flow beats it by up to one MTU time. The floor is the
    // same formula over the flow's own path at zero serialization per hop:
    // payload at the host line rate plus one-way propagation.
    if (fct_us < exp::ideal_fct_us(r.spec.size_bytes, host_rate, norm_rtt)) {
      ++c.fct_below_ideal;
    }
    if (fct_us < exp::ideal_fct_us(r.spec.size_bytes, host_rate,
                                   fabric.base_rtt(r.spec.src, r.spec.dst, 0))) {
      ++c.fct_below_floor;
    }
  }
  for (const net::SwitchDevice* sw : ex->network().switches()) {
    const net::EcnConfigSummary e = sw->ecn_config_summary();
    h.add(e.kmin_min_bytes);
    h.add(e.kmin_max_bytes);
    h.add(e.kmax_min_bytes);
    h.add(e.kmax_max_bytes);
    h.add(e.pmax_min);
    h.add(e.pmax_max);
    h.add(static_cast<std::int64_t>(e.uniform));
    h.add(static_cast<std::int64_t>(e.queues));
  }
  run.digest = h.value();

  if (opt.traced && !opt.artifact_path.empty()) {
    t0 = Clock::now();
    exp::RunArtifact art("pet_perfbench");
    art.set_mode(std::string(spec.name));
    art.set_seed(seed);
    art.set_scenario(ex->config());
    art.add_metrics("", run.metrics);
    art.add_switch_summaries(ex->network().switches());
    art.add_tier_summaries(ex->topology(), ex->network());
    art.add_event_counts(ex->event_log());
    art.set_profiler(ex->profiler());
    if (!art.write(opt.artifact_path)) {
      throw std::runtime_error("cannot write run artifact " +
                               opt.artifact_path);
    }
    run.artifact_ms = ms_since(t0);
  }
  return run;
}

}  // namespace pet::perfbench
