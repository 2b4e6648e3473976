// Differential oracle: the DCQCN sender (RP) state machine running inside
// the full simulator vs the testkit's scalar DcqcnRpRef. Synthetic CNPs are
// delivered at generated times while the reference independently replays
// the cut / alpha-decay / increase-timer timeline; alpha, Rc and Rt must
// agree at every checkpoint.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "net/network.hpp"
#include "testkit/oracles.hpp"
#include "testkit/property.hpp"
#include "transport/dcqcn.hpp"

namespace pet::testkit {
namespace {

/// Replays the sender's timer timeline for the reference model. The real
/// sender arms both timers at flow start and re-arms them from the cut
/// time on every CNP; between checkpoints every due fire is applied in
/// chronological order (alpha-decay and increase fires commute at equal
/// times — they touch disjoint state).
struct RefTimeline {
  DcqcnRpRef ref;
  std::int64_t alpha_period_ps = 0;
  std::int64_t incr_period_ps = 0;
  std::int64_t next_alpha_ps = 0;
  std::int64_t next_incr_ps = 0;

  void start(const transport::DcqcnConfig& cfg, double line_bps,
             std::int64_t t0_ps) {
    ref.init(cfg, line_bps);
    alpha_period_ps = cfg.alpha_timer.ps();
    incr_period_ps = cfg.increase_timer.ps();
    next_alpha_ps = t0_ps + alpha_period_ps;
    next_incr_ps = t0_ps + incr_period_ps;
  }

  /// Apply every timer fire with time <= t (run_until executes events at
  /// exactly `until`).
  void advance_to(std::int64_t t_ps) {
    while (std::min(next_alpha_ps, next_incr_ps) <= t_ps) {
      if (next_alpha_ps <= next_incr_ps) {
        ref.on_alpha_tick();
        next_alpha_ps += alpha_period_ps;
      } else {
        ref.on_increase_timer_tick();
        next_incr_ps += incr_period_ps;
      }
    }
  }

  /// CNP at time t: due fires first (they ran inside run_until), then the
  /// cut, which re-arms both timers from t.
  void cut_at(std::int64_t t_ps) {
    advance_to(t_ps);
    ref.on_cut();
    next_alpha_ps = t_ps + alpha_period_ps;
    next_incr_ps = t_ps + incr_period_ps;
  }
};

// A generated scenario: alpha gain selector, timer periods, and the gaps
// between successive synthetic CNPs (picosecond granularity, so fires and
// cuts hit arbitrary offsets against each other).
using Case = std::tuple<std::int64_t, std::int64_t, std::int64_t,
                        std::vector<std::int64_t>>;

[[nodiscard]] Gen<Case> dcqcn_cases() {
  return tuple_of(integers(0, 2),        // gain selector
                  integers(20, 80),      // alpha timer, us
                  integers(100, 500),    // increase timer, us
                  vector_of(integers(5'000'000, 350'000'000), 1, 12));
}

PROPERTY_CASES(DcqcnOracle, RpStateMachineMatchesScalarModel, 2000,
               dcqcn_cases()) {
  const auto& [gain_sel, alpha_us, incr_us, cnp_gaps_ps] = arg;
  static constexpr double kGains[] = {1.0 / 16.0, 1.0 / 256.0, 0.25};

  transport::DcqcnConfig cfg;
  cfg.mtu_bytes = 8000;  // fewer emission events per simulated microsecond
  cfg.gain = kGains[gain_sel];
  cfg.alpha_timer = sim::microseconds(alpha_us);
  cfg.increase_timer = sim::microseconds(incr_us);
  cfg.byte_counter = 1'000'000'000'000'000LL;  // suppress the byte stage
  cfg.cnp_interval = sim::Time(0);  // NP rate limiting is not under test

  sim::Scheduler sched;
  net::Network net(sched, 55);
  net::PortConfig nic;
  nic.rate = sim::gbps(10);
  nic.propagation_delay = sim::nanoseconds(500);
  auto& sw = net.add_switch({});
  std::vector<net::HostId> hosts;
  for (int i = 0; i < 2; ++i) {
    auto& h = net.add_host(nic);
    net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
    hosts.push_back(h.host_id());
  }
  net.recompute_routes();
  // pmax = 0: the fabric never CE-marks, so the only CNPs are the synthetic
  // ones this test injects.
  sw.set_ecn_config_all_ports(
      {.kmin_bytes = 1 << 20, .kmax_bytes = 2 << 20, .pmax = 0.0});

  transport::FctRecorder recorder;
  transport::RdmaTransport transport(net, cfg, &recorder);
  transport::FlowSpec spec;
  spec.src = hosts[0];
  spec.dst = hosts[1];
  spec.size_bytes = 1'000'000'000'000LL;  // never completes within the run
  const net::FlowId id = transport.start_flow(spec);

  RefTimeline ref;
  ref.start(cfg, static_cast<double>(nic.rate.bps()), sched.now().ps());

  const auto check_agreement = [&](const transport::DcqcnSender& snd) {
    const auto tol = [](double v) { return 1e-9 + 1e-9 * std::fabs(v); };
    PROP_ASSERT_NEAR(snd.alpha(), ref.ref.alpha, tol(ref.ref.alpha));
    PROP_ASSERT_NEAR(snd.current_rate_bps(), ref.ref.rc_bps,
                     tol(ref.ref.rc_bps));
    PROP_ASSERT_NEAR(snd.target_rate_bps(), ref.ref.rt_bps,
                     tol(ref.ref.rt_bps));
  };

  std::int64_t cnps = 0;
  for (const std::int64_t gap_ps : cnp_gaps_ps) {
    const sim::Time at = sched.now() + sim::Time(gap_ps);
    sched.run_until(at);
    transport::DcqcnSender* snd = transport.find_sender(id);
    PROP_ASSERT(snd != nullptr);
    snd->on_cnp(sched.now());
    ref.cut_at(sched.now().ps());
    ++cnps;
    PROP_ASSERT_EQ(snd->cnps_received(), cnps);
    check_agreement(*snd);
  }

  // Let the increase machinery run undisturbed past the hyper stage, then
  // compare once more.
  const sim::Time tail =
      sched.now() + sim::microseconds(incr_us) * 12 + sim::Time(17);
  sched.run_until(tail);
  ref.advance_to(sched.now().ps());
  transport::DcqcnSender* snd = transport.find_sender(id);
  PROP_ASSERT(snd != nullptr);
  check_agreement(*snd);
}

}  // namespace
}  // namespace pet::testkit
