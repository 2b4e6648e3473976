#pragma once
// Differential oracles: independent reference models for the state machines
// PET's results rest on. Each model is written from the governing equations
// (paper / RFC semantics), NOT from the production code, in a deliberately
// different style (scalar, eager, O(n^2) where that is simpler) — the
// property suites drive both implementations with the same generated inputs
// and demand agreement over thousands of seeds.
//
// Models:
//   red_mark_probability_ref  — RED/ECN marking probability
//   DcqcnRpRef                — DCQCN sender (RP) rate/alpha evolution
//   PfcRef                    — PFC pause/resume hysteresis per ingress port
//   gae_ref / normalize_ref   — GAE advantages via the direct double sum
//   SchedulerModel            — sorted-vector discrete-event queue

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/red_ecn.hpp"
#include "sim/time.hpp"
#include "transport/dcqcn.hpp"

namespace pet::testkit {

// --- RED/ECN -----------------------------------------------------------------

/// Marking probability per the RED rule used by DCQCN switches, computed
/// independently: 0 at or below Kmin, 1 at or beyond Kmax (also when the
/// thresholds coincide), linear interpolation scaled by Pmax in between.
[[nodiscard]] double red_mark_probability_ref(const net::RedEcnConfig& cfg,
                                              std::int64_t qlen_bytes);

// --- DCQCN RP ----------------------------------------------------------------

/// Scalar model of the DCQCN sender state machine (Zhu et al., SIGCOMM'15):
/// rate cut with the current alpha on congestion notification, alpha EWMA
/// decay on the alpha timer, and staged increase (fast recovery / additive
/// / hyper) on the increase timer and byte counter. Drive it with the same
/// cut/tick sequence the real sender experiences and compare alpha/Rc/Rt.
struct DcqcnRpRef {
  // Parameters (mirrors the DcqcnConfig subset that matters for rates).
  double gain = 1.0 / 16.0;
  double rate_ai_bps = 40e6;
  double rate_hai_bps = 400e6;
  std::int32_t fast_recovery_stages = 5;
  double line_rate_bps = 10e9;
  double min_rate_bps = 10e6;

  // State.
  double alpha = 1.0;
  double rc_bps = 0.0;  // current rate (start at line rate via init())
  double rt_bps = 0.0;  // target rate
  std::int32_t timer_stage = 0;
  std::int32_t byte_stage = 0;

  void init(const transport::DcqcnConfig& cfg, double line_bps);

  /// CNP arrival: cut with current alpha, push alpha toward 1, reset stages.
  void on_cut();
  /// Alpha timer fired: decay alpha toward 0.
  void on_alpha_tick();
  /// Increase timer fired.
  void on_increase_timer_tick();
  /// Byte counter rolled over.
  void on_byte_counter_tick();

 private:
  void increase(std::int32_t stage);
  void clamp();
};

// --- PFC ---------------------------------------------------------------------

/// Per-ingress-port PFC hysteresis: pause when buffered bytes exceed Xoff,
/// resume when they fall below Xon. Tracks cumulative pauses the way
/// SwitchDevice::pfc_pauses_sent() does.
class PfcRef {
 public:
  PfcRef(std::int64_t xoff_bytes, std::int64_t xon_bytes,
         std::int64_t shared_buffer_bytes);

  /// A data packet of `bytes` arrived on ingress `port`. Returns false when
  /// the shared buffer rejects it (the caller should not enqueue it in the
  /// mirrored system either).
  bool on_arrival(std::int32_t port, std::int64_t bytes);
  /// A data packet of `bytes` from ingress `port` finished transmission.
  void on_departure(std::int32_t port, std::int64_t bytes);

  [[nodiscard]] std::int64_t pauses_sent() const { return pauses_sent_; }
  [[nodiscard]] bool paused(std::int32_t port) const;
  [[nodiscard]] std::int64_t buffer_used() const { return buffer_used_; }
  [[nodiscard]] std::int64_t drops() const { return drops_; }

 private:
  void update(std::int32_t port);

  std::int64_t xoff_;
  std::int64_t xon_;
  std::int64_t buffer_limit_;
  std::int64_t buffer_used_ = 0;
  std::int64_t pauses_sent_ = 0;
  std::int64_t drops_ = 0;
  std::vector<std::int64_t> ingress_bytes_;
  std::vector<bool> paused_;
};

// --- Gilbert–Elliott ---------------------------------------------------------

/// Scalar reference of the two-state bursty-loss channel, written from the
/// chain's definition (Gilbert '60): an explicit state enum and the 2x2
/// transition matrix evaluated per packet. The caller supplies the two
/// uniforms each packet consumes — the transition draw, then the loss draw
/// judged against the post-transition state's loss rate — so the reference
/// can be driven with exactly the draws the production chain consumed.
class GilbertElliottRef {
 public:
  GilbertElliottRef(double p_good_to_bad, double p_bad_to_good,
                    double loss_good, double loss_bad);

  /// Advance one packet with explicit uniforms; true when the packet is
  /// lost.
  bool lose_packet(double u_transition, double u_loss);

  [[nodiscard]] bool bad() const;

 private:
  enum class State { kGood, kBad };
  double p_gb_;
  double p_bg_;
  double loss_g_;
  double loss_b_;
  State state_ = State::kGood;
};

// --- GAE ---------------------------------------------------------------------

/// Advantages via the direct definition A_t = sum_k (gamma*lambda)^k
/// delta_{t+k} (O(n^2), no recursion) and returns = A_t + V(s_t).
struct GaeRefResult {
  std::vector<double> advantages;
  std::vector<double> returns;
};
[[nodiscard]] GaeRefResult gae_ref(std::span<const double> rewards,
                                   std::span<const double> values,
                                   double bootstrap, double gamma,
                                   double lambda);

/// Standardization reference: subtract mean, divide by population stddev;
/// identity for n < 2 or stddev < 1e-8.
[[nodiscard]] std::vector<double> normalize_ref(std::span<const double> xs);

// --- Scheduler ---------------------------------------------------------------

/// Sorted-vector model of sim::Scheduler: events ordered by (time, insertion
/// sequence), stable under cancellation, run_until executes events with
/// at <= until and leaves now() at max(until, last event time).
class SchedulerModel {
 public:
  /// Returns the model's event id (parallel to the real EventId).
  std::uint64_t schedule_at(sim::Time at);
  /// True when the event was still pending.
  bool cancel(std::uint64_t id);
  /// Executes due events; returns their ids in execution order.
  std::vector<std::uint64_t> run_until(sim::Time until);
  /// Executes the next event if it is due by `until`: now() moves to its
  /// time and its id is returned. One step of run_until, for callers that
  /// act between events (schedule or cancel from inside a body).
  std::optional<std::uint64_t> step(sim::Time until);
  /// Ends a stepped run: now() lands on `until` unless that is Time::max().
  void finish_run(sim::Time until);

  [[nodiscard]] sim::Time now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return events_.size(); }

 private:
  struct Entry {
    sim::Time at;
    std::uint64_t seq;
  };
  std::vector<Entry> events_;  // kept sorted by (at, seq)
  sim::Time now_ = sim::Time::zero();
  std::uint64_t next_seq_ = 1;
};

}  // namespace pet::testkit
