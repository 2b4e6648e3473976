#include "testkit/oracles.hpp"

#include <algorithm>
#include <cmath>

namespace pet::testkit {

// --- RED/ECN -----------------------------------------------------------------

double red_mark_probability_ref(const net::RedEcnConfig& cfg,
                                std::int64_t qlen_bytes) {
  // Written from the AQM rule, boundaries first: no marking at or below
  // Kmin, certain marking at or beyond Kmax (degenerate Kmin == Kmax marks
  // everything above the single threshold).
  if (qlen_bytes <= cfg.kmin_bytes) return 0.0;
  if (qlen_bytes >= cfg.kmax_bytes) return 1.0;
  const long double fraction =
      static_cast<long double>(qlen_bytes - cfg.kmin_bytes) /
      static_cast<long double>(cfg.kmax_bytes - cfg.kmin_bytes);
  return static_cast<double>(static_cast<long double>(cfg.pmax) * fraction);
}

// --- DCQCN RP ----------------------------------------------------------------

void DcqcnRpRef::init(const transport::DcqcnConfig& cfg, double line_bps) {
  gain = cfg.gain;
  rate_ai_bps = cfg.rate_ai_bps;
  rate_hai_bps = cfg.rate_hai_bps;
  fast_recovery_stages = cfg.fast_recovery_stages;
  line_rate_bps = line_bps;
  min_rate_bps = line_bps * cfg.min_rate_fraction;
  alpha = 1.0;
  rc_bps = line_bps;
  rt_bps = line_bps;
  timer_stage = 0;
  byte_stage = 0;
}

void DcqcnRpRef::on_cut() {
  rt_bps = rc_bps;
  rc_bps = rc_bps * (1.0 - alpha / 2.0);
  alpha = (1.0 - gain) * alpha + gain;
  clamp();
  timer_stage = 0;
  byte_stage = 0;
}

void DcqcnRpRef::on_alpha_tick() { alpha = (1.0 - gain) * alpha; }

void DcqcnRpRef::on_increase_timer_tick() {
  ++timer_stage;
  increase(timer_stage + byte_stage);
}

void DcqcnRpRef::on_byte_counter_tick() {
  ++byte_stage;
  increase(timer_stage + byte_stage);
}

void DcqcnRpRef::increase(std::int32_t stage) {
  if (stage <= fast_recovery_stages) {
    // Fast recovery: Rt untouched, Rc closes half the gap.
  } else if (stage <= 2 * fast_recovery_stages) {
    rt_bps += rate_ai_bps;
  } else {
    rt_bps += rate_hai_bps;
  }
  rc_bps = (rt_bps + rc_bps) / 2.0;
  clamp();
}

void DcqcnRpRef::clamp() {
  rc_bps = std::clamp(rc_bps, min_rate_bps, line_rate_bps);
  rt_bps = std::clamp(rt_bps, min_rate_bps, line_rate_bps);
}

// --- PFC ---------------------------------------------------------------------

PfcRef::PfcRef(std::int64_t xoff_bytes, std::int64_t xon_bytes,
               std::int64_t shared_buffer_bytes)
    : xoff_(xoff_bytes), xon_(xon_bytes), buffer_limit_(shared_buffer_bytes) {}

bool PfcRef::on_arrival(std::int32_t port, std::int64_t bytes) {
  if (buffer_used_ + bytes > buffer_limit_) {
    ++drops_;
    return false;
  }
  buffer_used_ += bytes;
  const auto idx = static_cast<std::size_t>(port);
  if (idx >= ingress_bytes_.size()) {
    ingress_bytes_.resize(idx + 1, 0);
    paused_.resize(idx + 1, false);
  }
  ingress_bytes_[idx] += bytes;
  update(port);
  return true;
}

void PfcRef::on_departure(std::int32_t port, std::int64_t bytes) {
  buffer_used_ -= bytes;
  const auto idx = static_cast<std::size_t>(port);
  if (idx >= ingress_bytes_.size()) return;
  ingress_bytes_[idx] -= bytes;
  update(port);
}

bool PfcRef::paused(std::int32_t port) const {
  const auto idx = static_cast<std::size_t>(port);
  return idx < paused_.size() && paused_[idx];
}

void PfcRef::update(std::int32_t port) {
  const auto idx = static_cast<std::size_t>(port);
  const std::int64_t used = ingress_bytes_[idx];
  if (!paused_[idx] && used > xoff_) {
    paused_[idx] = true;
    ++pauses_sent_;
  } else if (paused_[idx] && used < xon_) {
    paused_[idx] = false;
  }
}

// --- Gilbert–Elliott ---------------------------------------------------------

GilbertElliottRef::GilbertElliottRef(double p_good_to_bad,
                                     double p_bad_to_good, double loss_good,
                                     double loss_bad)
    : p_gb_(p_good_to_bad),
      p_bg_(p_bad_to_good),
      loss_g_(loss_good),
      loss_b_(loss_bad) {}

bool GilbertElliottRef::lose_packet(double u_transition, double u_loss) {
  // Transition matrix row for the current state, evaluated eagerly.
  switch (state_) {
    case State::kGood:
      state_ = u_transition < p_gb_ ? State::kBad : State::kGood;
      break;
    case State::kBad:
      state_ = u_transition < p_bg_ ? State::kGood : State::kBad;
      break;
  }
  // Loss rate of the state the packet is actually transmitted in.
  const double loss_rate = state_ == State::kBad ? loss_b_ : loss_g_;
  return u_loss < loss_rate;
}

bool GilbertElliottRef::bad() const { return state_ == State::kBad; }

// --- GAE ---------------------------------------------------------------------

GaeRefResult gae_ref(std::span<const double> rewards,
                     std::span<const double> values, double bootstrap,
                     double gamma, double lambda) {
  const std::size_t n = rewards.size();
  GaeRefResult out;
  out.advantages.resize(n);
  out.returns.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    double advantage = 0.0;
    double decay = 1.0;
    for (std::size_t k = t; k < n; ++k) {
      const double next_v = (k + 1 < n) ? values[k + 1] : bootstrap;
      const double delta = rewards[k] + gamma * next_v - values[k];
      advantage += decay * delta;
      decay *= gamma * lambda;
    }
    out.advantages[t] = advantage;
    out.returns[t] = advantage + values[t];
  }
  return out;
}

std::vector<double> normalize_ref(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  if (out.size() < 2) return out;
  double mean = 0.0;
  for (const double x : out) mean += x;
  mean /= static_cast<double>(out.size());
  double var = 0.0;
  for (const double x : out) var += (x - mean) * (x - mean);
  const double sd = std::sqrt(var / static_cast<double>(out.size()));
  if (sd < 1e-8) return out;
  for (double& x : out) x = (x - mean) / sd;
  return out;
}

// --- Scheduler ---------------------------------------------------------------

std::uint64_t SchedulerModel::schedule_at(sim::Time at) {
  const std::uint64_t seq = next_seq_++;
  const Entry entry{at, seq};
  // Keep sorted by (at, seq); new events always carry the largest seq, so
  // upper_bound on time alone preserves insertion-order ties.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), entry,
      [](const Entry& a, const Entry& b) {
        return a.at != b.at ? a.at < b.at : a.seq < b.seq;
      });
  events_.insert(pos, entry);
  return seq;
}

bool SchedulerModel::cancel(std::uint64_t id) {
  const auto it =
      std::find_if(events_.begin(), events_.end(),
                   [id](const Entry& e) { return e.seq == id; });
  if (it == events_.end()) return false;
  events_.erase(it);
  return true;
}

std::vector<std::uint64_t> SchedulerModel::run_until(sim::Time until) {
  std::vector<std::uint64_t> order;
  while (const std::optional<std::uint64_t> id = step(until)) {
    order.push_back(*id);
  }
  finish_run(until);
  return order;
}

std::optional<std::uint64_t> SchedulerModel::step(sim::Time until) {
  if (events_.empty() || events_.front().at > until) return std::nullopt;
  now_ = events_.front().at;
  const std::uint64_t id = events_.front().seq;
  events_.erase(events_.begin());
  return id;
}

void SchedulerModel::finish_run(sim::Time until) {
  if (until != sim::Time::max() && now_ < until) now_ = until;
}

}  // namespace pet::testkit
