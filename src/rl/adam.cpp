#include "rl/adam.hpp"

#include <cmath>
#include <utility>

#include "rl/kernels.hpp"

namespace pet::rl {

void Adam::step() {
  ++t_;
  double scale = 1.0;
  if (cfg_.max_grad_norm > 0.0) {
    // One ascending chain over every gradient, span after span.
    double sq = 0.0;
    for (const ParamSpan& s : refs_.spans) {
      for (const double g : s.grads) sq += g * g;
    }
    const double norm = std::sqrt(sq);
    if (norm > cfg_.max_grad_norm) scale = cfg_.max_grad_norm / norm;
  }
  const kern::AdamCoeffs c{
      .scale = scale,
      .beta1 = cfg_.beta1,
      .beta2 = cfg_.beta2,
      .bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_)),
      .bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_)),
      .lr = cfg_.lr,
      .eps = cfg_.eps};
  std::size_t off = 0;
  for (const ParamSpan& s : refs_.spans) {
    kern::adam_step_f64(s.params.data(), s.grads.data(), m_.data() + off,
                        v_.data() + off, s.params.size(), c);
    off += s.params.size();
  }
}

void Adam::save_state(sim::ByteSink& out) const {
  out.f64(cfg_.lr);
  out.i64(t_);
  out.f64_vec(m_);
  out.f64_vec(v_);
}

bool Adam::load_state(sim::ByteSource& in) {
  const double lr = in.f64();
  const std::int64_t t = in.i64();
  std::vector<double> m = in.f64_vec();
  std::vector<double> v = in.f64_vec();
  if (!in.ok() || t < 0 || m.size() != refs_.size() ||
      v.size() != refs_.size()) {
    return false;
  }
  cfg_.lr = lr;
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
  return true;
}

}  // namespace pet::rl
