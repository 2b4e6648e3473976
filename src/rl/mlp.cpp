#include "rl/mlp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

#include "rl/kernels.hpp"

namespace pet::rl {

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(std::int32_t in, std::int32_t out, sim::Rng& rng)
    : in_(in),
      out_(out),
      w_(static_cast<std::size_t>(in) * static_cast<std::size_t>(out)),
      b_(static_cast<std::size_t>(out), 0.0),
      gw_(w_.size(), 0.0),
      gb_(b_.size(), 0.0) {
  assert(in > 0 && out > 0);
  // Glorot-uniform initialization.
  const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
  for (auto& v : w_) v = rng.uniform(-bound, bound);
}

void Linear::forward(std::span<const double> x, std::span<double> y) const {
  assert(static_cast<std::int32_t>(x.size()) == in_);
  assert(static_cast<std::int32_t>(y.size()) == out_);
  for (std::int32_t o = 0; o < out_; ++o) {
    const double* row = &w_[static_cast<std::size_t>(o) * in_];
    double acc = b_[o];
    for (std::int32_t i = 0; i < in_; ++i) acc += row[i] * x[i];
    y[o] = acc;
  }
}

void Linear::backward(std::span<const double> x, std::span<const double> dy,
                      std::span<double> dx) {
  assert(static_cast<std::int32_t>(x.size()) == in_);
  assert(static_cast<std::int32_t>(dy.size()) == out_);
  if (!dx.empty()) {
    assert(static_cast<std::int32_t>(dx.size()) == in_);
    for (auto& v : dx) v = 0.0;
  }
  for (std::int32_t o = 0; o < out_; ++o) {
    const double g = dy[o];
    if (g == 0.0) continue;
    double* grow = &gw_[static_cast<std::size_t>(o) * in_];
    const double* row = &w_[static_cast<std::size_t>(o) * in_];
    gb_[o] += g;
    for (std::int32_t i = 0; i < in_; ++i) {
      grow[i] += g * x[i];
      if (!dx.empty()) dx[i] += g * row[i];
    }
  }
}

void Linear::forward_batch(std::span<const double> x, std::span<double> y,
                           std::int32_t batch) const {
  assert(static_cast<std::int32_t>(x.size()) == batch * in_);
  assert(static_cast<std::int32_t>(y.size()) == batch * out_);
  // Runtime-dispatched GEMM (scalar reference or AVX2); both backends keep
  // each (sample, output) accumulation in ascending-input order with
  // separate multiply/add roundings, so the result is bitwise identical to
  // `batch` sequential forward() calls.
  kern::gemm_bias_f64(w_.data(), b_.data(), x.data(), y.data(), batch, in_,
                      out_);
}

void Linear::backward_batch(std::span<const double> x,
                            std::span<const double> dy, std::span<double> dx,
                            std::int32_t batch) {
  assert(static_cast<std::int32_t>(x.size()) == batch * in_);
  assert(static_cast<std::int32_t>(dy.size()) == batch * out_);
  assert(dx.empty() || static_cast<std::int32_t>(dx.size()) == batch * in_);
  kern::backward_f64(w_.data(), x.data(), dy.data(), gw_.data(), gb_.data(),
                     dx.empty() ? nullptr : dx.data(), batch, in_, out_);
}

void Linear::zero_grad() {
  std::fill(gw_.begin(), gw_.end(), 0.0);
  std::fill(gb_.begin(), gb_.end(), 0.0);
}

void Linear::collect(ParamRefs& refs) {
  refs.spans.push_back({w_, gw_});
  refs.spans.push_back({b_, gb_});
}

// ---------------------------------------------------------------------------
// Mlp
// ---------------------------------------------------------------------------

namespace {
[[nodiscard]] double activate(Activation act, double pre) {
  return act == Activation::kTanh ? std::tanh(pre) : (pre > 0.0 ? pre : 0.0);
}
/// Derivative through the activation from the post-activation value: for
/// ReLU, post > 0 holds exactly when pre > 0.
[[nodiscard]] double activate_grad(Activation act, double post) {
  return act == Activation::kTanh ? 1.0 - post * post
                                  : (post > 0.0 ? 1.0 : 0.0);
}
}  // namespace

Mlp::Mlp(std::vector<std::int32_t> sizes, Activation act, sim::Rng& rng)
    : sizes_(std::move(sizes)), act_(act) {
  assert(sizes_.size() >= 2);
  layers_.reserve(sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    layers_.emplace_back(sizes_[l], sizes_[l + 1], rng);
  }
}

std::vector<double> Mlp::forward(std::span<const double> x,
                                 Cache* cache) const {
  assert(static_cast<std::int32_t>(x.size()) == input_size());
  if (cache != nullptr) {
    cache->pre.assign(layers_.size(), {});
    cache->post.assign(layers_.size(), {});
  }
  std::vector<double> cur(x.begin(), x.end());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<double> pre(static_cast<std::size_t>(layers_[l].out_size()));
    layers_[l].forward(cur, pre);
    const bool is_last = (l + 1 == layers_.size());
    if (cache != nullptr) {
      std::vector<double> post = pre;
      if (!is_last) {
        for (auto& v : post) v = activate(act_, v);
      }
      cache->pre[l] = pre;
      cache->post[l] = post;
      cur = std::move(post);
    } else {
      // Inference path: activate in place, skip the capture copy.
      if (!is_last) {
        for (auto& v : pre) v = activate(act_, v);
      }
      cur = std::move(pre);
    }
  }
  return cur;
}

std::vector<double> Mlp::backward(std::span<const double> x,
                                  const Cache& cache,
                                  std::span<const double> dy) {
  assert(cache.pre.size() == layers_.size());
  std::vector<double> grad(dy.begin(), dy.end());
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const bool is_last = (li + 1 == layers_.size());
    if (!is_last) {
      // Through the activation.
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] *= activate_grad(act_, cache.post[li][i]);
      }
    }
    const std::span<const double> input =
        li == 0 ? x : std::span<const double>(cache.post[li - 1]);
    std::vector<double> dx(input.size());
    layers_[li].backward(input, grad, dx);
    grad = std::move(dx);
  }
  return grad;
}

std::vector<double> Mlp::forward_batch(std::span<const double> x,
                                       std::int32_t batch,
                                       BatchCache* cache) const {
  assert(static_cast<std::int32_t>(x.size()) == batch * input_size());
  if (cache != nullptr) {
    cache->batch = batch;
    cache->post.resize(layers_.size() - 1);
  }
  // Hidden planes are written in place: into the cache (training, reused
  // across calls with the same cache) or into a ping-pong pair (inference).
  std::vector<double> scratch[2];
  std::span<const double> input = x;
  const std::size_t last = layers_.size() - 1;
  for (std::size_t l = 0; l < last; ++l) {
    std::vector<double>& y = cache != nullptr ? cache->post[l] : scratch[l % 2];
    y.resize(static_cast<std::size_t>(batch) *
             static_cast<std::size_t>(layers_[l].out_size()));
    layers_[l].forward_batch(input, y, batch);
    for (auto& v : y) v = activate(act_, v);
    input = y;
  }
  std::vector<double> out(static_cast<std::size_t>(batch) *
                          static_cast<std::size_t>(output_size()));
  layers_[last].forward_batch(input, out, batch);
  return out;
}

void Mlp::backward_batch(std::span<const double> x, const BatchCache& cache,
                         std::span<const double> dy, std::int32_t batch) {
  assert(cache.post.size() + 1 == layers_.size());
  assert(cache.batch == batch);
  assert(static_cast<std::int32_t>(dy.size()) == batch * output_size());
  std::vector<double> grad(dy.begin(), dy.end());
  std::vector<double> dx;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    if (li + 1 != layers_.size()) {
      const std::vector<double>& post = cache.post[li];
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] *= activate_grad(act_, post[i]);
      }
    }
    if (li == 0) {
      layers_[0].backward_batch(x, grad, {}, batch);
      return;
    }
    dx.resize(cache.post[li - 1].size());
    layers_[li].backward_batch(cache.post[li - 1], grad, dx, batch);
    std::swap(grad, dx);
  }
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

void Mlp::collect(ParamRefs& refs) {
  for (auto& layer : layers_) layer.collect(refs);
}

std::size_t Mlp::num_params() const {
  std::size_t total = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    total += static_cast<std::size_t>(sizes_[l]) * sizes_[l + 1] + sizes_[l + 1];
  }
  return total;
}

void Linear::save_state(sim::ByteSink& out) const {
  out.i32(in_);
  out.i32(out_);
  out.f64_vec(w_);
  out.f64_vec(b_);
}

bool Linear::load_state(sim::ByteSource& in) {
  const std::int32_t in_size = in.i32();
  const std::int32_t out_size = in.i32();
  std::vector<double> w = in.f64_vec();
  std::vector<double> b = in.f64_vec();
  if (!in.ok() || in_size != in_ || out_size != out_ || w.size() != w_.size() ||
      b.size() != b_.size()) {
    return false;
  }
  // Copy into the existing storage: collected ParamRefs spans point at it.
  std::copy(w.begin(), w.end(), w_.begin());
  std::copy(b.begin(), b.end(), b_.begin());
  return true;
}

void Mlp::save_state(sim::ByteSink& out) const {
  out.i32_vec(sizes_);
  out.u8(act_ == Activation::kTanh ? 0 : 1);
  for (const Linear& layer : layers_) layer.save_state(out);
}

bool Mlp::load_state(sim::ByteSource& in) {
  const std::vector<std::int32_t> sizes = in.i32_vec();
  const std::uint8_t act = in.u8();
  if (!in.ok() || sizes != sizes_ ||
      act != (act_ == Activation::kTanh ? 0 : 1)) {
    return false;
  }
  for (Linear& layer : layers_) {
    if (!layer.load_state(in)) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------

std::size_t ParamRefs::size() const {
  std::size_t total = 0;
  for (const ParamSpan& s : spans) total += s.params.size();
  return total;
}

namespace {
/// Element `i` in flattening order of the `field` side of `spans`.
[[nodiscard]] double& span_element(const std::vector<ParamSpan>& spans,
                                   std::size_t i,
                                   std::span<double> ParamSpan::*field) {
  for (const ParamSpan& s : spans) {
    const std::span<double> side = s.*field;
    if (i < side.size()) return side[i];
    i -= side.size();
  }
  std::abort();  // index out of range
}
}  // namespace

double& ParamRefs::param(std::size_t i) const {
  return span_element(spans, i, &ParamSpan::params);
}

double& ParamRefs::grad(std::size_t i) const {
  return span_element(spans, i, &ParamSpan::grads);
}

std::vector<double> snapshot_params(const ParamRefs& refs) {
  std::vector<double> out;
  out.reserve(refs.size());
  for (const ParamSpan& s : refs.spans) {
    out.insert(out.end(), s.params.begin(), s.params.end());
  }
  return out;
}

void restore_params(const ParamRefs& refs, std::span<const double> values) {
  assert(values.size() == refs.size());
  for (const ParamSpan& s : refs.spans) {
    std::copy_n(values.begin(), s.params.size(), s.params.begin());
    values = values.subspan(s.params.size());
  }
}

}  // namespace pet::rl
