// Differential oracle for the fp64 training kernels. kern::backward_f64 on
// the scalar and AVX2 backends is checked against the per-sample
// Linear::backward loop (which skips zero upstream gradients), and the
// span-based rl::Adam against a test-local Adam that walks one pointer per
// scalar. Every comparison is bitwise. A last test substitutes an
// FMA-contracted lane for the reference and shows the comparisons catch it.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "rl/adam.hpp"
#include "rl/kernels.hpp"
#include "rl/mlp.hpp"
#include "sim/checkpoint.hpp"
#include "sim/rng.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

[[nodiscard]] bool same_bits(std::span<const double> a,
                             std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// --- backward ----------------------------------------------------------------

enum class DyKind { kDense, kSignedZeros, kReluMasked, kOneHot };

/// One backward problem: a Linear built from `seed`, an input plane with
/// exact zeros, and an upstream gradient of the given kind.
struct BackwardProblem {
  std::int32_t in = 0;
  std::int32_t out = 0;
  std::int32_t batch = 0;
  std::uint64_t seed = 0;
  std::vector<double> x;   // batch x in
  std::vector<double> dy;  // batch x out
};

BackwardProblem make_problem(std::int32_t in, std::int32_t out,
                             std::int32_t batch, DyKind kind,
                             std::uint64_t seed) {
  BackwardProblem p{in, out, batch, seed, {}, {}};
  sim::Rng rng(seed ^ 0x5eedULL);
  for (std::int32_t k = 0; k < batch * in; ++k) {
    p.x.push_back(rng.bernoulli(0.2) ? 0.0 : rng.uniform(-2.0, 2.0));
  }
  for (std::int32_t s = 0; s < batch; ++s) {
    const auto hot = static_cast<std::int32_t>(
        rng.uniform_int(static_cast<std::uint64_t>(out)));
    // A ReLU layer zeroes whole rows when every unit is off.
    const bool dead_row = kind == DyKind::kReluMasked && rng.bernoulli(0.2);
    for (std::int32_t o = 0; o < out; ++o) {
      double g = rng.uniform(-1.5, 1.5);
      switch (kind) {
        case DyKind::kDense:
          break;
        case DyKind::kSignedZeros:
          if (rng.bernoulli(0.3)) g = rng.bernoulli(0.5) ? 0.0 : -0.0;
          break;
        case DyKind::kReluMasked:
          // Mlp::backward_batch multiplies by the 0/1 mask, so a masked
          // negative gradient arrives as -0.0.
          g *= (dead_row || rng.bernoulli(0.5)) ? 0.0 : 1.0;
          break;
        case DyKind::kOneHot:
          if (o != hot) g = 0.0;
          break;
      }
      p.dy.push_back(g);
    }
  }
  return p;
}

/// Parameter gradients and the input gradient of the last pass.
struct Grads {
  std::vector<double> gw;
  std::vector<double> gb;
  std::vector<double> dx;
};

/// Two passes over the same batch, so the second accumulates onto nonzero
/// gradients.
constexpr int kPasses = 2;

using PerSampleFn = Grads (*)(const BackwardProblem&);

/// The reference: one Linear::backward call per sample, in order.
Grads per_sample_linear(const BackwardProblem& p) {
  sim::Rng rng(p.seed);
  rl::Linear lin(p.in, p.out, rng);
  const auto in = static_cast<std::size_t>(p.in);
  const auto out = static_cast<std::size_t>(p.out);
  Grads g;
  g.dx.resize(static_cast<std::size_t>(p.batch) * in);
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t s = 0; s < static_cast<std::size_t>(p.batch); ++s) {
      lin.backward(std::span<const double>(p.x).subspan(s * in, in),
                   std::span<const double>(p.dy).subspan(s * out, out),
                   std::span<double>(g.dx).subspan(s * in, in));
    }
  }
  rl::ParamRefs refs;
  lin.collect(refs);
  g.gw.assign(refs.spans[0].grads.begin(), refs.spans[0].grads.end());
  g.gb.assign(refs.spans[1].grads.begin(), refs.spans[1].grads.end());
  return g;
}

/// A mutant reference whose multiply-adds are fused: each lane rounds once
/// where the kernels round twice.
Grads per_sample_fma(const BackwardProblem& p) {
  sim::Rng rng(p.seed);
  const rl::Linear lin(p.in, p.out, rng);
  const std::span<const double> w = lin.weights();
  const auto in = static_cast<std::size_t>(p.in);
  const auto out = static_cast<std::size_t>(p.out);
  Grads g;
  g.gw.assign(in * out, 0.0);
  g.gb.assign(out, 0.0);
  g.dx.resize(static_cast<std::size_t>(p.batch) * in);
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t s = 0; s < static_cast<std::size_t>(p.batch); ++s) {
      double* dxs = &g.dx[s * in];
      for (std::size_t i = 0; i < in; ++i) dxs[i] = 0.0;
      for (std::size_t o = 0; o < out; ++o) {
        const double d = p.dy[s * out + o];
        if (d == 0.0) continue;
        g.gb[o] += d;
        for (std::size_t i = 0; i < in; ++i) {
          g.gw[o * in + i] = std::fma(d, p.x[s * in + i], g.gw[o * in + i]);
          dxs[i] = std::fma(d, w[o * in + i], dxs[i]);
        }
      }
    }
  }
  return g;
}

/// The kernel on one backend, from zeroed gradients.
Grads kernel_on(const BackwardProblem& p, rl::kern::Backend backend) {
  sim::Rng rng(p.seed);
  const rl::Linear lin(p.in, p.out, rng);
  const auto in = static_cast<std::size_t>(p.in);
  const auto out = static_cast<std::size_t>(p.out);
  Grads g;
  g.gw.assign(in * out, 0.0);
  g.gb.assign(out, 0.0);
  g.dx.assign(static_cast<std::size_t>(p.batch) * in, 1.0);  // overwritten
  rl::kern::set_backend(backend);
  for (int pass = 0; pass < kPasses; ++pass) {
    rl::kern::backward_f64(lin.weights().data(), p.x.data(), p.dy.data(),
                           g.gw.data(), g.gb.data(), g.dx.data(), p.batch,
                           p.in, p.out);
  }
  rl::kern::reset_backend();
  return g;
}

/// Empty when both backends and `ref` agree bitwise; else which part
/// differs.
std::string backward_mismatch(const BackwardProblem& p, PerSampleFn ref) {
  const Grads want = ref(p);
  for (const auto backend : {rl::kern::Backend::kScalar,
                             rl::kern::Backend::kAvx2}) {
    const Grads got = kernel_on(p, backend);
    const std::string name =
        backend == rl::kern::Backend::kScalar ? "scalar" : "avx2";
    if (!same_bits(got.gw, want.gw)) return name + " gw";
    if (!same_bits(got.gb, want.gb)) return name + " gb";
    if (!same_bits(got.dx, want.dx)) return name + " dx";
  }
  return "";
}

// (in, out, batch, dy kind, seed). Shapes straddle the 4-lane and 16-wide
// blocks; batch runs 1..33.
PROPERTY_CASES(BackwardOracle, KernelBackendsMatchPerSampleLinearBitwise, 300,
               tuple_of(integers(1, 70), integers(1, 70), integers(1, 33),
                        integers(0, 3), integers(1, 1 << 30))) {
  const auto& [in, out, batch, kind, seed] = arg;
  const BackwardProblem p = make_problem(
      static_cast<std::int32_t>(in), static_cast<std::int32_t>(out),
      static_cast<std::int32_t>(batch), static_cast<DyKind>(kind),
      static_cast<std::uint64_t>(seed));
  PROP_ASSERT_EQ(backward_mismatch(p, &per_sample_linear), std::string());
}

TEST(BackwardOracle, TrainingShapesMatchPerSampleLinearBitwise) {
  // PET's heads and critic (24-64-64-{10,20,1}, tanh) and ACC's heads
  // (18-64-64-{10,20}, ReLU with one-hot dq) at batch 32.
  const std::vector<std::tuple<std::int32_t, std::int32_t, DyKind>> layers{
      {24, 64, DyKind::kDense},      {64, 64, DyKind::kDense},
      {64, 10, DyKind::kDense},      {64, 20, DyKind::kDense},
      {64, 1, DyKind::kDense},       {18, 64, DyKind::kReluMasked},
      {64, 64, DyKind::kReluMasked}, {64, 20, DyKind::kOneHot}};
  std::uint64_t seed = 1;
  for (const auto& [in, out, kind] : layers) {
    const BackwardProblem p = make_problem(in, out, 32, kind, seed++);
    EXPECT_EQ(backward_mismatch(p, &per_sample_linear), "")
        << in << "x" << out;
  }
}

// --- Adam --------------------------------------------------------------------

/// Adam over one pointer per scalar, the layout the span kernel replaced.
class PointerAdam {
 public:
  PointerAdam(std::vector<double*> params, std::vector<double*> grads,
              const rl::AdamConfig& cfg, bool fused)
      : params_(std::move(params)),
        grads_(std::move(grads)),
        cfg_(cfg),
        fused_(fused),
        m_(params_.size(), 0.0),
        v_(params_.size(), 0.0) {}

  void step() {
    ++t_;
    double scale = 1.0;
    if (cfg_.max_grad_norm > 0.0) {
      double sq = 0.0;
      for (const double* g : grads_) sq += (*g) * (*g);
      const double norm = std::sqrt(sq);
      if (norm > cfg_.max_grad_norm) scale = cfg_.max_grad_norm / norm;
    }
    const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
    for (std::size_t i = 0; i < params_.size(); ++i) {
      const double g = *grads_[i] * scale;
      m_[i] = fused_ ? std::fma(cfg_.beta1, m_[i], (1.0 - cfg_.beta1) * g)
                     : cfg_.beta1 * m_[i] + (1.0 - cfg_.beta1) * g;
      v_[i] = cfg_.beta2 * v_[i] + (1.0 - cfg_.beta2) * g * g;
      const double mhat = m_[i] / bc1;
      const double vhat = v_[i] / bc2;
      *params_[i] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
    }
  }

  /// The rl::Adam::save_state layout.
  [[nodiscard]] std::vector<std::uint8_t> state_bytes() const {
    sim::ByteSink out;
    out.f64(cfg_.lr);
    out.i64(t_);
    out.f64_vec(m_);
    out.f64_vec(v_);
    return out.take();
  }

 private:
  std::vector<double*> params_;
  std::vector<double*> grads_;
  rl::AdamConfig cfg_;
  bool fused_;
  std::vector<double> m_;
  std::vector<double> v_;
  std::int64_t t_ = 0;
};

/// Parameter storage split into spans of uneven length (1..37 scalars, so
/// the 4-lane body and its tail both run).
struct SpanModel {
  std::vector<std::vector<double>> params;
  std::vector<std::vector<double>> grads;

  SpanModel(sim::Rng& rng, std::size_t spans) {
    for (std::size_t s = 0; s < spans; ++s) {
      const std::size_t n = 1 + rng.uniform_int(37);
      std::vector<double> p(n);
      for (double& v : p) v = rng.uniform(-1.0, 1.0);
      params.push_back(std::move(p));
      grads.emplace_back(n, 0.0);
    }
  }

  [[nodiscard]] rl::ParamRefs refs() {
    rl::ParamRefs r;
    for (std::size_t s = 0; s < params.size(); ++s) {
      r.spans.push_back({params[s], grads[s]});
    }
    return r;
  }
  [[nodiscard]] static std::vector<double*> pointers(
      std::vector<std::vector<double>>& planes) {
    std::vector<double*> out;
    for (auto& plane : planes) {
      for (double& v : plane) out.push_back(&v);
    }
    return out;
  }
  [[nodiscard]] std::vector<double> flat() const {
    std::vector<double> out;
    for (const auto& p : params) out.insert(out.end(), p.begin(), p.end());
    return out;
  }
};

constexpr int kAdamSteps = 300;

/// Empty when span Adam on `backend` tracks the pointer Adam bitwise for
/// kAdamSteps steps and ends with a byte-equal save_state; else the step
/// that first diverged.
std::string adam_mismatch(std::uint64_t seed, bool clip, bool fused_ref,
                          rl::kern::Backend backend) {
  sim::Rng rng(seed);
  const std::size_t spans = 1 + rng.uniform_int(9);
  const std::uint64_t model_seed = rng();
  sim::Rng model_rng_a(model_seed);
  sim::Rng model_rng_b(model_seed);
  SpanModel a(model_rng_a, spans);
  SpanModel b(model_rng_b, spans);
  const rl::AdamConfig cfg{.lr = 0.01, .max_grad_norm = clip ? 0.5 : 0.0};
  rl::Adam span_adam(a.refs(), cfg);
  PointerAdam ref(b.pointers(b.params), b.pointers(b.grads), cfg, fused_ref);

  rl::kern::set_backend(backend);
  std::string result;
  for (int step = 0; step < kAdamSteps && result.empty(); ++step) {
    // Gradients of mixed scale, with exact zeros; large steps trip the clip.
    const double magnitude = rng.bernoulli(0.3) ? 50.0 : 0.5;
    for (std::size_t s = 0; s < spans; ++s) {
      for (std::size_t i = 0; i < a.grads[s].size(); ++i) {
        const double g =
            rng.bernoulli(0.1) ? 0.0 : rng.uniform(-magnitude, magnitude);
        a.grads[s][i] = g;
        b.grads[s][i] = g;
      }
    }
    span_adam.step();
    ref.step();
    if (!same_bits(a.flat(), b.flat())) {
      result = "params diverge at step " + std::to_string(step);
    }
  }
  rl::kern::reset_backend();
  if (!result.empty()) return result;
  sim::ByteSink payload;
  span_adam.save_state(payload);
  if (payload.bytes() != ref.state_bytes()) return "save_state differs";
  return "";
}

// (seed, clipping on/off), each on both backends.
PROPERTY_CASES(AdamOracle, SpanAdamMatchesPointerAdamBitwise, 8,
               tuple_of(integers(1, 1 << 30), booleans())) {
  const auto& [seed, clip] = arg;
  for (const auto backend :
       {rl::kern::Backend::kScalar, rl::kern::Backend::kAvx2}) {
    PROP_ASSERT_EQ(adam_mismatch(static_cast<std::uint64_t>(seed), clip,
                                 /*fused_ref=*/false, backend),
                   std::string());
  }
}

// --- the oracle catches contraction ------------------------------------------

TEST(TrainingKernelOracle, FmaContractedLaneFails) {
  // Dense gradients at a training shape: some lane of some accumulator
  // rounds differently once its multiply-add is fused.
  const BackwardProblem p = make_problem(24, 64, 32, DyKind::kDense, 7);
  EXPECT_EQ(backward_mismatch(p, &per_sample_linear), "");
  EXPECT_NE(backward_mismatch(p, &per_sample_fma), "");

  for (const bool clip : {false, true}) {
    EXPECT_EQ(adam_mismatch(11, clip, /*fused_ref=*/false,
                            rl::kern::Backend::kAvx2),
              "");
    EXPECT_NE(adam_mismatch(11, clip, /*fused_ref=*/true,
                            rl::kern::Backend::kAvx2),
              "");
  }
}

}  // namespace
}  // namespace pet::testkit
