// Differential oracle: fp32/int8 InferenceModel::forward_batch against the
// fp64 Mlp reference, with per-layer error bounds DERIVED from the snapshot
// itself rather than hand-tuned tolerances:
//
//  - representation error is measured exactly through the
//    dequantized_weights()/dequantized_biases() oracles (|w_q - w_64| is a
//    known number, not an estimate);
//  - arithmetic rounding is bounded analytically per neuron:
//    (in + 8) * 2^-23 * (|b| + sum_i |w_i||x_i|) for the fp32 chain, the
//    same term plus the 0.5 * sx activation-quantization slack for int8;
//  - the rational tanh contributes a flat 2.5e-6 (|err vs std::tanh| is
//    2e-6 by construction, plus the fp32 rounding of the stored result) and
//    propagates incoming error with Lipschitz constant 1.
//
// Every bound is multiplied by a x4 safety margin; a failure therefore
// means a real contract violation, not tolerance noise. Weight/observation
// generators are boundary-biased (signed zeros, fp64/fp32 subnormals, large
// magnitudes) and every failure replays via PET_PBT_SEED / PET_PBT_REPLAY.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "rl/categorical.hpp"
#include "rl/inference.hpp"
#include "rl/kernels.hpp"
#include "rl/mlp.hpp"
#include "sim/checkpoint.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

constexpr double kEps32 = 1.1920928955078125e-07;  // 2^-23
constexpr double kSafety = 4.0;

// --- generators --------------------------------------------------------------

/// Boundary-biased parameter values: mostly a realistic trained-weight
/// range, spiced with signed zeros, fp64 subnormals, values that become
/// fp32 subnormals when narrowed, and large magnitudes (kept below the
/// range where a three-layer fp32 product could saturate to infinity —
/// saturation is a documented non-goal of the serving contract).
[[nodiscard]] Gen<double> boundary_weight() {
  return frequency<double>(
      {{10, reals(-2.0, 2.0)},
       {2, reals(-1.0e6, 1.0e6)},
       {3, element_of<double>({0.0, -0.0, 5e-324, -5e-324, 1.0e-300,
                               -1.0e-300, 1.0e-40, -1.0e-40, 1.0e6, -1.0e6,
                               1.0, -1.0})}});
}

/// Observation values: the six-factor state is normalized, so realistic
/// draws live in [-1, 1]; boundary draws stress the same edges as weights.
[[nodiscard]] Gen<double> boundary_obs() {
  return frequency<double>(
      {{8, reals(-1.0, 1.0)},
       {2, element_of<double>({0.0, -0.0, 1.0e-300, 1.0e-40, -1.0e-40, 1.0e6,
                               -1.0e6, 0.5})}});
}

/// (input, hidden sizes, output, tanh?, weight pool, batch, obs pool).
/// The pools are fixed-size and consumed modulo so the shapes can shrink
/// independently of the values.
using NetCase = std::tuple<std::int64_t, std::vector<std::int64_t>,
                           std::int64_t, bool, std::vector<double>,
                           std::int64_t, std::vector<double>>;

[[nodiscard]] Gen<NetCase> net_cases() {
  return tuple_of(integers(1, 10), vector_of(integers(1, 12), 0, 2),
                  integers(1, 10), booleans(),
                  vector_of(boundary_weight(), 460, 460), integers(1, 5),
                  vector_of(boundary_obs(), 50, 50));
}

/// Build the fp64 reference network for a generated case: architecture from
/// the shape fields, parameters overwritten from the weight pool.
[[nodiscard]] rl::Mlp build_net(const NetCase& c) {
  const auto& [in, hidden, out, tanh_act, pool, batch, obs] = c;
  (void)batch;
  (void)obs;
  std::vector<std::int32_t> sizes;
  sizes.push_back(static_cast<std::int32_t>(in));
  for (const std::int64_t h : hidden) {
    sizes.push_back(static_cast<std::int32_t>(h));
  }
  sizes.push_back(static_cast<std::int32_t>(out));
  sim::Rng rng(0xBEEF);
  rl::Mlp net(sizes, tanh_act ? rl::Activation::kTanh : rl::Activation::kRelu,
              rng);
  rl::ParamRefs refs;
  net.collect(refs);
  std::vector<double> values(refs.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = pool[i % pool.size()];
  }
  rl::restore_params(refs, values);
  return net;
}

[[nodiscard]] std::vector<double> build_states(const NetCase& c) {
  const auto& [in, hidden, out, tanh_act, pool, batch, obs] = c;
  (void)hidden;
  (void)out;
  (void)tanh_act;
  (void)pool;
  std::vector<double> states(static_cast<std::size_t>(batch) *
                             static_cast<std::size_t>(in));
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = obs[i % obs.size()];
  }
  return states;
}

// --- derived per-layer error bound -------------------------------------------

struct BoundedForward {
  std::vector<double> y;    // fp64 reference output (one sample)
  std::vector<double> err;  // per-element bound on |snapshot - reference|
};

/// Walk one sample through the fp64 reference while propagating a rigorous
/// per-element error bound for what the snapshot at `model`'s precision may
/// deviate by (see the file header for the derivation).
[[nodiscard]] BoundedForward forward_with_bounds(
    const rl::Mlp& net, const rl::InferenceModel& model,
    std::span<const double> x0) {
  const bool int8 = model.precision() == rl::InferPrecision::kInt8;
  std::vector<double> x(x0.begin(), x0.end());
  std::vector<double> dx(x.size());
  // Both reduced paths narrow the observation plane to fp32 once at entry.
  for (std::size_t i = 0; i < x.size(); ++i) {
    dx[i] = kEps32 * std::abs(x[i]) + 1e-38;
  }
  std::vector<double> y;
  std::vector<double> dy;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const rl::Linear& layer = net.layer(l);
    const std::span<const double> w64 = layer.weights();
    const std::span<const double> b64 = layer.biases();
    const std::vector<double> wq = model.dequantized_weights(l);
    const std::vector<double> bq = model.dequantized_biases(l);
    const auto in = static_cast<std::size_t>(layer.in_size());
    const auto out = static_cast<std::size_t>(layer.out_size());
    // int8 re-quantizes its input plane with a per-sample dynamic scale
    // sx = max|x| / 127; round-to-nearest loses at most sx / 2 per element.
    double qerr = 0.0;
    if (int8) {
      double max_abs = 0.0;
      for (std::size_t i = 0; i < in; ++i) {
        max_abs = std::max(max_abs, std::abs(x[i]) + dx[i]);
      }
      qerr = 0.5 * max_abs / 127.0;
    }
    y.assign(out, 0.0);
    dy.assign(out, 0.0);
    for (std::size_t o = 0; o < out; ++o) {
      double acc = b64[o];
      double err = std::abs(bq[o] - b64[o]);
      double sum_abs = std::abs(bq[o]);
      for (std::size_t i = 0; i < in; ++i) {
        const double mag = std::abs(x[i]) + dx[i];
        acc += w64[o * in + i] * x[i];
        err += std::abs(wq[o * in + i] - w64[o * in + i]) * mag +
               std::abs(wq[o * in + i]) * (dx[i] + qerr);
        sum_abs += std::abs(wq[o * in + i]) * mag;
      }
      const double n = static_cast<double>(in) + 8.0;
      err += n * kEps32 * sum_abs + n * 1e-38;
      y[o] = acc;
      dy[o] = err;
    }
    if (l + 1 < net.num_layers()) {
      for (std::size_t o = 0; o < out; ++o) {
        if (net.activation() == rl::Activation::kTanh) {
          y[o] = std::tanh(y[o]);
          // Lipschitz-1 propagation + rational-approximation budget; a
          // bounded function can never be more than 2 apart.
          dy[o] = std::min(2.0, dy[o] + 2.5e-6);
        } else {
          y[o] = y[o] > 0.0 ? y[o] : 0.0;
        }
        dy[o] += kEps32 * std::abs(y[o]) + 1e-38;
      }
    }
    x = y;
    dx = dy;
  }
  return {std::move(y), std::move(dy)};
}

/// Pin the kernel backend for a scope (property failures throw).
struct BackendGuard {
  explicit BackendGuard(rl::kern::Backend b) { rl::kern::set_backend(b); }
  ~BackendGuard() { rl::kern::reset_backend(); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
};

void check_against_bound(const NetCase& c, rl::InferPrecision precision) {
  const rl::Mlp net = build_net(c);
  rl::InferenceModel model;
  PROP_ASSERT(model.quantize(net, precision));
  const std::vector<double> states = build_states(c);
  const auto batch = static_cast<std::int32_t>(std::get<5>(c));
  const auto in = static_cast<std::size_t>(net.input_size());
  const auto out = static_cast<std::size_t>(net.output_size());
  std::vector<double> got(static_cast<std::size_t>(batch) * out);
  model.forward_batch(states, batch, got);
  for (std::int32_t s = 0; s < batch; ++s) {
    const BoundedForward ref = forward_with_bounds(
        net, model,
        std::span<const double>(&states[static_cast<std::size_t>(s) * in], in));
    for (std::size_t o = 0; o < out; ++o) {
      const double bound = kSafety * ref.err[o] + 1e-12;
      if (!std::isfinite(bound)) continue;  // fp32 range saturated
      PROP_ASSERT_NEAR(got[static_cast<std::size_t>(s) * out + o], ref.y[o],
                       bound);
    }
  }
}

// --- properties --------------------------------------------------------------

/// The fp64 snapshot is not error-bounded — it is bitwise the training
/// network (same kernels, same std::tanh), which is what makes fp64 serving
/// golden-safe.
PROPERTY_CASES(InferenceOracle, Fp64SnapshotBitwiseMatchesMlp, 2000,
               net_cases()) {
  const rl::Mlp net = build_net(arg);
  rl::InferenceModel model;
  PROP_ASSERT(model.quantize(net, rl::InferPrecision::kFp64));
  const std::vector<double> states = build_states(arg);
  const auto batch = static_cast<std::int32_t>(std::get<5>(arg));
  const auto out = static_cast<std::size_t>(net.output_size());
  std::vector<double> got(static_cast<std::size_t>(batch) * out);
  model.forward_batch(states, batch, got);
  const std::vector<double> want = net.forward_batch(states, batch);
  PROP_ASSERT_EQ(got.size(), want.size());
  PROP_ASSERT(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)) == 0);
}

PROPERTY_CASES(InferenceOracle, Fp32ForwardWithinDerivedBound, 2500,
               net_cases()) {
  check_against_bound(arg, rl::InferPrecision::kFp32);
}

PROPERTY_CASES(InferenceOracle, Int8ForwardWithinDerivedBound, 2500,
               net_cases()) {
  check_against_bound(arg, rl::InferPrecision::kInt8);
}

/// Scalar and AVX2 kernels are bitwise interchangeable at every precision —
/// the contract that makes artifacts machine-independent.
PROPERTY_CASES(InferenceOracle, BackendsBitwiseIdentical, 1200, net_cases()) {
  const rl::Mlp net = build_net(arg);
  const std::vector<double> states = build_states(arg);
  const auto batch = static_cast<std::int32_t>(std::get<5>(arg));
  const auto out = static_cast<std::size_t>(net.output_size());
  for (const rl::InferPrecision precision :
       {rl::InferPrecision::kFp64, rl::InferPrecision::kFp32,
        rl::InferPrecision::kInt8}) {
    rl::InferenceModel model;
    PROP_ASSERT(model.quantize(net, precision));
    std::vector<double> scalar_y(static_cast<std::size_t>(batch) * out);
    std::vector<double> avx2_y(scalar_y.size());
    {
      BackendGuard guard(rl::kern::Backend::kScalar);
      model.forward_batch(states, batch, scalar_y);
    }
    {
      BackendGuard guard(rl::kern::Backend::kAvx2);
      model.forward_batch(states, batch, avx2_y);
    }
    PROP_ASSERT(std::memcmp(scalar_y.data(), avx2_y.data(),
                            scalar_y.size() * sizeof(double)) == 0);
  }
}

/// On realistic (normalized) observations: whenever the fp64 top-logit gap
/// exceeds twice the derived bound, the reduced-precision argmax matches —
/// the property that makes int8 serving safe for well-separated decisions.
PROPERTY_CASES(InferenceOracle, ArgmaxAgreesWhenGapExceedsBound, 2000,
               tuple_of(integers(2, 20), vector_of(reals(-1.5, 1.5), 460, 460),
                        vector_of(reals(-1.0, 1.0), 24, 24), booleans())) {
  const auto& [head_n, pool, obs, use_int8] = arg;
  NetCase c{24,
            {16},
            head_n,
            /*tanh=*/true,
            pool,
            /*batch=*/1,
            obs};
  const rl::Mlp net = build_net(c);
  rl::InferenceModel model;
  const rl::InferPrecision precision =
      use_int8 ? rl::InferPrecision::kInt8 : rl::InferPrecision::kFp32;
  PROP_ASSERT(model.quantize(net, precision));
  const std::vector<double> state = build_states(c);
  const BoundedForward ref = forward_with_bounds(net, model, state);
  std::vector<double> got(static_cast<std::size_t>(net.output_size()));
  model.forward_batch(state, 1, got);
  double bound = 0.0;
  for (const double e : ref.err) bound = std::max(bound, kSafety * e);
  const std::int32_t best = rl::argmax(ref.y);
  double runner_up = -std::numeric_limits<double>::infinity();
  for (std::size_t o = 0; o < ref.y.size(); ++o) {
    if (static_cast<std::int32_t>(o) == best) continue;
    runner_up = std::max(runner_up, ref.y[o]);
  }
  if (ref.y[static_cast<std::size_t>(best)] - runner_up > 2.0 * bound) {
    PROP_ASSERT_EQ(rl::argmax(got), best);
  }
}

/// pet.ckpt/1 payload round-trip is exact: the restored snapshot serves
/// bitwise-identical decisions at the same precision.
PROPERTY_CASES(InferenceOracle, CheckpointRoundTripBitwise, 800, net_cases()) {
  const rl::Mlp net = build_net(arg);
  const std::vector<double> states = build_states(arg);
  const auto batch = static_cast<std::int32_t>(std::get<5>(arg));
  const auto out = static_cast<std::size_t>(net.output_size());
  for (const rl::InferPrecision precision :
       {rl::InferPrecision::kFp64, rl::InferPrecision::kFp32,
        rl::InferPrecision::kInt8}) {
    rl::InferenceModel model;
    PROP_ASSERT(model.quantize(net, precision));
    sim::ByteSink sink;
    model.save_state(sink);
    sim::ByteSource source(sink.bytes());
    rl::InferenceModel restored;
    PROP_ASSERT(restored.load_state(source));
    PROP_ASSERT_EQ(static_cast<int>(restored.precision()),
                   static_cast<int>(precision));
    PROP_ASSERT(restored.sizes() == model.sizes());
    std::vector<double> got(static_cast<std::size_t>(batch) * out);
    std::vector<double> again(got.size());
    model.forward_batch(states, batch, got);
    restored.forward_batch(states, batch, again);
    PROP_ASSERT(std::memcmp(got.data(), again.data(),
                            got.size() * sizeof(double)) == 0);
  }
}

/// A poisoned network must never become a serving snapshot: quantize()
/// refuses and leaves any previous snapshot untouched.
PROPERTY_CASES(InferenceOracle, QuantizeRejectsNonFinite, 400,
               tuple_of(net_cases(), integers(0, 1))) {
  const auto& [c, kind] = arg;
  rl::Mlp net = build_net(c);
  rl::InferenceModel model;
  PROP_ASSERT(model.quantize(net, rl::InferPrecision::kInt8));
  const std::vector<double> states = build_states(c);
  const auto batch = static_cast<std::int32_t>(std::get<5>(c));
  const auto out = static_cast<std::size_t>(net.output_size());
  std::vector<double> before(static_cast<std::size_t>(batch) * out);
  model.forward_batch(states, batch, before);

  rl::ParamRefs refs;
  net.collect(refs);
  refs.param(refs.size() / 2) =
      kind == 0 ? std::numeric_limits<double>::quiet_NaN()
                : std::numeric_limits<double>::infinity();
  PROP_ASSERT(!model.quantize(net, rl::InferPrecision::kInt8));
  PROP_ASSERT(model.ready());
  std::vector<double> after(before.size());
  model.forward_batch(states, batch, after);
  PROP_ASSERT(std::memcmp(before.data(), after.data(),
                          before.size() * sizeof(double)) == 0);
}

}  // namespace
}  // namespace pet::testkit
