#pragma once
// Batched dense kernels for the RL hot path. Every kernel has a scalar
// reference implementation and (on x86-64) an AVX2 implementation selected
// by runtime dispatch; the two produce bitwise-identical results:
//
//  - f64: each output accumulates inputs in ascending order with separate
//    multiply and add roundings (no FMA contraction) — the exact floating-
//    point sequence of the naive per-sample loop, so the batched/AVX2 path
//    is a pure reordering of the training forward and goldens are safe.
//    The training kernels (backward_f64, adam_step_f64) keep the same rule.
//  - f32: each output is one fused-multiply-add chain in ascending order;
//    the scalar path uses std::fma(float) which is the same IEEE operation
//    as one vfmadd lane.
//  - s8:  exact int32 arithmetic (order-independent), scales applied by the
//    caller in a fixed scalar sequence; activation quantization rounds the
//    single-precision product to nearest-even and clamps in the float
//    domain, the same operation chain on every backend.
//
// Results are therefore a function of the *precision*, never of the machine
// the binary happens to run on.

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__GNUC__) || defined(__clang__)
#define PET_KERN_RESTRICT __restrict__
#else
#define PET_KERN_RESTRICT
#endif

namespace pet::rl::kern {

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// True when the CPU supports the AVX2 kernels (always false off x86-64).
[[nodiscard]] bool avx2_supported();

/// Backend the next kernel call will use. Defaults to runtime detection
/// (kAvx2 when supported, kScalar otherwise).
[[nodiscard]] Backend active_backend();

/// Pin the backend (tests and benchmarks); requests for an unsupported
/// backend clamp to kScalar. The setting is process-global.
void set_backend(Backend backend);

/// Restore runtime detection.
void reset_backend();

/// y[s,o] = b[o] + sum_i w[o,i] * x[s,i] over row-major operands:
/// `w` is (out x in), `x` is (batch x in), `y` is (batch x out).
/// The AVX2 path repacks weights into thread-local scratch; steady-state
/// calls at a fixed shape are allocation-free on every backend.
void gemm_bias_f64(const double* PET_KERN_RESTRICT w,
                   const double* PET_KERN_RESTRICT b,
                   const double* PET_KERN_RESTRICT x,
                   double* PET_KERN_RESTRICT y, std::int32_t batch,
                   std::int32_t in, std::int32_t out);

/// Backward pass of gemm_bias_f64 for a (batch x in) input `x` and a
/// (batch x out) upstream gradient `dy`, accumulating into the existing
/// parameter gradients:
///   gw[o,i] += sum_s dy[s,o] * x[s,i]     gb[o] += sum_s dy[s,o]
/// with samples added one at a time in ascending order per element. If `dx`
/// is non-null it receives the (batch x in) input gradient
///   dx[s,i] = sum_o dy[s,o] * w[o,i]
/// with outputs added in ascending order to an accumulator starting at
/// +0.0. Every product is a separate multiply and add rounding (no FMA), so
/// each element follows the floating-point sequence of a per-sample loop.
///
/// Zero contract: unlike a per-sample loop that skips dy == 0, the kernels
/// add every product, including ±0 ones. That is an identity whenever
/// `x` and `w` are finite and every accumulator is +0.0 or nonzero: an IEEE
/// sum is -0.0 only when both addends are -0.0, so an accumulator that
/// starts at +0.0 (zero_grad, the dx reset) never becomes -0.0, and
/// adding ±0.0 to +0.0 or to a nonzero value returns it unchanged. A
/// non-finite x or w times a zero dy gives NaN where the skipping loop
/// gives nothing.
void backward_f64(const double* PET_KERN_RESTRICT w,
                  const double* PET_KERN_RESTRICT x,
                  const double* PET_KERN_RESTRICT dy,
                  double* PET_KERN_RESTRICT gw, double* PET_KERN_RESTRICT gb,
                  double* PET_KERN_RESTRICT dx, std::int32_t batch,
                  std::int32_t in, std::int32_t out);

/// Per-step constants of one Adam update (see adam_step_f64).
struct AdamCoeffs {
  double scale = 1.0;  // gradient clip factor, 1 when the norm is in bounds
  double beta1 = 0.9;
  double beta2 = 0.999;
  double bc1 = 1.0;  // 1 - beta1^t
  double bc2 = 1.0;  // 1 - beta2^t
  double lr = 1e-3;
  double eps = 1e-8;
};

/// One Adam update over `n` contiguous elements. Per element, in this
/// order and each rounded once:
///   g = grad * scale
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + ((1 - beta2) * g) * g
///   p = p - (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
/// Division and square root are the correctly rounded IEEE operations on
/// every backend, so the AVX2 lanes match the scalar loop bitwise.
void adam_step_f64(double* PET_KERN_RESTRICT p,
                   const double* PET_KERN_RESTRICT grad,
                   double* PET_KERN_RESTRICT m, double* PET_KERN_RESTRICT v,
                   std::size_t n, const AdamCoeffs& c);

/// fp32 variant; one FMA chain per output (see header comment).
void gemm_bias_f32(const float* PET_KERN_RESTRICT w,
                   const float* PET_KERN_RESTRICT b,
                   const float* PET_KERN_RESTRICT x,
                   float* PET_KERN_RESTRICT y, std::int32_t batch,
                   std::int32_t in, std::int32_t out);

/// Exact int32 accumulation acc[s,o] = sum_i w[o,i] * x[s,i] of int8
/// operands. Safe against overflow for in <= 2^16 (|product| <= 127^2).
/// The caller applies bias and scales.
void gemm_s8i32(const std::int8_t* PET_KERN_RESTRICT w,
                const std::int8_t* PET_KERN_RESTRICT x,
                std::int32_t* PET_KERN_RESTRICT acc, std::int32_t batch,
                std::int32_t in, std::int32_t out);

/// Per-sample dynamic int8 quantization of a (batch x in) row-major fp32
/// activation plane. For each row s: sx[s] = max|row| / 127 and
/// q[s,i] = clamp(rne(x[s,i] * (127 / max|row|)), -127, 127), where rne is
/// round-to-nearest-even of the single-precision product; an all-zero row
/// emits sx[s] = 0 and a zero q row. Inputs must be finite (quantize()
/// validates weights; activations are finite by construction). Scalar and
/// AVX2 backends run the identical operation sequence, so the quantized
/// plane and scales are bitwise backend-independent.
void quantize_rows_s8(const float* PET_KERN_RESTRICT x,
                      std::int8_t* PET_KERN_RESTRICT q,
                      float* PET_KERN_RESTRICT sx, std::int32_t batch,
                      std::int32_t in);

/// Elementwise tanh for the fp64 inference path: exactly std::tanh per
/// element (bitwise-matching the training-path activation), all backends.
void tanh_inplace_f64(double* v, std::int64_t n);

/// Elementwise tanh for the fp32/int8 inference paths: a clamped rational
/// minimax approximation (|error vs std::tanh| <= 2e-6 over all finite
/// inputs; NaN is outside the domain). Scalar and AVX2 apply the identical
/// operation sequence, so the result is bitwise backend-independent.
void tanh_inplace_f32(float* v, std::int64_t n);

}  // namespace pet::rl::kern
