#pragma once
// Private declarations shared between kernels.cpp (scalar + dispatch) and
// kernels_avx2.cpp (the target("avx2")-attributed implementations). Not an
// installed/public header.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "rl/kernels.hpp"

namespace pet::rl::kern::detail {

// Defined in kernels_avx2.cpp. On non-x86-64 builds these are stubs that
// must never be reached (dispatch reports avx2 unsupported).
void gemm_bias_f64_avx2(const double* w, const double* b, const double* x,
                        double* y, std::int32_t batch, std::int32_t in,
                        std::int32_t out, const double* pack);
/// The backend half of backward_f64: for each column c < width,
/// dst[c] = init[c] (+0.0 when init is null) plus g[t*gs] * v[t*vs + c]
/// added for t = 0..n-1 in ascending order, one multiply and one add
/// rounding each. `init` may equal `dst`.
void stream_columns_avx2(const double* g, std::size_t gs, const double* v,
                         std::size_t vs, std::int32_t n, std::int32_t width,
                         const double* init, double* dst);
void adam_step_f64_avx2(double* p, const double* grad, double* m, double* v,
                        std::size_t n, const AdamCoeffs& c);
void gemm_bias_f32_avx2(const float* w, const float* b, const float* x,
                        float* y, std::int32_t batch, std::int32_t in,
                        std::int32_t out, const float* pack);
void gemm_s8i32_avx2(const std::int8_t* w, const std::int8_t* x,
                     std::int32_t* acc, std::int32_t batch, std::int32_t in,
                     std::int32_t out);
void quantize_rows_s8_avx2(const float* x, std::int8_t* q, float* sx,
                           std::int32_t batch, std::int32_t in);
void tanh_inplace_f32_avx2(float* v, std::int64_t n);
[[nodiscard]] bool cpu_has_avx2();

/// One Adam element in the operation order of kernels.hpp; `omb1`/`omb2`
/// are 1 - beta1 and 1 - beta2. The scalar backend and the AVX2 remainder
/// loop both call it, so every element runs the sequence of a vector lane.
inline void adam_lane(double& p, double grad, double& m, double& v,
                      const AdamCoeffs& c, double omb1, double omb2) {
  const double g = grad * c.scale;
  m = c.beta1 * m + omb1 * g;
  v = c.beta2 * v + omb2 * g * g;
  const double mhat = m / c.bc1;
  const double vhat = v / c.bc2;
  p -= c.lr * mhat / (std::sqrt(vhat) + c.eps);
}

// Round-to-nearest-even via the 1.5 * 2^23 magic constant: adding then
// subtracting forces the mantissa to integer precision under the default
// rounding mode (exact for |x| <= 2^22; larger magnitudes land beyond the
// clamp either way). The AVX2 plane kernel runs the same add/sub pair.
inline constexpr float kQuantMagic = 12582912.0f;

/// One int8 quantization lane: mul, magic-constant rne, clamp in the float
/// domain, exact integer conversion. The scalar backend and every AVX2
/// remainder loop call this helper, so row tails match the vector body's
/// operation sequence bitwise.
[[nodiscard]] inline std::int8_t quantize_lane_s8(float v, float inv) {
  const float scaled = v * inv;
  const float r = (scaled + kQuantMagic) - kQuantMagic;
  float c = r < -127.0f ? -127.0f : r;
  c = c > 127.0f ? 127.0f : c;
  // c is integral in [-127, 127], so the cast is exact.
  return static_cast<std::int8_t>(static_cast<std::int32_t>(c));
}

// Rational tanh approximation coefficients (minimax fit on [-7.9053, 7.9053],
// the classic 13/6-degree odd/even pair). Both backends consume the same
// constants in the same operation order so lanes match scalar bitwise.
inline constexpr float kTanhClamp = 7.90531110763549805f;
inline constexpr float kTanhAlpha1 = 4.89352455891786e-03f;
inline constexpr float kTanhAlpha3 = 6.37261928875436e-04f;
inline constexpr float kTanhAlpha5 = 1.48572235717979e-05f;
inline constexpr float kTanhAlpha7 = 5.12229709037114e-08f;
inline constexpr float kTanhAlpha9 = -8.60467152213735e-11f;
inline constexpr float kTanhAlpha11 = 2.00018790482477e-13f;
inline constexpr float kTanhAlpha13 = -2.76076847742355e-16f;
inline constexpr float kTanhBeta0 = 4.89352518554385e-03f;
inline constexpr float kTanhBeta2 = 2.26843463243900e-03f;
inline constexpr float kTanhBeta4 = 1.18534705686654e-04f;
inline constexpr float kTanhBeta6 = 1.19825839466702e-06f;

}  // namespace pet::rl::kern::detail
