#include "rl/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

#include "rl/kernels_detail.hpp"

namespace pet::rl::kern {

namespace {

enum class Mode : std::uint8_t { kAuto = 0, kForceScalar, kForceAvx2 };

std::atomic<Mode> g_mode{Mode::kAuto};

[[nodiscard]] bool use_avx2() {
  switch (g_mode.load(std::memory_order_relaxed)) {
    case Mode::kForceScalar:
      return false;
    case Mode::kForceAvx2:
      return true;
    case Mode::kAuto:
      break;
  }
  static const bool supported = detail::cpu_has_avx2();
  return supported;
}

// Thread-local weight-pack scratch for the AVX2 GEMMs. resize() to the same
// shape never reallocates, so steady-state calls are allocation-free.
thread_local std::vector<double> t_pack_f64;
thread_local std::vector<float> t_pack_f32;

/// Interleave full row-tiles of `w` (out x in, row-major): tile t covers
/// rows [t*rows, t*rows+rows) and stores element (r, i) at
/// pack[t*rows*in + i*rows + r], so one vector load yields column i of the
/// whole tile. Remainder rows (out % rows) stay in `w`.
template <typename T>
void pack_row_tiles(const T* w, std::int32_t in, std::int32_t out,
                    std::int32_t rows, std::vector<T>& pack) {
  const std::int32_t full = out - out % rows;
  pack.resize(static_cast<std::size_t>(full) * static_cast<std::size_t>(in));
  T* p = pack.data();
  for (std::int32_t o = 0; o < full; o += rows) {
    const T* base = w + static_cast<std::size_t>(o) * in;
    for (std::int32_t i = 0; i < in; ++i) {
      for (std::int32_t r = 0; r < rows; ++r) {
        *p++ = base[static_cast<std::size_t>(r) * in + i];
      }
    }
  }
}

void gemm_bias_f64_scalar(const double* PET_KERN_RESTRICT w,
                          const double* PET_KERN_RESTRICT b,
                          const double* PET_KERN_RESTRICT x,
                          double* PET_KERN_RESTRICT y, std::int32_t batch,
                          std::int32_t in, std::int32_t out) {
  // Register blocking: four output rows share each load of the input row.
  // Every accumulator sums inputs in ascending order with separate multiply
  // and add roundings, so each output is bitwise identical to the naive
  // per-output loop (and to one AVX2 lane of the vector path).
  constexpr std::int32_t kRowTile = 4;
  for (std::int32_t s = 0; s < batch; ++s) {
    const double* xs = &x[static_cast<std::size_t>(s) * in];
    double* ys = &y[static_cast<std::size_t>(s) * out];
    std::int32_t o = 0;
    for (; o + kRowTile <= out; o += kRowTile) {
      const double* r0 = &w[static_cast<std::size_t>(o) * in];
      const double* r1 = r0 + in;
      const double* r2 = r1 + in;
      const double* r3 = r2 + in;
      double a0 = b[o];
      double a1 = b[o + 1];
      double a2 = b[o + 2];
      double a3 = b[o + 3];
      for (std::int32_t i = 0; i < in; ++i) {
        const double xi = xs[i];
        a0 += r0[i] * xi;
        a1 += r1[i] * xi;
        a2 += r2[i] * xi;
        a3 += r3[i] * xi;
      }
      ys[o] = a0;
      ys[o + 1] = a1;
      ys[o + 2] = a2;
      ys[o + 3] = a3;
    }
    for (; o < out; ++o) {
      const double* row = &w[static_cast<std::size_t>(o) * in];
      double acc = b[o];
      for (std::int32_t i = 0; i < in; ++i) acc += row[i] * xs[i];
      ys[o] = acc;
    }
  }
}

// Columns the scalar stream keeps in a local block, the width of the AVX2
// backend's widest block.
constexpr std::int32_t kStreamBlock = 16;

/// Scalar reference of detail::stream_columns_avx2 (same contract).
void stream_columns_scalar(const double* g, std::size_t gs, const double* v,
                           std::size_t vs, std::int32_t n, std::int32_t width,
                           const double* init, double* dst) {
  for (std::int32_t c = 0; c < width; c += kStreamBlock) {
    const std::int32_t nb = std::min(kStreamBlock, width - c);
    double acc[kStreamBlock];
    for (std::int32_t k = 0; k < nb; ++k) {
      acc[k] = init != nullptr ? init[c + k] : 0.0;
    }
    for (std::int32_t t = 0; t < n; ++t) {
      const double gt = g[t * gs];
      const double* vt = v + t * vs + c;
      for (std::int32_t k = 0; k < nb; ++k) acc[k] += gt * vt[k];
    }
    for (std::int32_t k = 0; k < nb; ++k) dst[c + k] = acc[k];
  }
}

void adam_step_f64_scalar(double* PET_KERN_RESTRICT p,
                          const double* PET_KERN_RESTRICT grad,
                          double* PET_KERN_RESTRICT m,
                          double* PET_KERN_RESTRICT v, std::size_t n,
                          const AdamCoeffs& c) {
  const double omb1 = 1.0 - c.beta1;
  const double omb2 = 1.0 - c.beta2;
  for (std::size_t i = 0; i < n; ++i) {
    detail::adam_lane(p[i], grad[i], m[i], v[i], c, omb1, omb2);
  }
}

void gemm_bias_f32_scalar(const float* PET_KERN_RESTRICT w,
                          const float* PET_KERN_RESTRICT b,
                          const float* PET_KERN_RESTRICT x,
                          float* PET_KERN_RESTRICT y, std::int32_t batch,
                          std::int32_t in, std::int32_t out) {
  // One std::fma chain per output in ascending-input order: the same IEEE
  // operation sequence as one fused-multiply-add lane of the AVX2 kernel,
  // so scalar and vector fp32 results are bitwise identical.
  constexpr std::int32_t kRowTile = 4;
  for (std::int32_t s = 0; s < batch; ++s) {
    const float* xs = &x[static_cast<std::size_t>(s) * in];
    float* ys = &y[static_cast<std::size_t>(s) * out];
    std::int32_t o = 0;
    for (; o + kRowTile <= out; o += kRowTile) {
      const float* r0 = &w[static_cast<std::size_t>(o) * in];
      const float* r1 = r0 + in;
      const float* r2 = r1 + in;
      const float* r3 = r2 + in;
      float a0 = b[o];
      float a1 = b[o + 1];
      float a2 = b[o + 2];
      float a3 = b[o + 3];
      for (std::int32_t i = 0; i < in; ++i) {
        const float xi = xs[i];
        a0 = std::fma(r0[i], xi, a0);
        a1 = std::fma(r1[i], xi, a1);
        a2 = std::fma(r2[i], xi, a2);
        a3 = std::fma(r3[i], xi, a3);
      }
      ys[o] = a0;
      ys[o + 1] = a1;
      ys[o + 2] = a2;
      ys[o + 3] = a3;
    }
    for (; o < out; ++o) {
      const float* row = &w[static_cast<std::size_t>(o) * in];
      float acc = b[o];
      for (std::int32_t i = 0; i < in; ++i) acc = std::fma(row[i], xs[i], acc);
      ys[o] = acc;
    }
  }
}

void gemm_s8i32_scalar(const std::int8_t* PET_KERN_RESTRICT w,
                       const std::int8_t* PET_KERN_RESTRICT x,
                       std::int32_t* PET_KERN_RESTRICT acc, std::int32_t batch,
                       std::int32_t in, std::int32_t out) {
  for (std::int32_t s = 0; s < batch; ++s) {
    const std::int8_t* xs = &x[static_cast<std::size_t>(s) * in];
    std::int32_t* as = &acc[static_cast<std::size_t>(s) * out];
    for (std::int32_t o = 0; o < out; ++o) {
      const std::int8_t* row = &w[static_cast<std::size_t>(o) * in];
      std::int32_t a = 0;
      for (std::int32_t i = 0; i < in; ++i) {
        a += static_cast<std::int32_t>(row[i]) *
             static_cast<std::int32_t>(xs[i]);
      }
      as[o] = a;
    }
  }
}

void quantize_rows_s8_scalar(const float* PET_KERN_RESTRICT x,
                             std::int8_t* PET_KERN_RESTRICT q,
                             float* PET_KERN_RESTRICT sx, std::int32_t batch,
                             std::int32_t in) {
  // max is exact and order-independent, and every lane runs the shared
  // quantize_lane_s8 sequence, so this matches the AVX2 plane bitwise.
  for (std::int32_t s = 0; s < batch; ++s) {
    const float* row = &x[static_cast<std::size_t>(s) * in];
    std::int8_t* qrow = &q[static_cast<std::size_t>(s) * in];
    float max_abs = 0.0f;
    for (std::int32_t i = 0; i < in; ++i) {
      const float a = std::fabs(row[i]);
      max_abs = a > max_abs ? a : max_abs;
    }
    if (max_abs == 0.0f) {
      sx[s] = 0.0f;
      for (std::int32_t i = 0; i < in; ++i) qrow[i] = 0;
      continue;
    }
    sx[s] = max_abs / 127.0f;
    const float inv = 127.0f / max_abs;
    for (std::int32_t i = 0; i < in; ++i) {
      qrow[i] = detail::quantize_lane_s8(row[i], inv);
    }
  }
}

}  // namespace

bool avx2_supported() { return detail::cpu_has_avx2(); }

Backend active_backend() {
  return use_avx2() ? Backend::kAvx2 : Backend::kScalar;
}

void set_backend(Backend backend) {
  if (backend == Backend::kAvx2 && !detail::cpu_has_avx2()) {
    backend = Backend::kScalar;
  }
  g_mode.store(backend == Backend::kAvx2 ? Mode::kForceAvx2
                                         : Mode::kForceScalar,
               std::memory_order_relaxed);
}

void reset_backend() { g_mode.store(Mode::kAuto, std::memory_order_relaxed); }

void gemm_bias_f64(const double* PET_KERN_RESTRICT w,
                   const double* PET_KERN_RESTRICT b,
                   const double* PET_KERN_RESTRICT x,
                   double* PET_KERN_RESTRICT y, std::int32_t batch,
                   std::int32_t in, std::int32_t out) {
  assert(batch >= 0 && in > 0 && out > 0);
  if (use_avx2() && out >= 4) {
    pack_row_tiles(w, in, out, 4, t_pack_f64);
    detail::gemm_bias_f64_avx2(w, b, x, y, batch, in, out, t_pack_f64.data());
    return;
  }
  gemm_bias_f64_scalar(w, b, x, y, batch, in, out);
}

void backward_f64(const double* PET_KERN_RESTRICT w,
                  const double* PET_KERN_RESTRICT x,
                  const double* PET_KERN_RESTRICT dy,
                  double* PET_KERN_RESTRICT gw, double* PET_KERN_RESTRICT gb,
                  double* PET_KERN_RESTRICT dx, std::int32_t batch,
                  std::int32_t in, std::int32_t out) {
  assert(batch >= 0 && in > 0 && out > 0);
  const auto stream =
      use_avx2() ? &detail::stream_columns_avx2 : &stream_columns_scalar;
  const auto in_sz = static_cast<std::size_t>(in);
  const auto out_sz = static_cast<std::size_t>(out);
  // dW/db: one output row at a time, samples streaming in ascending order.
  for (std::int32_t o = 0; o < out; ++o) {
    double bacc = gb[o];
    for (std::int32_t s = 0; s < batch; ++s) bacc += dy[s * out_sz + o];
    gb[o] = bacc;
    double* grow = gw + o * in_sz;
    stream(dy + o, out_sz, x, in_sz, batch, in, grow, grow);
  }
  if (dx == nullptr) return;
  // dX: one sample at a time, weight rows streaming in ascending order.
  for (std::int32_t s = 0; s < batch; ++s) {
    stream(dy + s * out_sz, 1, w, in_sz, out, in, nullptr, dx + s * in_sz);
  }
}

void adam_step_f64(double* PET_KERN_RESTRICT p,
                   const double* PET_KERN_RESTRICT grad,
                   double* PET_KERN_RESTRICT m, double* PET_KERN_RESTRICT v,
                   std::size_t n, const AdamCoeffs& c) {
  if (use_avx2()) {
    detail::adam_step_f64_avx2(p, grad, m, v, n, c);
    return;
  }
  adam_step_f64_scalar(p, grad, m, v, n, c);
}

void gemm_bias_f32(const float* PET_KERN_RESTRICT w,
                   const float* PET_KERN_RESTRICT b,
                   const float* PET_KERN_RESTRICT x,
                   float* PET_KERN_RESTRICT y, std::int32_t batch,
                   std::int32_t in, std::int32_t out) {
  assert(batch >= 0 && in > 0 && out > 0);
  if (use_avx2() && out >= 8) {
    pack_row_tiles(w, in, out, 8, t_pack_f32);
    detail::gemm_bias_f32_avx2(w, b, x, y, batch, in, out, t_pack_f32.data());
    return;
  }
  gemm_bias_f32_scalar(w, b, x, y, batch, in, out);
}

void gemm_s8i32(const std::int8_t* PET_KERN_RESTRICT w,
                const std::int8_t* PET_KERN_RESTRICT x,
                std::int32_t* PET_KERN_RESTRICT acc, std::int32_t batch,
                std::int32_t in, std::int32_t out) {
  assert(batch >= 0 && in > 0 && out > 0);
  if (use_avx2() && in >= 16) {
    detail::gemm_s8i32_avx2(w, x, acc, batch, in, out);
    return;
  }
  gemm_s8i32_scalar(w, x, acc, batch, in, out);
}

void quantize_rows_s8(const float* PET_KERN_RESTRICT x,
                      std::int8_t* PET_KERN_RESTRICT q,
                      float* PET_KERN_RESTRICT sx, std::int32_t batch,
                      std::int32_t in) {
  assert(batch >= 0 && in > 0);
  if (use_avx2() && in >= 16) {
    detail::quantize_rows_s8_avx2(x, q, sx, batch, in);
    return;
  }
  quantize_rows_s8_scalar(x, q, sx, batch, in);
}

void tanh_inplace_f64(double* v, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) v[i] = std::tanh(v[i]);
}

void tanh_inplace_f32(float* v, std::int64_t n) {
  if (use_avx2() && n >= 8) {
    detail::tanh_inplace_f32_avx2(v, n);
    return;
  }
  // Scalar path mirrors the AVX2 lane operation-for-operation (clamp via
  // max-then-min, the same fma ladder, one IEEE division).
  using namespace detail;
  for (std::int64_t i = 0; i < n; ++i) {
    float xc = v[i] < -kTanhClamp ? -kTanhClamp : v[i];
    xc = xc > kTanhClamp ? kTanhClamp : xc;
    const float x2 = xc * xc;
    float p = std::fma(x2, kTanhAlpha13, kTanhAlpha11);
    p = std::fma(x2, p, kTanhAlpha9);
    p = std::fma(x2, p, kTanhAlpha7);
    p = std::fma(x2, p, kTanhAlpha5);
    p = std::fma(x2, p, kTanhAlpha3);
    p = std::fma(x2, p, kTanhAlpha1);
    p = xc * p;
    float q = std::fma(x2, kTanhBeta6, kTanhBeta4);
    q = std::fma(x2, q, kTanhBeta2);
    q = std::fma(x2, q, kTanhBeta0);
    v[i] = p / q;
  }
}

}  // namespace pet::rl::kern
