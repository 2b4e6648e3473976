// AVX2 implementations of the rl::kern kernels, isolated in one TU behind
// function-level target attributes so the rest of the build keeps the
// portable baseline ISA. Dispatch (kernels.cpp) only calls into this TU
// after cpu_has_avx2() confirms AVX2+FMA at runtime.
//
// Bitwise contracts (see kernels.hpp):
//  - f64 (forward GEMM, backward column streams, Adam) uses target("avx2") WITHOUT
//    fma so the compiler cannot contract a mul+add pair; every lane
//    reproduces the scalar two-rounding chain.
//  - f32 uses one vfmadd chain per output lane; the scalar fallback runs
//    the same IEEE fma sequence, so results match bitwise.
//  - s8 accumulates exactly in int32 (order-independent).

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "rl/kernels.hpp"
#include "rl/kernels_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define PET_KERN_X86 1
#else
#define PET_KERN_X86 0
#endif

namespace pet::rl::kern::detail {

#if PET_KERN_X86

bool cpu_has_avx2() {
  // The fp32 kernels need FMA as well; on x86-64 the two arrived together
  // (Haswell), so gate the whole AVX2 backend on both.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") != 0;
}

__attribute__((target("avx2"))) void gemm_bias_f64_avx2(
    const double* w, const double* b, const double* x, double* y,
    std::int32_t batch, std::int32_t in, std::int32_t out,
    const double* pack) {
  // `pack` interleaves full 4-row tiles: element (row r, input i) of tile
  // base row o sits at pack[o*in + i*4 + r]. One load per input column per
  // tile; lane r is exactly the scalar ascending mul-then-add chain for
  // output o+r (this function is compiled without FMA contraction).
  const std::int32_t full = out - out % 4;
  const std::size_t tile = 4 * static_cast<std::size_t>(in);
  for (std::int32_t s = 0; s < batch; ++s) {
    const double* xs = &x[static_cast<std::size_t>(s) * in];
    double* ys = &y[static_cast<std::size_t>(s) * out];
    std::int32_t o = 0;
    // Two tiles per pass: independent accumulator chains hide add latency
    // without touching any chain's summation order.
    for (; o + 8 <= full; o += 8) {
      const double* p0 = pack + static_cast<std::size_t>(o) * in;
      const double* p1 = p0 + tile;
      __m256d acc0 = _mm256_loadu_pd(b + o);
      __m256d acc1 = _mm256_loadu_pd(b + o + 4);
      for (std::int32_t i = 0; i < in; ++i) {
        const __m256d xv = _mm256_broadcast_sd(xs + i);
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_loadu_pd(p0 + 4 * i), xv));
        acc1 = _mm256_add_pd(
            acc1, _mm256_mul_pd(_mm256_loadu_pd(p1 + 4 * i), xv));
      }
      _mm256_storeu_pd(ys + o, acc0);
      _mm256_storeu_pd(ys + o + 4, acc1);
    }
    for (; o + 4 <= full; o += 4) {
      const double* p0 = pack + static_cast<std::size_t>(o) * in;
      __m256d acc0 = _mm256_loadu_pd(b + o);
      for (std::int32_t i = 0; i < in; ++i) {
        const __m256d xv = _mm256_broadcast_sd(xs + i);
        acc0 = _mm256_add_pd(
            acc0, _mm256_mul_pd(_mm256_loadu_pd(p0 + 4 * i), xv));
      }
      _mm256_storeu_pd(ys + o, acc0);
    }
    for (; o < out; ++o) {
      const double* row = &w[static_cast<std::size_t>(o) * in];
      double acc = b[o];
      for (std::int32_t i = 0; i < in; ++i) acc += row[i] * xs[i];
      ys[o] = acc;
    }
  }
}

namespace {

/// V four-lane columns of stream_columns_avx2: acc[j] starts from init (or
/// +0.0) and adds g[t*gs] * v[t*vs + 4j + k] for t ascending, as a
/// separate multiply and add (this TU is compiled without FMA).
template <int V>
__attribute__((target("avx2"))) inline void stream_block(
    const double* g, std::size_t gs, const double* v, std::size_t vs,
    std::int32_t n, const double* init, double* dst) {
  __m256d acc[V];
  for (int j = 0; j < V; ++j) {
    acc[j] = init != nullptr ? _mm256_loadu_pd(init + 4 * j)
                             : _mm256_setzero_pd();
  }
  for (std::int32_t t = 0; t < n; ++t) {
    const __m256d gt = _mm256_broadcast_sd(g + t * gs);
    const double* vt = v + t * vs;
    for (int j = 0; j < V; ++j) {
      acc[j] = _mm256_add_pd(acc[j],
                             _mm256_mul_pd(gt, _mm256_loadu_pd(vt + 4 * j)));
    }
  }
  for (int j = 0; j < V; ++j) _mm256_storeu_pd(dst + 4 * j, acc[j]);
}

}  // namespace

__attribute__((target("avx2"))) void stream_columns_avx2(
    const double* g, std::size_t gs, const double* v, std::size_t vs,
    std::int32_t n, std::int32_t width, const double* init, double* dst) {
  // Columns sit in registers 16, then 4, then 1 at a time while the rows
  // stream past; lane c is the scalar chain of column c.
  std::int32_t c = 0;
  for (; c + 16 <= width; c += 16) {
    stream_block<4>(g, gs, v + c, vs, n, init != nullptr ? init + c : nullptr,
                    dst + c);
  }
  for (; c + 4 <= width; c += 4) {
    stream_block<1>(g, gs, v + c, vs, n, init != nullptr ? init + c : nullptr,
                    dst + c);
  }
  for (; c < width; ++c) {
    double acc = init != nullptr ? init[c] : 0.0;
    for (std::int32_t t = 0; t < n; ++t) acc += g[t * gs] * v[t * vs + c];
    dst[c] = acc;
  }
}

__attribute__((target("avx2"))) void adam_step_f64_avx2(
    double* p, const double* grad, double* m, double* v, std::size_t n,
    const AdamCoeffs& c) {
  // Lane k runs the scalar element sequence of kernels.hpp; vdivpd and
  // vsqrtpd are the correctly rounded IEEE operations, like divsd/sqrtsd.
  const double one_minus_b1 = 1.0 - c.beta1;
  const double one_minus_b2 = 1.0 - c.beta2;
  const __m256d scale = _mm256_set1_pd(c.scale);
  const __m256d b1 = _mm256_set1_pd(c.beta1);
  const __m256d b2 = _mm256_set1_pd(c.beta2);
  const __m256d omb1 = _mm256_set1_pd(one_minus_b1);
  const __m256d omb2 = _mm256_set1_pd(one_minus_b2);
  const __m256d bc1 = _mm256_set1_pd(c.bc1);
  const __m256d bc2 = _mm256_set1_pd(c.bc2);
  const __m256d lr = _mm256_set1_pd(c.lr);
  const __m256d eps = _mm256_set1_pd(c.eps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_mul_pd(_mm256_loadu_pd(grad + i), scale);
    const __m256d mv = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(omb1, g));
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(omb2, g), g));
    _mm256_storeu_pd(m + i, mv);
    _mm256_storeu_pd(v + i, vv);
    const __m256d mhat = _mm256_div_pd(mv, bc1);
    const __m256d vhat = _mm256_div_pd(vv, bc2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(p + i, _mm256_sub_pd(_mm256_loadu_pd(p + i), step));
  }
  for (; i < n; ++i) {
    adam_lane(p[i], grad[i], m[i], v[i], c, one_minus_b1, one_minus_b2);
  }
}

__attribute__((target("avx2,fma"))) void gemm_bias_f32_avx2(
    const float* w, const float* b, const float* x, float* y,
    std::int32_t batch, std::int32_t in, std::int32_t out, const float* pack) {
  // 8-row tiles: pack[o*in + i*8 + r] holds (row o+r, input i). Each lane
  // is one fused-multiply-add chain in ascending-input order; the scalar
  // remainder rows run the identical std::fma sequence.
  const std::int32_t full = out - out % 8;
  const std::size_t tile = 8 * static_cast<std::size_t>(in);
  for (std::int32_t s = 0; s < batch; ++s) {
    const float* xs = &x[static_cast<std::size_t>(s) * in];
    float* ys = &y[static_cast<std::size_t>(s) * out];
    std::int32_t o = 0;
    for (; o + 16 <= full; o += 16) {
      const float* p0 = pack + static_cast<std::size_t>(o) * in;
      const float* p1 = p0 + tile;
      __m256 acc0 = _mm256_loadu_ps(b + o);
      __m256 acc1 = _mm256_loadu_ps(b + o + 8);
      for (std::int32_t i = 0; i < in; ++i) {
        const __m256 xv = _mm256_broadcast_ss(xs + i);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(p0 + 8 * i), xv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(p1 + 8 * i), xv, acc1);
      }
      _mm256_storeu_ps(ys + o, acc0);
      _mm256_storeu_ps(ys + o + 8, acc1);
    }
    for (; o + 8 <= full; o += 8) {
      const float* p0 = pack + static_cast<std::size_t>(o) * in;
      __m256 acc0 = _mm256_loadu_ps(b + o);
      for (std::int32_t i = 0; i < in; ++i) {
        const __m256 xv = _mm256_broadcast_ss(xs + i);
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(p0 + 8 * i), xv, acc0);
      }
      _mm256_storeu_ps(ys + o, acc0);
    }
    for (; o < out; ++o) {
      const float* row = &w[static_cast<std::size_t>(o) * in];
      float acc = b[o];
      for (std::int32_t i = 0; i < in; ++i) acc = std::fma(row[i], xs[i], acc);
      ys[o] = acc;
    }
  }
}

namespace {

__attribute__((target("avx2"))) inline std::int32_t hsum_epi32(__m256i v) {
  __m128i s =
      _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

}  // namespace

namespace {

/// Sign-extend 16 int8 lanes to int16 from `p`.
__attribute__((target("avx2"))) inline __m256i load_s8x16_epi16(
    const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

}  // namespace

__attribute__((target("avx2"))) void gemm_s8i32_avx2(
    const std::int8_t* w, const std::int8_t* x, std::int32_t* acc,
    std::int32_t batch, std::int32_t in, std::int32_t out) {
  // Horizontal dot products over the contiguous int8 weight rows:
  // sign-extend 16 int8 lanes to int16, _mm256_madd_epi16 pairs them into
  // int32 partials. Four output rows share each load of the input vector,
  // and their partial sums reduce together through one hadd tree instead of
  // four scalar horizontal sums. Integer addition is exact, so any
  // summation order gives the same accumulator as the scalar loop.
  for (std::int32_t s = 0; s < batch; ++s) {
    const std::int8_t* xs = &x[static_cast<std::size_t>(s) * in];
    std::int32_t* as = &acc[static_cast<std::size_t>(s) * out];
    std::int32_t o = 0;
    for (; o + 4 <= out; o += 4) {
      const std::int8_t* r0 = &w[static_cast<std::size_t>(o) * in];
      const std::int8_t* r1 = r0 + in;
      const std::int8_t* r2 = r1 + in;
      const std::int8_t* r3 = r2 + in;
      __m256i v0 = _mm256_setzero_si256();
      __m256i v1 = _mm256_setzero_si256();
      __m256i v2 = _mm256_setzero_si256();
      __m256i v3 = _mm256_setzero_si256();
      std::int32_t i = 0;
      for (; i + 16 <= in; i += 16) {
        const __m256i xv = load_s8x16_epi16(xs + i);
        v0 = _mm256_add_epi32(
            v0, _mm256_madd_epi16(load_s8x16_epi16(r0 + i), xv));
        v1 = _mm256_add_epi32(
            v1, _mm256_madd_epi16(load_s8x16_epi16(r1 + i), xv));
        v2 = _mm256_add_epi32(
            v2, _mm256_madd_epi16(load_s8x16_epi16(r2 + i), xv));
        v3 = _mm256_add_epi32(
            v3, _mm256_madd_epi16(load_s8x16_epi16(r3 + i), xv));
      }
      // hadd tree: lane k of `quad` ends up holding the full sum of v_k.
      const __m256i t01 = _mm256_hadd_epi32(v0, v1);
      const __m256i t23 = _mm256_hadd_epi32(v2, v3);
      const __m256i t = _mm256_hadd_epi32(t01, t23);
      __m128i quad = _mm_add_epi32(_mm256_castsi256_si128(t),
                                   _mm256_extracti128_si256(t, 1));
      if (i < in) {
        std::int32_t e0 = 0;
        std::int32_t e1 = 0;
        std::int32_t e2 = 0;
        std::int32_t e3 = 0;
        for (; i < in; ++i) {
          const auto xi = static_cast<std::int32_t>(xs[i]);
          e0 += static_cast<std::int32_t>(r0[i]) * xi;
          e1 += static_cast<std::int32_t>(r1[i]) * xi;
          e2 += static_cast<std::int32_t>(r2[i]) * xi;
          e3 += static_cast<std::int32_t>(r3[i]) * xi;
        }
        quad = _mm_add_epi32(quad, _mm_setr_epi32(e0, e1, e2, e3));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(as + o), quad);
    }
    for (; o < out; ++o) {
      const std::int8_t* row = &w[static_cast<std::size_t>(o) * in];
      __m256i vacc = _mm256_setzero_si256();
      std::int32_t i = 0;
      for (; i + 16 <= in; i += 16) {
        vacc = _mm256_add_epi32(
            vacc, _mm256_madd_epi16(load_s8x16_epi16(row + i),
                                    load_s8x16_epi16(xs + i)));
      }
      std::int32_t a = hsum_epi32(vacc);
      for (; i < in; ++i) {
        a += static_cast<std::int32_t>(row[i]) *
             static_cast<std::int32_t>(xs[i]);
      }
      as[o] = a;
    }
  }
}

__attribute__((target("avx2"))) void quantize_rows_s8_avx2(
    const float* x, std::int8_t* q, float* sx, std::int32_t batch,
    std::int32_t in) {
  // Compiled without FMA so the mul + magic add/sub pair below cannot be
  // contracted: every lane reproduces quantize_lane_s8 exactly.
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 magic = _mm256_set1_ps(kQuantMagic);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  for (std::int32_t s = 0; s < batch; ++s) {
    const float* row = &x[static_cast<std::size_t>(s) * in];
    std::int8_t* qrow = &q[static_cast<std::size_t>(s) * in];
    __m256 vmax = _mm256_setzero_ps();
    std::int32_t i = 0;
    for (; i + 8 <= in; i += 8) {
      vmax = _mm256_max_ps(vmax,
                           _mm256_and_ps(_mm256_loadu_ps(row + i), abs_mask));
    }
    __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vmax),
                           _mm256_extractf128_ps(vmax, 1));
    m4 = _mm_max_ps(m4, _mm_shuffle_ps(m4, m4, _MM_SHUFFLE(1, 0, 3, 2)));
    m4 = _mm_max_ps(m4, _mm_shuffle_ps(m4, m4, _MM_SHUFFLE(2, 3, 0, 1)));
    float max_abs = _mm_cvtss_f32(m4);
    for (; i < in; ++i) {
      const float a = std::fabs(row[i]);
      max_abs = a > max_abs ? a : max_abs;
    }
    if (max_abs == 0.0f) {
      sx[s] = 0.0f;
      for (i = 0; i < in; ++i) qrow[i] = 0;
      continue;
    }
    sx[s] = max_abs / 127.0f;
    const float inv = 127.0f / max_abs;
    const __m256 vinv = _mm256_set1_ps(inv);
    for (i = 0; i + 16 <= in; i += 16) {
      __m256 a = _mm256_mul_ps(_mm256_loadu_ps(row + i), vinv);
      __m256 b = _mm256_mul_ps(_mm256_loadu_ps(row + i + 8), vinv);
      a = _mm256_sub_ps(_mm256_add_ps(a, magic), magic);
      b = _mm256_sub_ps(_mm256_add_ps(b, magic), magic);
      a = _mm256_min_ps(_mm256_max_ps(a, lo), hi);
      b = _mm256_min_ps(_mm256_max_ps(b, lo), hi);
      // Values are integral in [-127, 127]: the i32 conversion is exact and
      // the saturating packs cannot saturate.
      const __m256i ai = _mm256_cvtps_epi32(a);
      const __m256i bi = _mm256_cvtps_epi32(b);
      __m256i p16 = _mm256_packs_epi32(ai, bi);
      p16 = _mm256_permute4x64_epi64(p16, _MM_SHUFFLE(3, 1, 2, 0));
      const __m128i p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16),
                                         _mm256_extracti128_si256(p16, 1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(qrow + i), p8);
    }
    for (; i < in; ++i) qrow[i] = quantize_lane_s8(row[i], inv);
  }
}

__attribute__((target("avx2,fma"))) void tanh_inplace_f32_avx2(
    float* v, std::int64_t n) {
  const __m256 clamp_hi = _mm256_set1_ps(kTanhClamp);
  const __m256 clamp_lo = _mm256_set1_ps(-kTanhClamp);
  const __m256 a13 = _mm256_set1_ps(kTanhAlpha13);
  const __m256 a11 = _mm256_set1_ps(kTanhAlpha11);
  const __m256 a9 = _mm256_set1_ps(kTanhAlpha9);
  const __m256 a7 = _mm256_set1_ps(kTanhAlpha7);
  const __m256 a5 = _mm256_set1_ps(kTanhAlpha5);
  const __m256 a3 = _mm256_set1_ps(kTanhAlpha3);
  const __m256 a1 = _mm256_set1_ps(kTanhAlpha1);
  const __m256 b6 = _mm256_set1_ps(kTanhBeta6);
  const __m256 b4 = _mm256_set1_ps(kTanhBeta4);
  const __m256 b2 = _mm256_set1_ps(kTanhBeta2);
  const __m256 b0 = _mm256_set1_ps(kTanhBeta0);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 x = _mm256_loadu_ps(v + i);
    x = _mm256_max_ps(x, clamp_lo);
    x = _mm256_min_ps(x, clamp_hi);
    const __m256 x2 = _mm256_mul_ps(x, x);
    __m256 p = _mm256_fmadd_ps(x2, a13, a11);
    p = _mm256_fmadd_ps(x2, p, a9);
    p = _mm256_fmadd_ps(x2, p, a7);
    p = _mm256_fmadd_ps(x2, p, a5);
    p = _mm256_fmadd_ps(x2, p, a3);
    p = _mm256_fmadd_ps(x2, p, a1);
    p = _mm256_mul_ps(x, p);
    __m256 q = _mm256_fmadd_ps(x2, b6, b4);
    q = _mm256_fmadd_ps(x2, q, b2);
    q = _mm256_fmadd_ps(x2, q, b0);
    _mm256_storeu_ps(v + i, _mm256_div_ps(p, q));
  }
  // Scalar tail: the identical operation sequence (std::fma is one vfmadd
  // lane), so vector vs scalar coverage of an element is indistinguishable.
  for (; i < n; ++i) {
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

#else  // !PET_KERN_X86

bool cpu_has_avx2() { return false; }

// Unreachable off x86 — dispatch never selects the AVX2 backend when
// cpu_has_avx2() is false.
void gemm_bias_f64_avx2(const double*, const double*, const double*, double*,
                        std::int32_t, std::int32_t, std::int32_t,
                        const double*) {}
void stream_columns_avx2(const double*, std::size_t, const double*,
                         std::size_t, std::int32_t, std::int32_t,
                         const double*, double*) {}
void adam_step_f64_avx2(double*, const double*, double*, double*, std::size_t,
                        const AdamCoeffs&) {}
void gemm_bias_f32_avx2(const float*, const float*, const float*, float*,
                        std::int32_t, std::int32_t, std::int32_t,
                        const float*) {}
void gemm_s8i32_avx2(const std::int8_t*, const std::int8_t*, std::int32_t*,
                     std::int32_t, std::int32_t, std::int32_t) {}
void quantize_rows_s8_avx2(const float*, std::int8_t*, float*, std::int32_t,
                           std::int32_t) {}
void tanh_inplace_f32_avx2(float*, std::int64_t) {}

#endif  // PET_KERN_X86

}  // namespace pet::rl::kern::detail
